"""Exact periodic steady state and small-signal analysis of the cycle map.

The converter alternates between an on stage of fixed length ``d`` and an
off stage that ends when the feedback signal meets the compensating ramp.
Cycle-to-cycle, the state obeys an exact map built from matrix
exponentials; a periodic orbit is a fixed point of that map.  This module
computes the orbit, the Jacobian of the map around it (whose eigenvalues
are the sampled-data poles), and the periods whose steady cycle meets a
given ramp.  No averaging is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSwitchingError, DomainError, SingularMatrixError
from .linalg import eigenvalues, expm, expm_integral, find_root, solve_linear
from .models import ConverterModel, RampSpec

__all__ = [
    "CycleOps",
    "SteadyState",
    "LinearizedMap",
    "steady_state_at",
    "consistent_vc",
    "consistent_steady_state",
    "period_residual",
    "solve_period",
    "linearize",
    "poles",
    "orbit_sample",
]

PERIOD_GRID = 2000  # points of solve_period's residual scan


@dataclass(frozen=True)
class CycleOps:
    """Stage operators of one cycle (d, T) of a model.

    ``p1 = exp(A d)`` and ``p2 = exp(A (T - d))`` carry the state across
    the on and off stages, and ``j1b1`` is the driven integral
    ``int exp(A s) ds B`` over the on stage (the off stage is undriven).
    One instance per (model, d, T) serves the steady state, its
    linearization and the pole placement function, which read it instead
    of recomputing the exponentials.
    """

    d: float
    T: float
    p1: np.ndarray
    p2: np.ndarray
    j1b1: np.ndarray


def _cycle_ops(m: ConverterModel, d: float, T: float) -> CycleOps:
    """Stage operators of the cycle (d, T): two stacked exponentials."""
    if not 0.0 < d < T:
        raise DomainError(f"need 0 < d < T, got d={d!r}, T={T!r}")
    p1, p2 = expm(m.A, (d, T - d))
    return CycleOps(d=float(d), T=float(T), p1=p1, p2=p2,
                    j1b1=expm_integral(m.A, m.B, d))


@dataclass(frozen=True)
class SteadyState:
    """Periodic orbit of the cycle map, sampled at the stage boundaries.

    ``x0_0`` is the state at the cycle start, ``x0_d`` the state at the end
    of the on stage, ``xdot0_minus`` the state velocity just before the
    cycle boundary (off-stage dynamics evaluated at the fixed point).
    ``y_end`` is the feedback signal at the cycle boundary; at a consistent
    operating point it equals the ramp amplitude ``ma * T``.  ``ops`` holds
    the stage operators the orbit was solved with.
    """

    x0_0: np.ndarray
    x0_d: np.ndarray
    xdot0_minus: np.ndarray
    T: float
    d: float
    u: np.ndarray
    y_end: float
    ops: CycleOps = field(repr=False)

    @property
    def D(self):
        return self.d / self.T


def _cycle_start(p1, p2, j1b1, u):
    """Start state of the periodic orbit: ``(I - p2 p1) x0 = p2 j1b1 u``.

    ``p2`` may be a stack of off-stage operators, one orbit per slice;
    each slice is solved exactly as it would be alone.
    """
    lhs = np.eye(p1.shape[-1]) - p2 @ p1
    rhs = p2 @ (j1b1 @ u)
    try:
        return solve_linear(lhs, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "periodicity matrix I - exp(A (T-d)) exp(A d) is singular. "
            + str(exc),
            condition=exc.condition,
        ) from exc


def _orbit(m: ConverterModel, ops: CycleOps, u, x0) -> SteadyState:
    """The fixed point of the cycle map of ``ops`` at ``u``, starting at x0."""
    xd = ops.p1 @ x0 + ops.j1b1 @ u
    v = m.A @ x0
    y_end = float(m.Cvec @ x0 + m.Dvec @ u)
    return SteadyState(x0_0=x0, x0_d=xd, xdot0_minus=v, T=ops.T, d=ops.d,
                       u=u, y_end=y_end, ops=ops)


def steady_state_at(m: ConverterModel, d: float, T: float, u) -> SteadyState:
    """Exact fixed point of the cycle map for a cycle (d, T).

    Solves the two-point periodicity condition for the state at the cycle
    start.  The on-time and the period are both prescribed here; whether
    the pair is consistent with a given ramp is a separate question
    (see :func:`solve_period` and :func:`consistent_vc`).
    """
    ops = _cycle_ops(m, d, T)
    u = np.asarray(u, dtype=float)
    return _orbit(m, ops, u, _cycle_start(ops.p1, ops.p2, ops.j1b1, u))


def consistent_vc(m: ConverterModel, ramp: RampSpec, T: float, vs: float) -> float:
    """Control reference that makes (d, T) a steady cycle under the ramp.

    At a consistent operating point the feedback signal meets the ramp at
    the cycle boundary.  It is ``u[1]`` of :func:`consistent_steady_state`.
    """
    return float(consistent_steady_state(m, ramp, T, vs).u[1])


def consistent_steady_state(m: ConverterModel, ramp: RampSpec, T: float,
                            vs: float) -> SteadyState:
    """Periodic orbit at the consistent operating point.

    ``u[1]`` is the control reference that closes the cycle (``ramp.d``,
    ``T``) on the ramp: ``y_end`` equals ``ramp.ma * T``.  ``vc`` drives no
    state, so one periodicity solve at ``vc = 0`` gives the start state;
    the switching residual, affine in ``vc``, is read off it at ``vc = 0``
    and ``vc = 1``.
    """
    ops = _cycle_ops(m, ramp.d, T)
    x0 = _cycle_start(ops.p1, ops.p2, ops.j1b1, np.array([vs, 0.0]))
    r0, r1 = (float(m.Cvec @ x0 + m.Dvec @ np.array([vs, vc]))
              - ramp.ma * ops.T for vc in (0.0, 1.0))
    slope = r1 - r0
    if abs(slope) < 1e-14 * (abs(r0) + abs(r1) + 1e-300):
        raise DegenerateSwitchingError(
            "switching residual does not depend on the control reference")
    return _orbit(m, ops, np.array([vs, -r0 / slope]), x0)


def period_residual(m: ConverterModel, ramp: RampSpec, u, T):
    """Feedback-minus-ramp mismatch at the cycle boundary for period T.

    ``T`` may be an array, as for the exact boundaries: the off-stage
    exponentials and the periodicity solves are then one stacked call
    each, and each point is the float its scalar call gives, bit for bit.
    """
    ts = np.asarray(T, dtype=float)
    if not np.all(ramp.d < ts):
        raise DomainError(f"need 0 < d < T, got d={ramp.d!r}, T={T!r}")
    u = np.asarray(u, dtype=float)
    x0 = _cycle_start(expm(m.A, ramp.d), expm(m.A, ts - ramp.d),
                      expm_integral(m.A, m.B, ramp.d), u)
    # a stacked product, so that each point is its own Cvec @ x0
    y_end = (m.Cvec @ x0[..., None])[..., 0] + m.Dvec @ u
    res = y_end - ramp.ma * ts
    return float(res) if res.ndim == 0 else res


def solve_period(m: ConverterModel, ramp: RampSpec, u, T_lo: float,
                 T_hi: float):
    """All periods in [T_lo, T_hi] whose steady cycle meets the ramp.

    Scans the boundary residual on a uniform grid of ``PERIOD_GRID``
    points, in one stacked evaluation, and polishes each sign change with
    the bracketing root finder.  Near-tangent double roots are also
    reported when the residual dips to zero without changing sign.
    Multiple roots indicate proximity to a saddle-node point.  Returns a
    list of (T, SteadyState) pairs in ascending T; empty when no cycle
    closes in the bracket.
    """
    if not ramp.d < T_lo < T_hi:
        raise DomainError(
            f"bracket must satisfy d < T_lo < T_hi, got d={ramp.d!r}, "
            f"T_lo={T_lo!r}, T_hi={T_hi!r}")
    ts = np.linspace(T_lo, T_hi, PERIOD_GRID)
    res = period_residual(m, ramp, u, ts)
    scale = float(np.max(np.abs(res))) or 1.0
    roots = []
    for i in range(len(ts) - 1):
        a, b = res[i], res[i + 1]
        if a == 0.0:
            roots.append(ts[i])
        elif a * b < 0.0:
            roots.append(find_root(
                lambda t: period_residual(m, ramp, u, t), ts[i], ts[i + 1]))
    if res[-1] == 0.0:
        roots.append(ts[-1])
    # tangency catch: an interior |residual| minimum that touches zero at
    # grid resolution counts as an even-multiplicity root
    for i in range(1, len(ts) - 1):
        if (abs(res[i]) <= 1e-7 * scale and res[i] != 0.0
                and abs(res[i - 1]) >= abs(res[i]) <= abs(res[i + 1])
                and res[i - 1] * res[i] > 0.0 and res[i] * res[i + 1] > 0.0):
            roots.append(ts[i])
    roots.sort()
    out = []
    min_sep = 1e-9 * (T_hi - T_lo)
    for r in roots:
        if out and abs(r - out[-1][0]) <= min_sep:
            continue
        out.append((float(r), steady_state_at(m, ramp.d, r, u)))
    return out


@dataclass(frozen=True)
class LinearizedMap:
    """Small-signal cycle-to-cycle dynamics around a periodic orbit.

    ``Phi`` maps a state perturbation across one cycle; its eigenvalues
    are the sampled-data poles.
    """

    Phi: np.ndarray

    def poles(self):
        """Eigenvalues of Phi, sorted by real part then imaginary part."""
        eigs = eigenvalues(self.Phi)
        order = np.lexsort((eigs.imag, eigs.real))
        return eigs[order]


def linearize(m: ConverterModel, ss: SteadyState, ma: float) -> LinearizedMap:
    """Jacobian of the cycle map at the orbit.

    Differentiates the constrained map (state propagation plus the
    ramp-crossing condition that sets each period) at the fixed point.
    Requires the crossing to be transversal: the feedback slope at the
    cycle boundary must differ from the ramp slope.
    """
    v = ss.xdot0_minus
    cv = float(m.Cvec @ v)
    denom = cv - ma
    if abs(denom) <= 1e-12 * (abs(cv) + abs(ma) + 1e-300):
        raise DegenerateSwitchingError(
            "ramp slope equals the feedback slope at the switching instant; "
            "the switching instant is not locally well defined")
    proj = np.eye(m.n) - np.outer(v, m.Cvec) / denom
    return LinearizedMap(Phi=proj @ (ss.ops.p2 @ ss.ops.p1))


def poles(m: ConverterModel, ramp: RampSpec, u, T: float):
    """Sampled-data poles at the operating point (ramp.d, T)."""
    ss = steady_state_at(m, ramp.d, T, u)
    return linearize(m, ss, ramp.ma).poles()


def orbit_sample(m: ConverterModel, ss: SteadyState, t: float):
    """State and feedback signal on the periodic orbit at time t in [0, T].

    Propagates from the nearest stage boundary with exact exponentials.
    Intended for trajectory inspection and cross-checks, one instant per
    call.
    """
    if not 0.0 <= t <= ss.T:
        raise DomainError(f"t must lie in [0, T], got {t!r}")
    if t <= ss.d:
        x = expm(m.A, t) @ ss.x0_0 + expm_integral(m.A, m.B @ ss.u, t)
    else:
        x = expm(m.A, t - ss.d) @ ss.x0_d
    y = float(m.Cvec @ x + m.Dvec @ ss.u)
    return x, y
