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
from functools import cached_property, partial

import numpy as np

from .errors import DegenerateSwitchingError, DomainError, SingularMatrixError
from .linalg import (_EPS, _golden_max, _grid_roots, eigenvalues, expm,
                     expm_integral, find_root, solve_linear)
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


class CycleOps:
    """Stage operators of the cycle (d, T) of a model, the one place that
    forms them: ``p1 = exp(A d)``, ``p2 = exp(A (T - d))``, ``W = exp(A T)``
    and the on stage's drive ``j1b1 = int_0^d exp(A s) ds B``, each on first
    read and equal to the one-matrix call bit for bit.  ``d`` and ``T`` are
    floats, or arrays that broadcast (a grid): a float cycle forms ``p1``,
    ``p2`` and ``W`` as one read-only stack, a grid ``p2`` and ``W``.
    """

    def __init__(self, m: ConverterModel, d, T):
        self.m, self.d, self.T = m, d, T
        self._grid = isinstance(d, np.ndarray) or isinstance(T, np.ndarray)

    @cached_property
    def _stack(self):
        d, T = self.d, self.T
        out = expm(self.m.A, np.stack(np.broadcast_arrays(T - d, T))
                   if self._grid else (d, T - d, T))
        out.setflags(write=False)
        return out

    @cached_property
    def p1(self):
        return expm(self.m.A, self.d) if self._grid else self._stack[0]

    p2 = property(lambda self: self._stack[-2])
    W = property(lambda self: self._stack[-1])

    @cached_property
    def j1b1(self):
        out = expm_integral(self.m.A, self.m.B, self.d)
        out.setflags(write=False)
        return out


def _cycle(m: ConverterModel, d, T, closed: bool = False) -> CycleOps:
    """The model's stage operators of the float cycle (d, T): a model keeps
    its last, so an operating point forms each exponential once.
    ``closed`` admits the boundaries' ``d = T``; they check it."""
    if not (closed or 0.0 < d < T):
        raise DomainError(f"need 0 < d < T, got d={d!r}, T={T!r}")
    d, T = float(d), float(T)
    if (ops := m._cycle) is None or (ops.d, ops.T) != (d, T):
        ops = CycleOps(m, d, T)
        object.__setattr__(m, "_cycle", ops)
    return ops


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


def _cycle_start(ops: CycleOps, u):
    """Start state of the periodic orbit: ``(I - p2 p1) x0 = p2 j1b1 u``.

    ``p2`` may be a stack of off-stage operators, one orbit per slice;
    each slice is solved exactly as it would be alone.
    """
    lhs = np.eye(ops.m.n) - ops.p2 @ ops.p1
    rhs = ops.p2 @ (ops.j1b1 @ u)
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
    ops = _cycle(m, d, T)
    u = np.asarray(u, dtype=float)
    return _orbit(m, ops, u, _cycle_start(ops, u))


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
    ops = _cycle(m, ramp.d, T)
    x0 = _cycle_start(ops, np.array([vs, 0.0]))
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
    x0 = _cycle_start(CycleOps(m, ramp.d, ts if ts.ndim else float(ts)), u)
    # a stacked product, so that each point is its own Cvec @ x0
    y_end = (m.Cvec @ x0[..., None])[..., 0] + m.Dvec @ u
    res = y_end - ramp.ma * ts
    return float(res) if res.ndim == 0 else res


def _rounding_bound(m: ConverterModel, ramp: RampSpec, u, T: float) -> float:
    """Bound on the rounding error of :func:`period_residual` at T.

    The stage operators and the drive are exact to eps of their size; the
    periodicity solve carries that to the start state through the
    magnitudes of ``(I - p2 p1)^-1``, and the feedback row on to the
    residual, whose sum adds eps of its own terms.
    """
    ss = steady_state_at(m, ramp.d, T, u)
    p = ss.ops.p2 @ ss.ops.p1
    lhs = np.eye(m.n) - p
    x0_error = np.abs(np.linalg.inv(lhs)) @ (
        (np.abs(p) + np.abs(lhs)) @ np.abs(ss.x0_0))
    return 4.0 * _EPS * float(np.abs(m.Cvec) @ x0_error
                              + np.abs(m.Dvec) @ np.abs(u) + abs(ramp.ma * T))


def solve_period(m: ConverterModel, ramp: RampSpec, u, T_lo: float,
                 T_hi: float):
    """All periods in [T_lo, T_hi] whose steady cycle meets the ramp.

    Scans the boundary residual on a uniform grid of ``PERIOD_GRID``
    points, in one stacked evaluation, and polishes every cell whose end
    values straddle or touch zero with the bracketing root finder.  An
    interior minimum of |residual| with no sign change in its two cells
    is refined by golden sections: where the refined residual changes
    sign, the periods on either side of it are polished; where it lies
    within its own rounding bound, the minimum is a double period, the
    tangency of a saddle-node.  Several periods thus indicate proximity to
    a saddle-node point.  Periods closer than 1e-9 of the bracket are
    merged.  Returns a list of (T, SteadyState) pairs in ascending T;
    empty when no cycle closes in the bracket.
    """
    if not ramp.d < T_lo < T_hi:
        raise DomainError(
            f"bracket must satisfy d < T_lo < T_hi, got d={ramp.d!r}, "
            f"T_lo={T_lo!r}, T_hi={T_hi!r}")
    residual = partial(period_residual, m, ramp, u)
    ts = np.linspace(T_lo, T_hi, PERIOD_GRID)
    res = residual(ts)
    roots = list(_grid_roots(residual, ts, res))
    for i in range(1, len(ts) - 1):
        a, b, c = res[i - 1:i + 2]
        if not (a * b > 0.0 and b * c > 0.0 and abs(a) >= abs(b) <= abs(c)):
            continue
        side = 1.0 if b > 0.0 else -1.0
        t = _golden_max(lambda x: -side * residual(x), ts[i - 1], ts[i + 1],
                        1e-12)
        r = residual(t)
        if abs(r) <= _rounding_bound(m, ramp, u, t):
            roots.append(t)
        elif r * side < 0.0:
            roots += [find_root(residual, ts[i - 1], t),
                      find_root(residual, t, ts[i + 1])]
    out = []
    for r in sorted(roots):
        if not out or r - out[-1][0] > 1e-9 * (T_hi - T_lo):
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
