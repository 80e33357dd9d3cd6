"""Cycle-by-cycle time-domain simulation of the switched converter.

This is the oracle side of the package: it never touches the linearized
map or the boundary formulas.  Each cycle applies the on-stage for the
fixed on-time, then switches at the first instant the feedback signal
meets the restarting ramp, found by a table search that each cycle
proves and a safeguarded Newton on the off stage's closed form
(``_CycleEngine``).  A trace is bit-identical to a loop form of the same
formulas, and since each cycle depends only on its start state, a run
continued from its last state is bit-identical to one longer run.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, DomainError, MissedSwitchingError,
                     NumericError, UsageError)
from .linalg import _closed_form
from .models import BuckParams, ConverterModel, RampSpec, Scheme, build_model
from .sampled import (SteadyState, _cycle, consistent_steady_state,
                      steady_state_at)

__all__ = [
    "Trace",
    "simulate",
    "classify_orbit",
    "estimate_multiplier",
    "onset_search",
    "make_ramp_family",
    "make_duty_family",
    "nominal_probe_state",
]

SCAN_DIVISIONS = 1000       # crossing scan resolution per guess period
HORIZON_PERIODS = 10        # give up after this many guess periods
REFINE_REL_TOL = 1e-12      # switching instant tolerance, relative to guess
NEWTON_STEPS = 8            # Newton steps before the refiner only bisects
KICK = 1e-5                 # relative output-voltage kick of a probe start

_EPS = float(np.finfo(float).eps)
_NO_CROSSING = f"no ramp crossing within {HORIZON_PERIODS} guess periods"

PERIOD1 = "PERIOD1"
PERIOD2 = "PERIOD2"
OTHER = "OTHER"

_Lengths = namedtuple("_Lengths", "Tn saturated")    # a probe's rungs so far


@dataclass(frozen=True)
class Trace:
    """Cycle-indexed record of a simulation run."""

    Tn: np.ndarray          # cycle lengths
    x_end: np.ndarray       # state at each switching instant, (ncycles, n)
    y_switch: np.ndarray    # feedback value at each switching instant
    saturated: np.ndarray   # cycles that never rose above the ramp
    x0: np.ndarray
    u: np.ndarray

    @property
    def ncycles(self) -> int:
        return len(self.Tn)


class _CycleEngine:
    """Per-run precomputation for the stage maps and the crossing scan.

    With ``a = tr(A) / 2``, ``q = -det(A - a I)`` and ``N = A - a I`` per
    unit time, the off stage is ``e^(a tau) (c I + s N)``.  A cycle takes
    its start state through the on stage to ``x_d``; with
    ``P = Cvec x_d`` and ``Q = Cvec N x_d`` the switching residual is
    ``phi = e^(a tau) (P c + Q s) + du - ma (d + tau)``, and the state after
    switching is ``e^(a tau) (c x_d + s N x_d)``.  The scan table holds
    ``t0 = e^(a tau) c``, ``t1 = e^(a tau) s`` and ``t3 = -ma (d + tau)``
    per grid point, and every row is evaluated elementwise as
    ``((t0 P + t1 Q) + du) + t3``, in numpy and in Python floats alike, so
    both round each row to the same bits.  An engine carries two row
    numbers between cycles, the crossing rows of its last two scans; the
    search starts at the older, as near the period-doubling boundary the
    multiplier is close to -1, and neither sets what a scan finds.
    """

    def __init__(self, m: ConverterModel, ramp: RampSpec, u, T_guess: float):
        if not math.isfinite(T_guess):
            raise DomainError(f"T_guess must be finite, got {T_guess!r}")
        if T_guess <= ramp.d:
            raise DomainError(
                f"guess period {T_guess!r} must exceed the on-time {ramp.d!r}")
        self.m = m
        self.ramp = ramp
        self.u = np.asarray(u, dtype=float)
        if not np.isfinite(self.u).all():
            raise DomainError(f"u must be finite, got {self.u.tolist()!r}")
        self.T_guess = float(T_guess)
        ops = _cycle(m, ramp.d, self.T_guess)
        self.p1, self.j1u = ops.p1, ops.j1b1 @ self.u
        self.du = float(m.Dvec @ self.u)
        self.step = self.T_guess / SCAN_DIVISIONS
        self.kmax = int(np.ceil(HORIZON_PERIODS * self.T_guess / self.step))
        self.hint = SCAN_DIVISIONS      # crossing row of the last scan
        self.back = SCAN_DIVISIONS      # and of the scan before it
        (a00, a01), (a10, a11) = m.A.tolist()
        self.a = 0.5 * (a00 + a11)
        h = 0.5 * (a00 - a11)
        self.q = h * h + a01 * a10
        self.n = ((h, a01), (a10, -h))
        self.terms = _stage_terms(self.a, self.q)
        self._table = []    # scan chunks, filled on demand
        self._rows = self._shape = None     # chunk 0 for _search
        self._ends = {}         # crossing row -> terms at its cell's ends

    def run(self, x: np.ndarray, ncycles: int, stop_from: int | None = None):
        """``ncycles`` cycles from ``x``: ``Tn``, ``x_end``, ``saturated``.

        With ``stop_from``, the run ends early after its first saturated
        cycle whose index is ``stop_from`` or more, and the arrays hold the
        cycles up to and including that one.  Raises MissedSwitchingError
        tagged with the index of the cycle, counted from ``x``, whose
        feedback never returned to the ramp.
        """
        stop = ncycles if stop_from is None else stop_from
        tns = np.empty(ncycles)
        x_end = np.empty((ncycles, self.m.n))
        sat = np.empty(ncycles, dtype=bool)
        d = self.ramp.d
        ma = self.ramp.ma
        du = self.du
        terms = self.terms
        ends = self._ends
        step = self.step
        (p00, p01), (p10, p11) = self.p1.tolist()
        j0, j1 = self.j1u.tolist()
        (n00, n01), (n10, n11) = self.n
        c0, c1 = self.m.Cvec.tolist()
        tol = REFINE_REL_TOL * self.T_guess
        x0, x1 = (float(v) for v in x)
        for k in range(ncycles):
            xd0 = p00 * x0 + p01 * x1 + j0
            xd1 = p10 * x0 + p11 * x1 + j1
            nx0 = n00 * xd0 + n01 * xd1
            nx1 = n10 * xd0 + n11 * xd1
            P = c0 * xd0 + c1 * xd1
            Q = c0 * nx0 + c1 * nx1
            phi0 = P + du - ma * d
            sat[k] = saturated = phi0 <= 0.0
            if saturated:
                # ramp already at or above the feedback when the on-time ends
                tau = 0.0
            else:
                try:
                    lo, hi = self._scan(P, Q, phi0)
                    # judge the bracket with the refiner's own evaluator:
                    # the scan and the scalar path may disagree by a few
                    # ulp around an exact zero.  The cell's ends are grid
                    # rows, so their terms are kept per row
                    row = self.hint
                    cell = ends.get(row)
                    if cell is None:
                        cell = ends[row] = (terms((row - 1) * step),
                                            terms(row * step))
                    (elo, slo), (ehi, shi) = cell
                    flo = (elo * P + slo * Q + du - ma * (d + lo)
                           if lo > 0.0 else phi0)
                    fhi = ehi * P + shi * Q + du - ma * (d + hi)
                    if fhi == 0.0:
                        tau = hi
                    elif flo > 0.0 > fhi:
                        tau = _newton(terms, P, Q, self.a * P + Q,
                                      self.q * P + self.a * Q, du, ma, d,
                                      lo, hi, flo, fhi, tol)
                    else:
                        scale = 2.0 * abs(du) + abs(ma) * (d + hi) + max(
                            abs(ec * P) + abs(es * Q) for ec, es in cell)
                        tau = _end_within_noise(lo, hi, flo, fhi, scale)
                except MissedSwitchingError as exc:
                    raise MissedSwitchingError(str(exc), cycle=k) from None
            ec, es = terms(tau)
            x0 = ec * xd0 + es * nx0
            x1 = ec * xd1 + es * nx1
            tns[k] = d + tau
            # two scalar stores: a tuple would be converted as a sequence
            x_end[k, 0] = x0
            x_end[k, 1] = x1
            if saturated and k >= stop:
                return tns[:k + 1], x_end[:k + 1], sat[:k + 1]
        return tns, x_end, sat

    def _scan(self, P: float, Q: float, phi0: float):
        """The cell ``[(k - 1) h, k h]`` of the first grid row ``k`` where
        ``phi <= 0``: the cell a scan of whole table chunks finds, found by
        ``_search`` or by scanning the chunks in numpy, built on first use."""
        k = self._search(P, Q, phi0) if self._rows else 0
        i = 0
        while not k:
            k0 = 1 + 2 * SCAN_DIVISIONS * i
            if k0 > self.kmax:
                raise MissedSwitchingError(_NO_CROSSING)
            if i == len(self._table):
                taus = np.arange(k0, min(k0 + 2 * SCAN_DIVISIONS,
                                         self.kmax + 1)) * self.step
                ec, es = _closed_form(self.m.A * taus[:, None, None])[4:]
                self._table.append(np.array(
                    [ec, es * taus, -self.ramp.ma * (self.ramp.d + taus)]))
            if self._rows is None:
                # chunk 0 led by row 0, (1, 0, -ma d), which evaluates to
                # phi0 bit for bit, and its columns' bounds for _search
                rows = np.insert(self._table[0], 0, axis=1, values=(
                    1.0, 0.0, -self.ramp.ma * self.ramp.d))
                (s0, s1, (_, s3)), (c0, c1, (_, c3)) = (
                    np.stack([dv.min(axis=1), dv.max(axis=1)], 1).tolist()
                    for dv in (np.diff(rows), np.diff(rows, 2)))
                m0, m1, m3 = np.abs(rows).max(axis=1).tolist()
                self._rows = rows.tolist()
                self._shape = m0, m1, abs(self.du) + m3, s0, s1, s3, c0, c1, c3
            t0, t1, t3 = self._table[i]
            below = t0 * P + t1 * Q + self.du + t3 <= 0.0
            row = int(below.argmax())
            if below[row]:
                k = k0 + row
            i += 1
        self.back, self.hint = self.hint, k
        return (k - 1) * self.step, k * self.step

    def _search(self, P: float, Q: float, phi0: float) -> int:
        """The first row of chunk 0 where ``phi <= 0``, or 0 for a scan.

        Row ``k`` is exactly ``V_k = t0 P + t1 Q + du + t3`` and evaluates
        within ``e = 16 eps (|P| max|t0| + |Q| max|t1| + |du| + max|t3|)``
        of it.  ``V`` is linear in ``(P, Q)``: the columns' least or largest
        differences, picked by the signs of ``P`` and ``Q``, bound ``max dV``
        and ``max d2V``.  A bound below ``-2 e`` (a margin for its rounding)
        proves ``V`` falling or concave, so ``V_j >= min(V_0, V_a)`` for
        ``j <= a``: with ``phi0`` and row ``a`` above ``2 e``, no row up to
        ``a`` evaluates ``<= 0``.  A gallop from the crossing row of two
        cycles back and a bisection find rows ``a`` > 0 and ``a + 1`` <= 0,
        then a walk down passes the rows within ``2 e``.  Gives up on an
        unproven shape, ``phi0 <= 2 e`` (or NaN), or no crossing.
        """
        m0, m1, fixed, s0, s1, s3, c0, c1, c3 = self._shape
        e2 = 32.0 * _EPS * ((P if P >= 0.0 else -P) * m0
                            + (Q if Q >= 0.0 else -Q) * m1 + fixed)
        if not phi0 > e2 or (
                s0[P >= 0.0] * P + s1[Q >= 0.0] * Q + s3 >= -e2
                and c0[P >= 0.0] * P + c1[Q >= 0.0] * Q + c3 >= -e2):
            return 0
        t0, t1, t3 = self._rows
        du = self.du
        top = len(t0) - 1
        # row lo > 0 >= row hi; hi = top + 1 stands for the later chunks
        lo, vlo, hi, step = 0, phi0, top + 1, 1
        k = self.back if self.back < top else top
        while hi - lo > 1:
            v = t0[k] * P + t1[k] * Q + du + t3[k]
            if v > 0.0:
                lo, vlo = k, v
                k += step
            else:
                hi = k
                k -= step
            step += step
            if not lo < k < hi:
                k = (lo + hi) // 2
        while vlo <= e2:
            lo -= 1
            vlo = t0[lo] * P + t1[lo] * Q + du + t3[lo]
            if not vlo > 0.0:
                hi = lo
        return hi if hi <= top else 0


def _stage_terms(a: float, q: float):
    """``tau -> (e^(a tau) c, e^(a tau) s)``: the closed form of
    :mod:`linalg` on Python floats, per unit time (``s`` is in units of
    time).  Past ``sqrt(q) tau = 1`` the hyperbolic pair is formed from
    ``e^((a +- sqrt q) tau)``, so that no factor overflows."""
    r = math.sqrt(abs(q))
    if q > 0.0:
        def terms(tau):
            if r * tau > 1.0:
                ep = 0.5 * math.exp((a + r) * tau)
                em = 0.5 * math.exp((a - r) * tau)
                return ep + em, (ep - em) / r
            e = math.exp(a * tau)
            return e * math.cosh(r * tau), e * math.sinh(r * tau) / r
    elif q < 0.0:
        def terms(tau):
            e = math.exp(a * tau)
            return e * math.cos(r * tau), e * math.sin(r * tau) / r
    else:
        def terms(tau):
            e = math.exp(a * tau)
            return e, e * tau
    return terms


def _end_within_noise(lo: float, hi: float, flo: float, fhi: float,
                      scale: float) -> float:
    """The bracket end whose residual is roundoff of terms of size ``scale``.

    Used when the scan's cell does not bracket a sign change under the
    refiner's evaluator; anything larger than roundoff is a real miss.
    """
    if min(abs(flo), abs(fhi)) <= 64.0 * _EPS * max(scale, 1e-300):
        return lo if abs(flo) < abs(fhi) else hi
    raise MissedSwitchingError(
        "crossing scan and refiner disagree beyond roundoff; "
        f"phi({lo:.3e}) = {flo:.3e}, phi({hi:.3e}) = {fhi:.3e}")


def _newton(terms, P: float, Q: float, kc: float, ks: float, du: float,
            ma: float, d: float, lo: float, hi: float, flo: float, fhi: float,
            tol: float) -> float:
    """Root of ``phi`` in ``[lo, hi]``, given ``phi(lo) > 0 > phi(hi)``.

    With ``ec, es = terms(tau)``, ``phi = ec P + es Q + du - ma (d + tau)``
    and its slope is ``ec kc + es ks - ma`` (``c' = q s`` and ``s' = c``).
    Safeguarded Newton: it starts at the secant point of the bracket,
    shrinks the bracket on the sign of every residual, and bisects whenever
    a step would leave it.  After ``NEWTON_STEPS`` Newton steps it only
    bisects, so it always converges.  It stops once a step is no longer
    than ``tol`` or the bracket reaches floating-point resolution.  The
    result depends only on the arguments.
    """
    a, b = lo, hi
    x = (a * fhi - b * flo) / (fhi - flo)
    if not a < x < b:
        x = 0.5 * (a + b)
    steps = 0
    for _ in range(NEWTON_STEPS + 200):
        ec, es = terms(x)
        fx = ec * P + es * Q + du - ma * (d + x)
        if not math.isfinite(fx):
            raise NumericError(f"residual is not finite at {x!r}: {fx!r}")
        if fx == 0.0:
            return x
        if fx > 0.0:
            a = x
        else:
            b = x
        nxt = 0.5 * (a + b)
        if steps < NEWTON_STEPS:
            dfx = ec * kc + es * ks - ma
            if dfx != 0.0 and a < (newton := x - fx / dfx) < b:
                nxt = newton
                steps += 1
        if abs(nxt - x) <= tol or b - a <= 4.0 * _EPS * max(abs(a), abs(b)):
            return nxt
        x = nxt
    raise NumericError(
        f"no convergence: bracket [{a!r}, {b!r}] is wider than tol = {tol!r}")


def _integer(name: str, value, least: int) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    return value


def _start_state(m: ConverterModel, x0) -> np.ndarray:
    """``x0`` as a state vector of ``m``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m.n,):
        raise DomainError(f"x0 must have shape ({m.n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise DomainError(f"x0 must be finite, got {x0.tolist()!r}")
    return x0


def simulate(m: ConverterModel, ramp: RampSpec, x0, u, ncycles: int,
             T_guess: float | None = None) -> Trace:
    """Run ``ncycles`` switching cycles from the given state.

    A one-cycle run is the single-step cycle map.  A cycle whose feedback
    is already at or below the ramp when the on-time ends is flagged
    saturated and switches at once.  Deterministic: the same inputs always
    produce the bit-identical trace.  Raises MissedSwitchingError, tagged
    with the cycle index, if the feedback never returns to the ramp within
    the scan horizon.
    """
    ncycles = _integer("ncycles", ncycles, 1)
    if T_guess is None:
        T_guess = 2.0 * ramp.d
    x0 = _start_state(m, x0)
    eng = _CycleEngine(m, ramp, u, T_guess)
    tns, x_end, sat = eng.run(x0, ncycles)
    # stacked, so each row rounds as ``Cvec @ x + du`` of that row alone
    y_switch = (m.Cvec @ x_end[..., None])[..., 0] + eng.du
    return Trace(tns, x_end, y_switch, sat, x0, eng.u)


def classify_orbit(trace: Trace, settle: int = 500) -> str:
    """Label the post-transient orbit: PERIOD1, PERIOD2 or OTHER.

    Judged on the cycle-length sequence after ``settle`` cycles.  PERIOD1
    means the lengths have collapsed to one value, PERIOD2 to a clean
    two-cycle alternation.  Saturated cycles in the tail disqualify both.
    Reads only ``Tn`` and ``saturated``.
    """
    settle = _integer("settle", settle, 0)
    if len(trace.Tn) <= settle + 32:
        raise UsageError(
            f"need more than {settle + 32} cycles to classify with "
            f"settle={settle}, got {len(trace.Tn)}")
    tail = trace.Tn[settle:]
    if trace.saturated[settle:].any():
        return OTHER
    mean = float(np.mean(tail))
    if mean <= 0.0:
        return OTHER
    spread = float(np.max(tail) - np.min(tail))
    if spread <= 1e-6 * mean:
        return PERIOD1
    even, odd = tail[0::2], tail[1::2]
    se = float(np.max(even) - np.min(even))
    so = float(np.max(odd) - np.min(odd))
    gap = abs(float(np.mean(even)) - float(np.mean(odd)))
    if se <= 1e-6 * mean and so <= 1e-6 * mean and gap > 1e-5 * mean:
        return PERIOD2
    return OTHER


def estimate_multiplier(m: ConverterModel, ramp: RampSpec, u, T: float,
                        x_star=None, rel_eps: float = 1e-5,
                        ncycles: int = 12, fit: int = 8) -> float:
    """Dominant cycle-map multiplier measured from perturbed trajectories.

    Kicks the fixed point along each state axis, simulates a handful of
    cycles, and reads the multiplier off the ratio of successive state
    deviations projected on the final deviation direction.  All kicked
    runs share one engine.  Purely a simulation measurement; no Jacobian
    is formed.  Needs a finite ``rel_eps > 0``, ``ncycles >= 2`` and
    ``fit >= 1``.
    """
    if not (math.isfinite(rel_eps) and rel_eps > 0.0):
        raise DomainError(f"rel_eps must be finite and > 0, got {rel_eps!r}")
    ncycles = _integer("ncycles", ncycles, 2)
    fit = _integer("fit", fit, 1)
    if x_star is None:
        x_star = steady_state_at(m, ramp.d, T, u).x0_0
    x_star = _start_state(m, x_star)
    scale = max(float(np.max(np.abs(x_star))), 1e-30)
    eps = rel_eps * scale
    eng = _CycleEngine(m, ramp, u, T)
    best = None
    best_growth = -1.0
    for axis in range(m.n):
        x0 = x_star.copy()
        x0[axis] += eps
        dev = eng.run(x0, ncycles)[1] - x_star
        norms = np.linalg.norm(dev, axis=1)
        if norms[-1] <= 0.0:
            continue
        direction = dev[-1] / norms[-1]
        proj = dev @ direction
        lo = max(1, len(proj) - fit)
        ratios = [proj[k] / proj[k - 1] for k in range(lo, len(proj))
                  if proj[k - 1] != 0.0]
        if not ratios:
            continue
        growth = norms[-1] / max(norms[0], 1e-300)
        if growth > best_growth:
            best_growth = growth
            best = float(np.median(ratios))
    if best is None:
        raise DomainError("perturbations vanished; cannot estimate a multiplier")
    return best


def nominal_probe_state(p: BuckParams, D: float, d: float) -> np.ndarray:
    """Average-model starting state with a small output-voltage ``KICK``.

    The cycle starts at the current valley, so the average inductor
    current is corrected by half the on-time ripple rise.  The kick must
    stay well inside the fixed point's basin: close to a subharmonic
    boundary a saturated large-signal orbit coexists with the stable
    cycle, and a hard kick lands on it.
    """
    if not 0.0 < D < 1.0:
        raise DomainError(f"duty must lie in (0, 1), got {D!r}")
    ripple = p.vs * (1.0 - D) * d / p.L
    return np.array([D * p.vs / p.R - 0.5 * ripple,
                     D * p.vs * (1.0 + KICK)])


def _kicked_orbit_start(ss: SteadyState) -> np.ndarray:
    """Exact cycle-start state with a relative ``KICK`` on the last component.

    Probing stability demands starting on the periodic orbit itself: any
    baseline offset acts as a large kick and, near a subcritical boundary,
    throws the probe onto the coexisting large-signal attractor.
    """
    x0 = ss.x0_0.copy()
    x0[-1] *= 1.0 + KICK
    return x0


def make_ramp_family(p: BuckParams, scheme: Scheme, d: float, T: float):
    """Simulation setups indexed by ramp slope, at a fixed operating point.

    The control reference is re-placed for every slope so the underlying
    cycle keeps the same period; only the stability changes.
    """
    m = build_model(p, scheme)

    def family(ma: float):
        ramp = RampSpec(ma=ma, d=d)
        ss = consistent_steady_state(m, ramp, T, p.vs)
        return m, ramp, ss.u, T, _kicked_orbit_start(ss)

    return family


def make_duty_family(p: BuckParams, scheme: Scheme, d: float, vo: float,
                     ma: float):
    """Simulation setups indexed by duty, holding on-time and output fixed.

    The period and source voltage follow from the duty ratio; the control
    reference is re-placed at each point.
    """
    ramp = RampSpec(ma=ma, d=d)
    m = build_model(p, scheme)      # A, B and Cvec do not depend on vs

    def family(D: float):
        if not 0.0 < D < 1.0:
            raise DomainError(f"duty must lie in (0, 1), got {D!r}")
        T = d / D
        ss = consistent_steady_state(m, ramp, T, vo / D)
        return m, ramp, ss.u, T, _kicked_orbit_start(ss)

    return family


def _trend_side(trace: Trace, settle: int) -> str:
    """Direction of the alternation envelope when classification stalls."""
    tail = trace.Tn[settle:]
    alt = np.abs(np.diff(tail))
    mm = len(alt)
    if mm < 8:
        return "unstable"
    width = max(1, mm // 10)
    lo1 = max(0, mm // 4 - width // 2)
    lo3 = min(mm - width, 3 * mm // 4 - width // 2)
    a25 = float(np.mean(alt[lo1:lo1 + width]))
    a75 = float(np.mean(alt[lo3:lo3 + width]))
    if a25 <= 0.0:
        return "stable" if a75 <= 0.0 else "unstable"
    return "stable" if a75 / a25 < 0.7 else "unstable"


def _probe_side(setup, ladder, settle: int) -> str:
    """Classify one probe, lengthening its run rung by rung if undecided.

    Each rung continues the previous run from its last state, on the same
    engine, instead of starting over; a cycle depends only on its start
    state, so the result is the run a fresh simulation of the rung's
    length would give.  A saturated cycle in the judged later half of a
    rung decides the probe as unstable, so the rung ends at the first one
    (``stop_from``): the cycles after it could not change the side.
    """
    m, ramp, u, T, x = setup
    eng = _CycleEngine(m, ramp, u, T)
    x = _start_state(m, x)
    tr = _Lengths(np.empty(0), np.empty(0, dtype=bool))
    for nc in ladder:
        done = len(tr.Tn)
        # judge longer runs on their later halves; near-boundary
        # transients outlive any fixed settling allowance
        eff = max(settle, nc // 2)
        try:
            tns, x_end, sat = eng.run(x, nc - done, max(eff - done, 0))
        except MissedSwitchingError:
            return "unstable"
        tr = _Lengths(np.concatenate([tr.Tn, tns]),
                      np.concatenate([tr.saturated, sat]))
        x = x_end[-1]
        # true too when the run came back short
        if tr.saturated[eff:].any():
            return "unstable"
        cls = classify_orbit(tr, eff)
        if cls == PERIOD1:
            return "stable"
        if cls == PERIOD2:
            return "unstable"
    return _trend_side(tr, eff)


def onset_search(family, lo: float, hi: float, cycles: int = 3000,
                 settle: int = 500, iters: int = 20,
                 escalation: tuple[int, ...] = (12000,)) -> float:
    """Bisect a family parameter to the simulated subharmonic onset.

    ``family`` maps the parameter to a simulation setup (model, ramp,
    inputs, guess period, probe state).  Each probe simulates, classifies,
    and when the orbit has not settled, escalates to longer runs and
    finally to an envelope trend test.  The ladder is ``cycles`` followed
    by every ``escalation`` rung longer than the run before it; each rung
    continues the previous one.  The endpoints must classify to opposite
    sides.  ``iters`` bisections follow; with none, the search returns
    the bracket's midpoint.
    """
    iters = _integer("iters", iters, 0)
    ladder = [_integer("cycles", cycles, 1)]
    for rung in escalation:
        rung = _integer("escalation rung", rung, 1)
        if rung > ladder[-1]:
            ladder.append(rung)
    side_lo = _probe_side(family(lo), ladder, settle)
    side_hi = _probe_side(family(hi), ladder, settle)
    if side_lo == side_hi:
        raise BracketError(
            f"both endpoints classify as {side_lo}; widen the bracket")
    a, b = float(lo), float(hi)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if _probe_side(family(mid), ladder, settle) == side_lo:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
