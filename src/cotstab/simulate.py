"""Cycle-by-cycle time-domain simulation of the switched converter.

This is the oracle side of the package: it never touches the linearized
map or the boundary formulas.  Each cycle applies the on-stage for the
fixed on-time, then hunts for the first instant where the feedback signal
meets the restarting ramp.  Stage propagation uses the eigenstructure of
the off-stage matrix when it is clean, which makes the crossing scan a
vectorized exponential evaluation; a plain matrix-stepping fallback covers
defective or awkward cases.

On the fast path the scan's exponential table depends only on the model,
the ramp and the guess period, so each run builds it once and every cycle
reduces to a mat-vec against it.  The modal coordinates of the state after
the on-time are formed once per cycle and shared by the scan, the root
refiner and the state update.  Caching changes no arithmetic: a trace is
bit-identical to evaluating every term afresh in every cycle.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, DomainError, MissedSwitchingError,
                     UsageError)
from .linalg import expm, expm_integral, find_root
from .models import BuckParams, ConverterModel, RampSpec, Scheme, build_model
from .sampled import consistent_vc

__all__ = [
    "CycleStep",
    "Trace",
    "step_cycle",
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

PERIOD1 = "PERIOD1"
PERIOD2 = "PERIOD2"
OTHER = "OTHER"


@dataclass(frozen=True)
class CycleStep:
    """Outcome of a single switching cycle."""

    x_next: np.ndarray
    Tn: float
    y_switch: float
    saturated: bool


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

    Work that does not depend on the state is done once per engine: the
    on-stage map, the off-stage eigenstructure (or its stepping matrices on
    the fallback path) and the crossing-scan table.  The table holds
    ``exp(lam * tau_k)`` and the ramp term ``ma * (d + tau_k)`` on the scan
    grid; it is built lazily, one chunk of ``2 * SCAN_DIVISIONS`` grid
    points at a time, so a run whose crossings all fall in the first chunk
    never builds the rest.  Work that depends on the state is done once per
    cycle: the modal coordinates ``z`` of the post-on-time state and the
    refiner's coefficients ``cv[i] * z[i]``.  A fast-path cycle then costs
    one table mat-vec per scanned chunk plus a few scalar evaluations.
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
        self.T_guess = float(T_guess)
        d = ramp.d
        self.p1 = expm(m.A1, d)
        self.j1u = expm_integral(m.A1, m.B1, d) @ self.u
        self.b2u = m.B2 @ self.u
        self.du = float(m.Dvec @ self.u)
        self.step = self.T_guess / SCAN_DIVISIONS
        self.tau_max = HORIZON_PERIODS * self.T_guess
        self.kmax = int(np.ceil(self.tau_max / self.step))
        self._setup_stage2()

    def _setup_stage2(self):
        """Diagonalize the off-stage if possible; else fall back to stepping."""
        a2 = self.m.A2
        lam, vecs = np.linalg.eig(a2)
        self.fast = False
        try:
            vinv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            vinv = None
        if vinv is not None:
            err = np.linalg.norm(vecs @ np.diag(lam) @ vinv - a2)
            scale = max(np.linalg.norm(a2), 1.0)
            if err <= 1e-9 * scale:
                drive = np.linalg.norm(self.b2u)
                if drive == 0.0:
                    w = np.zeros(self.m.n)
                    ok = True
                elif np.min(np.abs(lam)) > 1e-12 * np.max(np.abs(lam)):
                    w = np.linalg.solve(a2, self.b2u)
                    ok = True
                else:
                    ok = False
                if ok:
                    self.fast = True
                    self.lam = lam
                    self.vecs = vecs
                    self.vinv = vinv
                    self.w = w
                    self.cv = self.m.Cvec @ vecs
                    self.const = self.du - float(self.m.Cvec @ w)
                    self._table = []    # scan chunks, filled on demand
        if not self.fast:
            self.phi_step = expm(self.m.A2, self.step)
            self.j_step = expm_integral(self.m.A2, self.m.B2, self.step) @ self.u

    # stage 1: exact on-time propagation
    def on_stage(self, x: np.ndarray) -> np.ndarray:
        return self.p1 @ x + self.j1u

    def _refiner(self, x_d: np.ndarray, z):
        """This cycle's phi(tau), the feedback minus the ramp at d + tau.

        Exact scalar evaluation.  ``z`` holds the modal coordinates on the
        fast path and is None on the fallback path.
        """
        d = self.ramp.d
        ma = self.ramp.ma
        if z is None:
            def phi(tau):
                xt = expm(self.m.A2, tau) @ x_d + expm_integral(
                    self.m.A2, self.m.B2, tau) @ self.u
                return float(self.m.Cvec @ xt) + self.du - ma * (d + tau)
            return phi
        terms = [(self.cv[i] * z[i], self.lam[i]) for i in range(len(self.lam))]
        const = self.const

        def phi(tau):
            acc = 0.0
            for cz, lam in terms:
                acc += (cz * cmath.exp(lam * tau)).real
            return acc + const - ma * (d + tau)
        return phi

    def state_at(self, x_d: np.ndarray, z, tau: float) -> np.ndarray:
        if z is not None:
            out = self.vecs @ (np.exp(self.lam * tau) * z)
            return out.real - self.w
        return expm(self.m.A2, tau) @ x_d + expm_integral(
            self.m.A2, self.m.B2, tau) @ self.u

    def _scan_fast(self, z: np.ndarray):
        """Vectorized crossing scan; returns bracketing interval or None."""
        az = self.cv * z
        chunk = 2 * SCAN_DIVISIONS
        for i, k0 in enumerate(range(1, self.kmax + 1, chunk)):
            if i == len(self._table):
                taus = np.arange(k0, min(k0 + chunk, self.kmax + 1)) * self.step
                self._table.append((np.exp(np.outer(taus, self.lam)),
                                    self.ramp.ma * (self.ramp.d + taus)))
            table, ramp_term = self._table[i]
            phis = (table @ az).real + self.const - ramp_term
            hits = np.nonzero(phis <= 0.0)[0]
            if hits.size:
                k = k0 + int(hits[0])
                return (k - 1) * self.step, k * self.step, phis[hits[0]]
        return None

    def _scan_steps(self, x_d: np.ndarray):
        """Matrix-stepping crossing scan for the fallback path."""
        d = self.ramp.d
        kmax = int(np.ceil(self.tau_max / self.step))
        x = x_d
        for k in range(1, kmax + 1):
            x = self.phi_step @ x + self.j_step
            phi = float(self.m.Cvec @ x) + self.du - self.ramp.ma * (d + k * self.step)
            if phi <= 0.0:
                return (k - 1) * self.step, k * self.step, phi
        return None

    def _phi_scale(self, x_d: np.ndarray, z, tau_hi: float) -> float:
        """Magnitude of the terms whose cancellation forms phi."""
        mag = abs(self.du) + abs(self.ramp.ma) * (self.ramp.d + tau_hi)
        if z is not None:
            mag += float(np.sum(np.abs(self.cv * z))) + abs(self.const)
        else:
            mag += float(np.abs(self.m.Cvec) @ np.abs(x_d))
        return max(mag, 1e-300)

    def run_cycle(self, x: np.ndarray) -> CycleStep:
        d = self.ramp.d
        x_d = self.on_stage(x)
        phi0 = float(self.m.Cvec @ x_d) + self.du - self.ramp.ma * d
        if phi0 <= 0.0:
            # ramp already at or above the feedback when the on-time ends
            return CycleStep(x_d, d, float(self.m.Cvec @ x_d) + self.du, True)
        if self.fast:
            z = self.vinv @ (x_d + self.w)
            found = self._scan_fast(z)
        else:
            z = None
            found = self._scan_steps(x_d)
        if found is None:
            raise MissedSwitchingError(
                f"no ramp crossing within {HORIZON_PERIODS} guess periods")
        lo, hi, _ = found
        # judge the bracket with the refiner's own evaluator: the scan and
        # the scalar path may disagree by a few ulp around an exact zero
        phi = self._refiner(x_d, z)
        flo = phi(lo) if lo > 0.0 else phi0
        fhi = phi(hi)
        if fhi == 0.0:
            tau = hi
        elif flo > 0.0 > fhi:
            tau = find_root(phi, lo, hi, tol=REFINE_REL_TOL * self.T_guess)
        else:
            noise = 64.0 * np.finfo(float).eps * self._phi_scale(x_d, z, hi)
            if min(abs(flo), abs(fhi)) <= noise:
                tau = lo if abs(flo) < abs(fhi) else hi
            else:
                raise MissedSwitchingError(
                    "crossing scan and refiner disagree beyond roundoff; "
                    f"phi({lo:.3e}) = {flo:.3e}, phi({hi:.3e}) = {fhi:.3e}")
        x_next = self.state_at(x_d, z, tau)
        return CycleStep(x_next, d + tau,
                         float(self.m.Cvec @ x_next) + self.du, False)


def step_cycle(m: ConverterModel, ramp: RampSpec, x, u,
               T_guess: float) -> CycleStep:
    """Advance the converter by one switching cycle.

    Applies the on-stage for the fixed on-time, then switches at the first
    instant the feedback signal falls to the ramp.  A cycle whose feedback
    is already at or below the ramp when the on-time ends is flagged
    saturated and switches immediately.
    """
    eng = _CycleEngine(m, ramp, u, T_guess)
    return eng.run_cycle(np.asarray(x, dtype=float))


def simulate(m: ConverterModel, ramp: RampSpec, x0, u, ncycles: int,
             T_guess: float | None = None) -> Trace:
    """Run ``ncycles`` switching cycles from the given state.

    Deterministic: the same inputs always produce the bit-identical trace.
    Raises MissedSwitchingError, tagged with the cycle index, if the
    feedback never returns to the ramp within the scan horizon.
    """
    try:
        ncycles = operator.index(ncycles)
    except TypeError:
        raise DomainError(
            f"ncycles must be an integer, got {ncycles!r}") from None
    if ncycles < 1:
        raise DomainError(f"ncycles must be >= 1, got {ncycles!r}")
    if T_guess is None:
        T_guess = 2.0 * ramp.d
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m.n,):
        raise DomainError(f"x0 must have shape ({m.n},), got {x0.shape}")
    eng = _CycleEngine(m, ramp, u, T_guess)
    tns = np.empty(ncycles)
    xe = np.empty((ncycles, m.n))
    ys = np.empty(ncycles)
    sat = np.zeros(ncycles, dtype=bool)
    x = x0
    for k in range(ncycles):
        try:
            st = eng.run_cycle(x)
        except MissedSwitchingError as exc:
            raise MissedSwitchingError(str(exc), cycle=k) from None
        tns[k] = st.Tn
        xe[k] = st.x_next
        ys[k] = st.y_switch
        sat[k] = st.saturated
        x = st.x_next
    return Trace(tns, xe, ys, sat, x0, np.asarray(u, dtype=float))


def classify_orbit(trace: Trace, settle: int = 500) -> str:
    """Label the post-transient orbit: PERIOD1, PERIOD2 or OTHER.

    Judged on the cycle-length sequence after ``settle`` cycles.  PERIOD1
    means the lengths have collapsed to one value, PERIOD2 to a clean
    two-cycle alternation.  Saturated cycles in the tail disqualify both.
    """
    if trace.ncycles <= settle + 32:
        raise UsageError(
            f"need more than {settle + 32} cycles to classify with "
            f"settle={settle}, got {trace.ncycles}")
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
    deviations projected on the final deviation direction.  Purely a
    simulation measurement; no Jacobian is formed.
    """
    if x_star is None:
        from .sampled import steady_state_at
        x_star = steady_state_at(m, ramp.d, T, u).x0_0
    x_star = np.asarray(x_star, dtype=float)
    scale = max(float(np.max(np.abs(x_star))), 1e-30)
    eps = rel_eps * scale
    best = None
    best_growth = -1.0
    for axis in range(m.n):
        x0 = x_star.copy()
        x0[axis] += eps
        tr = simulate(m, ramp, x0, u, ncycles, T)
        dev = tr.x_end - x_star
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


def nominal_probe_state(p: BuckParams, D: float, d: float,
                        kick: float = 1e-5) -> np.ndarray:
    """Average-model starting state with a small output-voltage kick.

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
                     D * p.vs * (1.0 + kick)])


def _kicked_orbit_start(m: ConverterModel, d: float, T: float, u,
                        kick: float) -> np.ndarray:
    """Exact cycle-start state with a relative kick on the last component.

    Probing stability demands starting on the periodic orbit itself: any
    baseline offset acts as a large kick and, near a subcritical boundary,
    throws the probe onto the coexisting large-signal attractor.
    """
    from .sampled import steady_state_at
    x0 = steady_state_at(m, d, T, u).x0_0.copy()
    x0[-1] *= 1.0 + kick
    return x0


def make_ramp_family(p: BuckParams, scheme: Scheme, d: float, T: float,
                     kick: float = 1e-5):
    """Simulation setups indexed by ramp slope, at a fixed operating point.

    The control reference is re-placed for every slope so the underlying
    cycle keeps the same period; only the stability changes.
    """
    m = build_model(p, scheme)

    def family(ma: float):
        ramp = RampSpec(ma=ma, d=d)
        vc = consistent_vc(m, ramp, T, p.vs)
        u = np.array([p.vs, vc])
        return m, ramp, u, T, _kicked_orbit_start(m, d, T, u, kick)

    return family


def make_duty_family(p: BuckParams, scheme: Scheme, d: float, vo: float,
                     ma: float, kick: float = 1e-5):
    """Simulation setups indexed by duty, holding on-time and output fixed.

    The period and source voltage follow from the duty ratio; the control
    reference is re-placed at each point.
    """
    ramp = RampSpec(ma=ma, d=d)

    def family(D: float):
        if not 0.0 < D < 1.0:
            raise DomainError(f"duty must lie in (0, 1), got {D!r}")
        T = d / D
        pd = p.with_(vs=vo / D)
        m = build_model(pd, scheme)
        vc = consistent_vc(m, ramp, T, pd.vs)
        u = np.array([pd.vs, vc])
        return m, ramp, u, T, _kicked_orbit_start(m, d, T, u, kick)

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
    last = None
    last_settle = settle
    m, ramp, u, T, x0 = setup
    for nc in ladder:
        try:
            tr = simulate(m, ramp, x0, u, nc, T)
        except MissedSwitchingError:
            return "unstable"
        # judge longer runs on their later halves; near-boundary
        # transients outlive any fixed settling allowance
        eff = max(settle, nc // 2)
        if tr.saturated[eff:].any():
            return "unstable"
        cls = classify_orbit(tr, eff)
        if cls == PERIOD1:
            return "stable"
        if cls == PERIOD2:
            return "unstable"
        last, last_settle = tr, eff
    return _trend_side(last, last_settle)


def onset_search(family, lo: float, hi: float, cycles: int = 3000,
                 settle: int = 500, iters: int = 20,
                 escalation: tuple[int, ...] = (12000,)) -> float:
    """Bisect a family parameter to the simulated subharmonic onset.

    ``family`` maps the parameter to a simulation setup (model, ramp,
    inputs, guess period, probe state).  Each probe simulates, classifies,
    and when the orbit has not settled, escalates to longer runs and
    finally to an envelope trend test.  The endpoints must classify to
    opposite sides.
    """
    ladder = (cycles, *escalation)
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
