"""The cycle engine against loop forms of its arithmetic.

``_CycleEngine`` runs every cycle on the real closed form of the off
stage.  It forms the on-stage map, the closed form's scalars and the scan
table once per engine, and writes the trace once per run.  None of this
may change arithmetic, so the first reference below keeps the per-cycle
formulas in loop form (a whole-chunk scan summed elementwise, with the
closed form's scalars, the chunk's terms and every coefficient evaluated
afresh at each use, and the same safeguarded Newton refiner) and the
traces must match bit for bit, including at a near-boundary point where
any last-digit change would be amplified into a visibly different orbit,
at critical damping, and on an orbit whose crossing settles on a grid
row, whose value is then rounding noise.

The engine's scan first searches the table's first chunk on Python
floats, by a gallop from the crossing row of two cycles back, once a
bound made from the cycle's own state proves that chunk's rows fall or
bend down.  On the same traces, every cycle's scan must find the cell of
the whole-chunk loop-form scan, from the row the run carried and from
rows far from it, as must a scan whose row lies within a few ulp of zero,
a state far from the orbit, a NaN state, and states whose chunk crosses
zero twice, started past the second crossing.  The search must decide
nearly every scan near the period-doubling onset and on a saturating
orbit, and an orbit whose shape no bound proves must take the numpy scan.

The second reference shares no stage arithmetic with the engine: it
propagates the state through the on stage in physical coordinates, takes
its modal coordinates in the eigenvectors of the off stage and scans a
complex table, as an earlier engine did.  It rounds differently, so on
orbits that do not diverge the traces must agree within a stated
tolerance and classify alike; it refines with ``find_root``.  A third
reference refines the loop form with ``find_root``, and the Newton
instants must lie within the refiner tolerance of its roots.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np
import pytest

from cotstab import (BuckParams, RampSpec, Scheme, Trace, build_model,
                     consistent_steady_state, make_duty_family,
                     make_ramp_family, nominal_probe_state)
from cotstab.bifurcation import pdb_boundary_exact
from cotstab.errors import MissedSwitchingError
from cotstab.linalg import _closed_form, find_root
from cotstab.simulate import (HORIZON_PERIODS, OTHER, PERIOD1,
                              REFINE_REL_TOL, SCAN_DIVISIONS, _CycleEngine,
                              _newton, classify_orbit, simulate)

from helpers import FAST, FAST_D, FAST_T, closed_form_q

VO = 2.0
# physical modal against closed-form arithmetic: rounding differences of a
# few ulp per cycle, which a non-diverging orbit keeps far below this
PHYSICAL_REL_TOL = 1e-10


class _Cycle(NamedTuple):
    """One cycle of a reference: the fields one row of a trace holds."""

    x_next: np.ndarray
    Tn: float
    y_switch: float
    saturated: bool


class _LoopEngine(_CycleEngine):
    """The engine's cycle with the closed-form formulas in loop form."""

    def closed_form(self):
        """``a``, ``q`` and ``N = A - a I`` of the off stage."""
        (a00, a01), (a10, a11) = self.m.A.tolist()
        a = 0.5 * (a00 + a11)
        h = 0.5 * (a00 - a11)
        return a, h * h + a01 * a10, ((h, a01), (a10, -h))

    def stage(self, tau):
        """``e^(a tau) c`` and ``e^(a tau) s`` at ``tau``."""
        a, q, _ = self.closed_form()
        if q > 0.0:
            r = math.sqrt(q)
            if r * tau > 1.0:
                ep = 0.5 * math.exp((a + r) * tau)
                em = 0.5 * math.exp((a - r) * tau)
                return ep + em, (ep - em) / r
            e = math.exp(a * tau)
            return e * math.cosh(r * tau), e * math.sinh(r * tau) / r
        e = math.exp(a * tau)
        if q < 0.0:
            w = math.sqrt(-q)
            return e * math.cos(w * tau), e * math.sin(w * tau) / w
        return e, e * tau

    def coefficients(self, x):
        """``x_d``, ``N x_d``, ``P = Cvec x_d`` and ``Q = Cvec N x_d``."""
        _, _, n = self.closed_form()
        x = [float(v) for v in x]
        xd = [row[0] * x[0] + row[1] * x[1] + j
              for row, j in zip(self.p1.tolist(), self.j1u.tolist())]
        nx = [row[0] * xd[0] + row[1] * xd[1] for row in n]
        c = self.m.Cvec.tolist()
        return (xd, nx, c[0] * xd[0] + c[1] * xd[1],
                c[0] * nx[0] + c[1] * nx[1])

    def phi_at(self, P, Q, tau):
        ec, es = self.stage(tau)
        return ec * P + es * Q + self.du - self.ramp.ma * (self.ramp.d + tau)

    def refine(self, P, Q, lo, hi, flo, fhi):
        """The refiner on this form's own ``stage``."""
        a, q, _ = self.closed_form()
        return _newton(self.stage, P, Q, a * P + Q, q * P + a * Q, self.du,
                       self.ramp.ma, self.ramp.d, lo, hi, flo, fhi,
                       REFINE_REL_TOL * self.T_guess)

    def phis(self, P, Q, ks):
        """``phi`` at the grid rows ``ks``, its terms formed afresh and
        summed elementwise."""
        taus = ks * self.step
        ec, es = _closed_form(self.m.A * taus[:, None, None])[4:]
        return (ec * P + es * taus * Q + self.du
                - self.ramp.ma * (self.ramp.d + taus))

    def scan(self, P, Q):
        """Whole-chunk scan."""
        chunk = 2 * SCAN_DIVISIONS
        k0 = 1
        kmax = int(np.ceil(HORIZON_PERIODS * self.T_guess / self.step))
        while k0 <= kmax:
            ks = np.arange(k0, min(k0 + chunk, kmax + 1))
            hits = np.nonzero(self.phis(P, Q, ks) <= 0.0)[0]
            if hits.size:
                k = ks[hits[0]]
                return (k - 1) * self.step, k * self.step
            k0 = ks[-1] + 1
        raise AssertionError("reference scan found no crossing")

    def run_cycle(self, x):
        d = self.ramp.d
        xd, nx, P, Q = self.coefficients(x)
        phi0 = P + self.du - self.ramp.ma * d
        if phi0 <= 0.0:
            tau = 0.0
        else:
            lo, hi = self.scan(P, Q)
            flo = self.phi_at(P, Q, lo) if lo > 0.0 else phi0
            fhi = self.phi_at(P, Q, hi)
            if fhi == 0.0:
                tau = hi
            elif flo > 0.0 > fhi:
                tau = self.refine(P, Q, lo, hi, flo, fhi)
            else:
                scale = (2.0 * abs(self.du)
                         + abs(self.ramp.ma) * (self.ramp.d + hi)
                         + max(abs(ec * P) + abs(es * Q)
                               for ec, es in (self.stage(lo),
                                              self.stage(hi))))
                noise = 64.0 * np.finfo(float).eps * max(scale, 1e-300)
                assert min(abs(flo), abs(fhi)) <= noise
                tau = lo if abs(flo) < abs(fhi) else hi
        ec, es = self.stage(tau)
        x_next = np.array([ec * xd[0] + es * nx[0], ec * xd[1] + es * nx[1]])
        return _Cycle(x_next, d + tau,
                         float(self.m.Cvec @ x_next) + self.du, phi0 <= 0.0)


class _CountingEngine(_CycleEngine):
    """The engine, counting the scans its search decided."""

    def __init__(self, *args):
        super().__init__(*args)
        self.served = 0

    def _search(self, P, Q, phi0):
        row = super()._search(P, Q, phi0)
        self.served += row > 0
        return row


class _FindRootEngine(_LoopEngine):
    """Loop-form cycle refined by ``find_root``."""

    def refine(self, P, Q, lo, hi, flo, fhi):
        return find_root(lambda t: self.phi_at(P, Q, t), lo, hi,
                         tol=REFINE_REL_TOL * self.T_guess)


class _PhysicalEngine(_CycleEngine):
    """A cycle through the off stage's eigenvectors, physical coordinates."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lam, self.vecs = np.linalg.eig(self.m.A)
        self.vinv = np.linalg.inv(self.vecs)
        self.cv = self.m.Cvec @ self.vecs

    def on_stage(self, x):
        return self.p1 @ x + self.j1u

    def _modal(self, x_d):
        return self.vinv @ x_d

    def phi_at(self, x_d, tau):
        z = self._modal(x_d)
        acc = 0.0
        for i in range(len(self.lam)):
            acc += (self.cv[i] * z[i] * cmath.exp(self.lam[i] * tau)).real
        return acc + self.du - self.ramp.ma * (self.ramp.d + tau)

    def refine(self, x_d, lo, hi, flo, fhi):
        return find_root(lambda t: self.phi_at(x_d, t), lo, hi,
                         tol=REFINE_REL_TOL * self.T_guess)

    def scan(self, x_d):
        d = self.ramp.d
        az = self.cv * self._modal(x_d)
        chunk = 2 * SCAN_DIVISIONS
        k0 = 1
        kmax = int(np.ceil(HORIZON_PERIODS * self.T_guess / self.step))
        while k0 <= kmax:
            ks = np.arange(k0, min(k0 + chunk, kmax + 1))
            taus = ks * self.step
            vals = (np.exp(np.outer(taus, self.lam)) @ az).real
            phis = vals + self.du - self.ramp.ma * (d + taus)
            hits = np.nonzero(phis <= 0.0)[0]
            if hits.size:
                k = ks[hits[0]]
                return (k - 1) * self.step, k * self.step
            k0 = ks[-1] + 1
        raise AssertionError("reference scan found no crossing")

    def state(self, x_d, tau):
        z = self._modal(x_d)
        return (self.vecs @ (np.exp(self.lam * tau) * z)).real

    def noise_scale(self, x_d, hi):
        """Magnitude of the terms whose cancellation forms phi."""
        z = self._modal(x_d)
        return (abs(self.du) + abs(self.ramp.ma) * (self.ramp.d + hi)
                + float(np.sum(np.abs(self.cv * z))) + abs(self.du))

    def run_cycle(self, x):
        d = self.ramp.d
        x_d = self.on_stage(x)
        y_d = float(self.m.Cvec @ x_d) + self.du
        phi0 = y_d - self.ramp.ma * d
        if phi0 <= 0.0:
            return _Cycle(x_d, d, y_d, True)
        lo, hi = self.scan(x_d)
        flo = self.phi_at(x_d, lo) if lo > 0.0 else phi0
        fhi = self.phi_at(x_d, hi)
        if fhi == 0.0:
            tau = hi
        elif flo > 0.0 > fhi:
            tau = self.refine(x_d, lo, hi, flo, fhi)
        else:
            noise = (64.0 * np.finfo(float).eps
                     * max(self.noise_scale(x_d, hi), 1e-300))
            assert min(abs(flo), abs(fhi)) <= noise
            tau = lo if abs(flo) < abs(fhi) else hi
        x_next = self.state(x_d, tau)
        return _Cycle(x_next, d + tau,
                         float(self.m.Cvec @ x_next) + self.du, False)


def _loop_trace(engine, setup, ncycles):
    m, ramp, u, T, x0 = setup
    eng = engine(m, ramp, u, T)
    steps = []
    x = x0
    for _ in range(ncycles):
        steps.append(eng.run_cycle(x))
        x = steps[-1].x_next
    return eng, steps


def _assert_matches_loop_form(setup, ncycles):
    m, ramp, u, T, x0 = setup
    _, steps = _loop_trace(_LoopEngine, setup, ncycles)
    tr = simulate(m, ramp, x0, u, ncycles, T)
    assert np.array_equal(tr.Tn, [st.Tn for st in steps])
    assert np.array_equal(tr.x_end, [st.x_next for st in steps])
    assert np.array_equal(tr.y_switch, [st.y_switch for st in steps])
    assert np.array_equal(tr.saturated, [st.saturated for st in steps])
    assert np.array_equal(tr.x0, x0)
    assert np.array_equal(tr.u, u)
    return tr


def test_stable_orbit_matches_loop_form():
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    tr = _assert_matches_loop_form(fam(2000.0), 600)
    assert classify_orbit(tr, settle=300) == PERIOD1


def test_near_boundary_orbit_matches_loop_form():
    # just above the simulated onset (945.6) the kick still wanders after
    # 3000 cycles; a last-digit change anywhere would show in the tail
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    tr = _assert_matches_loop_form(fam(1000.0), 3000)
    assert classify_orbit(tr, settle=1500) == OTHER


def test_duty_family_orbit_matches_loop_form():
    fam = make_duty_family(FAST, Scheme.V_COTC, FAST_D, VO, 0.0)
    _assert_matches_loop_form(fam(0.37), 1500)


def test_critical_damping_matches_loop_form():
    # R = sqrt(L/C)/2 with no ESR: a double off-stage eigenvalue, q == 0,
    # on the same path as every other model
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * np.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    fam = make_ramp_family(p, Scheme.V_COTC, FAST_D, FAST_T)
    tr = _assert_matches_loop_form(fam(5000.0), 400)
    assert classify_orbit(tr, settle=300) == PERIOD1


def test_overdamped_orbit_matches_loop_form():
    # a small load splits the off-stage pair far apart (q > 0), and the
    # crossing lies past sqrt(q) tau = 1, where the hyperbolic pair is
    # formed from exp((a +- sqrt q) tau)
    p = BuckParams(R=0.08, L=5e-6, C=1.2e-5, Rc=0.01, vs=5.0)
    d, T = 2e-6, 5e-6
    setup = make_ramp_family(p, Scheme.V_COTC, d, T)(0.0)
    assert math.sqrt(closed_form_q(setup[0].A)) * (T - d) > 1.0
    tr = _assert_matches_loop_form(setup, 400)
    assert classify_orbit(tr, settle=300) == PERIOD1


def test_grid_aligned_orbit_matches_loop_form():
    # the guess period is the design period, a whole number of grid steps,
    # so the settled crossing lies on a grid row whose value is rounding
    # noise: the scan must take that row's sign as the loop form does
    m = build_model(FAST, Scheme.V_COTC)
    ramp = RampSpec(ma=9500.0, d=FAST_D)
    ss = consistent_steady_state(m, ramp, FAST_T, FAST.vs)
    x0 = nominal_probe_state(FAST, ss.D, ss.d)
    _assert_matches_loop_form((m, ramp, ss.u, ss.T, x0), 60)


@pytest.mark.parametrize("family, value, ncycles, settle", [
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 2000.0,
     600, 300),
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 1000.0,
     3000, 1500),
    (lambda: make_duty_family(FAST, Scheme.V_COTC, FAST_D, VO, 0.0), 0.35,
     1500, 300),
])
def test_closed_form_engine_agrees_with_physical_modal_form(family, value,
                                                            ncycles, settle):
    # orbits that do not diverge: the engine's closed form and the
    # reference's modal form round differently, but the difference must
    # stay at rounding level
    setup = family()(value)
    m, ramp, u, T, x0 = setup
    _, steps = _loop_trace(_PhysicalEngine, setup, ncycles)
    tr = simulate(m, ramp, x0, u, ncycles, T)
    tns = np.array([st.Tn for st in steps])
    x_end = np.array([st.x_next for st in steps])
    assert np.max(np.abs(tr.Tn / tns - 1.0)) <= PHYSICAL_REL_TOL
    assert np.max(np.abs(tr.x_end / x_end - 1.0)) <= PHYSICAL_REL_TOL
    assert np.array_equal(tr.saturated, [st.saturated for st in steps])
    ref = Trace(tns, x_end, np.zeros(ncycles), tr.saturated, x0, u)
    assert classify_orbit(tr, settle) == classify_orbit(ref, settle)


def _assert_refiner_matches_find_root(setup, ncycles):
    """Per cycle: the scan's cell and the Newton instant.

    Every cycle of the engine's own trace is restarted from its start
    state.  The engine's scan, from the row the run carried and again from
    the first and the last row of the table's first chunk, must find the
    cell of the whole-chunk loop-form scan; the Newton instant must lie
    within the refiner tolerance of the root ``find_root`` finds in that
    cell.  Returns the number of scans the search decided and of scans.
    """
    m, ramp, u, T, x0 = setup
    tr = simulate(m, ramp, x0, u, ncycles, T)
    eng = _CountingEngine(m, ramp, u, T)
    ref = _FindRootEngine(m, ramp, u, T)
    tol = REFINE_REL_TOL * T
    starts = np.vstack([x0, tr.x_end[:-1]])
    refined = 0
    for k, x in enumerate(starts):
        if tr.saturated[k]:
            continue
        _, _, P, Q = ref.coefficients(x)
        phi0 = P + eng.du - ramp.ma * ramp.d
        cell = ref.scan(P, Q)
        assert eng._scan(P, Q, phi0) == cell, k
        # from far rows too; each time restore what the run carried, so
        # that the next cycle scans as the run's own engine did
        carried = eng.back, eng.hint, eng.served
        for far in (1, 2 * SCAN_DIVISIONS):
            eng.back = far
            assert eng._scan(P, Q, phi0) == cell, (k, far)
            eng.back, eng.hint, eng.served = carried
        lo, hi = cell
        flo = ref.phi_at(P, Q, lo) if lo > 0.0 else phi0
        fhi = ref.phi_at(P, Q, hi)
        if not flo > 0.0 > fhi:
            continue
        tau = _newton(eng.terms, P, Q, eng.a * P + Q, eng.q * P + eng.a * Q,
                      eng.du, ramp.ma, ramp.d, lo, hi, flo, fhi, tol)
        assert tr.Tn[k] == ramp.d + tau
        assert abs(tau - ref.refine(P, Q, lo, hi, flo, fhi)) <= tol, k
        refined += 1
    assert refined >= ncycles // 2
    return eng.served, int(np.sum(~tr.saturated))


def test_refiner_matches_find_root_near_boundary():
    # the orbit barely moves from cycle to cycle, and its rows bend down
    # over the first chunk, so the search decides nearly every scan
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    served, scanned = _assert_refiner_matches_find_root(fam(1000.0), 3000)
    assert served >= 0.9 * scanned


def test_refiner_matches_find_root_on_duty_family():
    fam = make_duty_family(FAST, Scheme.V_COTC, FAST_D, VO, 0.0)
    _assert_refiner_matches_find_root(fam(0.37), 1500)


def test_windowed_scan_misses_on_a_saturating_orbit():
    # well below the onset the orbit alternates saturated cycles with long
    # recovery cycles, whose crossings lie far from the last one and the
    # one two back: the gallop still reaches them, so the search decides
    # nearly every scan
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    served, scanned = _assert_refiner_matches_find_root(fam(600.0), 1500)
    assert served >= 0.9 * scanned


def _near_boundary_engine():
    """A counting engine that ran 200 cycles of the near-boundary orbit,
    its loop form, and the state the run ended at."""
    m, ramp, u, T, x0 = make_ramp_family(FAST, Scheme.V_COTC, FAST_D,
                                         FAST_T)(1000.0)
    eng = _CountingEngine(m, ramp, u, T)
    x = eng.run(x0, 200)[1][-1]
    return eng, _LoopEngine(m, ramp, u, T), x


def test_certificate_refuses_a_far_state():
    # the near-boundary orbit crosses at row 600; with the output voltage
    # 2% low the crossing moves down to row 417, and 5% high up to row 835.
    # The gallop from row 600 must reach either, and the search decide it
    eng, ref, x = _near_boundary_engine()
    assert eng.hint == 600
    carried = eng.back, eng.hint
    for scale, row in ((0.98, 417), (1.05, 835)):
        _, _, P, Q = ref.coefficients(x * [1.0, scale])
        cell = ref.scan(P, Q)
        assert cell[1] == row * eng.step
        eng.back, eng.hint = carried
        eng.served = 0
        assert eng._scan(P, Q, P + eng.du - eng.ramp.ma * eng.ramp.d) == cell
        assert eng.served == 1


def test_walk_decides_rows_near_zero():
    # States that put one of rows 601-604 within a few ulp of zero, on both
    # sides.  The search's bisection stops next to that row, and its walk
    # down, on the full scan's own operations, decides the row's sign.  The
    # search must decide every scan and find the whole-chunk loop-form cell
    eng, ref, x = _near_boundary_engine()
    table = eng._table[0]
    chunk = np.arange(1, table.shape[1] + 1)
    du = eng.du
    carried = eng.back, eng.hint
    p_orbit = ref.coefficients(x)[2]
    decided = signs = 0
    for r in range(600, 604):
        t0, t1, t3 = table[:, r].tolist()
        for n in range(4):
            P = p_orbit * (1.0 + n * 1e-7)
            phi0 = P + du - eng.ramp.ma * eng.ramp.d
            q = -(t0 * P + du + t3) / t1
            for _ in range(4):
                q = math.nextafter(q, -math.inf)
            for _ in range(9):
                eng.back, eng.hint = carried
                eng.served = 0
                assert eng._scan(P, q, phi0) == ref.scan(P, q), (r, n, q)
                value = float(ref.phis(P, q, chunk)[r])
                assert abs(value) <= 64.0 * np.finfo(float).eps * abs(t1 * q)
                decided += eng.served
                signs |= 1 << (value > 0.0)
                q = math.nextafter(q, math.inf)
    assert decided == 4 * 4 * 9 and signs == 3


def test_walk_refuses_a_nan_state():
    # a NaN P is refused by the search; the whole-chunk scan then finds no
    # crossing, as the loop form does
    eng, ref, x = _near_boundary_engine()
    Q = ref.coefficients(x)[3]
    with pytest.raises(AssertionError, match="no crossing"):
        ref.scan(math.nan, Q)
    assert eng._search(math.nan, Q, math.nan) == 0
    with pytest.raises(MissedSwitchingError):
        eng._scan(math.nan, Q, math.nan)


def test_search_returns_the_first_of_two_crossings():
    # an off stage that rings within the table's first chunk: on these
    # states phi falls through zero, rises above it and falls through it
    # again.  Started at or past the second crossing, a gallop would find
    # that one; the shape bound must refuse such states, so that every
    # scan returns the first crossing
    m = build_model(BuckParams(R=50.0, L=1e-7, C=1e-6, Rc=1e-3, vs=5.0),
                    Scheme.V_COTC)
    setup = m, RampSpec(ma=1e5, d=1.2e-6), np.array([5.0, 1.0]), 3e-6
    eng = _CycleEngine(*setup)
    ref = _LoopEngine(*setup)
    chunk = np.arange(1, 2 * SCAN_DIVISIONS + 1)
    states = 0
    for P in np.linspace(1.0, 3.0, 21).tolist():
        for Q in np.linspace(-3e6, 3e6, 21).tolist():
            phi0 = P + eng.du - eng.ramp.ma * eng.ramp.d
            below = ref.phis(P, Q, chunk) <= 0.0
            # rows at or below zero whose predecessor is above it
            crossings = chunk[below & ~np.concatenate([[False], below[:-1]])]
            if not phi0 > 0.0 or len(crossings) < 2:
                continue
            cell = ref.scan(P, Q)
            assert cell[1] == crossings[0] * eng.step
            for back in (crossings[1], chunk[-1]):
                eng.back = int(back)
                assert eng._scan(P, Q, phi0) == cell, (P, Q, back)
            states += 1
    assert states >= 300


def test_unproven_orbit_takes_the_table_scan():
    # after each on-time this orbit's output voltage keeps rising for a
    # while, and past row 1300 phi bends up again: over the table's first
    # chunk it neither falls nor is concave, so no bound proves its shape.
    # Every scan takes the numpy table, and the trace matches the loop form
    p = BuckParams(R=0.28, L=7e-7, C=2.1e-5, Rc=0.025, vs=5.3)
    setup = make_ramp_family(p, Scheme.V_COTC, 2.4e-6, 4.1e-6)(15000.0)
    tr = _assert_matches_loop_form(setup, 100)
    m, ramp, u, T, x0 = setup
    eng = _CountingEngine(m, ramp, u, T)
    eng.run(x0, 100)
    assert eng.served == 0 and not tr.saturated.any()
    ref = _LoopEngine(m, ramp, u, T)
    _, _, P, Q = ref.coefficients(tr.x_end[-1])
    slope = np.diff(ref.phis(P, Q, np.arange(2 * SCAN_DIVISIONS + 1)))
    assert slope.max() > 0.0 and np.diff(slope).max() > 0.0


@pytest.mark.parametrize("factor", [0.992, 1.008])
def test_certificates_serve_probes_near_the_onset(factor):
    # within 1% of Eq22 the multiplier is close to -1: each cycle's
    # crossing lies close to the one two back, where the gallop starts
    m = build_model(FAST, Scheme.V_COTC)
    ma = factor * pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    served, scanned = _assert_refiner_matches_find_root(fam(ma), 3000)
    assert served >= 0.9 * scanned
