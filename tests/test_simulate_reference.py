"""The modal cycle engine against loop forms of its arithmetic.

``_CycleEngine`` runs fast-path cycles in the modal coordinates of the off
stage.  It forms the modal on-stage map and the real scan table once per
engine, scans only the table rows up to the last cycle's crossing unless
that misses, and writes the trace once per run.  None of this may change
arithmetic, so the first reference below keeps the per-cycle formulas in
loop form (a whole-chunk scan, with the modal map, the table chunk and
every modal coefficient evaluated afresh at each use, and the same
safeguarded Newton refiner) and the traces must match bit for bit,
including at a near-boundary point where any last-digit change would be
amplified into a visibly different orbit.

The second reference is the physical-coordinate loop form the modal
engine replaced: it propagates the state through the on stage, takes its
modal coordinates and scans a complex table.  It rounds differently, so on
orbits that do not diverge the traces must agree within a stated
tolerance and classify alike.  A third reference does the same for the
matrix-stepping fallback path, bit for bit.  A fourth refines the modal
loop form with ``find_root``, and the Newton instants must lie within the
refiner tolerance of its roots.
"""

import cmath
import operator

import numpy as np
import pytest

from cotstab import (BuckParams, Scheme, Trace, make_duty_family,
                     make_ramp_family, simulate)
from cotstab.linalg import expm, expm_integral, find_root
from cotstab.simulate import (OTHER, PERIOD1, REFINE_REL_TOL, SCAN_DIVISIONS,
                              SCAN_MARGIN, CycleStep, _complex_rows,
                              _CycleEngine, _newton, classify_orbit)

from helpers import FAST, FAST_D, FAST_T

VO = 2.0
# physical against modal coordinates: rounding differences of a few ulp
# per cycle, which a non-diverging orbit keeps far below this
PHYSICAL_REL_TOL = 1e-10


class _ModalLoopEngine(_CycleEngine):
    """Fast-path cycle with the modal formulas in loop form."""

    def modes(self, x):
        """Modal coordinates after the on-time and their coefficients."""
        pm = _complex_rows(self.vinv @ self.p1)
        jm = _complex_rows(self.vinv @ self.j1u)
        cv = _complex_rows(self.m.Cvec @ self.vecs)
        x = [float(v) for v in x]
        zd = [sum(map(operator.mul, row, x)) + j for row, j in zip(pm, jm)]
        return zd, [c * z for c, z in zip(cv, zd)]

    def phi_and_slope(self, az, tau):
        acc = 0.0
        dacc = 0.0
        for a, lam in zip(az, _complex_rows(self.lam)):
            e = cmath.exp(lam * tau)
            acc += (a * e).real
            dacc += (a * lam * e).real
        return (acc + self.du - self.ramp.ma * (self.ramp.d + tau),
                dacc - self.ramp.ma)

    def phi_at(self, az, tau):
        return self.phi_and_slope(az, tau)[0]

    def refine(self, az, lo, hi, flo, fhi):
        return _newton(lambda t: self.phi_and_slope(az, t), lo, hi, flo, fhi,
                       REFINE_REL_TOL * self.T_guess)

    def scan(self, az):
        """Whole-chunk scan, each chunk's table built afresh."""
        w = np.array([a.real for a in az] + [a.imag for a in az]
                     + [self.du, 1.0])
        chunk = 2 * SCAN_DIVISIONS
        k0 = 1
        kmax = int(np.ceil(self.tau_max / self.step))
        while k0 <= kmax:
            ks = np.arange(k0, min(k0 + chunk, kmax + 1))
            taus = ks * self.step
            e = np.exp(np.outer(taus, self.lam))
            table = np.column_stack([e.real, -e.imag, np.ones_like(taus),
                                     -self.ramp.ma * (self.ramp.d + taus)])
            hits = np.nonzero(table.dot(w) <= 0.0)[0]
            if hits.size:
                k = ks[hits[0]]
                return (k - 1) * self.step, k * self.step
            k0 = ks[-1] + 1
        raise AssertionError("reference scan found no crossing")

    def state(self, zd, tau):
        ez = [cmath.exp(lam * tau) * z
              for lam, z in zip(_complex_rows(self.lam), zd)]
        return np.array([sum(map(operator.mul, row, ez)).real
                         for row in _complex_rows(self.vecs)])

    def run_cycle(self, x):
        d = self.ramp.d
        zd, az = self.modes(x)
        acc = 0.0
        for a in az:
            acc += a.real
        phi0 = acc + self.du - self.ramp.ma * d
        if phi0 <= 0.0:
            tau = 0.0
        else:
            lo, hi = self.scan(az)
            flo = self.phi_at(az, lo) if lo > 0.0 else phi0
            fhi = self.phi_at(az, hi)
            if fhi == 0.0:
                tau = hi
            elif flo > 0.0 > fhi:
                tau = self.refine(az, lo, hi, flo, fhi)
            else:
                scale = (2.0 * abs(self.du)
                         + abs(self.ramp.ma) * (self.ramp.d + hi)
                         + sum(map(abs, az)))
                noise = 64.0 * np.finfo(float).eps * max(scale, 1e-300)
                assert min(abs(flo), abs(fhi)) <= noise
                tau = lo if abs(flo) < abs(fhi) else hi
        x_next = self.state(zd, tau)
        return CycleStep(x_next, d + tau,
                         float(self.m.Cvec @ x_next) + self.du, phi0 <= 0.0)


class _FindRootEngine(_ModalLoopEngine):
    """Modal loop-form cycle refined by ``find_root``."""

    def refine(self, az, lo, hi, flo, fhi):
        return find_root(lambda t: self.phi_at(az, t), lo, hi,
                         tol=REFINE_REL_TOL * self.T_guess)


class _PhysicalEngine(_CycleEngine):
    """Fast-path cycle in physical coordinates, as the engine once ran it."""

    def _modal(self, x_d):
        return self.vinv @ x_d

    def phi_and_slope(self, x_d, tau):
        z = self._modal(x_d)
        acc = 0.0
        dacc = 0.0
        for i in range(len(self.lam)):
            e = cmath.exp(self.lam[i] * tau)
            acc += (self.cv[i] * z[i] * e).real
            dacc += (self.cv[i] * z[i] * self.lam[i] * e).real
        return (acc + self.du - self.ramp.ma * (self.ramp.d + tau),
                dacc - self.ramp.ma)

    def phi_at(self, x_d, tau):
        return self.phi_and_slope(x_d, tau)[0]

    def refine(self, x_d, lo, hi, flo, fhi):
        return _newton(lambda t: self.phi_and_slope(x_d, t), lo, hi, flo, fhi,
                       REFINE_REL_TOL * self.T_guess)

    def scan(self, x_d):
        d = self.ramp.d
        az = self.cv * self._modal(x_d)
        chunk = 2 * SCAN_DIVISIONS
        k0 = 1
        kmax = int(np.ceil(self.tau_max / self.step))
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
            return CycleStep(x_d, d, y_d, True)
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
        return CycleStep(x_next, d + tau,
                         float(self.m.Cvec @ x_next) + self.du, False)


class _SteppingEngine(_PhysicalEngine):
    """Fallback-path cycle in loop form, off-stage drive integral included.

    The off stage is undriven, so the ``expm_integral`` term the engine
    once added at every step is an exact zero; keeping it here shows that
    leaving it out moved no bit.
    """

    def drive(self, tau):
        zero = np.zeros_like(self.m.B)
        return expm_integral(self.m.A, zero, tau) @ self.u

    def refine(self, x_d, lo, hi, flo, fhi):
        return find_root(lambda t: self.phi_at(x_d, t), lo, hi,
                         tol=REFINE_REL_TOL * self.T_guess)

    def state(self, x_d, tau):
        return expm(self.m.A, tau) @ x_d + self.drive(tau)

    def phi_at(self, x_d, tau):
        return (float(self.m.Cvec @ self.state(x_d, tau)) + self.du
                - self.ramp.ma * (self.ramp.d + tau))

    def scan(self, x_d):
        phi_step = expm(self.m.A, self.step)
        j_step = self.drive(self.step)
        x = x_d
        for k in range(1, int(np.ceil(self.tau_max / self.step)) + 1):
            x = phi_step @ x + j_step
            phi = (float(self.m.Cvec @ x) + self.du
                   - self.ramp.ma * (self.ramp.d + k * self.step))
            if phi <= 0.0:
                return (k - 1) * self.step, k * self.step
        raise AssertionError("reference scan found no crossing")

    def noise_scale(self, x_d, hi):
        return (abs(self.du) + abs(self.ramp.ma) * (self.ramp.d + hi)
                + float(np.abs(self.m.Cvec) @ np.abs(x_d)))


def _loop_trace(engine, setup, ncycles):
    m, ramp, u, T, x0 = setup
    eng = engine(m, ramp, u, T)
    steps = []
    x = x0
    for _ in range(ncycles):
        steps.append(eng.run_cycle(x))
        x = steps[-1].x_next
    return eng, steps


def _assert_matches_loop_form(setup, ncycles, engine=_ModalLoopEngine):
    m, ramp, u, T, x0 = setup
    eng, steps = _loop_trace(engine, setup, ncycles)
    assert eng.fast is (engine is not _SteppingEngine)
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


def test_critical_damping_matches_stepping_loop_form():
    # R = sqrt(L/C)/2 with no ESR: a double off-stage eigenvalue, so the
    # engine scans by matrix stepping and refines with exact exponentials
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * np.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    fam = make_ramp_family(p, Scheme.V_COTC, FAST_D, FAST_T)
    tr = _assert_matches_loop_form(fam(5000.0), 400, _SteppingEngine)
    assert classify_orbit(tr, settle=300) == PERIOD1


@pytest.mark.parametrize("family, value, ncycles, settle", [
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 2000.0,
     600, 300),
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 1000.0,
     3000, 1500),
    (lambda: make_duty_family(FAST, Scheme.V_COTC, FAST_D, VO, 0.0), 0.35,
     1500, 300),
])
def test_modal_engine_agrees_with_physical_loop_form(family, value, ncycles,
                                                     settle):
    # orbits that do not diverge: the two coordinate systems round
    # differently, but the difference must stay at rounding level
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
    """Per cycle: the windowed scan's cell and the Newton instant.

    Every cycle of the engine's own trace is restarted from its start
    state.  The windowed scan, with the hint the run carried and again
    with a hint that forces a miss, must find the cell of the whole-chunk
    loop-form scan; the Newton instant must lie within the refiner
    tolerance of the root ``find_root`` finds in that cell.
    """
    m, ramp, u, T, x0 = setup
    tr = simulate(m, ramp, x0, u, ncycles, T)
    eng = _CycleEngine(m, ramp, u, T)
    ref = _FindRootEngine(m, ramp, u, T)
    tol = REFINE_REL_TOL * T
    starts = np.vstack([x0, tr.x_end[:-1]])
    refined = misses = 0
    for k, x in enumerate(starts):
        if tr.saturated[k]:
            continue
        _, az = ref.modes(x)
        cell = ref.scan(az)
        window = eng.hint + SCAN_MARGIN
        assert eng._scan_fast(az) == cell, k
        misses += cell[1] > window * eng.step
        eng.hint = 0
        assert eng._scan_fast(az) == cell, k
        lo, hi = cell
        phi0 = ref.phi_at(az, 0.0)
        flo = ref.phi_at(az, lo) if lo > 0.0 else phi0
        fhi = ref.phi_at(az, hi)
        if not flo > 0.0 > fhi:
            continue
        tau = _newton(eng._modal_phi(az), lo, hi, flo, fhi, tol)
        assert tr.Tn[k] == ramp.d + tau
        assert abs(tau - ref.refine(az, lo, hi, flo, fhi)) <= tol, k
        refined += 1
    assert refined >= ncycles // 2
    return misses


def test_refiner_matches_find_root_near_boundary():
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    _assert_refiner_matches_find_root(fam(1000.0), 3000)


def test_refiner_matches_find_root_on_duty_family():
    fam = make_duty_family(FAST, Scheme.V_COTC, FAST_D, VO, 0.0)
    _assert_refiner_matches_find_root(fam(0.37), 1500)


def test_windowed_scan_misses_on_a_saturating_orbit():
    # well below the onset the orbit alternates saturated cycles with long
    # recovery cycles, whose crossings fall beyond the last cycle's window
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    assert _assert_refiner_matches_find_root(fam(600.0), 1500) > 0
