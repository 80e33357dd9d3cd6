"""The cached cycle engine against the loop form it replaced.

``_CycleEngine`` builds the crossing-scan exponential table once per run
and the refiner's modal coefficients once per cycle.  Caching must change
no arithmetic, so the reference below keeps the original per-cycle
formulas (every exponential and every modal coefficient evaluated afresh
at each use) and the traces must match bit for bit, including at a
near-boundary point where any last-digit change would be amplified into a
visibly different orbit.
"""

import cmath

import numpy as np

from cotstab import Scheme, make_duty_family, make_ramp_family, simulate
from cotstab.linalg import find_root
from cotstab.simulate import (OTHER, PERIOD1, REFINE_REL_TOL, SCAN_DIVISIONS,
                              CycleStep, _CycleEngine, classify_orbit)

from helpers import FAST, FAST_D, FAST_T

VO = 2.0


class _LoopEngine(_CycleEngine):
    """Fast-path cycle with the original loop-form scan and refiner."""

    def _modal(self, x_d):
        return self.vinv @ (x_d + self.w)

    def phi_at(self, x_d, tau):
        z = self._modal(x_d)
        acc = 0.0
        for i in range(len(self.lam)):
            acc += (self.cv[i] * z[i] * cmath.exp(self.lam[i] * tau)).real
        return acc + self.const - self.ramp.ma * (self.ramp.d + tau)

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
            phis = vals + self.const - self.ramp.ma * (d + taus)
            hits = np.nonzero(phis <= 0.0)[0]
            if hits.size:
                k = ks[hits[0]]
                return (k - 1) * self.step, k * self.step
            k0 = ks[-1] + 1
        raise AssertionError("reference scan found no crossing")

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
            tau = find_root(lambda t: self.phi_at(x_d, t), lo, hi,
                            tol=REFINE_REL_TOL * self.T_guess)
        else:
            z = self._modal(x_d)
            mag = (abs(self.du) + abs(self.ramp.ma) * (d + hi)
                   + float(np.sum(np.abs(self.cv * z))) + abs(self.const))
            noise = 64.0 * np.finfo(float).eps * max(mag, 1e-300)
            assert min(abs(flo), abs(fhi)) <= noise
            tau = lo if abs(flo) < abs(fhi) else hi
        z = self._modal(x_d)
        x_next = (self.vecs @ (np.exp(self.lam * tau) * z)).real - self.w
        return CycleStep(x_next, d + tau,
                         float(self.m.Cvec @ x_next) + self.du, False)


def _assert_matches_loop_form(setup, ncycles):
    m, ramp, u, T, x0 = setup
    eng = _LoopEngine(m, ramp, u, T)
    assert eng.fast
    steps = []
    x = x0
    for _ in range(ncycles):
        steps.append(eng.run_cycle(x))
        x = steps[-1].x_next
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
