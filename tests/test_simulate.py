"""Time-domain simulator tests.

The simulator is the package's independent oracle, so these tests avoid
leaning on the sampled-data machinery except where the two routes are
deliberately cross-checked (fixed-point consistency, multiplier
estimates against exact cycle-map eigenvalues).
"""

import numpy as np
import pytest

from cotstab import (
    BuckParams,
    RampSpec,
    Scheme,
    Trace,
    build_model,
    classify_orbit,
    estimate_multiplier,
    make_duty_family,
    make_ramp_family,
    nominal_probe_state,
    onset_search,
    simulate,
    step_cycle,
)
from cotstab.errors import (
    BracketError,
    DomainError,
    MissedSwitchingError,
    UsageError,
)
from cotstab.sampled import consistent_vc, poles, steady_state_at
from cotstab.simulate import OTHER, PERIOD1, PERIOD2, _CycleEngine

from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T


def _setup(p, scheme, d, T, ma):
    m = build_model(p, scheme)
    ramp = RampSpec(ma=ma, d=d)
    vc = consistent_vc(m, ramp, T, p.vs)
    u = np.array([p.vs, vc])
    return m, ramp, u


def _synthetic_trace(tns, saturated=None):
    tns = np.asarray(tns, dtype=float)
    n = len(tns)
    if saturated is None:
        saturated = np.zeros(n, dtype=bool)
    return Trace(tns, np.zeros((n, 2)), np.zeros(n), saturated,
                 np.zeros(2), np.zeros(2))


def test_step_cycle_holds_fixed_point():
    # periodic orbit of the cycle map: one step must return the same
    # state, the design period and a switching value on the ramp
    for p, scheme, d, T, ma in [
        (FAST, Scheme.V_COTC, FAST_D, FAST_T, 2000.0),
        (CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 0.0),
    ]:
        m, ramp, u = _setup(p, scheme, d, T, ma)
        ss = steady_state_at(m, d, T, u)
        st = step_cycle(m, ramp, ss.x0_0, u, T)
        assert not st.saturated
        assert st.Tn == pytest.approx(T, rel=1e-9)
        scale = np.max(np.abs(ss.x0_0))
        assert np.max(np.abs(st.x_next - ss.x0_0)) <= 1e-12 * scale
        assert st.y_switch - ma * st.Tn == pytest.approx(0.0, abs=1e-9)


def test_switching_residual_is_zero_along_trace():
    # every unsaturated cycle ends exactly where the feedback meets the
    # ramp, transient or not
    ma = 2000.0
    m, ramp, u = _setup(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    x0 = nominal_probe_state(FAST, FAST_D / FAST_T, FAST_D)
    tr = simulate(m, ramp, x0, u, 400, FAST_T)
    res = np.abs(tr.y_switch - ma * tr.Tn)[~tr.saturated]
    assert res.size > 0
    assert res.max() <= 1e-9


def test_probe_converges_to_stable_cycle():
    ma = 2000.0
    m, ramp, u = _setup(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    ss = steady_state_at(m, FAST_D, FAST_T, u)
    x0 = nominal_probe_state(FAST, FAST_D / FAST_T, FAST_D)
    tr = simulate(m, ramp, x0, u, 400, FAST_T)
    scale = np.max(np.abs(ss.x0_0))
    assert np.max(np.abs(tr.x_end[-1] - ss.x0_0)) <= 1e-8 * scale
    assert classify_orbit(tr, settle=300) == PERIOD1


def test_simulate_is_deterministic():
    m, ramp, u = _setup(FAST, Scheme.V_COTC, FAST_D, FAST_T, 1500.0)
    x0 = nominal_probe_state(FAST, FAST_D / FAST_T, FAST_D)
    a = simulate(m, ramp, x0, u, 120, FAST_T)
    b = simulate(m, ramp, x0, u, 120, FAST_T)
    assert np.array_equal(a.Tn, b.Tn)
    assert np.array_equal(a.x_end, b.x_end)
    assert np.array_equal(a.y_switch, b.y_switch)
    assert np.array_equal(a.saturated, b.saturated)


def test_simulate_input_validation():
    m, ramp, u = _setup(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)
    with pytest.raises(DomainError):
        simulate(m, ramp, np.zeros(2), u, 0, FAST_T)
    with pytest.raises(DomainError):
        simulate(m, ramp, np.zeros(3), u, 10, FAST_T)
    with pytest.raises(DomainError, match="ncycles"):
        simulate(m, ramp, np.zeros(2), u, 5.5, FAST_T)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="T_guess"):
            simulate(m, ramp, np.zeros(2), u, 10, bad)


def test_critical_damping_uses_stepping_fallback():
    # R = sqrt(L/C)/2 with no ESR gives the off-stage a double eigenvalue,
    # so the engine cannot diagonalize it and scans by matrix stepping; a
    # hair more damping splits the pair and the fast path takes over.  The
    # first cycles move by about 8x the relative change in R, hence 5e-5
    # over the whole trace; the settled period must agree far closer.
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * np.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    fam = make_ramp_family(p, Scheme.V_COTC, FAST_D, FAST_T)
    m, ramp, u, T, x0 = fam(5000.0)
    assert not _CycleEngine(m, ramp, u, T).fast
    tr = simulate(m, ramp, x0, u, 400, T)
    assert classify_orbit(tr, settle=300) == PERIOD1
    m_split = build_model(p.with_(R=p.R * (1.0 + 1e-6)), Scheme.V_COTC)
    assert _CycleEngine(m_split, ramp, u, T).fast
    ref = simulate(m_split, ramp, x0, u, 400, T)
    assert np.max(np.abs(tr.Tn / ref.Tn - 1.0)) <= 5e-5
    assert tr.Tn[-1] == pytest.approx(ref.Tn[-1], rel=1e-8)


def test_classifier_contracts_on_synthetic_traces():
    base = 3e-6
    n = 200
    assert classify_orbit(_synthetic_trace(np.full(n, base)),
                          settle=100) == PERIOD1
    two = np.where(np.arange(n) % 2 == 0, 0.97 * base, 1.03 * base)
    assert classify_orbit(_synthetic_trace(two), settle=100) == PERIOD2
    rng = np.random.default_rng(7201)
    noisy = base * (1.0 + 0.1 * rng.standard_normal(n))
    assert classify_orbit(_synthetic_trace(noisy), settle=100) == OTHER
    # saturation in the tail disqualifies a periodic label
    sat = np.zeros(n, dtype=bool)
    sat[150] = True
    assert classify_orbit(_synthetic_trace(np.full(n, base), sat),
                          settle=100) == OTHER
    with pytest.raises(UsageError):
        classify_orbit(_synthetic_trace(np.full(132, base)), settle=100)


def test_unstable_cycle_falls_to_saturated_subharmonic():
    # well below the critical slope the period-1 orbit is unstable; the
    # attractor alternates saturated minimum-length cycles with long
    # recovery cycles, so the classifier must refuse a periodic label
    ma = 600.0
    m, ramp, u = _setup(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    x0 = steady_state_at(m, FAST_D, FAST_T, u).x0_0.copy()
    x0[-1] *= 1.0 + 1e-5
    tr = simulate(m, ramp, x0, u, 1500, FAST_T)
    assert classify_orbit(tr, settle=800) == OTHER
    tail_sat = tr.saturated[800:]
    assert tail_sat.any()
    assert np.all(tr.Tn[800:][tail_sat] == pytest.approx(FAST_D, rel=1e-12))
    assert np.max(tr.Tn[800:]) > 1.4 * FAST_T


def test_full_saturation_is_flagged_not_fatal():
    # reference far above the output: feedback sits below the ramp at
    # every on-time end, so each cycle switches immediately at d
    m = build_model(FAST, Scheme.V_COTC)
    ramp = RampSpec(ma=0.0, d=FAST_D)
    u = np.array([FAST.vs, 100.0])
    tr = simulate(m, ramp, np.zeros(2), u, 50, FAST_T)
    assert tr.saturated.all()
    assert np.all(tr.Tn == FAST_D)


def test_missed_switching_reports_cycle_index():
    # reference far below the output keeps the feedback above the ramp
    # forever; the error must carry the offending cycle
    m = build_model(FAST, Scheme.V_COTC)
    ramp = RampSpec(ma=0.0, d=FAST_D)
    u = np.array([FAST.vs, -100.0])
    with pytest.raises(MissedSwitchingError) as exc_info:
        simulate(m, ramp, np.zeros(2), u, 50, FAST_T)
    assert exc_info.value.cycle == 0


def test_estimate_multiplier_matches_exact_poles():
    cases = [
        (FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0, {}, 1e-4),
        (FAST, Scheme.V_COTC, FAST_D, FAST_T, 9500.0, {}, 5e-3),
        (CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 0.0,
         dict(ncycles=24, fit=12), 1e-6),
    ]
    for p, scheme, d, T, ma, kw, tol in cases:
        m, ramp, u = _setup(p, scheme, d, T, ma)
        lam = poles(m, ramp, u, T)
        dom = lam[np.argmax(np.abs(lam))]
        est = estimate_multiplier(m, ramp, u, T, **kw)
        assert est == pytest.approx(dom, rel=tol)


def test_multiplier_error_shrinks_linearly_with_kick():
    # the measurement error is dominated by the quadratic term of the
    # cycle map, so a 10x smaller kick must cut it by roughly 10x
    m, ramp, u = _setup(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)
    lam = poles(m, ramp, u, FAST_T)
    exact = lam[np.argmax(np.abs(lam))]
    e_coarse = abs(estimate_multiplier(m, ramp, u, FAST_T, rel_eps=1e-5)
                   - exact)
    e_fine = abs(estimate_multiplier(m, ramp, u, FAST_T, rel_eps=1e-6)
                 - exact)
    assert e_coarse > 1e-12
    assert e_fine < e_coarse
    assert e_fine / e_coarse <= 0.3


def test_nominal_probe_state_formula():
    D = FAST_D / FAST_T
    x0 = nominal_probe_state(FAST, D, FAST_D)
    ripple = FAST.vs * (1.0 - D) * FAST_D / FAST.L
    assert x0[0] == pytest.approx(D * FAST.vs / FAST.R - 0.5 * ripple,
                                  rel=1e-12)
    assert x0[1] == pytest.approx(D * FAST.vs * (1.0 + 1e-5), rel=1e-12)
    with pytest.raises(DomainError):
        nominal_probe_state(FAST, 0.0, FAST_D)
    with pytest.raises(DomainError):
        nominal_probe_state(FAST, 1.0, FAST_D)


def test_ramp_family_reanchors_each_slope():
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    m, ramp, u, T, x0 = fam(943.0)
    assert ramp.ma == 943.0
    assert ramp.d == FAST_D
    assert T == FAST_T
    assert u[0] == FAST.vs
    # reference is re-placed so the orbit keeps the design period
    assert u[1] == pytest.approx(consistent_vc(m, ramp, T, FAST.vs),
                                 rel=1e-12)
    ss = steady_state_at(m, FAST_D, FAST_T, u)
    assert x0[0] == pytest.approx(ss.x0_0[0], rel=1e-12)
    assert x0[1] == pytest.approx(ss.x0_0[1] * (1.0 + 1e-5), rel=1e-12)


def test_duty_family_scales_period_and_source():
    vo, ma = 2.0, 5000.0
    fam = make_duty_family(FAST, Scheme.V_COTC, FAST_D, vo, ma)
    m, ramp, u, T, x0 = fam(0.4)
    assert T == pytest.approx(FAST_D / 0.4, rel=1e-12)
    assert u[0] == pytest.approx(vo / 0.4, rel=1e-12)
    assert ramp.ma == ma
    st = step_cycle(m, ramp, steady_state_at(m, FAST_D, T, u).x0_0, u, T)
    assert st.Tn == pytest.approx(T, rel=1e-9)
    with pytest.raises(DomainError):
        fam(1.0)


def test_onset_search_requires_straddling_bracket():
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    with pytest.raises(BracketError):
        onset_search(fam, 2000.0, 2500.0, cycles=120, settle=30,
                     escalation=())


def test_onset_search_locates_subharmonic_boundary():
    # low-fidelity bisection; the full-fidelity anchor is 945.6 and the
    # exact boundary 943.4, so a generous window still pins the search
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    ma_star = onset_search(fam, 600.0, 1500.0, cycles=600, settle=150,
                           escalation=(2400,))
    assert 900.0 < ma_star < 1000.0
