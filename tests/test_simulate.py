"""Time-domain simulator tests.

The simulator is the package's independent oracle, so these tests avoid
leaning on the sampled-data machinery except where the two routes are
deliberately cross-checked (fixed-point consistency, multiplier
estimates against exact cycle-map eigenvalues).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from cotstab.errors import (
    BracketError,
    DomainError,
    MissedSwitchingError,
    UsageError,
)
from cotstab.bifurcation import pdb_boundary_exact, pdb_onset_duty
from cotstab.linalg import expm
from cotstab.sampled import consistent_steady_state, poles, steady_state_at
from cotstab.simulate import (OTHER, PERIOD1, PERIOD2, _CycleEngine,
                              _newton, _probe_side, _trend_side, simulate)

from helpers import (CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T, SCHEMES,
                     closed_form_q, operating)


def _synthetic_trace(tns, saturated=None):
    tns = np.asarray(tns, dtype=float)
    n = len(tns)
    if saturated is None:
        saturated = np.zeros(n, dtype=bool)
    return Trace(tns, np.zeros((n, 2)), np.zeros(n), saturated,
                 np.zeros(2), np.zeros(2))


def test_package_name_simulate_is_the_module():
    # the package offers the submodules' functions and classes; its
    # submodule names stay modules, so cotstab.simulate never shadows
    # cotstab.simulate.simulate
    import types

    import cotstab
    from cotstab.simulate import simulate as function

    assert not [name for name in cotstab.__all__
                if isinstance(getattr(cotstab, name), types.ModuleType)]
    assert cotstab.simulate is sys.modules["cotstab.simulate"]
    assert cotstab.simulate.simulate is function
    assert isinstance(function, types.FunctionType)


def test_one_cycle_run_holds_fixed_point():
    # periodic orbit of the cycle map: one step must return the same
    # state, the design period and a switching value on the ramp
    for p, scheme, d, T, ma in [
        (FAST, Scheme.V_COTC, FAST_D, FAST_T, 2000.0),
        (CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 0.0),
    ]:
        m, ramp, u, ss = operating(p, scheme, d, T, ma)
        st = simulate(m, ramp, ss.x0_0, u, 1, T)
        assert not st.saturated[0]
        assert st.Tn[0] == pytest.approx(T, rel=1e-9)
        scale = np.max(np.abs(ss.x0_0))
        assert np.max(np.abs(st.x_end[0] - ss.x0_0)) <= 1e-12 * scale
        assert st.y_switch[0] - ma * st.Tn[0] == pytest.approx(0.0, abs=1e-9)


def test_switching_residual_is_zero_along_trace():
    # every unsaturated cycle ends exactly where the feedback meets the
    # ramp, transient or not
    ma = 2000.0
    m, ramp, u, _ = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    x0 = nominal_probe_state(FAST, FAST_D / FAST_T, FAST_D)
    tr = simulate(m, ramp, x0, u, 400, FAST_T)
    res = np.abs(tr.y_switch - ma * tr.Tn)[~tr.saturated]
    assert res.size > 0
    assert res.max() <= 1e-9


def test_probe_converges_to_stable_cycle():
    ma = 2000.0
    m, ramp, u, ss = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    x0 = nominal_probe_state(FAST, FAST_D / FAST_T, FAST_D)
    tr = simulate(m, ramp, x0, u, 400, FAST_T)
    scale = np.max(np.abs(ss.x0_0))
    assert np.max(np.abs(tr.x_end[-1] - ss.x0_0)) <= 1e-8 * scale
    assert classify_orbit(tr, settle=300) == PERIOD1


def test_simulate_is_deterministic():
    m, ramp, u, _ = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 1500.0)
    x0 = nominal_probe_state(FAST, FAST_D / FAST_T, FAST_D)
    a = simulate(m, ramp, x0, u, 120, FAST_T)
    b = simulate(m, ramp, x0, u, 120, FAST_T)
    assert np.array_equal(a.Tn, b.Tn)
    assert np.array_equal(a.x_end, b.x_end)
    assert np.array_equal(a.y_switch, b.y_switch)
    assert np.array_equal(a.saturated, b.saturated)


def test_simulate_input_validation():
    m, ramp, u, _ = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)
    with pytest.raises(DomainError):
        simulate(m, ramp, np.zeros(2), u, 0, FAST_T)
    with pytest.raises(DomainError):
        simulate(m, ramp, np.zeros(3), u, 10, FAST_T)
    with pytest.raises(DomainError, match="ncycles"):
        simulate(m, ramp, np.zeros(2), u, 5.5, FAST_T)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="T_guess"):
            simulate(m, ramp, np.zeros(2), u, 10, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_state_is_a_domain_error(bad):
    # such a state once built and scanned every table chunk, then reported
    # a missed switching
    m, ramp, u, ss = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 1000.0)
    x0 = ss.x0_0.copy()
    x0[0] = bad
    with pytest.raises(DomainError, match="x0 must be finite"):
        simulate(m, ramp, x0, u, 10, FAST_T)
    with pytest.raises(DomainError, match="x0 must be finite"):
        estimate_multiplier(m, ramp, u, FAST_T, x_star=x0)
    with pytest.raises(DomainError, match="x0 must be finite"):
        _probe_side((m, ramp, u, FAST_T, x0), [120], 30)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_a_domain_error(bad):
    # such an input once warned inside the on-stage map
    m, ramp, u, ss = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 1000.0)
    u = u.copy()
    u[-1] = bad
    with pytest.raises(DomainError, match="u must be finite"):
        simulate(m, ramp, ss.x0_0, u, 10, FAST_T)
    with pytest.raises(DomainError, match="u must be finite"):
        estimate_multiplier(m, ramp, u, FAST_T, x_star=ss.x0_0)
    with pytest.raises(DomainError, match="u must be finite"):
        _probe_side((m, ramp, u, FAST_T, ss.x0_0), [120], 30)


def test_critical_damping_runs_on_the_one_path():
    # R = sqrt(L/C)/2 with no ESR gives the off-stage a double eigenvalue
    # (q == 0, where c = s = 1), and a hair more load resistance splits
    # it into a complex pair (q < 0, cos and sin); both run on the same
    # closed form.  The first cycles move by about 8x the relative change
    # in R, hence 5e-5 over the whole trace; the settled period must agree
    # far closer.
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * np.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    fam = make_ramp_family(p, Scheme.V_COTC, FAST_D, FAST_T)
    m, ramp, u, T, x0 = fam(5000.0)
    tr = simulate(m, ramp, x0, u, 400, T)
    assert classify_orbit(tr, settle=300) == PERIOD1
    m_split = build_model(p.with_(R=p.R * (1.0 + 1e-6)), Scheme.V_COTC)
    ref = simulate(m_split, ramp, x0, u, 400, T)
    assert np.max(np.abs(tr.Tn / ref.Tn - 1.0)) <= 5e-5
    assert tr.Tn[-1] == pytest.approx(ref.Tn[-1], rel=1e-8)


def test_trace_is_continuous_through_critical_damping():
    # loads 1e-8 either side of critical damping take the trigonometric
    # and the hyperbolic branch, the critical load the q == 0 one; the
    # closed form is continuous in q, so the three traces stay together
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * np.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    m, ramp, u, T, x0 = make_ramp_family(p, Scheme.V_COTC, FAST_D,
                                         FAST_T)(5000.0)
    traces = {}
    for f in (1.0 - 1e-8, 1.0, 1.0 + 1e-8):
        mf = build_model(p.with_(R=p.R * f), Scheme.V_COTC)
        side = np.sign(closed_form_q(mf.A))
        traces[side] = simulate(mf, ramp, x0, u, 400, T)
    assert set(traces) == {-1.0, 0.0, 1.0}
    for side in (-1.0, 1.0):
        assert np.max(np.abs(traces[side].Tn / traces[0.0].Tn - 1.0)) <= 1e-6


def _critical_family():
    # R = sqrt(L/C)/2 with no ESR: a double off-stage eigenvalue
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * np.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    return make_ramp_family(p, Scheme.V_COTC, FAST_D, FAST_T)


@pytest.mark.parametrize("family, ma, split", [
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 1000.0,
     True),
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 600.0,
     True),
    (_critical_family, 5000.0, False),
])
def test_continued_run_matches_one_long_run(family, ma, split):
    # a cycle depends only on its start state, so a run continued from
    # its last state is the longer run, bit for bit; at ma = 600 the
    # crossing rows jump between saturated and long cycles, so the scan's
    # window from the last cycle misses.  ``split`` says whether the
    # off-stage eigenvalues are distinct (q != 0) or double (q == 0)
    m, ramp, u, T, x0 = family()(ma)
    assert (closed_form_q(m.A) != 0.0) is split
    n1, n2 = 250, 150
    head = simulate(m, ramp, x0, u, n1, T)
    tail = simulate(m, ramp, head.x_end[-1], u, n2, T)
    whole = simulate(m, ramp, x0, u, n1 + n2, T)
    for field in ("Tn", "x_end", "y_switch", "saturated"):
        joined = np.concatenate([getattr(head, field), getattr(tail, field)])
        assert np.array_equal(getattr(whole, field), joined), field
    assert np.array_equal(whole.x0, head.x0)
    assert np.array_equal(whole.u, tail.u)


@pytest.mark.parametrize("family, ma, ncycles, split", [
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 1000.0,
     40, True),
    (lambda: make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T), 600.0,
     440, True),
    (_critical_family, 5000.0, 40, False),
])
def test_one_cycle_run_is_that_cycle_of_a_long_run(family, ma, ncycles,
                                                   split):
    # from each of the last 40 start states of a run, a one-cycle run is
    # that cycle of the run, bit for bit; at ma = 600 they include
    # saturated cycles, which begin after about 400
    m, ramp, u, T, x0 = family()(ma)
    assert (closed_form_q(m.A) != 0.0) is split
    tr = simulate(m, ramp, x0, u, ncycles, T)
    starts = np.vstack([x0, tr.x_end[:-1]])
    for k in range(ncycles - 40, ncycles):
        one = simulate(m, ramp, starts[k], u, 1, T)
        assert np.array_equal(one.x_end[0], tr.x_end[k]), k
        assert one.Tn[0] == tr.Tn[k], k
        assert one.y_switch[0] == tr.y_switch[k], k
        assert one.saturated[0] == tr.saturated[k], k
    assert bool(tr.saturated[-40:].any()) is (ma == 600.0)


def test_estimate_multiplier_runs_every_axis_on_one_engine(monkeypatch):
    # one engine serves every kicked run; the scan row it carries from one
    # run to the next moves no bit against a fresh engine per axis
    module = sys.modules["cotstab.simulate"]
    built = []

    class Counted(_CycleEngine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    class Fresh(_CycleEngine):
        def run(self, x0, ncycles):
            eng = _CycleEngine(self.m, self.ramp, self.u, self.T_guess)
            return eng.run(x0, ncycles)

    for m, ramp, u, T in [
        (*operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)[:3], FAST_T),
        (*operating(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 0.0)[:3], CUR_T),
        _critical_family()(5000.0)[:4],
    ]:
        monkeypatch.setattr(module, "_CycleEngine", Counted)
        shared = estimate_multiplier(m, ramp, u, T)
        assert len(built) == 1
        built.clear()
        monkeypatch.setattr(module, "_CycleEngine", Fresh)
        assert estimate_multiplier(m, ramp, u, T) == shared


def test_newton_refiner_bisects_when_a_step_leaves_the_bracket():
    # Newton on atan from far out overshoots the whole bracket; the
    # safeguard must bisect and still converge to the root.  With P = 1,
    # Q = 0, kc = 0, ks = 1 and du = ma = d = 0 the refiner's residual is
    # the first of f's pair and its slope the second, exactly
    evals = []

    def f(x):
        evals.append(x)
        return -math.atan(x - 0.3), -1.0 / (1.0 + (x - 0.3) ** 2)

    lo, hi = -50.0, 10.0
    root = _newton(f, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, lo, hi, f(lo)[0],
                   f(hi)[0], 1e-13)
    assert root == pytest.approx(0.3, abs=1e-13)
    assert all(lo < x < hi for x in evals[2:])
    assert len(evals) < 40


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


@pytest.mark.parametrize("settle", [-40, -1, 40.0, "40"])
def test_classifier_rejects_negative_or_fractional_settle(settle):
    # a negative settle would judge the last |settle| cycles instead
    with pytest.raises(DomainError, match="settle"):
        classify_orbit(_synthetic_trace(np.full(100, 3e-6)), settle=settle)


def test_unstable_cycle_falls_to_saturated_subharmonic():
    # well below the critical slope the period-1 orbit is unstable; the
    # attractor alternates saturated minimum-length cycles with long
    # recovery cycles, so the classifier must refuse a periodic label
    ma = 600.0
    m, ramp, u, ss = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    x0 = ss.x0_0.copy()
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
        m, ramp, u, _ = operating(p, scheme, d, T, ma)
        lam = poles(m, ramp, u, T)
        dom = lam[np.argmax(np.abs(lam))]
        est = estimate_multiplier(m, ramp, u, T, **kw)
        assert est == pytest.approx(dom, rel=tol)


def test_multiplier_error_shrinks_linearly_with_kick():
    # the measurement error is dominated by the quadratic term of the
    # cycle map, so a 10x smaller kick must cut it by roughly 10x
    m, ramp, u, _ = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)
    lam = poles(m, ramp, u, FAST_T)
    exact = lam[np.argmax(np.abs(lam))]
    e_coarse = abs(estimate_multiplier(m, ramp, u, FAST_T, rel_eps=1e-5)
                   - exact)
    e_fine = abs(estimate_multiplier(m, ramp, u, FAST_T, rel_eps=1e-6)
                 - exact)
    assert e_coarse > 1e-12
    assert e_fine < e_coarse
    assert e_fine / e_coarse <= 0.3


@pytest.mark.parametrize("kwargs, name", [
    (dict(rel_eps=0.0), "rel_eps"),
    (dict(rel_eps=-1e-5), "rel_eps"),
    (dict(rel_eps=float("nan")), "rel_eps"),
    (dict(rel_eps=float("inf")), "rel_eps"),
    (dict(fit=0), "fit"),
    (dict(fit=-2), "fit"),
    (dict(fit=2.5), "fit"),
    (dict(ncycles=1), "ncycles"),
    (dict(ncycles=12.0), "ncycles"),
])
def test_estimate_multiplier_rejects_bad_inputs(kwargs, name):
    # rel_eps = 0 once read a plausible multiplier off roundoff, and the
    # others failed with a misleading or untyped error
    m, ramp, u, _ = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, 0.0)
    with pytest.raises(DomainError, match=name):
        estimate_multiplier(m, ramp, u, FAST_T, **kwargs)


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
    ss = consistent_steady_state(m, ramp, T, FAST.vs)
    assert u[1] == pytest.approx(ss.u[1], rel=1e-12)
    assert x0[0] == pytest.approx(ss.x0_0[0], rel=1e-12)
    assert x0[1] == pytest.approx(ss.x0_0[1] * (1.0 + 1e-5), rel=1e-12)


def test_duty_family_scales_period_and_source():
    vo, ma = 2.0, 5000.0
    fam = make_duty_family(FAST, Scheme.V_COTC, FAST_D, vo, ma)
    m, ramp, u, T, x0 = fam(0.4)
    assert T == pytest.approx(FAST_D / 0.4, rel=1e-12)
    assert u[0] == pytest.approx(vo / 0.4, rel=1e-12)
    assert ramp.ma == ma
    st = simulate(m, ramp, steady_state_at(m, FAST_D, T, u).x0_0, u, 1, T)
    assert st.Tn[0] == pytest.approx(T, rel=1e-9)
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


def test_onset_ladder_only_lengthens_runs(monkeypatch):
    # rungs not longer than the run before them are skipped, and each
    # kept rung continues the run on the probe's one engine instead of
    # starting it over
    runs = []
    original = _CycleEngine.run

    def recorded(eng, x0, ncycles, stop_from=None):
        out = original(eng, x0, ncycles, stop_from)
        runs.append((eng, ncycles, x0, out[1][-1]))
        return out

    monkeypatch.setattr(_CycleEngine, "run", recorded)
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    onset_search(fam, 900.0, 1000.0, cycles=200, settle=50,
                 escalation=(100, 400, 300, 600), iters=1)
    assert {n for _, n, _, _ in runs} == {200}
    per_probe = {}
    for (eng, _, x0, _), prev in zip(runs, [None, *runs]):
        per_probe[eng] = per_probe.get(eng, 0) + 1
        if per_probe[eng] > 1:
            assert prev[0] is eng and np.array_equal(x0, prev[3])
    assert len(per_probe) == 3
    assert max(per_probe.values()) == 3


@pytest.mark.parametrize("kwargs, name", [
    (dict(cycles=150.0), "cycles"),
    (dict(cycles=0), "cycles"),
    (dict(escalation=(400, 2.5e3)), "escalation"),
    (dict(escalation=(-1,)), "escalation"),
    (dict(iters=-1), "iters"),
    (dict(iters=2.5), "iters"),
])
def test_onset_search_validates_cycles_and_rungs(kwargs, name):
    fam = make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    args = dict(cycles=120, settle=30, escalation=())
    with pytest.raises(DomainError, match=name):
        onset_search(fam, 2000.0, 2500.0, **{**args, **kwargs})


def _probe_side_in_full(setup, ladder, settle):
    """Loop form of ``_probe_side``: each rung a fresh run of its full
    length.  Returns the side and what decided it."""
    m, ramp, u, T, x0 = setup
    for nc in ladder:
        try:
            tr = simulate(m, ramp, x0, u, nc, T)
        except MissedSwitchingError:
            return "unstable", "missed switching"
        eff = max(settle, nc // 2)
        if tr.saturated[eff:].any():
            return "unstable", "saturated"
        cls = classify_orbit(tr, eff)
        if cls == PERIOD1:
            return "stable", cls
        if cls == PERIOD2:
            return "unstable", cls
    return _trend_side(tr, eff), "trend"


def _ramp_family():
    return make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)


def _duty_family():
    return make_duty_family(FAST, Scheme.V_COTC, FAST_D, 2.0, 0.0)


def _ramp_onset():
    m = build_model(FAST, Scheme.V_COTC)
    return pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)


def _duty_onset():
    return pdb_onset_duty(FAST, Scheme.V_COTC, 0.0, FAST_D, 2.0)


@pytest.mark.parametrize("family, value, decided_by", [
    (_ramp_family, lambda: 2000.0, PERIOD1),
    (_ramp_family, _ramp_onset, PERIOD2),
    (_ramp_family, lambda: 600.0, "saturated"),
    (_ramp_family, lambda: 960.0, "trend"),
    (_ramp_family, lambda: 945.0, "trend"),
    (_duty_family, lambda: 0.35, PERIOD1),
    (_duty_family, _duty_onset, PERIOD2),
    (_duty_family, lambda: _duty_onset() + 0.0095, "saturated"),
    (_duty_family, lambda: _duty_onset() - 0.002, "trend"),
    (_duty_family, lambda: _duty_onset() + 0.0005, "trend"),
])
def test_probe_side_matches_full_length_rungs(family, value, decided_by):
    # the engine's probe ends a rung at the saturated cycle that decides
    # it; every rung run in full must give the same side, whatever
    # decided it (on the exact onsets the kick keeps alternating)
    setup = family()(value())
    ladder, settle = [400, 1600], 150
    side, reason = _probe_side_in_full(setup, ladder, settle)
    assert reason == decided_by
    assert _probe_side(setup, ladder, settle) == side


def test_unstable_probe_ends_at_its_deciding_cycle(monkeypatch):
    # at the onset + 0.0095 the orbit first saturates in the judged half
    # of the 1500-cycle rung at cycle 751; the probe stops there
    ran = []
    original = _CycleEngine.run

    def counted(eng, x0, ncycles, stop_from=None):
        out = original(eng, x0, ncycles, stop_from)
        ran.append(len(out[0]))
        return out

    monkeypatch.setattr(_CycleEngine, "run", counted)
    setup = _duty_family()(_duty_onset() + 0.0095)
    assert _probe_side(setup, [1500, 12000], 300) == "unstable"
    assert sum(ran) <= 800


@st.composite
def _buck_on_its_orbit(draw):
    """A buck in the ``helpers.random_buck`` ranges on its exact orbit.

    A third of the draws take the load below critical damping, so the
    off-stage eigenvalues are real and distinct, a third above it, giving
    a complex pair, and a third at it, a double eigenvalue to rounding.
    An overdamped or critical pair needs a small load against sqrt(L/C),
    so those draws take L and C from the corner of their ranges where the
    critical load lies inside the load range.  The ramp is twice the
    exact period-doubling slope (none where the orbit is stable without
    one).
    """
    def exp10(lo, hi):
        return 10.0 ** draw(st.floats(lo, hi))

    damping = draw(st.sampled_from(("over", "under", "critical")))
    if damping == "under":
        L, C = exp10(-6.3, -5.1), exp10(-5.0, -3.6)
    else:
        L, C = exp10(-5.4, -5.1), exp10(-5.0, -4.8)
    Rc = exp10(-3.0, -1.6)
    # the off-stage pair is real for loads up to r_crit
    r_crit = 1.0 / (C * Rc / L + 2.0 * math.sqrt(C / L))
    if damping == "over":
        R = exp10(-0.7, math.log10(0.95 * r_crit))
    elif damping == "under":
        R = exp10(max(-0.7, math.log10(1.05 * r_crit)), 1.2)
    else:
        R = r_crit
    p = BuckParams(R=R, L=L, C=C, Rc=Rc, Ri=exp10(-2.0, -0.7),
                   vs=draw(st.floats(3.0, 24.0)))
    scheme = draw(st.sampled_from(SCHEMES))
    T = exp10(-6.3, -5.3)
    d = draw(st.floats(0.15, 0.85)) * T
    m = build_model(p, scheme)
    ma = 2.0 * max(pdb_boundary_exact(m, p.vs, d, T), 0.0)
    return damping, operating(p, scheme, d, T, ma) + (T,)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_buck_on_its_orbit())
def test_exact_orbit_is_a_fixed_point_of_the_simulator(draw):
    # the simulator against the sampled route: started on the exact
    # orbit, every cycle must switch at T and return to the orbit's start
    damping, (m, ramp, u, ss, T) = draw
    lam = np.linalg.eigvals(m.A)
    if damping == "over":
        assert np.all(lam.imag == 0.0) and lam[0] != lam[1]
    elif damping == "under":
        assert np.all(lam.imag != 0.0)
    else:
        assert abs(lam[0] - lam[1]) <= 1e-6 * abs(lam[0])
    assert np.max(np.abs(poles(m, ramp, u, T))) < 1.0
    # the orbit's feedback stays above the ramp over the off stage, so its
    # first crossing is the one at T that the simulator must find
    ts = np.linspace(ramp.d, T, 65)[1:-1]
    xs = expm(m.A, ts - ramp.d) @ ss.x0_d
    assert np.all(xs @ m.Cvec + m.Dvec @ u > ramp.ma * ts)
    tr = simulate(m, ramp, ss.x0_0, u, 50, T)
    assert not tr.saturated.any()
    assert np.max(np.abs(tr.Tn / T - 1.0)) <= 1e-9
    scale = np.max(np.abs(ss.x0_0))
    assert np.max(np.abs(tr.x_end - ss.x0_0)) <= 1e-9 * scale
