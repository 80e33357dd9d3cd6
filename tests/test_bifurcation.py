"""Boundary formulas: exact routes, series forms, duality, catalog guards."""

import math

import numpy as np
import pytest

from cotstab import (CATALOG, FORMULA_IDS, BracketError, BuckParams,
                     DomainError, PoleEvaluationError, Scheme, UsageError,
                     applicable_formulas, build_model, closed_form_pole,
                     critical_ramp_eig, ct_pole_formula, equivalent_ct_pole,
                     exact_max_on_time, exact_min_ri, family_point, linearize,
                     max_on_time, min_ramp_formula, min_ramp_normalized,
                     min_sense_resistance, pdb_boundary_approx,
                     pdb_boundary_exact, pdb_onset_duty, range_max_pdb_ramp,
                     s_approx, s_exact, slope_normalizer, snb_boundary_approx,
                     snb_boundary_exact, steady_state_at, sweep)
from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T, SCHEMES, \
    operating, random_buck, random_operating


def fast_point(ma=0.0):
    return operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)


# ----------------------------------------------------------------- catalog


def test_formula_catalog_is_frozen():
    assert len(FORMULA_IDS) == 32
    assert "Eq18" not in FORMULA_IDS  # nothing produces it
    assert {"Eq22", "Eq24", "Eq53", "Eq47", "Eq37"} <= FORMULA_IDS
    assert "Eq23" not in FORMULA_IDS  # gaps in the numbering are intentional


def test_formula_ids_are_the_catalog_and_the_exact_routes():
    exact_and_series = {"Eq15", "Eq17", "Eq19", "Eq22", "Eq24", "Eq26",
                        "Eq53"}
    assert FORMULA_IDS == set().union(*CATALOG.values()) | exact_and_series


# the reference converter with a sense resistor, so every scheme builds
REF = FAST.with_(Ri=0.05)

# closed-form kind -> its evaluation at one id and scheme on REF
EVALUATE = {
    "pole": lambda f, s: closed_form_pole(build_model(REF, s), REF, FAST_D,
                                          FAST_T, f),
    "ct_pole": lambda f, s: ct_pole_formula(REF, s, FAST_D, FAST_T, f),
    "min_ramp": lambda f, s: min_ramp_formula(REF, s, FAST_D, FAST_T, f),
    "min_ramp_normalized":
        lambda f, s: min_ramp_normalized(REF, FAST_D, FAST_T, f),
    "on_time": lambda f, s: max_on_time(REF, s, 0.0, 0.4, f, T=FAST_T),
    "min_ri": lambda f, s: min_sense_resistance(REF, FAST_D, FAST_T, f),
    "snb": lambda f, s: snb_boundary_approx(build_model(REF, s), REF, FAST_D,
                                            FAST_T, f),
}
# kinds whose function serves one scheme by construction and takes none
SCHEME_FREE = {"min_ramp_normalized", "min_ri"}


@pytest.mark.parametrize("kind, formula, scheme", [
    (kind, formula, scheme) for kind, forms in CATALOG.items()
    for formula in forms for scheme in SCHEMES])
def test_catalog_declares_where_each_form_applies(kind, formula, scheme):
    applies = scheme in CATALOG[kind][formula]
    assert (formula in applicable_formulas(kind, scheme)) == applies
    if applies:
        value = EVALUATE[kind](formula, scheme)
        assert isinstance(value, float) and math.isfinite(value)
    elif kind not in SCHEME_FREE:
        with pytest.raises(UsageError, match=f"{formula} applies to"):
            EVALUATE[kind](formula, scheme)


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_catalog_rejects_ids_of_other_kinds(kind):
    # the id is checked before the scheme, so any scheme will do
    other = min(FORMULA_IDS - set(CATALOG[kind]))
    with pytest.raises(UsageError, match="does not apply here"):
        EVALUATE[kind](other, Scheme.V_COTC)
    with pytest.raises(UsageError, match="unknown formula id"):
        EVALUATE[kind]("Eq23", Scheme.V_COTC)


# ------------------------------------------------------------- pole locus


def test_pole_placement_at_zero_is_zero():
    m, _, _, ss = fast_point()
    assert s_exact(m, ss, 0.0) == 0.0


def test_pole_placement_reference_values():
    # frozen from this package; cross-checked against simulation elsewhere
    m, _, _, ss = fast_point()
    assert s_exact(m, ss, -1.0) == pytest.approx(943.4183078, abs=1e-6)
    assert s_exact(m, ss, -0.5) == pytest.approx(9486.8446523, abs=1e-5)
    assert s_exact(m, ss, -0.2) == pytest.approx(9525.0139724, abs=1e-4)


def test_pole_placement_rejects_spectrum_points():
    # an overdamped filter gives the stage product real eigenvalues, so a
    # real lambda can land exactly on the open-loop spectrum
    p = BuckParams(R=0.2, L=10e-6, C=1e-5, Rc=0.5, vs=5.0)
    m, _, _, ss = operating(p, Scheme.V_COTC, 1.2e-6, 3e-6, 0.0)
    eigs = np.linalg.eigvals(ss.ops.p1 @ ss.ops.p2)
    assert np.abs(eigs.imag).max() < 1e-12  # really overdamped
    lam = float(eigs.real[np.argmax(np.abs(eigs.real))])
    with pytest.raises(PoleEvaluationError):
        s_exact(m, ss, lam)


def test_series_locus_has_artificial_pole_at_one():
    m, _, _, ss = fast_point()
    with pytest.raises(PoleEvaluationError):
        s_approx(m, ss, 1.0)
    assert s_approx(m, ss, -1.0) == pytest.approx(737.3421637, abs=1e-6)


def test_resolvent_identity_of_the_two_locus_forms():
    # I + (lam Wr^-1 - I)^-1 = (I - Wr/lam)^-1 for invertible Wr, lam != 0
    rng = np.random.default_rng(7201)
    for _ in range(20):
        wr = rng.standard_normal((2, 2))
        if abs(np.linalg.det(wr)) < 1e-3:
            continue
        lam = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        if np.min(np.abs(np.linalg.eigvals(wr) - lam)) < 1e-6:
            continue
        lhs = np.eye(2) + np.linalg.inv(lam * np.linalg.inv(wr) - np.eye(2))
        rhs = np.linalg.inv(np.eye(2) - wr / lam)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_duality_of_locus_and_map_spectrum():
    # the slope that places a pole at lam really puts an eigenvalue there
    rng = np.random.default_rng(7202)
    checked = 0
    while checked < 20:
        _, _, _, _, m, _, _, ss = random_operating(rng)
        lam = float(rng.uniform(0.15, 1.4)) * float(rng.choice([-1.0, 1.0]))
        if abs(lam - 1.0) < 0.05:
            continue  # slope diverges near the saddle-node point
        try:
            ma_star = s_exact(m, ss, lam)
        except PoleEvaluationError:
            continue
        eigs = np.linalg.eigvals(linearize(m, ss, ma_star).Phi)
        assert np.min(np.abs(eigs - lam)) <= 1e-6 * (1.0 + abs(lam))
        checked += 1


# ------------------------------------------------------- PDB boundary


def test_pdb_routes_agree_on_random_draws():
    rng = np.random.default_rng(7203)
    for _ in range(20):
        p, _, d, T, m, _, _, ss = random_operating(rng, scheme=Scheme.V_COTC)
        direct = pdb_boundary_exact(m, p.vs, d, T)
        placed = s_exact(m, ss, -1.0)
        assert direct == pytest.approx(placed, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("boundary", [pdb_boundary_exact, snb_boundary_exact])
@pytest.mark.parametrize("vs", [math.nan, math.inf, -math.inf,
                                [5.0, math.nan, 5.0]])
def test_exact_boundaries_reject_non_finite_source(boundary, vs):
    m = build_model(FAST, Scheme.V_COTC)
    with pytest.raises(DomainError, match="vs must be finite"):
        boundary(m, vs, FAST_D, FAST_T)


def test_pdb_reference_values():
    m = build_model(FAST, Scheme.V_COTC)
    assert pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T) == pytest.approx(
        943.41830781989847, rel=1e-12)
    assert pdb_boundary_approx(m, FAST.vs, FAST_D, FAST_T, "full") == \
        pytest.approx(838.19910673645893, rel=1e-12)
    assert pdb_boundary_approx(m, FAST.vs, FAST_D, FAST_T, "linear") == \
        pytest.approx(4197.4852071005889, rel=1e-12)
    with pytest.raises(UsageError):
        pdb_boundary_approx(m, FAST.vs, FAST_D, FAST_T, "cubic")


def test_margin_above_boundary_stabilizes():
    # 1 percent above the critical slope: strictly inside the unit circle;
    # 5 percent below: the subharmonic pole sits outside
    m, _, _, ss = fast_point()
    mc = pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)
    above = np.abs(np.linalg.eigvals(linearize(m, ss, 1.01 * mc).Phi))
    below = np.abs(np.linalg.eigvals(linearize(m, ss, 0.95 * mc).Phi))
    assert above.max() < 1.0
    assert below.max() > 1.0


def test_critical_ramp_by_eigenvalue_search_matches():
    # independent route: track the eigenvalue itself over the slope
    m, _, u, _ = fast_point()
    found = critical_ramp_eig(m, FAST_D, FAST_T, u, -1.0, 500.0, 1500.0)
    assert found == pytest.approx(943.41830781989847, rel=1e-6)


def _complex_edge_point():
    # current feedback whose -10% bracket end lies where the tracked pair
    # is complex (about -48,570 to -47,180 V/s); the real crossing of -1
    # sits at the boundary, -44,155.74 V/s
    p = BuckParams(R=0.3427038077267426, L=5.540249766540117e-07,
                   C=1.0574274336992887e-05, Rc=0.0014436902514121904,
                   Ri=0.05004379944512204, vs=3.746727022492913)
    d, T = 6.760323638607655e-07, 4.3240693303490514e-06
    m, _, u, _ = operating(p, Scheme.C_COTC, d, T, 0.0)
    return m, d, T, u, pdb_boundary_exact(m, p.vs, d, T)


def test_critical_ramp_eig_brackets_may_reach_a_complex_pair():
    m, d, T, u, pdb = _complex_edge_point()
    found = critical_ramp_eig(m, d, T, u, -1.0, 1.1 * pdb, 0.995 * pdb)
    assert found == pytest.approx(pdb, rel=1e-9)


def test_critical_ramp_eig_rejects_a_root_inside_a_complex_pair():
    # the pair's real part passes -1.5 while the pair is complex: no real
    # eigenvalue reaches -1.5 in the bracket, so the residual keeps one
    # sign and the search raises
    m, d, T, u, _ = _complex_edge_point()
    with pytest.raises(BracketError):
        critical_ramp_eig(m, d, T, u, -1.5, -48571.3, -47644.0)


# current-feedback draws of perfbench's design workload with their exact
# period-doubling boundaries.  On the first three the eigenvalue tracked
# through a complex stretch gave one sign at both bracket ends.  The
# brackets of the second and the last four hold the feedback slope at the
# switching instant, the pole of a bare determinant residual.  Each row:
# BuckParams(R, L, C, Rc, Ri, vs), d, T, boundary.
_EIG_SEARCH_DRAWS = [
    ((0.20856425803409784, 5.128330998330951e-07, 1.0168335155506523e-05,
      0.0012829209968868477, 0.02959906377504961, 17.019400550437496),
     1.398715010094225e-06, 4.778583228887386e-06, -244054.7511579562),
    ((0.23996343487609922, 6.298879442510921e-07, 1.013945810564828e-05,
      0.006136438998670994, 0.12285930994592495, 18.886998239605937),
     1.536809673796833e-06, 4.951023771539608e-06, -939534.1185052817),
    ((0.2891057146822759, 5.077416377720906e-07, 1.1186275469143355e-05,
      0.0010172214794156031, 0.03670292290083538, 15.96563478934136),
     1.9034888733962986e-06, 4.885883705355189e-06, -439846.4434798449),
    ((0.4295696455480689, 5.128057775265554e-07, 1.1127945512825373e-05,
      0.013430107978369842, 0.09996564431037934, 4.518566632245471),
     1.3303024987838396e-06, 4.159787425100168e-06, -233887.9025566587),
    ((1.0063152996228684, 5.165026482309594e-07, 1.3394980656554036e-05,
      0.0019945638166953927, 0.013397421775250471, 16.547566784338947),
     2.351167999512558e-06, 4.9525945813588484e-06, -185631.57875751096),
    ((8.45909356801918, 5.4016372972676e-07, 1.1172787344842741e-05,
      0.005883449785568342, 0.07299743986267081, 7.252004718900318),
     1.0405173559928041e-06, 4.152236270538479e-06, -204964.206734647),
    ((7.184126953553623, 5.066524791844126e-07, 1.3975644684369525e-05,
      0.021442366596037044, 0.036836193840762345, 19.66651105887656),
     1.0393536620796831e-06, 4.226309838240913e-06, -278511.7340021041),
]


@pytest.mark.parametrize("values, d, T, boundary", _EIG_SEARCH_DRAWS,
                         ids=["s105r167", "s14r747", "s25r292", "s14r309",
                              "s14r381", "s25r135", "s25r1287"])
def test_critical_ramp_eig_finds_the_boundary_on_design_draws(values, d, T,
                                                              boundary):
    p = BuckParams(*values)
    m, _, u, _ = operating(p, Scheme.C_COTC, d, T, 0.0)
    pdb = pdb_boundary_exact(m, p.vs, d, T)
    assert pdb == pytest.approx(boundary, rel=1e-9)
    found = critical_ramp_eig(m, d, T, u, -1.0, pdb - 0.1 * abs(pdb),
                              pdb + 0.005 * abs(pdb))
    assert found == pytest.approx(pdb, rel=1e-12)


def test_min_ramp_closed_forms():
    assert min_ramp_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq32") == \
        pytest.approx(4197.4852071005889, rel=1e-12)
    assert min_ramp_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq34") == \
        pytest.approx(5000.0, rel=1e-12)
    # the ESR-corrected form is exactly the duty-linear series boundary
    m = build_model(FAST, Scheme.V_COTC)
    assert min_ramp_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq32") == \
        pytest.approx(pdb_boundary_approx(m, FAST.vs, FAST_D, FAST_T,
                                          "linear"), rel=1e-12)
    with pytest.raises(UsageError):
        min_ramp_formula(FAST, Scheme.C_COTC, FAST_D, FAST_T, "Eq32")


def test_normalized_min_ramp_scales_by_ripple_slope():
    sf = slope_normalizer(FAST, FAST_D / FAST_T, Scheme.V_COTC)
    n36 = min_ramp_normalized(FAST, FAST_D, FAST_T, "Eq36")
    n37 = min_ramp_normalized(FAST, FAST_D, FAST_T, "Eq37")
    assert n36 == pytest.approx(0.2098742603550294, rel=1e-12)
    assert n37 == pytest.approx(0.25, rel=1e-12)
    assert n36 * sf == pytest.approx(
        min_ramp_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq32"),
        rel=1e-12)
    assert n37 * sf == pytest.approx(
        min_ramp_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq34"),
        rel=1e-12)


@pytest.mark.parametrize("formula", ["Eq36", "Eq37"])
def test_normalized_min_ramp_needs_an_esr(formula):
    # the ripple-slope scale Rc vs D / L is 0 without ESR: no ratio to it
    with pytest.raises(DomainError, match="ESR"):
        min_ramp_normalized(FAST.with_(Rc=0.0), FAST_D, FAST_T, formula)


def test_current_feedback_needs_no_ramp():
    # the current-feedback threshold is negative at every duty ratio
    for D in np.linspace(0.05, 0.95, 19):
        val = min_ramp_formula(CURRENT, Scheme.C_COTC, D * CUR_T, CUR_T,
                               "Eq49")
        assert val < 0.0


# --------------------------------------------------- duty families, search


def test_family_point_scales_source_and_period():
    pp, T = family_point(FAST, FAST_D, 2.0, 0.4)
    assert pp.vs == pytest.approx(5.0, rel=1e-12)
    assert T == pytest.approx(FAST_D / 0.4, rel=1e-12)


def test_onset_duty_reference():
    d_star = pdb_onset_duty(FAST, Scheme.V_COTC, 0.0, FAST_D, 2.0)
    assert d_star == pytest.approx(0.36035702774525075, abs=1e-7)
    # with an enormous ramp the whole family is stable: no crossing
    assert pdb_onset_duty(FAST, Scheme.V_COTC, 1e7, FAST_D, 2.0) is None


def test_onset_duty_returns_the_first_of_two_crossings():
    # the worked family's boundary falls from -2.76e5 V/s at D = 0.05 to
    # about -4.0e5 near D = 0.06, then rises to 4.2e3 at full duty, so an
    # applied slope of -3e5 V/s is crossed twice: the lower duty is returned
    ma = -3e5
    first = pdb_onset_duty(FAST, Scheme.V_COTC, ma, FAST_D, 2.0)
    second = pdb_onset_duty(FAST, Scheme.V_COTC, ma, FAST_D, 2.0, 0.06)
    assert first == pytest.approx(0.0510748, abs=1e-6)
    assert second == pytest.approx(0.0723957, abs=1e-6)
    for D in (first, second):
        pd, T = family_point(FAST, FAST_D, 2.0, D)
        slope = pdb_boundary_exact(build_model(pd, Scheme.V_COTC), pd.vs,
                                   FAST_D, T)
        assert slope == pytest.approx(ma, abs=1e-3)


def test_range_max_pdb_ramp_reference():
    d_star, val = range_max_pdb_ramp(FAST, Scheme.V_COTC, FAST_D, 2.0,
                                     0.2, 1.0)
    assert val == pytest.approx(4216.9915586494681, abs=1e-4)
    assert d_star > 0.99  # worst case sits at the full-duty edge


def test_range_max_pdb_ramp_finds_an_interior_maximum():
    # a design whose worst duty lies inside the range, so that the golden
    # section also moves its upper end down; every other case peaks at the
    # end of its range
    p = BuckParams(R=6.564, L=0.8567e-6, C=35.21e-6, Rc=13.10e-3,
                   Ri=31.23e-3, vs=18.0)
    d, vo = 3.69e-6, 15.2
    d_star, val = range_max_pdb_ramp(p, Scheme.V_COTC, d, vo, 0.1, 0.9)
    assert 0.1 < d_star < 0.9
    assert d_star == pytest.approx(0.1061, abs=1e-4)
    ds = np.linspace(0.1, 0.9, 4001)
    m = build_model(p, Scheme.V_COTC)
    assert val >= np.max(pdb_boundary_exact(m, vo / ds, d, d / ds))
    pd, T = family_point(p, d, vo, d_star)
    ss = steady_state_at(m, d, T, (pd.vs, 0.0))
    assert val == pytest.approx(s_exact(m, ss, -1.0), rel=1e-8)


def test_stacked_boundaries_equal_scalar_calls_bitwise():
    rng = np.random.default_rng(7301)
    for scheme in SCHEMES:
        p = random_buck(rng)
        m = build_model(p, scheme)
        T = 10.0 ** rng.uniform(-6.3, -5.3, 40)
        d = rng.uniform(0.15, 0.85, 40) * T
        d[-1] = T[-1]                     # the zero-off-time corner
        vs = rng.uniform(3.0, 24.0, 40)
        for fn in (pdb_boundary_exact, snb_boundary_exact):
            grid = fn(m, vs, d, T)
            assert grid.shape == (40,)
            for k in range(40):
                assert grid[k] == fn(m, float(vs[k]), float(d[k]),
                                     float(T[k]))
            ons = rng.uniform(0.05, 1.0, 7) * T[0]
            by_on_time = fn(m, p.vs, ons, T[0])     # vs and T broadcast
            for k in range(7):
                assert by_on_time[k] == fn(m, p.vs, float(ons[k]), float(T[0]))


def test_family_grid_uses_one_model_bitwise():
    # A depends on neither source nor period: one model, evaluated over
    # the duty grid at once, equals a model built per point
    ds = np.linspace(0.2, 1.0, 60)
    m = build_model(FAST, Scheme.V_COTC)
    grid = pdb_boundary_exact(m, 2.0 / ds, FAST_D, FAST_D / ds)
    for D, value in zip(ds, grid):
        pd, T = family_point(FAST, FAST_D, 2.0, float(D))
        assert value == pdb_boundary_exact(build_model(pd, Scheme.V_COTC),
                                           pd.vs, FAST_D, T)


def test_boundary_grids_reject_bad_points():
    m = build_model(FAST, Scheme.V_COTC)
    with pytest.raises(DomainError, match="d=4e-06"):
        pdb_boundary_exact(m, FAST.vs, np.array([1e-6, 4e-6]), FAST_T)
    with pytest.raises(DomainError, match="duty"):
        pdb_onset_duty(FAST, Scheme.V_COTC, 0.0, FAST_D, 2.0, 0.0, 0.5)
    with pytest.raises(DomainError, match="duty"):
        range_max_pdb_ramp(FAST, Scheme.V_COTC, FAST_D, 2.0, 0.5, 1.2)


# a reversed or empty bracket names the caller's bounds, not a grid cell
def test_onset_duty_rejects_a_reversed_bracket():
    with pytest.raises(DomainError, match=r"D_lo < D_hi, got \[1.0, 0.2\]"):
        pdb_onset_duty(FAST, Scheme.V_COTC, 0.0, FAST_D, 2.0, 1.0, 0.2)


def test_range_max_pdb_ramp_rejects_a_reversed_bracket():
    # it used to return an unrefined grid point, (0.99899, 4215.78)
    for lo, hi in ((1.0, 0.2), (0.5, 0.5), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="D_lo < D_hi"):
            range_max_pdb_ramp(FAST, Scheme.V_COTC, FAST_D, 2.0, lo, hi)


def test_exact_max_on_time_rejects_a_reversed_bracket():
    with pytest.raises(DomainError,
                       match=r"d_lo < d_hi, got \[2.8e-06, 4e-07\]"):
        exact_max_on_time(FAST, Scheme.V_COTC, 0.0, 0.4, 2.8e-6, 0.4e-6)


def test_exact_max_on_time_is_a_boundary_crossing():
    d_star = exact_max_on_time(FAST, Scheme.V_COTC, 0.0, 0.4, 0.4e-6, 2.8e-6)
    m = build_model(FAST, Scheme.V_COTC)
    residual = pdb_boundary_exact(m, FAST.vs, d_star, d_star / 0.4)
    assert residual == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("D", [0.0, -0.4, 1.5, math.nan])
def test_on_time_routes_reject_impossible_duty(D):
    with pytest.raises(DomainError, match="duty"):
        max_on_time(FAST, Scheme.V_COTC, 0.0, D, "Eq39")
    with pytest.raises(DomainError, match="duty"):
        exact_max_on_time(FAST, Scheme.V_COTC, 0.0, D, 0.4e-6, 2.8e-6)


def test_max_on_time_scheme_guards():
    with pytest.raises(UsageError):
        max_on_time(FAST, Scheme.V_COTC, 0.0, 0.4, "Eq44")
    with pytest.raises(UsageError):
        max_on_time(CURRENT, Scheme.V_COTC_CURRENT_RAMP, 0.0, 0.4, "Eq38")
    with pytest.raises(UsageError):
        max_on_time(FAST, Scheme.V_COTC, 0.0, 0.4, "Eq22")


def test_exact_min_ri_zeroes_the_boundary():
    ri = exact_min_ri(FAST, FAST_D, FAST_T)
    assert ri == pytest.approx(1.8188241082828017e-3, rel=1e-9)
    m = build_model(FAST.with_(Ri=ri), Scheme.V_COTC_CURRENT_RAMP)
    val = pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)
    assert val == pytest.approx(0.0, abs=1e-6)


def test_min_sense_resistance_forms():
    assert min_sense_resistance(FAST, FAST_D, FAST_T, "Eq44") == \
        pytest.approx(8.3468157081923715e-3, rel=1e-12)
    assert min_sense_resistance(FAST, FAST_D, FAST_T, "Eq45") == \
        pytest.approx(0.01, rel=1e-9)
    assert min_sense_resistance(FAST, FAST_D, FAST_T, "Eq47") == \
        pytest.approx(3.399301513387657e-3, rel=1e-12)


# ------------------------------------------------------------ pole forms


def test_closed_form_poles():
    m = build_model(FAST, Scheme.V_COTC)
    mc = build_model(CURRENT, Scheme.C_COTC)
    assert closed_form_pole(m, FAST, FAST_D, FAST_T, "Eq20") == \
        pytest.approx(-1.0489336220143399, rel=1e-12)
    # the two general first-order routes are separate code paths
    assert closed_form_pole(m, FAST, FAST_D, FAST_T, "Eq20") == \
        pytest.approx(closed_form_pole(m, FAST, FAST_D, FAST_T, "Eq21"),
                      rel=1e-12)
    assert closed_form_pole(m, FAST, FAST_D, FAST_T, "Eq40") == \
        pytest.approx(-1.0192307692307692, rel=1e-12)
    assert closed_form_pole(m, FAST, FAST_D, FAST_T, "Eq42") == \
        pytest.approx(-1.3076923076923075, rel=1e-12)
    assert closed_form_pole(mc, CURRENT, CUR_D, CUR_T, "Eq50") == \
        pytest.approx(0.99956407, abs=1e-7)
    with pytest.raises(UsageError):
        closed_form_pole(mc, CURRENT, CUR_D, CUR_T, "Eq40")


def test_closed_form_orbit_poles_read_the_models_stage_operators():
    # Eq20/Eq21 read the orbit from the operators the model keeps for
    # (d, T), so they form no exponential of their own and equal the
    # values of a fresh model bit for bit
    m, *_ = operating(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 0.0)
    ops = m._cycle
    for formula in ("Eq20", "Eq21"):
        fresh = build_model(CURRENT, Scheme.C_COTC)
        assert closed_form_pole(m, CURRENT, CUR_D, CUR_T, formula) == \
            closed_form_pole(fresh, CURRENT, CUR_D, CUR_T, formula)
        assert m._cycle is ops


def test_equivalent_ct_pole_mappings():
    lam = 0.99950850
    lin = equivalent_ct_pole(lam, CUR_T, "linear")
    log = equivalent_ct_pole(lam, CUR_T, "log")
    assert lin == pytest.approx((1.0 - lam) / CUR_T, rel=1e-12)
    assert log == pytest.approx(-math.log(lam) / CUR_T, rel=1e-12)
    assert abs(lin - log) / abs(lin) < 5e-3  # near 1 the two maps agree
    with pytest.raises(DomainError):
        equivalent_ct_pole(-0.5, CUR_T, "log")
    with pytest.raises(UsageError):
        equivalent_ct_pole(0.5, CUR_T, "bilinear")


def test_ct_pole_closed_forms():
    assert ct_pole_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq43") == \
        pytest.approx(769230.76923076925, rel=1e-12)
    assert ct_pole_formula(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, "Eq51") == \
        pytest.approx(419.1662, abs=1e-3)
    # the scalar pole form and its ct map tell one story
    lam50 = closed_form_pole(build_model(CURRENT, Scheme.C_COTC), CURRENT,
                             CUR_D, CUR_T, "Eq50")
    assert equivalent_ct_pole(lam50, CUR_T) == pytest.approx(
        ct_pole_formula(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, "Eq51"),
        rel=1e-9)
    with pytest.raises(UsageError):
        ct_pole_formula(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq51")


# ----------------------------------------------------------- SNB boundary


def test_snb_routes_agree_on_random_draws():
    rng = np.random.default_rng(7204)
    for _ in range(20):
        p, _, d, T, m, _, _, ss = random_operating(rng)
        direct = snb_boundary_exact(m, p.vs, d, T)
        placed = s_exact(m, ss, 1.0)
        assert direct == pytest.approx(placed, rel=1e-8, abs=1e-10)


def test_snb_reference_values():
    m = build_model(CURRENT, Scheme.C_COTC)
    exact = snb_boundary_exact(m, CURRENT.vs, CUR_D, CUR_T)
    assert exact == pytest.approx(-67540.068, abs=0.01)
    eq54 = snb_boundary_approx(m, CURRENT, CUR_D, CUR_T, "Eq54")
    eq56 = snb_boundary_approx(m, CURRENT, CUR_D, CUR_T, "Eq56")
    assert eq56 == pytest.approx(-67538.2618, abs=1e-3)
    # the matrix form and its scalar reduction are separate code paths
    assert eq54 == pytest.approx(eq56, rel=1e-10)
    with pytest.raises(UsageError):
        snb_boundary_approx(m, CURRENT, CUR_D, CUR_T, "Eq22")


def test_snb_scalar_forms_check_the_model_scheme():
    # Eq56 on a voltage-feedback model once read -0.0, and Eq55 on a
    # current-feedback model 47 times the exact threshold
    with pytest.raises(UsageError, match="Eq56 applies to C_COTC"):
        snb_boundary_approx(build_model(FAST, Scheme.V_COTC), FAST, FAST_D,
                            FAST_T, "Eq56")
    with pytest.raises(UsageError, match="Eq55 applies to V_COTC"):
        snb_boundary_approx(build_model(CURRENT, Scheme.C_COTC), CURRENT,
                            CUR_D, CUR_T, "Eq55")


def test_snb_negative_ramp_places_pole_at_plus_one():
    m, _, u, ss = operating(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 0.0)
    mc = snb_boundary_exact(m, CURRENT.vs, CUR_D, CUR_T)
    eigs = np.linalg.eigvals(linearize(m, ss, mc).Phi)
    assert np.min(np.abs(eigs - 1.0)) <= 1e-6


# ------------------------------------------------------------------ sweep


def test_sweep_records_failures_as_nan():
    m, _, _, ss = fast_point()

    def locus(lam):
        return s_approx(m, ss, lam)

    xs, ys, notes = sweep(locus, 0.0, 2.0, 5)
    assert len(xs) == len(ys) == 5
    assert math.isnan(ys[2])  # lam = 1 is the artificial pole
    assert np.isfinite(ys[[0, 1, 3, 4]]).all()
    assert len(notes) == 1 and "1" in notes[0]


def test_sweep_propagates_programming_errors():
    def broken(x):
        return x + "1"  # a bug, not a numeric failure

    with pytest.raises(TypeError):
        sweep(broken, 0.0, 1.0, 3)
