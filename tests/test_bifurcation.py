"""Boundary formulas: exact routes, series forms, duality, catalog guards."""

import dataclasses
import math

import numpy as np
import pytest

from cotstab import (FORMULA_IDS, BoundaryResult, BuckParams, DomainError,
                     PoleEvaluationError, Scheme, UsageError, build_model,
                     closed_form_pole, critical_ramp_eig, ct_pole_formula,
                     equivalent_ct_pole, exact_max_on_time, exact_min_ri,
                     family_point, linearize, max_on_time, min_ramp_formula,
                     min_ramp_normalized, min_sense_resistance,
                     pdb_boundary_approx, pdb_boundary_exact, pdb_onset_duty,
                     range_max_pdb_ramp, s_approx, s_exact, slope_normalizer,
                     snb_boundary_approx, snb_boundary_exact, steady_state_at,
                     sweep)
from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T, operating, \
    random_operating


def fast_point(ma=0.0):
    return operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)


# ----------------------------------------------------------------- catalog


def test_formula_catalog_is_frozen():
    assert len(FORMULA_IDS) == 33
    assert {"Eq22", "Eq24", "Eq53", "Eq47", "Eq37"} <= FORMULA_IDS
    assert "Eq23" not in FORMULA_IDS  # gaps in the numbering are intentional


def test_boundary_result_validates():
    BoundaryResult(kind="PDB", critical_value=1.0, unit="V/s",
                   formula_id="Eq22")
    with pytest.raises(DomainError):
        BoundaryResult(kind="XXX", critical_value=1.0, unit="V/s",
                       formula_id="Eq22")
    with pytest.raises(DomainError):
        BoundaryResult(kind="PDB", critical_value=1.0, unit="V/s",
                       formula_id="Eq99")


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
    eigs = np.linalg.eigvals(linearize(m, ss, 0.0).Wr)
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


def test_pdb_requires_buck_structure():
    m, _, _, _ = fast_point()
    bad = dataclasses.replace(m, B2=np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert not bad.is_buck_structured
    with pytest.raises(UsageError):
        pdb_boundary_exact(bad, FAST.vs, FAST_D, FAST_T)


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


def test_range_max_pdb_ramp_reference():
    d_star, val = range_max_pdb_ramp(FAST, Scheme.V_COTC, FAST_D, 2.0,
                                     0.2, 1.0)
    assert val == pytest.approx(4216.9915586494681, abs=1e-4)
    assert d_star > 0.99  # worst case sits at the full-duty edge


def test_exact_max_on_time_is_a_boundary_crossing():
    d_star = exact_max_on_time(FAST, Scheme.V_COTC, 0.0, 0.4, 0.4e-6, 2.8e-6)
    m = build_model(FAST, Scheme.V_COTC)
    residual = pdb_boundary_exact(m, FAST.vs, d_star, d_star / 0.4)
    assert residual == pytest.approx(0.0, abs=1e-4)


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
    assert closed_form_pole(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq20") == \
        pytest.approx(-1.0489336220143399, rel=1e-12)
    # the two general first-order routes are separate code paths
    assert closed_form_pole(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq20") == \
        pytest.approx(closed_form_pole(FAST, Scheme.V_COTC, FAST_D, FAST_T,
                                       "Eq21"), rel=1e-12)
    assert closed_form_pole(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq40") == \
        pytest.approx(-1.0192307692307692, rel=1e-12)
    assert closed_form_pole(FAST, Scheme.V_COTC, FAST_D, FAST_T, "Eq42") == \
        pytest.approx(-1.3076923076923075, rel=1e-12)
    assert closed_form_pole(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, "Eq50") == \
        pytest.approx(0.99956407, abs=1e-7)
    with pytest.raises(UsageError):
        closed_form_pole(FAST, Scheme.C_COTC, FAST_D, FAST_T, "Eq40")


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
    lam50 = closed_form_pole(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, "Eq50")
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
