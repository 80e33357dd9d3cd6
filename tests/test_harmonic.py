"""Harmonic route: filter gains, balance sums, series identities."""

import cmath
import math

import numpy as np
import pytest

from cotstab import (DomainError, InfiniteLoopGainError, Scheme, UsageError,
                     build_model, orbit_sample, pdb_boundary_exact,
                     snb_boundary_exact)
from cotstab.harmonic import (convergence_points, gi, gv, h_plot,
                              hb_pdb_first_harmonic, hb_pdb_splot,
                              hb_snb_condition, l1_plot, l2_plot, loop_gain,
                              loop_gain_pdb, period2_coeff, scheme_gain,
                              scheme_gain_derivative, series_identities_check,
                              square_wave_coeff, y0_series)
from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T, operating

WS = 2.0 * math.pi / FAST_T


def test_filter_gains_match_their_definitions():
    # recompute the two transfer functions from scratch at random points
    rng = np.random.default_rng(7301)
    p = FAST
    den_c2 = p.L * p.C * (1.0 + p.Rc / p.R)
    den_c1 = p.L / p.R + p.Rc * p.C
    for _ in range(10):
        s = complex(rng.uniform(-1e6, 1e6), rng.uniform(-1e7, 1e7))
        den = den_c2 * s * s + den_c1 * s + 1.0
        assert gv(s, p) == pytest.approx((s * p.Rc * p.C + 1.0) / den,
                                         rel=1e-12)
        assert gi(s, p) == pytest.approx(
            ((1.0 + p.Rc / p.R) * p.C * s + 1.0 / p.R) / den, rel=1e-12)


def test_gain_dc_values():
    assert gv(0.0, FAST) == pytest.approx(1.0)
    assert gi(0.0, FAST) == pytest.approx(1.0 / FAST.R)
    # feedback gains are minus the sensed combination
    assert scheme_gain(0.0, FAST, Scheme.V_COTC) == pytest.approx(-1.0)
    assert scheme_gain(0.0, CURRENT, Scheme.C_COTC) == \
        pytest.approx(-CURRENT.Ri / CURRENT.R)
    assert scheme_gain(0.0, CURRENT, Scheme.V_COTC_CURRENT_RAMP) == \
        pytest.approx(-(1.0 + CURRENT.Ri / CURRENT.R))


def test_gain_derivative_matches_finite_differences():
    rng = np.random.default_rng(7302)
    for scheme in (Scheme.V_COTC, Scheme.C_COTC, Scheme.V_COTC_CURRENT_RAMP):
        for _ in range(5):
            s = complex(0.0, rng.uniform(1e5, 1e7))
            h = 1e-3 * abs(s)
            numeric = (scheme_gain(s + h, CURRENT, scheme)
                       - scheme_gain(s - h, CURRENT, scheme)) / (2.0 * h)
            exact = scheme_gain_derivative(s, CURRENT, scheme)
            assert exact == pytest.approx(numeric, rel=1e-5)


def test_loop_gain_is_the_scaled_scheme_gain():
    s = 0.5j * WS
    ma = 943.4
    for p, scheme in ((FAST, Scheme.V_COTC), (CURRENT, Scheme.C_COTC)):
        assert loop_gain(s, p, scheme, ma, FAST_T) == pytest.approx(
            scheme_gain(s, p, scheme) * p.vs / (ma * FAST_T), rel=1e-15)
    with pytest.raises(InfiniteLoopGainError):
        loop_gain(s, FAST, Scheme.V_COTC, 0.0, FAST_T)


def test_square_wave_coefficients():
    c0 = square_wave_coeff(0, FAST.vs, FAST_D, FAST_T)
    assert c0 == pytest.approx(FAST.vs * FAST_D / FAST_T)
    # two-sided partial sum reconstructs the waveform away from the edges
    for t, expected in ((0.5 * FAST_D, FAST.vs),
                        (FAST_D + 0.4 * (FAST_T - FAST_D), 0.0)):
        total = complex(c0)
        for n in range(1, 1500):
            cn = square_wave_coeff(n, FAST.vs, FAST_D, FAST_T)
            total += cn * cmath.exp(2j * math.pi * n * t / FAST_T)
            total += cn.conjugate() * cmath.exp(-2j * math.pi * n * t / FAST_T)
        assert abs(total.imag) < 1e-9
        assert total.real == pytest.approx(expected, abs=5e-3)


def test_period2_coefficients_collapse_at_zero_shift():
    # no displacement: odd coefficients vanish, even ones are one-cycle
    for k in (1, 2, 5):
        odd = period2_coeff(2 * k - 1, FAST.vs, FAST_D, FAST_T, 0.0)
        even = period2_coeff(2 * k, FAST.vs, FAST_D, FAST_T, 0.0)
        assert abs(odd) < 1e-15
        assert even == pytest.approx(
            square_wave_coeff(k, FAST.vs, FAST_D, FAST_T), rel=1e-12)


def test_convergence_points_are_quarter_half_full():
    assert convergence_points(2000) == [500, 1000, 2000]
    assert convergence_points(7) == [1, 3, 7]


def test_y0_series_matches_the_exact_orbit():
    ma = 2000.0
    m, ramp, u, ss = operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
    vc = float(u[1])
    for frac in (0.1, 0.3, 0.45, 0.6, 0.8, 0.95):
        t = frac * FAST_T
        _, y_exact = orbit_sample(m, ss, t)
        y_series = y0_series(t, FAST, Scheme.V_COTC, vc, FAST_D, FAST_T,
                             nh=4000)
        assert y_series == pytest.approx(y_exact, abs=2e-6)


def test_pdb_sum_truncation_is_cauchy():
    vals = {nh: hb_pdb_splot(FAST, Scheme.V_COTC, FAST_D, FAST_T, nh)
            for nh in (250, 500, 1000, 2000)}
    d1 = abs(vals[500] - vals[250])
    d2 = abs(vals[2000] - vals[1000])
    assert d2 < d1
    assert d2 <= 5e-4 * abs(vals[2000])


def test_pdb_series_route_matches_stage_transition_route():
    m = build_model(FAST, Scheme.V_COTC)
    exact = pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)
    series = hb_pdb_splot(FAST, Scheme.V_COTC, FAST_D, FAST_T, 2000)
    assert series == pytest.approx(exact, rel=1e-4)
    assert series == pytest.approx(943.41676617984911, rel=1e-12)  # frozen


def test_two_sided_sum_is_twice_the_real_part():
    # summed by explicit conjugate pairs, so this is a cross-check
    one = h_plot(WS, FAST, Scheme.V_COTC, FAST_D, 1200)
    two = l2_plot(WS, FAST, Scheme.V_COTC, FAST_D, 1200)
    assert abs(two.imag) <= 1e-12 * max(1.0, abs(two.real))
    assert two.real == pytest.approx(2.0 * one.real, rel=1e-9)


def test_normalized_sum_and_loop_gain_forms():
    ma = 943.4
    l1 = l1_plot(WS, FAST, Scheme.V_COTC, ma, FAST_D, 2000)
    l2 = l2_plot(WS, FAST, Scheme.V_COTC, FAST_D, 2000)
    assert l1 == pytest.approx(l2 * FAST.vs / (ma * FAST_T), rel=1e-12)
    # at the critical slope the normalized sum sits on its boundary value 2
    assert l1.real == pytest.approx(2.0, abs=1e-3)
    two = loop_gain_pdb(FAST, Scheme.V_COTC, ma, FAST_D, FAST_T, 2000,
                        "two_sided")
    one = loop_gain_pdb(FAST, Scheme.V_COTC, ma, FAST_D, FAST_T, 2000,
                        "one_sided")
    assert two.real == pytest.approx(2.0 * one.real, rel=1e-9)
    with pytest.raises(UsageError):
        loop_gain_pdb(FAST, Scheme.V_COTC, ma, FAST_D, FAST_T, 2000, "bode")
    with pytest.raises(InfiniteLoopGainError):
        l1_plot(WS, FAST, Scheme.V_COTC, 0.0, FAST_D, 2000)
    with pytest.raises(DomainError):
        h_plot(-1.0, FAST, Scheme.V_COTC, FAST_D, 100)


def test_first_harmonic_estimate_is_the_classical_one():
    val = hb_pdb_first_harmonic(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    assert val == pytest.approx(6079.887644900889, rel=1e-12)  # frozen
    # crude by design: same sign as the full sum, far from its value
    full = hb_pdb_splot(FAST, Scheme.V_COTC, FAST_D, FAST_T, 2000)
    assert val > full > 0.0


def test_snb_series_route_matches_stage_transition_route():
    m = build_model(CURRENT, Scheme.C_COTC)
    exact = snb_boundary_exact(m, CURRENT.vs, CUR_D, CUR_T)
    series = hb_snb_condition(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, 2000)
    assert series == pytest.approx(exact, rel=5e-3)
    assert series < 0.0


def test_series_identities():
    for D in (0.2, 0.4, 0.7):
        out = series_identities_check(D, nterms=4000)
        got_cos, want_cos = out["alternating_cosine"]
        got_sin, want_sin = out["alternating_sine"]
        assert want_cos == pytest.approx(-math.pi ** 2 * D * D / 4.0)
        assert want_sin == pytest.approx(-math.pi * D / 2.0)
        assert got_cos == pytest.approx(want_cos, abs=1e-6)
        assert got_sin == pytest.approx(want_sin, abs=1e-6)


def _omega(T):
    # the frequency forms take omega_s; T = 0 is an infinite frequency
    return 2.0 * math.pi / T if T else math.inf


_SERIES = {
    "hb_pdb_splot": lambda nh, d, T: hb_pdb_splot(FAST, Scheme.V_COTC, d, T,
                                                  nh),
    "hb_snb_condition": lambda nh, d, T: hb_snb_condition(
        FAST, Scheme.V_COTC, d, T, nh),
    "h_plot": lambda nh, d, T: h_plot(_omega(T), FAST, Scheme.V_COTC, d,
                                      nh),
    "l2_plot": lambda nh, d, T: l2_plot(_omega(T), FAST, Scheme.V_COTC, d,
                                        nh),
    "l1_plot": lambda nh, d, T: l1_plot(_omega(T), FAST, Scheme.V_COTC,
                                        943.4, d, nh),
    "loop_gain_pdb": lambda nh, d, T: loop_gain_pdb(
        FAST, Scheme.V_COTC, 943.4, d, T, nh, "one_sided"),
    "y0_series": lambda nh, d, T: y0_series(0.3 * FAST_T, FAST,
                                            Scheme.V_COTC, 1.9, d, T, nh),
}


@pytest.mark.parametrize("name", sorted(_SERIES))
@pytest.mark.parametrize("nh, d, T", [
    (0, FAST_D, FAST_T),
    (-3, FAST_D, FAST_T),
    (2.5, FAST_D, FAST_T),
    ("40", FAST_D, FAST_T),
    (40, -1e-6, FAST_T),
    (40, 0.0, FAST_T),
    (40, 4e-6, FAST_T),
    (40, math.nan, FAST_T),
    (40, FAST_D, 0.0),
    (40, FAST_D, -FAST_T),
    (40, FAST_D, math.nan),
    (40, FAST_D, math.inf),
])
def test_series_reject_bad_depth_and_timing(name, nh, d, T):
    # a typed error, never a NaN or a plausible partial sum
    with pytest.raises(DomainError):
        _SERIES[name](nh, d, T)


@pytest.mark.parametrize("d, T", [(-1e-6, FAST_T), (4e-6, FAST_T),
                                  (FAST_D, 0.0), (FAST_D, math.nan)])
def test_first_harmonic_rejects_bad_timing(d, T):
    with pytest.raises(DomainError):
        hb_pdb_first_harmonic(FAST, Scheme.V_COTC, d, T)
    with pytest.raises(DomainError):
        loop_gain_pdb(FAST, Scheme.V_COTC, 943.4, d, T, 40, "first_harmonic")


def test_series_accept_the_zero_off_time_corner():
    # d = T is the degenerate edge the exact route also accepts
    assert math.isfinite(hb_pdb_splot(FAST, Scheme.V_COTC, FAST_T, FAST_T,
                                      40))
    assert math.isfinite(hb_pdb_splot(FAST, Scheme.V_COTC, FAST_D, FAST_T,
                                      np.int64(40)))


@pytest.mark.parametrize("nterms", [0, -1, 2.5])
def test_series_identities_reject_bad_term_count(nterms):
    with pytest.raises(DomainError):
        series_identities_check(0.4, nterms=nterms)
