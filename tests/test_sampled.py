"""Sampled-data layer: periodic orbit, consistency, linearized cycle map."""

import sys

import numpy as np
import pytest

from cotstab import (DegenerateSwitchingError, DomainError, RampSpec, Scheme,
                     consistent_steady_state, consistent_vc, expm,
                     expm_integral, linearize, orbit_sample, period_residual,
                     poles, solve_linear, solve_period, steady_state_at)
from helpers import (FAST, FAST_D, FAST_T, SCHEMES, operating,
                     random_operating)

def test_orbit_is_a_fixed_point_of_the_cycle_map():
    rng = np.random.default_rng(7101)
    # push the start state through both stages by hand: it must come back
    for _ in range(10):
        _, _, d, T, m, _, u, ss = random_operating(rng)
        xd = expm(m.A, d) @ ss.x0_0 + expm_integral(m.A, m.B @ u, d)
        xT = expm(m.A, T - d) @ xd
        scale = np.linalg.norm(ss.x0_0) + 1.0
        assert np.linalg.norm(xT - ss.x0_0) <= 1e-9 * scale
        assert np.allclose(xd, ss.x0_d, rtol=1e-9, atol=1e-12 * scale)


def test_cycle_ops_hold_the_stage_operators_bitwise():
    rng = np.random.default_rng(7104)
    _, _, d, T, m, _, u, ss = random_operating(rng)
    ops = steady_state_at(m, d, T, u).ops
    assert (ops.d, ops.T) == (d, T)
    assert np.array_equal(ops.p1, expm(m.A, d))
    assert np.array_equal(ops.p2, expm(m.A, T - d))
    assert np.array_equal(ops.j1b1, expm_integral(m.A, m.B, d))
    for name in ("p1", "p2", "j1b1"):
        assert np.array_equal(getattr(ss.ops, name), getattr(ops, name))


def test_consistent_orbit_equals_the_separate_calls_bitwise():
    # one CycleOps serves both consistency probes and the final orbit
    rng = np.random.default_rng(7105)
    p, _, d, T, m, ramp, _, ss = random_operating(rng, ma=1500.0)
    vc = consistent_vc(m, ramp, T, p.vs)
    again = steady_state_at(m, d, T, np.array([p.vs, vc]))
    assert ss.u[1] == vc
    assert np.array_equal(ss.x0_0, again.x0_0)
    assert ss.y_end == again.y_end


def test_consistent_orbit_makes_one_periodicity_solve(monkeypatch):
    # vc drives no state, so one solve serves both switching residuals
    # and the orbit itself
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_linear(*args)

    monkeypatch.setattr(sys.modules["cotstab.sampled"], "solve_linear",
                        counted)
    rng = np.random.default_rng(7108)
    for scheme in SCHEMES:
        p, _, _, T, m, ramp, _, _ = random_operating(rng, scheme, 1500.0)
        for solve in (consistent_vc, consistent_steady_state):
            calls.clear()
            solve(m, ramp, T, p.vs)
            assert len(calls) == 1, solve.__name__


def test_velocity_is_off_stage_rate_at_cycle_start():
    rng = np.random.default_rng(7102)
    _, _, _, _, m, _, u, ss = random_operating(rng)
    assert np.allclose(ss.xdot0_minus, m.A @ ss.x0_0, rtol=1e-12)


def test_steady_state_rejects_bad_on_time():
    m, _, u, _ = operating(FAST, Scheme.V_COTC,
                           FAST_D, FAST_T, 0.0)
    with pytest.raises(DomainError):
        steady_state_at(m, 0.0, FAST_T, u)
    with pytest.raises(DomainError):
        steady_state_at(m, FAST_T, FAST_T, u)


def test_consistent_vc_zeroes_the_switching_residual():
    rng = np.random.default_rng(7103)
    for _ in range(10):
        ma = float(rng.uniform(0.0, 5e4))
        _, _, _, T, m, ramp, u, ss = random_operating(rng, ma=ma)
        # y at the boundary must meet the ramp
        assert ss.y_end == pytest.approx(ma * T, abs=1e-9 * (1.0 + ma * T))
        assert period_residual(m, ramp, u, T) == pytest.approx(
            0.0, abs=1e-9 * (1.0 + ma * T))


def test_solve_period_recovers_the_design_period():
    rng = np.random.default_rng(7104)
    _, _, _, T, m, ramp, u, _ = random_operating(rng, ma=2e4)
    found = solve_period(m, ramp, u, 0.55 * T, 1.9 * T)
    assert len(found) == 1
    t_root, ss_root = found[0]
    assert t_root == pytest.approx(T, rel=1e-9)
    assert ss_root.y_end == pytest.approx(ramp.ma * t_root, rel=1e-9)


def test_stacked_period_residuals_match_the_pointwise_residual():
    # solve_period scans its grid in one call on an array of periods;
    # every point must be the scalar call's float, bit for bit
    rng = np.random.default_rng(7106)
    for scheme, ma in zip(SCHEMES, (0.0, 2e4, -3e4)):
        _, _, _, T, m, ramp, u, _ = random_operating(rng, scheme, ma)
        ts = np.linspace(1.05 * ramp.d, 1.9 * T, 301)
        stacked = period_residual(m, ramp, u, ts)
        pointwise = [period_residual(m, ramp, u, float(t)) for t in ts]
        assert all(type(r) is float for r in pointwise)
        assert np.array_equal(stacked, pointwise)
    with pytest.raises(DomainError):
        period_residual(m, ramp, u, ramp.d)


def test_orbit_sample_continuity_and_endpoints():
    rng = np.random.default_rng(7105)
    _, _, d, T, m, _, _, ss = random_operating(rng)
    x0, _ = orbit_sample(m, ss, 0.0)
    xT, yT = orbit_sample(m, ss, T)
    scale = np.linalg.norm(ss.x0_0) + 1.0
    assert np.allclose(x0, ss.x0_0, rtol=1e-12)
    assert np.linalg.norm(xT - ss.x0_0) <= 1e-9 * scale
    assert yT == pytest.approx(ss.y_end, abs=1e-9 * (1.0 + abs(ss.y_end)))
    xd, _ = orbit_sample(m, ss, d)
    assert np.allclose(xd, ss.x0_d, rtol=1e-9, atol=1e-12 * scale)
    with pytest.raises(DomainError):
        orbit_sample(m, ss, -1e-9)


def test_no_ramp_map_is_singular():
    rng = np.random.default_rng(7106)
    # switching feedback removes one direction: a pole sits at the origin
    for _ in range(20):
        _, _, _, _, m, _, u, ss = random_operating(rng, ma=0.0)
        lin = linearize(m, ss, 0.0)
        eigs = np.abs(np.linalg.eigvals(lin.Phi))
        assert eigs.min() <= 1e-9 * max(1.0, eigs.max())


def test_linearize_denominator_is_slope_margin():
    rng = np.random.default_rng(7107)
    _, _, _, _, m, _, u, ss = random_operating(rng, ma=0.0)
    ydot = float(m.Cvec @ ss.xdot0_minus)
    with pytest.raises(DegenerateSwitchingError):
        linearize(m, ss, ydot)  # ramp slope equal to feedback slope


def test_poles_helper_matches_linearize():
    m, ramp, u, ss = operating(FAST, Scheme.V_COTC,
                               FAST_D, FAST_T, 0.0)
    got = poles(m, ramp, u, FAST_T)
    lin = linearize(m, ss, 0.0)
    assert np.allclose(np.sort_complex(got), np.sort_complex(lin.poles()))


def test_reference_poles_without_ramp():
    # high-ripple buck: one pole at the origin, one past -1 (unstable)
    m, ramp, u, _ = operating(FAST, Scheme.V_COTC,
                              FAST_D, FAST_T, 0.0)
    got = np.sort(poles(m, ramp, u, FAST_T).real)
    assert got[0] == pytest.approx(-1.0512484, abs=1e-6)
    assert got[1] == pytest.approx(0.0, abs=1e-12)


def test_forward_and_reversed_products_share_spectrum():
    rng = np.random.default_rng(7109)
    # the two stage-product orderings are similar matrices
    _, _, _, _, m, _, _, ss = random_operating(rng)
    a = np.sort_complex(np.linalg.eigvals(ss.ops.p2 @ ss.ops.p1))
    b = np.sort_complex(np.linalg.eigvals(ss.ops.p1 @ ss.ops.p2))
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)
