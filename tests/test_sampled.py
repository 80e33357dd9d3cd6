"""Sampled-data layer: periodic orbit, consistency, linearized cycle map."""

import sys

import numpy as np
import pytest

from cotstab import (ConverterModel, CycleOps, DegenerateSwitchingError,
                     DomainError, RampSpec, Scheme, build_model,
                     consistent_steady_state, consistent_vc,
                     critical_ramp_eig, expm, expm_integral, linalg,
                     linearize, orbit_sample, pdb_boundary_exact,
                     period_residual, poles, s_exact, snb_boundary_exact,
                     solve_linear, solve_period, steady_state_at)
from cotstab import bifurcation, simulate
from cotstab.cli import main as cli_main
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
    alone = {"p1": expm(m.A, d), "p2": expm(m.A, T - d), "W": expm(m.A, T),
             "j1b1": expm_integral(m.A, m.B, d)}
    # a grid of cycles, its second point this one: slices are bitwise too
    grid = CycleOps(m, np.array([0.5 * d, d]), np.array([T, T]))
    for name, value in alone.items():
        assert np.array_equal(getattr(ops, name), value)
        assert np.array_equal(getattr(ss.ops, name), value)
        assert np.array_equal(getattr(CycleOps(m, d, T), name), value)
        assert np.array_equal(getattr(grid, name)[1], value)
        with pytest.raises(ValueError):     # the model shares them
            getattr(ops, name)[0, ...] = 0.0


def test_a_model_keeps_only_its_last_float_cycle_bitwise():
    # cycles A, B, A on one model, with a boundary grid after each, give
    # what a fresh model gives, bit for bit, on every route that reads the
    # model's stage operators
    m = build_model(FAST, Scheme.V_COTC)
    u = np.array([FAST.vs, 0.0])

    def results(model, d, T):
        ss = steady_state_at(model, d, T, u)
        pdb = pdb_boundary_exact(model, FAST.vs, d, T)
        return (ss.x0_0.tolist(), ss.xdot0_minus.tolist(), pdb,
                snb_boundary_exact(model, FAST.vs, d, T),
                s_exact(model, ss, -1.0), s_exact(model, ss, 0.5),
                critical_ramp_eig(model, d, T, u, -1.0, pdb - 0.1 * abs(pdb),
                                  pdb + 0.1 * abs(pdb)))

    for d, T in ((FAST_D, FAST_T), (1.0e-6, 2.6e-6), (FAST_D, FAST_T)):
        assert results(m, d, T) == results(
            build_model(FAST, Scheme.V_COTC), d, T)
        grid = pdb_boundary_exact(m, FAST.vs, np.array([0.8, 1.0]) * d, T)
        assert grid[1] == pdb_boundary_exact(
            build_model(FAST, Scheme.V_COTC), FAST.vs, d, T)
    with pytest.raises(ValueError):
        m.A[0, 0] = 1.0


def test_models_copy_the_arrays_they_are_given():
    m = build_model(FAST, Scheme.V_COTC)
    a = m.A.copy()
    mine = ConverterModel(A=a, B=m.B, Cvec=m.Cvec, Dvec=m.Dvec,
                          scheme=m.scheme)
    a[0, 0] = 1.0
    assert np.array_equal(mine.A, m.A)
    assert not any(x.flags.writeable for x in (mine.A, mine.B, mine.Cvec,
                                               mine.Dvec))


# each command of the benchmark's cli workload and the stage exponentials
# (calls of expm and expm_integral) it makes.  While the boundaries and the
# simulator formed their own, pdb-boundary and snb-boundary made 3,
# simulate 4 and examples 85.  max-on-time and examples run root searches
# whose length follows the last bits of BLAS products, which differ between
# OpenBLAS kernels (examples makes 73-77 on the kernels tried), so theirs
# are ceilings, the counts from before, with an exact count of the
# on-stage drives alone (examples formed 11 before)
_FAST_ARGS = ["--set", "scheme=V_COTC", "--set", "vs=5.0", "--set", "R=0.5",
              "--set", "L=2e-6", "--set", "C=2e-5", "--set", "Rc=0.02",
              "--set", "d=1.2e-6"]
_CLI_EXPONENTIALS = [
    (["steady-state", *_FAST_ARGS, "--set", "T=3e-6", "--set", "ma=1000"], 2),
    (["poles", *_FAST_ARGS, "--set", "T=3e-6", "--set", "ma=0"], 6),
    (["pole-locus", *_FAST_ARGS, "--set", "T=3e-6", "--sweep",
      "lambda=-1.5:1.5:61"], 2),
    (["splot", *_FAST_ARGS, "--set", "T=3e-6", "--sweep", "D=0.2:0.6:41"], 41),
    (["pdb-boundary", *_FAST_ARGS, "--set", "T=3e-6", "--nh", "50"], 2),
    (["snb-boundary", "--set", "scheme=C_COTC", "--set", "vs=13.2",
      "--set", "R=10.0", "--set", "L=3.1e-6", "--set", "C=3e-4",
      "--set", "Rc=4.5e-3", "--set", "Ri=0.15", "--set", "d=0.26e-6",
      "--set", "T=1.04e-6", "--nh", "50"], 2),
    (["min-ri", *_FAST_ARGS, "--set", "scheme=V_COTC_CURRENT_RAMP",
      "--set", "T=3e-6"], 2),
    (["max-on-time", *_FAST_ARGS[:-2], "--set", "D=0.4", "--sweep",
      "d=0.4e-6:2.8e-6:2"], (10, 0)),
    (["simulate", *_FAST_ARGS, "--set", "T=3e-6", "--set", "ma=9500",
      "--set", "settle=100", "--cycles", "150"], 2),
    (["examples"], (85, 8)),
]


@pytest.fixture
def exponentials(monkeypatch):
    """Names of the stage exponentials called, in order."""
    import cotstab.cases  # noqa: F401  (every module that may hold them)
    import cotstab.cli  # noqa: F401
    calls = []
    for name in ("expm", "expm_integral"):
        orig = getattr(linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("cotstab") and getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_a_design_draw_forms_each_stage_exponential_once(exponentials):
    # the call sequence of a draw of the benchmark's design workload: the
    # on-stage map, the off-stage map and W as one stack, and the drive
    rng = np.random.default_rng(7109)
    for scheme in SCHEMES:
        p, _, d, T, *_ = random_operating(rng, scheme)
        exponentials.clear()
        m = build_model(p, scheme)
        u = np.array([p.vs, consistent_vc(m, RampSpec(0.0, d), T, p.vs)])
        ss = steady_state_at(m, d, T, u)
        linearize(m, ss, 0.0).poles()
        pdb = pdb_boundary_exact(m, p.vs, d, T)
        snb_boundary_exact(m, p.vs, d, T)
        s_exact(m, ss, -1.0)
        s_exact(m, ss, 1.0)
        critical_ramp_eig(m, d, T, u, -1.0, pdb - 0.1 * abs(pdb),
                          pdb + 0.005 * abs(pdb))
        assert exponentials == ["expm", "expm_integral"]


@pytest.mark.parametrize("argv, count", _CLI_EXPONENTIALS,
                         ids=[a[0] for a, _ in _CLI_EXPONENTIALS])
def test_cli_commands_form_no_more_exponentials(exponentials, capsys, argv,
                                                count):
    assert cli_main(argv) == 0
    if isinstance(count, tuple):    # a root search: a ceiling, exact drives
        assert len(exponentials) <= count[0]
        assert exponentials.count("expm_integral") == count[1]
    else:
        assert len(exponentials) == count


def test_only_sampled_forms_stage_exponentials():
    for module in (bifurcation, simulate):
        assert not {"expm", "expm_integral"} & set(vars(module))


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
