"""Numeric core: exponentials, integrals, solves, rootfinding."""

import math

import numpy as np
import pytest

from cotstab import (BracketError, DimensionError, DomainError,
                     NumericError, SingularMatrixError, build_model,
                     eigenvalues, expm, expm_integral, find_root, solve_linear)
from cotstab.linalg import _SCALAR_MAX, _SERIES_RADIUS, _cond2

from helpers import SCHEMES, closed_form_q, random_buck

RNG = np.random.default_rng(20260815)


def random_state_matrix(rng, n=2, scale=1e6):
    return rng.standard_normal((n, n)) * scale


def test_expm_identity_at_zero_time():
    a = random_state_matrix(RNG)
    assert np.allclose(expm(a, 0.0), np.eye(2), atol=1e-15)


def test_expm_group_property():
    # exp(A(s+t)) = exp(As) exp(At), 20 random draws
    for _ in range(20):
        a = random_state_matrix(RNG)
        s, t = RNG.uniform(0.1e-6, 2e-6, size=2)
        lhs = expm(a, s + t)
        rhs = expm(a, s) @ expm(a, t)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


def test_expm_inverse_property():
    for _ in range(20):
        a = random_state_matrix(RNG)
        t = RNG.uniform(0.1e-6, 2e-6)
        prod = expm(a, t) @ expm(a, -t)
        assert np.allclose(prod, np.eye(2), rtol=1e-10, atol=1e-10)


def test_expm_diagonal_exact():
    a = np.diag([-2.0e5, 3.0e4])
    t = 1.7e-6
    expected = np.diag([math.exp(-2.0e5 * t), math.exp(3.0e4 * t)])
    assert np.allclose(expm(a, t), expected, rtol=1e-12)


def test_expm_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)), 1.0)
    with pytest.raises(DomainError):
        expm(np.eye(2), math.inf)


def test_exponentials_reject_matrices_other_than_2x2():
    # the closed form is for two states; larger matrices are refused,
    # not handed to another method
    for n in (1, 3):
        with pytest.raises(DimensionError):
            expm(np.eye(n), 1.0)
        with pytest.raises(DimensionError):
            expm_integral(np.eye(n), np.ones(n), 1.0)
    with pytest.raises(DimensionError):
        expm(np.zeros((4, 3, 3)), np.ones(4))


def test_expm_overflow_raises():
    with pytest.raises(NumericError):
        expm(np.eye(2), 800.0)
    with pytest.raises(NumericError):
        expm_integral(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), 800.0)


def test_expm_stack_slices_equal_single_calls_bitwise():
    # ||a*t|| from 1e-2 to 1e3 over 32 random stable matrices, yet each
    # slice equals its own one-matrix call bit for bit
    def stable():
        a = random_state_matrix(RNG)
        return a - (np.max(np.linalg.eigvals(a).real) + 1e4) * np.eye(2)

    a = stable()
    ts = 10.0 ** np.linspace(-8.0, -3.0, 31)
    by_time = expm(a, ts)
    assert by_time.shape == (31, 2, 2)
    for k, t in enumerate(ts):
        assert np.array_equal(by_time[k], expm(a, t))
    stack = np.stack([stable() * t for t in ts])
    stacked = expm(stack)
    for k in range(len(ts)):
        assert np.array_equal(stacked[k], expm(stack[k]))
    grid = expm(stack.reshape(31, 1, 2, 2), ts[:2])     # broadcast (31, 2)
    assert grid.shape == (31, 2, 2, 2)
    assert np.array_equal(grid[7, 1], expm(stack[7], ts[1]))


def test_expm_integral_stack_equals_single_calls_bitwise():
    a = np.stack([random_state_matrix(RNG) for _ in range(5)])
    b = RNG.standard_normal((5, 2, 2)) * 1e6
    ts = RNG.uniform(0.1e-6, 3e-6, 5)
    got = expm_integral(a, b, ts)
    assert got.shape == (5, 2, 2)
    for k in range(5):
        assert np.array_equal(got[k], expm_integral(a[k], b[k], ts[k]))
    vec = expm_integral(a[0], b[0, :, 0], ts)
    assert vec.shape == (5, 2)
    assert np.array_equal(vec[3], expm_integral(a[0], b[0, :, 0], ts[3]))


def _rotated(rng, lam):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    return q @ np.diag(lam) @ q.T


def _form(m):
    """The form of phi1 that the closed form takes for the matrix m."""
    a, q = 0.5 * (m[0, 0] + m[1, 1]), closed_form_q(m)
    if abs(a) + math.sqrt(abs(q)) <= _SERIES_RADIUS:
        return "series"
    return "divided" if 3.0 * q > a * a else "inverse"


def _branch_strata(rng):
    """``(name, draw, holds)``: draws of ``M = A t`` over every branch of
    both closed forms, and what each draw is checked to satisfy."""
    def critical():         # q == 0 exactly: dyadic entries round nowhere
        a = -float(rng.integers(1, 2 ** 20)) * 2.0 ** -18
        h = float(rng.integers(-2 ** 20, 2 ** 20)) * 2.0 ** -20
        s = 2.0 ** int(rng.integers(-8, 9))
        return np.array([[a + h, h * s], [-h / s, a - h]])

    def near(sign):         # |q| / a^2 ~ 1e-16 on one side of critical
        a = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-2.0, 1.0)
        xi = 10.0 ** rng.uniform(-1.0, 1.0)
        return np.array([[a, a * xi], [sign * 1e-16 * a / xi, a]])

    def singular():         # an integrator pole beside v.u
        u, v = rng.standard_normal((2, 2))
        return np.outer(u, v * -10.0 ** rng.uniform(-1.0, 2.0) / (v @ u))

    def buck():
        m = build_model(random_buck(rng), SCHEMES[rng.integers(len(SCHEMES))])
        return m.A * float(10.0 ** rng.uniform(-6.3, -5.3))

    q = closed_form_q
    return [
        ("exact critical damping", critical, lambda m: q(m) == 0.0),
        ("q within rounding above 0", lambda: near(1.0),
         lambda m: 0.0 < q(m) < 1e-15 * m[0, 0] ** 2),
        ("q within rounding below 0", lambda: near(-1.0),
         lambda m: -1e-15 * m[0, 0] ** 2 < q(m) < 0.0),
        ("stiff, q > 1", lambda: _rotated(
            rng, [-rng.uniform(0.1, 2.0), -10.0 ** rng.uniform(1.5, 3.0)]),
         lambda m: q(m) > 1.0),
        ("singular", singular, lambda m: abs(np.linalg.det(m)) < 1e-12),
        ("nilpotent", lambda: np.triu(rng.standard_normal((2, 2)), 1)
         * 10.0 ** rng.uniform(-2.0, 3.0), lambda m: q(m) == 0.0),
        ("series", lambda: rng.standard_normal((2, 2))
         * 10.0 ** rng.uniform(-4.0, -0.7), lambda m: _form(m) == "series"),
        ("divided differences", lambda: _rotated(
            rng, [-rng.uniform(0.0, 0.5), -rng.uniform(2.0, 50.0)]),
         lambda m: _form(m) == "divided"),
        ("divided differences, z = a + sqrt q = 0", lambda: np.diag(
            [0.0, -rng.uniform(2.0, 50.0)]), lambda m: _form(m) == "divided"
         and 0.5 * (m[0, 0] + m[1, 1]) + math.sqrt(q(m)) == 0.0),
        ("inverse, real pair", lambda: _rotated(
            rng, [-rng.uniform(2.0, 3.0), -rng.uniform(4.0, 6.0)]),
         lambda m: _form(m) == "inverse" and q(m) > 0.0),
        ("inverse, complex pair", lambda: np.array(
            [[-3.0, 2.0], [-2.0, -3.0]]) * rng.uniform(0.5, 2.0),
         lambda m: _form(m) == "inverse" and q(m) < 0.0),
        ("buck stage", buck, lambda m: True),
    ]


def test_scalar_kernel_matches_stacked_path_bitwise():
    # expm of up to _SCALAR_MAX matrices takes the scalar kernel, of one
    # more the vectorized path: every slice of either, and the one-matrix
    # call, agree bit for bit over every branch.  expm_integral takes the
    # kernel at any size; its stacks are checked over every phi1 form.
    rng = np.random.default_rng(20261019)
    for name, draw, holds in _branch_strata(rng):
        for _ in range(4):
            m = np.stack([draw() for _ in range(_SCALAR_MAX + 1)])
            assert all(holds(x) for x in m), name
            b = rng.standard_normal((_SCALAR_MAX + 1, 2, 3))
            for call in (lambda x, bx: expm(x),
                         lambda x, bx: expm_integral(x, bx, 1.0),
                         lambda x, bx: expm_integral(x, b[0, :, 0], 1.0)):
                stacked = call(m, b)
                small = call(m[:_SCALAR_MAX], b[:_SCALAR_MAX])
                for k in range(len(m)):
                    single = call(m[k], b[k])
                    assert np.array_equal(stacked[k], single), name
                    if k < _SCALAR_MAX:
                        assert np.array_equal(small[k], single), name


def test_scalar_kernel_keeps_the_overflow_check():
    hot = np.array([[800.0, 0.0], [0.0, -1.0]])
    for n in (1, _SCALAR_MAX, _SCALAR_MAX + 1):
        stack = np.stack([np.eye(2)] * (n - 1) + [hot])
        with pytest.raises(NumericError):
            expm(stack)
        with pytest.raises(NumericError):
            expm_integral(stack, np.ones(2), 1.0)


def test_expm_integral_matches_quadrature():
    a = random_state_matrix(RNG, scale=3e5)
    b = RNG.standard_normal(2)
    t = 1.3e-6
    ts = np.linspace(0.0, t, 20001)
    vals = expm(a, ts) @ b  # one stacked call; slices equal single calls
    quad = np.trapezoid(vals, ts, axis=0)
    assert np.allclose(expm_integral(a, b, t), quad, rtol=1e-7, atol=1e-12)


def test_expm_integral_invertible_closed_form():
    # int_0^t e^{As} ds = A^{-1} (e^{At} - I) when A is invertible
    a = np.array([[-4e5, 1e5], [-2e5, -3e5]])
    b = np.array([1.0, -2.0])
    t = 2.1e-6
    expected = np.linalg.solve(a, (expm(a, t) - np.eye(2)) @ b)
    assert np.allclose(expm_integral(a, b, t), expected, rtol=1e-10)


def test_expm_integral_singular_matrix():
    # integrator pole: first column integrates exactly to b0 * t
    a = np.array([[0.0, 0.0], [1e5, 0.0]])
    b = np.array([2.0, 0.0])
    t = 1e-6
    out = expm_integral(a, b, t)
    assert out[0] == pytest.approx(2.0 * t, rel=1e-12)
    assert out[1] == pytest.approx(0.5 * 1e5 * 2.0 * t * t, rel=1e-10)


def test_expm_integral_zero_time_and_shapes():
    a = np.eye(2)
    assert np.array_equal(expm_integral(a, np.ones(2), 0.0), np.zeros(2))
    out = expm_integral(a, np.ones((2, 3)), 1e-6)
    assert out.shape == (2, 3)
    with pytest.raises(DimensionError):
        expm_integral(a, np.ones(3), 1e-6)
    with pytest.raises(DomainError):
        expm_integral(a, np.ones(2), -1.0)


def test_eigenvalues_companion_matrix():
    # companion matrix of (x-1)(x+2)(x-3) has exactly those roots
    roots = np.array([1.0, -2.0, 3.0])
    poly = np.poly(roots)
    comp = np.zeros((3, 3))
    comp[0, :] = -poly[1:]
    comp[1:, :-1] = np.eye(2)
    got = np.sort_complex(eigenvalues(comp))
    assert np.allclose(got, np.sort_complex(roots.astype(complex)), rtol=1e-10)


def test_eigenvalues_size_cap():
    with pytest.raises(DimensionError):
        eigenvalues(np.eye(9))


def test_solve_linear_roundtrip():
    for _ in range(10):
        m = random_state_matrix(RNG, n=3, scale=1.0) + 4.0 * np.eye(3)
        v = RNG.standard_normal(3)
        x = solve_linear(m, v)
        assert np.allclose(m @ x, v, rtol=1e-11, atol=1e-13)


def test_solve_linear_stack_equals_single_solves_bitwise():
    m = RNG.standard_normal((20, 3, 3)) + 4.0 * np.eye(3)
    v = RNG.standard_normal((20, 3))
    rhs = RNG.standard_normal((20, 3, 2))
    xs, xm = solve_linear(m, v), solve_linear(m, rhs)
    assert xs.shape == (20, 3) and xm.shape == (20, 3, 2)
    for k in range(20):
        assert np.array_equal(xs[k], solve_linear(m[k], v[k]))
        assert np.array_equal(xm[k], solve_linear(m[k], rhs[k]))
    m[7] = np.ones((3, 3))                # one singular slice fails the call
    with pytest.raises(SingularMatrixError):
        solve_linear(m, v)
    with pytest.raises(DimensionError):
        solve_linear(m, v[:, :2])
    with pytest.raises(DimensionError):
        solve_linear(m, v[0])


def test_solve_linear_2x2_stack_equals_single_solves_bitwise():
    m = RNG.standard_normal((20, 2, 2)) + 3.0 * np.eye(2)
    v = RNG.standard_normal((20, 2))
    xs = solve_linear(m, v)
    for k in range(20):
        assert np.array_equal(xs[k], solve_linear(m[k], v[k]))


def test_closed_form_condition_number_matches_svd():
    rng = np.random.default_rng(61)
    real = rng.standard_normal((200, 2, 2)) * 10.0 ** rng.uniform(
        -3.0, 3.0, (200, 1, 1))
    for m in (real, real + 1j * rng.standard_normal((200, 2, 2))):
        m = m[np.linalg.cond(m) < 1e4]              # well conditioned
        ref = np.linalg.cond(m)
        for x, c in zip(m, ref):
            assert _cond2(x) == pytest.approx(c, rel=1e-8)
        # the largest over a stack, in Python numbers and in array loops
        for n in (2, _SCALAR_MAX, _SCALAR_MAX + 1, len(m)):
            assert _cond2(m[:n]) == pytest.approx(ref[:n].max(), rel=1e-8)
        stack = m[:12].reshape(4, 3, 2, 2)          # any stack shape
        assert _cond2(stack) == pytest.approx(ref[:12].max(), rel=1e-8)
    # scaled by its largest entry, a matrix far from 1 in size is still
    # as well conditioned as it is
    for scale in (1e-200, 1e200):
        for n in (1, _SCALAR_MAX + 1):
            eye = np.broadcast_to(np.eye(2) * scale, (n, 2, 2))
            assert _cond2(eye) == pytest.approx(1.0, rel=1e-15)


def test_closed_form_guard_refuses_singular_2x2():
    zero_row = np.array([[1.0, 2.0], [0.0, 0.0]])
    small = RNG.standard_normal((5, 2, 2)) + 3.0 * np.eye(2)
    small[3] = [[1.0, 2.0], [2.0, 4.0]]         # exactly singular slice
    large = RNG.standard_normal((20, 2, 2)) + 3.0 * np.eye(2)
    large[17] = np.ones((2, 2))
    for m in (np.ones((2, 2)), zero_row, zero_row + 0j, np.zeros((2, 2)),
              small, large):
        with pytest.raises(SingularMatrixError) as info:
            solve_linear(m, np.ones(m.shape[:-1]))
        assert info.value.condition > 1e14 or math.isinf(
            info.value.condition)


def test_solve_linear_singular():
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(np.ones((2, 2)), np.ones(2))
    assert info.value.condition > 1e14 or math.isinf(info.value.condition)


def test_solve_linear_complex():
    m = np.array([[2.0 + 1j, 0.0], [0.0, 1.0 - 1j]])
    v = np.array([1.0, 1.0])
    x = solve_linear(m, v)
    assert np.allclose(m @ x, v, rtol=1e-12)


def test_solve_linear_rejects_non_finite_imaginary_parts():
    # a NaN imaginary part once gave a silent NaN solution, an infinite one
    # a SingularMatrixError: both are non-finite input
    bad = complex(0.0, math.nan)
    for m, v in ((np.array([[1.0, complex(0.0, math.inf)], [0.0, 1.0]]),
                  np.ones(2)),
                 (np.eye(2, dtype=complex), np.array([1.0, bad]))):
        with pytest.raises(DomainError):
            solve_linear(m, v)


def test_find_root_polynomial():
    root = find_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_find_root_flat_then_steep():
    # Illinois must not stall on one stale endpoint
    f = lambda x: math.tanh(50.0 * (x - 0.7)) + 0.001 * (x - 0.7)
    root = find_root(f, 0.0, 1.0)
    assert abs(f(root)) < 1e-9


def test_find_root_endpoint_root():
    assert find_root(lambda x: x - 1.0, 1.0, 2.0) == pytest.approx(1.0)


def test_find_root_requires_bracket():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_rejects_non_finite_residual():
    # NaN inside the bracket used to end in a plausible wrong root, 0.79
    def f(x):
        return -1.0 if x < 0.3 else (1.0 if x > 0.79 else math.nan)

    with pytest.raises(NumericError, match="not finite"):
        find_root(f, 0.2, 0.8)
    with pytest.raises(NumericError, match="not finite"):
        find_root(lambda x: math.inf if x > 0.9 else -1.0, 0.0, 1.0)


def test_find_root_raises_when_iterations_run_out():
    # a sign step at 0 pins one end on each side, so the bracket can only
    # shrink by halving: 200 halvings do not reach tol = 1e-300
    def step(x):
        return -1.0 if x < 0.0 else 1.0

    with pytest.raises(NumericError, match="200 iterations"):
        find_root(step, -1.0, 2.0, tol=1e-300)
    assert abs(find_root(step, -1.0, 2.0)) <= 3e-12


def test_find_root_deterministic():
    f = lambda x: math.cos(x) - x
    assert find_root(f, 0.0, 1.0) == find_root(f, 0.0, 1.0)
