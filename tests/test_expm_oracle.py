"""The closed-form 2x2 exponential against scipy.linalg.expm as an oracle.

scipy is a test-only dependency (the ``[test]`` extra); the package itself
never imports it.  The package evaluates ``exp(A t)`` and
``int_0^t exp(A s) ds B`` in closed form, scipy by Al-Mohy & Higham's
scaling and squaring, so the two share no arithmetic.  On well-conditioned
inputs they agree far below 1e-11, the bound used here, measured
norm-wise: max |E - E_ref| / max |E_ref|.  The strata cover every branch
of the closed form: both signs of ``q``, ``q`` exactly zero and within
rounding of zero, nilpotent and stiff matrices.
"""

import math

import numpy as np
import pytest

from cotstab import BuckParams, Scheme, build_model, expm, expm_integral

from helpers import SCHEMES, closed_form_q, random_buck

scipy_linalg = pytest.importorskip("scipy.linalg")

RTOL = 1e-11
U = 2.0 ** -53


def rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def block_integral(a, b, t):
    """Reference integral: top-right block of the augmented exponential."""
    n, k = a.shape[0], b.shape[1]
    blk = np.zeros((n + k, n + k))
    blk[:n, :n] = a
    blk[:n, n:] = b
    return scipy_linalg.expm(blk * t)[:n, n:]


def assert_both_match(a, b, t, bound=RTOL):
    assert rel(expm(a, t), scipy_linalg.expm(a * t)) <= bound
    assert rel(expm_integral(a, b, t), block_integral(a, b, t)) <= bound


def test_buck_draws_match_scipy():
    rng = np.random.default_rng(601)
    for _ in range(300):
        p = random_buck(rng)
        m = build_model(p, SCHEMES[rng.integers(len(SCHEMES))])
        T = float(10.0 ** rng.uniform(-6.3, -5.3))
        for t in (float(rng.uniform(0.15, 0.85)) * T, T):
            assert rel(expm(m.A, t), scipy_linalg.expm(m.A * t)) <= RTOL
            assert rel(expm_integral(m.A, m.B, t),
                       block_integral(m.A, m.B, t)) <= RTOL


def test_augmented_blocks_match_scipy():
    # the driven integral over the buck's two inputs, at times from well
    # inside the series branch (||A t|| ~ 1e-3) to past the period
    rng = np.random.default_rng(603)
    for _ in range(40):
        m = build_model(random_buck(rng), Scheme.V_COTC)
        t = float(10.0 ** rng.uniform(-7.0, -5.0))
        assert_both_match(m.A, m.B, t)


def test_stiff_matrices_match_scipy():
    # eigenvalues spread over six decades, ||a*t|| up to 1e6.  The
    # exponential's relative condition number grows like ||a*t||, so two
    # backward-stable implementations may differ by about ||a*t|| * u:
    # 1e-11 holds up to ||a*t|| ~ 1e4, beyond that the bound is 64 ||a*t|| u.
    rng = np.random.default_rng(604)
    for _ in range(300):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        lam = -10.0 ** rng.uniform(0.0, rng.uniform(2.0, 6.0), 2)
        lam[0] = -rng.uniform(0.1, 2.0)     # keeps exp(a) of order one
        a = q @ np.diag(lam) @ q.T
        norm = float(np.max(np.sum(np.abs(a), axis=0)))
        assert rel(expm(a), scipy_linalg.expm(a)) <= max(RTOL, 64.0 * norm * U)


def test_stiff_pair_beyond_cosh_overflow_matches_scipy():
    # sqrt(q) ~ 1e3: cosh and sinh alone overflow, so the hyperbolic pair
    # must come from the sums of exp(a +- sqrt(q)); stiff bound as above
    rng = np.random.default_rng(607)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        lam = [-rng.uniform(0.1, 2.0), -rng.uniform(1.9e3, 2.1e3)]
        a = q @ np.diag(lam) @ q.T
        b = rng.standard_normal((2, 2))
        t = float(rng.uniform(0.9, 1.1))
        with pytest.raises(OverflowError):
            math.cosh(math.sqrt(closed_form_q(a * t)))
        norm = float(np.max(np.sum(np.abs(a * t), axis=0)))
        assert_both_match(a, b, t, max(RTOL, 64.0 * norm * U))


def test_nilpotent_matrices_match_scipy():
    rng = np.random.default_rng(605)
    for _ in range(200):
        a = (np.triu(rng.standard_normal((2, 2)), 1)
             * 10.0 ** rng.uniform(-2, 3))
        b = rng.standard_normal((2, 2))
        assert closed_form_q(a) == 0.0
        assert_both_match(a, b, 1.0)
        # similar to a nilpotent matrix, not triangular itself
        v = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        c = v @ (np.triu(rng.standard_normal((2, 2)), 1)) @ np.linalg.inv(v)
        assert_both_match(c, b, 1.0)


def test_singular_matrices_match_scipy():
    # an integrator pole beside a second eigenvalue v.u, decaying up to
    # 1e3 or growing up to 10 (faster growth costs scipy digits): the
    # driven integral may not divide by det(a)
    rng = np.random.default_rng(610)
    for _ in range(200):
        u, v = rng.standard_normal((2, 2))
        lam = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1.0, 1.0)
        if lam < 0.0:
            lam *= 10.0 ** rng.uniform(0.0, 2.0)
        a = np.outer(u, v * lam / (v @ u))
        assert_both_match(a, rng.standard_normal((2, 2)), 1.0)


def test_exact_critical_damping_matches_scipy():
    # q == 0 exactly: dyadic entries make every sum and product in a, h
    # and q exact, and the critically damped buck's own A has q == 0
    rng = np.random.default_rng(608)
    for _ in range(200):
        a = (-float(rng.integers(1, 2 ** 20))
             * 2.0 ** int(rng.integers(-26, -16)))
        h = (float(rng.integers(-2 ** 20, 2 ** 20))
             * 2.0 ** int(rng.integers(-26, -16)))
        s = 2.0 ** int(rng.integers(-8, 9))
        m = np.array([[a + h, h * s], [-h / s, a - h]])
        assert closed_form_q(m) == 0.0
        assert_both_match(m, rng.standard_normal((2, 2)), 1.0)
    L, C = 2e-6, 2e-5
    p = BuckParams(R=0.5 * math.sqrt(L / C), L=L, C=C, Rc=0.0, vs=5.0)
    crit = build_model(p, Scheme.V_COTC)
    for k in range(-24, -16):
        assert closed_form_q(crit.A * 2.0 ** k) == 0.0
        assert_both_match(crit.A, crit.B, 2.0 ** k)


def test_nearly_critical_damping_matches_scipy():
    # |q| / a^2 ~ 1e-16 on both sides of critical damping: real
    # eigenvalues 2e-8 |a| apart, and a complex pair as close
    rng = np.random.default_rng(609)
    for sign in (1.0, -1.0):
        for _ in range(100):
            a = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-2.0, 1.0)
            xi = 10.0 ** rng.uniform(-1.0, 1.0)
            m = np.array([[a, a * xi], [sign * 1e-16 * a / xi, a]])
            assert closed_form_q(m) * sign > 0.0
            ratio = abs(closed_form_q(m)) / (a * a)
            assert ratio == pytest.approx(1e-16, rel=1e-6)
            assert_both_match(m, rng.standard_normal((2, 2)), 1.0)


def test_stacks_over_five_decades_of_time_match_scipy():
    # ||a*t|| from 1e-5 to 1e3 within one stack, over an overdamped pair
    # far apart, one close together and a complex pair: the series and
    # both other forms of the driven integral, and the trigonometric and
    # both hyperbolic forms of the exponential
    rng = np.random.default_rng(606)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    a = np.stack([q @ np.diag(lam) @ q.T
                  for lam in ([-1e3, -1e6], [-1e5, -3e5])]
                 + [q @ np.array([[-1e4, 3e4], [-3e4, -1e4]]) @ q.T])
    b = rng.standard_normal((2, 2))
    ts = 10.0 ** np.linspace(-8.0, -3.0, 41)
    got = expm(a, ts[:, None])
    integral = expm_integral(a, b, ts[:, None])
    for g, j, t in zip(got, integral, ts):
        for k in range(3):
            norm = float(np.max(np.sum(np.abs(a[k] * t), axis=0)))
            bound = max(RTOL, 64.0 * norm * U)
            assert rel(g[k], scipy_linalg.expm(a[k] * t)) <= bound
            assert rel(j[k], block_integral(a[k], b, t)) <= bound
