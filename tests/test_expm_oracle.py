"""The numpy matrix exponential against scipy.linalg.expm as an oracle.

scipy is a test-only dependency (the ``[test]`` extra); the package itself
never imports it.  Both implement Al-Mohy & Higham's scaling and squaring,
so on well-conditioned inputs they agree far below 1e-11, the bound used
here, measured norm-wise: max |E - E_ref| / max |E_ref|.
"""

import numpy as np
import pytest

from cotstab import Scheme, build_model, expm, expm_integral

from helpers import SCHEMES, random_buck

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


def test_random_8x8_matrices_match_scipy():
    rng = np.random.default_rng(602)
    for _ in range(200):
        a = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-3.0, 1.0)
        assert rel(expm(a), scipy_linalg.expm(a)) <= RTOL


def test_augmented_blocks_match_scipy():
    # the blocks expm_integral builds for the buck (2 + 2), and larger
    # ones of eight states and two inputs (10 x 10)
    rng = np.random.default_rng(603)
    cases = []
    for _ in range(40):
        m = build_model(random_buck(rng), Scheme.V_COTC)
        cases.append((m.A, m.B))
        cases.append((rng.standard_normal((8, 8)) * 3e5,
                      rng.standard_normal((8, 2)) * 1e6))
    for a, b in cases:
        n = a.shape[0]
        t = float(10.0 ** rng.uniform(-7.0, -5.0))
        blk = np.zeros((n + 2, n + 2))
        blk[:n, :n] = a
        blk[:n, n:] = b
        assert rel(expm(blk, t), scipy_linalg.expm(blk * t)) <= RTOL
        assert rel(expm_integral(a, b, t), block_integral(a, b, t)) <= RTOL


def test_stiff_matrices_match_scipy():
    # eigenvalues spread over six decades, ||a*t|| up to 1e6.  The
    # exponential's relative condition number grows like ||a*t||, so two
    # backward-stable implementations may differ by about ||a*t|| * u:
    # 1e-11 holds up to ||a*t|| ~ 1e4, beyond that the bound is 64 ||a*t|| u.
    rng = np.random.default_rng(604)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = -10.0 ** rng.uniform(0.0, rng.uniform(2.0, 6.0), n)
        lam[0] = -rng.uniform(0.1, 2.0)     # keeps exp(a) of order one
        a = q @ np.diag(lam) @ q.T
        norm = float(np.max(np.sum(np.abs(a), axis=0)))
        assert rel(expm(a), scipy_linalg.expm(a)) <= max(RTOL, 64.0 * norm * U)


def test_nilpotent_matrices_match_scipy():
    rng = np.random.default_rng(605)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = np.triu(rng.standard_normal((n, n)), 1) * 10.0 ** rng.uniform(-2, 3)
        assert rel(expm(a), scipy_linalg.expm(a)) <= RTOL
        # similar to a nilpotent matrix, not triangular itself
        v = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = v @ (np.triu(rng.standard_normal((n, n)), 1)) @ np.linalg.inv(v)
        assert rel(expm(b), scipy_linalg.expm(b)) <= RTOL


def test_stacks_with_mixed_squaring_counts_match_scipy():
    # ||a*t|| from 1e-2 to 1e3 spans every Pade degree, 3 to 13, and
    # squaring counts from 0 to 8 within one stack
    rng = np.random.default_rng(606)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = q @ np.diag([-1e3, -1e4, -1e5, -1e6]) @ q.T
    ts = 10.0 ** np.linspace(-8.0, -3.0, 41)
    got = expm(a, ts)
    for g, t in zip(got, ts):
        norm = float(np.max(np.sum(np.abs(a * t), axis=0)))
        assert rel(g, scipy_linalg.expm(a * t)) <= max(RTOL, 64.0 * norm * U)
