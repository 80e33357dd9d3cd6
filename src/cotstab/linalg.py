"""Small dense linear-algebra kernel used by every analysis module.

All converter work happens on tiny dense matrices (two states for the buck,
four for the augmented integral blocks), so the routines here use numpy
alone and add the argument checking, error taxonomy and defaults the rest
of the library relies on:

* ``expm`` - matrix exponential by scaling and squaring after Al-Mohy &
  Higham (2009, SIAM J. Matrix Anal. Appl. 31(3)): a Pade approximant of
  degree 3, 5, 7, 9 or 13 and the number of squarings are picked per
  matrix from exact 1-norms of its powers.  Takes a stack of matrices and
  an array of times; each slice is computed exactly as it would be alone.
* ``expm_integral`` - the convolution integral ``int_0^t expm(A*s) ds @ B``
  evaluated through an augmented block exponential, which stays valid for
  singular ``A`` (no inverse is ever formed).
* ``eigenvalues`` - Hessenberg reduction plus shifted QR (LAPACK ``geev``).
* ``solve_linear`` - LU solve with a condition estimate; solves against a
  near-singular matrix raise instead of returning garbage.
* ``find_root`` - deterministic bracketed scalar root finding, bisection
  safeguarded regula falsi.

Stacked inputs are evaluated with numpy's stacked ``matmul``, ``solve``
and ``cond``, which compute every slice exactly as a lone matrix, so a
stacked call returns bit for bit the values of the one-matrix calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketError, DimensionError, DomainError, NumericError, SingularMatrixError

__all__ = [
    "expm",
    "expm_integral",
    "eigenvalues",
    "solve_linear",
    "find_root",
]

#: solves refuse to proceed past this condition estimate
COND_LIMIT = 1e14

_EPS = float(np.finfo(float).eps)


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


# Coefficients b_0 .. b_m of the degree-m Pade approximant to exp
# (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4), Table 2.3).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
# Rows (U, V) of coefficients over the even powers I, X^2, X^4, ...:
# U = X @ sum(b_odd X^2k), V = sum(b_even X^2k).  Degree 13 splits off the
# X^6 multiple of its top three terms (Higham 2005, eq. 2.3).
_UV = {m: np.array([b[1::2], b[0::2]]).reshape(2, -1, 1, 1, 1)
       for m, b in _PADE.items() if m < 13}
_UV13_HIGH = np.array([_PADE[13][9::2], _PADE[13][8:13:2]]).reshape(
    2, 3, 1, 1, 1)
_UV13_LOW = np.array([_PADE[13][1:9:2], _PADE[13][0:8:2]]).reshape(
    2, 4, 1, 1, 1)
# theta_m: the largest eta for which degree m meets unit roundoff in
# backward error (Al-Mohy & Higham 2009, Table 3.1 and Algorithm 5.1).
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 4.25
# u / |c_{2m+1}|, c_{2m+1} being the leading coefficient of the backward
# error series; ell(X, m) > 0 once ||abs(X)^(2m+1)|| / ||X|| exceeds it.
_ELL_SCALE = {m: 2.0 ** -53 * c for m, c in (
    (3, 100800.0), (5, 10059033600.0), (7, 4487938430976000.0),
    (9, 5914384781877411840000.0),
    (13, 113250775606021113483283660800000000.0))}
# ||abs(X)^(2m+1)|| <= ||X||^(2m+1), so ell(X, m) = 0 whenever ||X|| is
# below this radius and the matrix power need not be formed.
_ELL_RADIUS = {m: s ** (1.0 / (2 * m)) for m, s in _ELL_SCALE.items()}


def _ell(absx, norm1, idx, m):
    """Al-Mohy & Higham's ell(X, m) for the slices ``idx`` of ``abs(X)``.

    The number of extra squarings degree m needs so that rounding in the
    approximant's odd tail stays below unit roundoff; 0 almost always.
    The 1-norm of ``abs(X)^(2m+1)`` is exact: ``ones @ abs(X)^(2m+1)`` by
    binary powers, with no cancellation since every entry is nonnegative.
    """
    out = [0] * len(idx)
    hard = [j for j, i in enumerate(idx) if norm1[i] > _ELL_RADIUS[m]]
    if not hard:
        return out
    sel = [idx[j] for j in hard]
    power = absx[sel]
    row = power.sum(axis=-2)[:, None, :]
    p = 2 * m
    while True:
        if p & 1:
            row = row @ power
        p >>= 1
        if not p:
            break
        power = power @ power
    for j, i, pnorm in zip(hard, sel, row.max(axis=(-2, -1)).tolist()):
        ratio = pnorm / (norm1[i] * _ELL_SCALE[m])     # alpha_m / u
        if ratio > 1.0:
            out[j] = math.ceil(math.log2(ratio) / (2 * m))
    return out


def _pade_choice(x, norms):
    """Pade degree and squaring count of each slice (Algorithm 5.1).

    ``norms`` holds, per slice, the 1-norms of X, I, X^2, X^4, X^6, X^8
    and X^10; d_k = ||X^k||^(1/k) bound the spectral radius from above
    more tightly than ||X|| does for non-normal matrices.
    """
    etas = []
    for n1, _, _, n4, n6, n8, n10 in norms:
        d6, d8 = n6 ** (1.0 / 6.0), n8 ** 0.125
        eta1, eta3 = max(n4 ** 0.25, d6), max(d6, d8)
        eta5 = min(eta3, max(d8, n10 ** 0.1))
        if not math.isfinite(eta5):
            raise NumericError("matrix exponential: powers of a*t overflow")
        etas.append((eta1, eta1, eta3, eta3, eta5))
    norm1 = [row[0] for row in norms]
    k = len(norms)
    degree = [13] * k
    absx = np.abs(x)
    for stage, (m, theta) in enumerate(_THETA):
        cand = [i for i in range(k)
                if degree[i] == 13 and etas[i][stage] <= theta]
        for i, extra in zip(cand, _ell(absx, norm1, cand, m)):
            if extra == 0:
                degree[i] = m
    squarings = [0] * k
    big = [i for i in range(k) if degree[i] == 13]
    if big:
        base = [max(math.ceil(math.log2(etas[i][4] / _THETA_13)), 0)
                if etas[i][4] > 0.0 else 0 for i in big]
        scale = [2.0 ** -s for s in base]
        scaled = absx[big] * np.array(scale)[:, None, None]
        extra = _ell(scaled, [norm1[i] * f for i, f in zip(big, scale)],
                     list(range(len(big))), 13)
        for i, s, e in zip(big, base, extra):
            squarings[i] = s + e
    return degree, squarings


def _pade(x, even, m, s):
    """``r_m(X / 2^s)^(2^s)`` for a stack, from the even powers of X."""
    if m == 13:
        f = 2.0 ** -s
        x = x * f
        even = even[:4] * np.array([1.0, f * f, f ** 4, f ** 6]).reshape(
            4, 1, 1, 1)
        high = even[3] @ (_UV13_HIGH * even[1:]).sum(axis=1)
        u, v = high + (_UV13_LOW * even).sum(axis=1)
    else:
        u, v = (_UV[m] * even[:(m + 1) // 2]).sum(axis=1)
    u = x @ u
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _expm_stack(x):
    """``exp`` of every matrix of a ``(K, n, n)`` stack, slice by slice.

    Degree and squaring count are chosen per slice; slices that share them
    are evaluated together with stacked ``matmul`` and ``solve``, which
    treat each slice as a lone matrix would.
    """
    k, n = x.shape[0], x.shape[-1]
    pw = np.empty((7, k, n, n))           # X, I, X^2, X^4, X^6, X^8, X^10
    pw[0] = x
    pw[1] = np.eye(n)
    np.matmul(x, x, out=pw[2])
    np.matmul(pw[2], pw[2], out=pw[3])
    np.matmul(pw[3], pw[2], out=pw[4])
    np.matmul(pw[3], pw[3], out=pw[5])
    np.matmul(pw[3], pw[4], out=pw[6])
    norms = np.abs(pw).sum(axis=-2).max(axis=-1).T.tolist()
    degree, squarings = _pade_choice(x, norms)
    even = pw[1:6]
    groups = set(zip(degree, squarings))
    if len(groups) == 1:
        return _pade(x, even, *groups.pop())
    out = np.empty_like(x)
    degree, squarings = np.array(degree), np.array(squarings)
    for m, s in groups:
        idx = np.flatnonzero((degree == m) & (squarings == s))
        out[idx] = _pade(x[idx], even[:, idx], m, s)
    return out


def expm(a, t=1.0):
    """Return ``exp(a*t)`` for a square real matrix ``a``.

    ``t`` may be any finite scalar.  ``a`` may also be a stack of shape
    ``(..., n, n)`` and ``t`` an array; the two broadcast over the stack
    dimensions, and every slice of the result is bit for bit the value of
    the one-matrix call.
    """
    a = _as_square(a, "a")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("t must be finite")
    x = a * t[..., None, None]
    n = x.shape[-1]
    return _expm_stack(x.reshape(-1, n, n)).reshape(x.shape)


def expm_integral(a, b, t):
    """Return ``int_0^t exp(a*s) ds @ b`` without inverting ``a``.

    Uses the block identity
    ``exp([[A, B], [0, 0]] * t) = [[exp(A t), int_0^t exp(A s) ds B], [0, I]]``
    so singular ``a`` (integrator poles) needs no special casing.  ``b`` may
    be a vector or a matrix; the result has the shape of ``b``.  Like
    :func:`expm`, ``a``, a matrix ``b`` and ``t`` may carry stack
    dimensions, which broadcast.
    """
    a = _as_square(a, "a")
    n = a.shape[-1]
    b_in = np.asarray(b, dtype=float)
    b2 = b_in[:, None] if b_in.ndim == 1 else b_in
    if b2.ndim < 2 or b2.shape[-2] != n:
        raise DimensionError(
            f"b must have {n} rows to match a, got shape {b_in.shape}")
    if not np.all(np.isfinite(b2)):
        raise DomainError("b contains non-finite entries")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise DomainError("t must be finite and >= 0")
    k = b2.shape[-1]
    stack = np.broadcast_shapes(a.shape[:-2], b2.shape[:-2], t.shape)
    blk = np.zeros(stack + (n + k, n + k))
    blk[..., :n, :n] = a
    blk[..., :n, n:] = b2
    x = (blk * t[..., None, None]).reshape(-1, n + k, n + k)
    top_right = _expm_stack(x)[:, :n, n:].reshape(stack + (n, k))
    return top_right[..., 0] if b_in.ndim == 1 else top_right


def eigenvalues(m):
    """All eigenvalues of a small square matrix, as a complex array.

    Hessenberg reduction followed by shifted-QR iteration (LAPACK ``geev``);
    the backend's sweep cap is surfaced as :class:`NumericError` if the
    iteration fails to converge.  Intended for state matrices of modest size
    (up to 8x8); ordering of the result is unspecified.
    """
    m = _as_square(m, "m")
    if m.ndim != 2 or m.shape[0] > 8:
        raise DimensionError(f"eigenvalues supports one matrix up to 8x8, "
                             f"got {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc


def solve_linear(m, v):
    """Solve ``m @ x = v`` with a condition check.

    Raises :class:`SingularMatrixError` (with the condition estimate
    attached) rather than returning an inaccurate solution when the
    2-norm condition exceeds ``COND_LIMIT``.  Works for real or complex
    ``m``/``v`` and for matrix right-hand sides.  ``m`` may be a stack
    ``(..., n, n)``, with ``v`` a matching stack of vectors ``(..., n)`` or
    matrices ``(..., n, k)``; any singular slice raises, and every slice
    is solved exactly as it would be alone.
    """
    m = np.asarray(m)
    v = np.asarray(v)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"m must be square, got shape {m.shape}")
    vector = v.ndim == m.ndim - 1
    if not (vector or v.ndim == m.ndim) or v.shape[m.ndim - 2] != m.shape[-1]:
        raise DimensionError(
            f"v must have {m.shape[-1]} rows to match m, got shape {v.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(v.real))):
        raise DomainError("solve_linear arguments contain non-finite entries")
    cond = float(np.max(np.linalg.cond(m)))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond ~ {cond:.3e})",
            condition=cond)
    try:
        x = np.linalg.solve(m, v[..., None] if vector else v)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc), condition=cond) from exc
    return x[..., 0] if vector else x


def find_root(f, lo, hi, tol=None):
    """Locate a root of ``f`` inside the bracket ``[lo, hi]``.

    Regula falsi with the Illinois modification, safeguarded by bisection
    whenever the bracket fails to halve within three steps, so convergence
    is guaranteed and the iteration is fully deterministic: identical inputs
    give bit-identical results.  ``tol`` is an absolute width (default
    ``1e-12`` of the initial bracket); iteration also stops at the floating
    point resolution of the bracket endpoints.

    Raises :class:`BracketError` if ``f(lo)`` and ``f(hi)`` have the same
    (nonzero) sign, and :class:`NumericError` if ``f`` is NaN or infinite
    at any probe or 200 iterations end without meeting the tolerance.
    """
    a = float(lo)
    b = float(hi)
    if not b > a:
        raise BracketError(f"need lo < hi, got [{a}, {b}]")
    if tol is None:
        tol = 1e-12 * (b - a)
    tol = float(tol)
    if not tol > 0.0:
        raise DomainError("tol must be positive")

    fa = _residual(f, a)
    fb = _residual(f, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(
            f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} do not bracket a root")

    width_mark = b - a
    stalled = 0
    last_side = 0
    for _ in range(200):
        width = b - a
        if width <= tol or width <= 4.0 * _EPS * max(abs(a), abs(b)):
            return 0.5 * (a + b)
        # force a bisection step if three iterations passed without the
        # bracket halving
        if width <= 0.5 * width_mark:
            width_mark = width
            stalled = 0
        else:
            stalled += 1
        if stalled >= 3 or fb == fa:
            x = a + 0.5 * width
        else:
            x = (a * fb - b * fa) / (fb - fa)
            if not a < x < b:
                x = a + 0.5 * width
        fx = _residual(f, x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if last_side == -1:
                fb *= 0.5  # Illinois: deweight the stagnant endpoint
            last_side = -1
        else:
            b, fb = x, fx
            if last_side == +1:
                fa *= 0.5
            last_side = +1
    raise NumericError(
        f"no convergence in 200 iterations: bracket [{a!r}, {b!r}] is wider "
        f"than tol = {tol!r}")


def _residual(f, x):
    fx = float(f(x))
    if not math.isfinite(fx):
        raise NumericError(f"residual is not finite at x = {x!r}: {fx!r}")
    return fx

