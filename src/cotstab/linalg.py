"""Small dense linear algebra for the analysis modules, numpy only.

Every model has two states, so ``expm`` is the closed form of the 2x2
exponential (Putzer, Amer. Math. Monthly 73(1), 1966; Moler & Van Loan,
SIAM Rev. 45(1), 2003): with ``M = A t``, ``a = tr(M) / 2``,
``N = M - a I`` and ``q = -det(N)``, ``exp(M) = e^a (c I + s N)``, where
``c = cosh(sqrt q)`` and ``s = sinh(sqrt q) / sqrt q`` for ``q > 0``, the
same with ``cos`` and ``sin`` of ``sqrt(-q)`` for ``q < 0``, and
``c = s = 1`` for ``q = 0``: real, and continuous through critical damping.
``expm_integral`` is ``t phi1(A t) B`` in the same form, with no inverse of
``A``.  The exponentials and the solve take stacks.  ``expm_integral``,
and ``expm`` of up to ``_SCALAR_MAX`` matrices, go through a scalar kernel
in Python floats that evaluates only the branch each matrix needs; larger
``expm`` stacks through numpy's array loops.  The kernel repeats their
operation order and calls numpy's ufuncs, never ``math``'s, whose last bits
differ from numpy's on some arguments.  A slice of a stack then equals the
one-matrix call bit for bit as long as numpy evaluates a ufunc on one
element as it does in an array loop: a property of the numpy build and the
CPU, which ``test_scalar_kernel_matches_stacked_path_bitwise`` checks.
``solve_linear``'s guard on a 2x2 matrix is its condition number in closed
form, with no SVD.
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

# where |a| + sqrt|q| <= _SERIES_RADIUS, phi1 is its Taylor series to
# M^20 / 21!; the first term left out is below 1e-21
_SERIES_RADIUS = 1.0
_INV_FACTORIALS = [1.0 / math.factorial(k) for k in range(22)]

# stacks of up to this many matrices take the scalar kernel of expm and
# the Python-number loop of _cond2, larger ones the array loops, whose fixed
# cost per call then weighs less than the loops' per matrix (on a 2-core
# x86-64 host both pairs break even between 10 and 14 matrices)
_SCALAR_MAX = 8


def _as_square(a, name, size=None):
    a = np.asarray(a, dtype=float)
    if (a.ndim < 2 or a.shape[-1] != a.shape[-2]
            or size not in (None, a.shape[-1])):
        shape = "square" if size is None else f"{size}x{size}"
        raise DimensionError(f"{name} must be {shape}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} contains non-finite entries")
    return a


def _closed_form(m):
    """``a``, ``h``, ``q``, ``sqrt|q|``, ``e^a c`` and ``e^a s`` per matrix.

    ``m`` is a ``(k, 2, 2)`` stack; ``N = [[h, M01], [M10, -h]]``.  Every
    branch runs on every matrix, so the overflows and ``0 / 0`` of values
    it discards are silenced; the values kept are checked.
    """
    a = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
    h = 0.5 * (m[:, 0, 0] - m[:, 1, 1])
    q = h * h + m[:, 0, 1] * m[:, 1, 0]
    r = np.sqrt(np.abs(q))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ea = np.exp(a)
        ec = ea * np.cos(r)
        es = ea * np.sin(r) / r
        np.copyto(es, ea, where=q == 0.0)
        np.copyto(ec, ea * np.cosh(r), where=q > 0.0)
        np.copyto(es, ea * np.sinh(r) / r, where=q > 0.0)
        # past sqrt(q) = 1 the pair is formed from e^(a +- sqrt q), so that
        # no factor overflows however stiff the matrix is
        ep = 0.5 * np.exp(a + r)
        em = 0.5 * np.exp(a - r)
        np.copyto(ec, ep + em, where=q > 1.0)
        np.copyto(es, (ep - em) / r, where=q > 1.0)
    if not (np.isfinite(ec).all() and np.isfinite(es).all()):
        raise NumericError("matrix exponential overflows")
    return a, h, q, r, ec, es


def _closed_form_1(m00, m01, m10, m11):
    """``_closed_form`` of one matrix, in Python floats.

    Each value takes the stacked path's operations in its order, and the
    transcendentals are numpy's ufuncs, whose results on a Python float
    equal the array loops' (on the builds tested) where ``math``'s differ.  Only the branch of
    ``q``'s sign is evaluated; the caller silences numpy's warnings.
    """
    a, h = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
    q = h * h + m01 * m10
    r = float(np.sqrt(abs(q)))
    ea = float(np.exp(a))
    if q > 1.0:
        ep, em = 0.5 * float(np.exp(a + r)), 0.5 * float(np.exp(a - r))
        ec, es = ep + em, (ep - em) / r
    elif q > 0.0:
        ec, es = ea * float(np.cosh(r)), ea * float(np.sinh(r)) / r
    elif q == 0.0:
        ec = es = ea
    else:
        ec, es = ea * float(np.cos(r)), ea * float(np.sin(r)) / r
    if not (math.isfinite(ec) and math.isfinite(es)):
        raise NumericError("matrix exponential overflows")
    return a, h, q, r, ec, es


def _phi1_1(m00, m01, m10, m11):
    """``h``, ``alpha`` and ``beta`` with ``phi1(M) = alpha I + beta N``,
    in Python floats.

    Only the one of three forms that does not cancel for ``M`` is
    evaluated: for small ``M`` the Taylor series, by Horner on
    ``alpha I + beta N`` with ``N @ N = q I``; near a singular ``M``,
    whose eigenvalues ``a +- sqrt q`` are then real and apart, divided
    differences of ``(e^z - 1) / z`` over them; else
    ``M^-1 (exp(M) - I)``.
    """
    a, h, q, r, ec, es = _closed_form_1(m00, m01, m10, m11)
    if abs(a) + r <= _SERIES_RADIUS:
        x, y = _INV_FACTORIALS[-1], 0.0
        for c in _INV_FACTORIALS[-2:0:-1]:
            x, y = a * x + q * y + c, x + a * y
        return h, x, y
    if 3.0 * q > a * a:
        fp, fm = (float(np.expm1(z)) / z if z != 0.0 else 1.0
                  for z in (a + r, a - r))
        return h, 0.5 * (fp + fm), 0.5 * (fp - fm) / r
    det = a * a - q
    return h, (a * (ec - 1.0) - q * es) / det, (a * es - (ec - 1.0)) / det


def _combine(m, h, c, s):
    """``c I + s N`` for every matrix of the ``(k, 2, 2)`` stack ``m``."""
    n = m.copy()
    n[:, 0, 0], n[:, 1, 1] = h, -h
    return c[:, None, None] * np.eye(2) + s[:, None, None] * n


def _stage(m, phi1):
    """``exp(M)``, or ``phi1(M)`` if ``phi1``, of each matrix of ``m``: by
    the scalar kernel, with ``_combine``'s arithmetic written out
    (``c * 0.0`` keeps the sign of a zero), except ``exp`` of more than
    ``_SCALAR_MAX`` matrices, which takes the stacked path."""
    flat = m.reshape(-1, 2, 2)
    if not phi1 and len(flat) > _SCALAR_MAX:
        _, h, _, _, c, s = _closed_form(flat)
        return _combine(flat, h, c, s).reshape(m.shape)
    out = []
    with np.errstate(all="ignore"):
        for (m00, m01), (m10, m11) in flat.tolist():
            if phi1:
                h, c, s = _phi1_1(m00, m01, m10, m11)
            else:
                _, h, _, _, c, s = _closed_form_1(m00, m01, m10, m11)
            out.append(((c * 1.0 + s * h, c * 0.0 + s * m01),
                        (c * 0.0 + s * m10, c * 1.0 + s * -h)))
    return np.array(out).reshape(m.shape)


def expm(a, t=1.0):
    """Return ``exp(a*t)`` for a real 2x2 matrix ``a``.

    ``t`` may be any finite scalar.  ``a`` may also be a stack of shape
    ``(..., 2, 2)`` and ``t`` an array; the two broadcast over the stack
    dimensions, and every slice of the result is bit for bit the value of
    the one-matrix call (on a numpy build whose ufuncs round one element
    as they do an array; see the module docstring).  Raises :class:`DimensionError` for any other
    matrix size and :class:`NumericError` if the result overflows.
    """
    a = _as_square(a, "a", 2)
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError("t must be finite")
    return _stage(a * t[..., None, None], phi1=False)


def expm_integral(a, b, t):
    """Return ``int_0^t exp(a*s) ds @ b``, valid for singular ``a``.

    ``b`` may be a vector or a matrix; the result has the shape of ``b``.
    Like :func:`expm`, ``a``, a matrix ``b`` and ``t`` may carry stack
    dimensions, which broadcast.
    """
    a = _as_square(a, "a", 2)
    b_in = np.asarray(b, dtype=float)
    b2 = b_in[:, None] if b_in.ndim == 1 else b_in
    if b2.ndim < 2 or b2.shape[-2] != 2:
        raise DimensionError(
            f"b must have 2 rows to match a, got shape {b_in.shape}")
    if not np.isfinite(b2).all():
        raise DomainError("b contains non-finite entries")
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all() or (t < 0.0).any():
        raise DomainError("t must be finite and >= 0")
    tp = t[..., None, None] * _stage(a * t[..., None, None], phi1=True)
    # the product written out, so that every slice rounds as it would alone
    out = (tp[..., :, :1] * b2[..., None, 0, :]
           + tp[..., :, 1:] * b2[..., None, 1, :])
    return out[..., 0] if b_in.ndim == 1 else out


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


def _cond2(m):
    """Largest 2-norm condition number ``smax^2 / |det|`` of the 2x2
    matrices of ``m``, real or complex.

    ``smax^2 = (F + sqrt(F^2 - 4 |det|^2)) / 2``, ``F = p + r`` the sum of
    the eigenvalues of ``M^H M = [[p, w], [w*, r]]``; the root is formed
    from ``(p - r)^2 + 4 |w|^2``, which does not cancel, with each matrix
    scaled by its largest entry.  Up to ``_SCALAR_MAX`` matrices are
    evaluated in Python numbers, larger stacks in array loops: for one
    matrix the loop takes 3 us, the array path about 30 us.
    """
    flat = m.reshape(-1, 4)
    if len(flat) <= _SCALAR_MAX:
        conds = []
        for e in flat.tolist():
            scale = max(map(abs, e)) or 1.0
            twice_smax2, det = _smax2_det(*(x / scale for x in e))
            conds.append(twice_smax2 / (2.0 * det) if det > 0.0 else math.inf)
        return max(conds)
    scale = abs(flat).max(axis=1, keepdims=True)
    flat = flat / np.where(scale > 0.0, scale, 1.0)
    twice_smax2, det = _smax2_det(*flat.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(det > 0.0, twice_smax2 / (2.0 * det), np.inf)
    return float(cond.max())


def _smax2_det(m00, m01, m10, m11):
    """``2 smax^2`` and ``|det|`` of one matrix, or of arrays of them."""
    p, r = abs(m00) ** 2 + abs(m10) ** 2, abs(m01) ** 2 + abs(m11) ** 2
    w = abs(m00.conjugate() * m01 + m10.conjugate() * m11)
    det = abs(m00 * m11 - m01 * m10)
    return p + r + ((p - r) ** 2 + 4.0 * w * w) ** 0.5, det


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
    if not (np.isfinite(m).all() and np.isfinite(v).all()):
        raise DomainError("solve_linear arguments contain non-finite entries")
    cond = (_cond2(m) if m.shape[-1] == 2
            else float(np.max(np.linalg.cond(m))))
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


def _grid_roots(f, xs, values=None):
    """Roots of ``f`` on the grid ``xs`` (where it has ``values``, or takes
    the whole grid at once), in grid order: every cell whose end values
    straddle or touch zero, polished by :func:`find_root`, which returns a
    zero end as it stands, so that a zero grid point is found twice."""
    values = f(xs) if values is None else values
    for i in range(len(xs) - 1):
        if values[i] * values[i + 1] <= 0.0:
            yield find_root(f, xs[i], xs[i + 1])


def _golden_max(f, a, b, rtol):
    """A maximum of ``f`` on ``[a, b]`` by golden sections: the midpoint of
    the bracket once it is no wider than ``rtol`` of its larger end."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    while (b - a) > rtol * max(abs(a), abs(b)):
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    return 0.5 * (a + b)


def _residual(f, x):
    fx = float(f(x))
    if not math.isfinite(fx):
        raise NumericError(f"residual is not finite at x = {x!r}: {fx!r}")
    return fx

