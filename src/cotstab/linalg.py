"""Small dense linear algebra for the analysis modules, numpy only.

Every model has two states, so ``expm`` is the closed form of the 2x2
exponential (Putzer, Amer. Math. Monthly 73(1), 1966; Moler & Van Loan,
SIAM Rev. 45(1), 2003): with ``M = A t``, ``a = tr(M) / 2``,
``N = M - a I`` and ``q = -det(N)``, ``exp(M) = e^a (c I + s N)``, where
``c = cosh(sqrt q)`` and ``s = sinh(sqrt q) / sqrt q`` for ``q > 0``, the
same with ``cos`` and ``sin`` of ``sqrt(-q)`` for ``q < 0``, and
``c = s = 1`` for ``q = 0``: real, and continuous through critical damping.
``expm_integral`` is ``t phi1(A t) B`` in the same form, with no inverse of
``A``.  The exponentials and the solve take stacks and return bit for bit
the values of the one-matrix calls.
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


def _phi1(m):
    """``h``, ``alpha`` and ``beta`` with ``phi1(M) = alpha I + beta N``.

    Three forms, each where it does not cancel: ``M^-1 (exp(M) - I)``;
    near a singular ``M``, whose eigenvalues ``a +- sqrt q`` are then real
    and apart, divided differences of ``(e^z - 1) / z`` over them; and for
    small ``M`` the Taylor series.
    """
    a, h, q, r, ec, es = _closed_form(m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = a * a - q
        alpha = (a * (ec - 1.0) - q * es) / det
        beta = (a * es - (ec - 1.0)) / det
        near = 3.0 * q > a * a
        fp, fm = (np.divide(np.expm1(z), z, out=np.ones_like(z),
                            where=z != 0.0) for z in (a + r, a - r))
        np.copyto(alpha, 0.5 * (fp + fm), where=near)
        np.copyto(beta, 0.5 * (fp - fm) / r, where=near)
    # Horner on alpha I + beta N with N @ N = q I, in Python floats: the
    # package takes the driven integral of one matrix at a time
    for i in np.flatnonzero(np.abs(a) + r <= _SERIES_RADIUS).tolist():
        ai, qi = float(a[i]), float(q[i])
        x, y = _INV_FACTORIALS[-1], 0.0
        for c in _INV_FACTORIALS[-2:0:-1]:
            x, y = ai * x + qi * y + c, x + ai * y
        alpha[i], beta[i] = x, y
    return h, alpha, beta


def _combine(m, h, c, s):
    """``c I + s N`` for every matrix of the ``(k, 2, 2)`` stack ``m``."""
    n = m.copy()
    n[:, 0, 0], n[:, 1, 1] = h, -h
    return c[:, None, None] * np.eye(2) + s[:, None, None] * n


def expm(a, t=1.0):
    """Return ``exp(a*t)`` for a real 2x2 matrix ``a``.

    ``t`` may be any finite scalar.  ``a`` may also be a stack of shape
    ``(..., 2, 2)`` and ``t`` an array; the two broadcast over the stack
    dimensions, and every slice of the result is bit for bit the value of
    the one-matrix call.  Raises :class:`DimensionError` for any other
    matrix size and :class:`NumericError` if the result overflows.
    """
    a = _as_square(a, "a", 2)
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError("t must be finite")
    m = a * t[..., None, None]
    flat = m.reshape(-1, 2, 2)
    _, h, _, _, ec, es = _closed_form(flat)
    return _combine(flat, h, ec, es).reshape(m.shape)


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
    m = a * t[..., None, None]
    flat = m.reshape(-1, 2, 2)
    tp = t[..., None, None] * _combine(flat, *_phi1(flat)).reshape(m.shape)
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

