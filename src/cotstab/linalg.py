"""Small dense linear-algebra kernel used by every analysis module.

All converter work happens on tiny dense matrices (two states for the buck,
at most eight for user-supplied models), so the routines here wrap LAPACK
via numpy/scipy and add the argument checking, error taxonomy and defaults
the rest of the library relies on:

* ``expm`` - matrix exponential, scaling-and-squaring with a degree-13 Pade
  core (scipy's Al-Mohy/Higham implementation; the squaring count is chosen
  from the 1-norm of the scaled matrix).
* ``expm_integral`` - the convolution integral ``int_0^t expm(A*s) ds @ B``
  evaluated through an augmented block exponential, which stays valid for
  singular ``A`` (no inverse is ever formed).
* ``eigenvalues`` - Hessenberg reduction plus shifted QR (LAPACK ``geev``).
* ``solve_linear`` - LU solve with a condition estimate; solves against a
  near-singular matrix raise instead of returning garbage.
* ``find_root`` - deterministic bracketed scalar root finding, bisection
  safeguarded regula falsi.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def expm(a, t=1.0):
    """Return ``exp(a*t)`` for a square real matrix ``a``.

    ``t`` may be any finite scalar; the product ``a*t`` is exponentiated by
    scaling-and-squaring with a Pade(13) core.
    """
    a = _as_square(a, "a")
    t = float(t)
    if not np.isfinite(t):
        raise DomainError("t must be finite")
    return scipy.linalg.expm(a * t)


def expm_integral(a, b, t):
    """Return ``int_0^t exp(a*s) ds @ b`` without inverting ``a``.

    Uses the block identity
    ``exp([[A, B], [0, 0]] * t) = [[exp(A t), int_0^t exp(A s) ds B], [0, I]]``
    so singular ``a`` (integrator poles) needs no special casing.  ``b`` may
    be a matrix or a vector; the result has the shape of ``b``.
    """
    a = _as_square(a, "a")
    b_in = np.asarray(b, dtype=float)
    b2 = b_in.reshape(b_in.shape[0], -1) if b_in.ndim == 1 else b_in
    if b2.ndim != 2 or b2.shape[0] != a.shape[0]:
        raise DimensionError(
            f"b must have {a.shape[0]} rows to match a, got shape {b_in.shape}")
    if not np.all(np.isfinite(b2)):
        raise DomainError("b contains non-finite entries")
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise DomainError("t must be finite and >= 0")
    n, k = a.shape[0], b2.shape[1]
    if t == 0.0:
        out = np.zeros((n, k))
        return out.reshape(b_in.shape)
    blk = np.zeros((n + k, n + k))
    blk[:n, :n] = a
    blk[:n, n:] = b2
    top_right = scipy.linalg.expm(blk * t)[:n, n:]
    return top_right.reshape(b_in.shape)


def eigenvalues(m):
    """All eigenvalues of a small square matrix, as a complex array.

    Hessenberg reduction followed by shifted-QR iteration (LAPACK ``geev``);
    the backend's sweep cap is surfaced as :class:`NumericError` if the
    iteration fails to converge.  Intended for state matrices of modest size
    (up to 8x8); ordering of the result is unspecified.
    """
    m = _as_square(m, "m")
    if m.shape[0] > 8:
        raise DimensionError(f"eigenvalues supports up to 8x8, got {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc


def solve_linear(m, v):
    """Solve ``m @ x = v`` with a condition check.

    Raises :class:`SingularMatrixError` (with the condition estimate
    attached) rather than returning an inaccurate solution when the
    2-norm condition exceeds ``COND_LIMIT``.  Works for real or complex
    ``m``/``v`` and for matrix right-hand sides.
    """
    m = np.asarray(m)
    v = np.asarray(v)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"m must be square, got shape {m.shape}")
    if v.shape[0] != m.shape[0]:
        raise DimensionError(
            f"v must have {m.shape[0]} rows to match m, got shape {v.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(v.real))):
        raise DomainError("solve_linear arguments contain non-finite entries")
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond ~ {cond:.3e})",
            condition=float(cond))
    try:
        return np.linalg.solve(m, v)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc), condition=float(cond)) from exc


def find_root(f, lo, hi, tol=None):
    """Locate a root of ``f`` inside the bracket ``[lo, hi]``.

    Regula falsi with the Illinois modification, safeguarded by bisection
    whenever the bracket fails to halve within three steps, so convergence
    is guaranteed and the iteration is fully deterministic: identical inputs
    give bit-identical results.  ``tol`` is an absolute width (default
    ``1e-12`` of the initial bracket); iteration also stops at the floating
    point resolution of the bracket endpoints.

    Raises :class:`BracketError` if ``f(lo)`` and ``f(hi)`` have the same
    (nonzero) sign.
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

    fa = float(f(a))
    fb = float(f(b))
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
            break
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
        fx = float(f(x))
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
    return 0.5 * (a + b)

