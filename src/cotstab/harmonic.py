"""Frequency-domain route to the same boundaries: harmonic balance.

Instead of stage-transition matrices, the converter is treated as a linear
filter driven by the square-wave diode voltage, and a bifurcation is a
balance condition on a harmonic series.  Period doubling inserts a
half-frequency perturbation and balances it against the ramp; the
saddle-node condition differentiates the steady series with respect to the
period.  The series converge slowly (terms fall off like 1/n), so partial
sums are averaged over their final stretch before use.

One vectorised kernel, ``_gain``, evaluates the filter gain and its exact
derivative over a whole array of complex frequencies; every series builds
its terms as arrays from it, and the scalar gains are one-point views of
it.  No stage exponential is used anywhere on this route.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .errors import DomainError, InfiniteLoopGainError, UsageError
from .models import BuckParams, Scheme

__all__ = [
    "square_wave_coeff",
    "period2_coeff",
    "gv",
    "gi",
    "scheme_gain",
    "scheme_gain_derivative",
    "loop_gain",
    "y0_series",
    "hb_pdb_splot",
    "hb_pdb_first_harmonic",
    "loop_gain_pdb",
    "l1_plot",
    "l2_plot",
    "h_plot",
    "hb_snb_condition",
    "series_identities_check",
    "convergence_points",
]

TAIL_FRACTION = 0.1  # partial sums averaged over this final fraction


def _tail_average(terms: np.ndarray):
    """Average of the trailing partial sums; tames oscillatory tails."""
    partials = np.cumsum(terms)
    k = max(1, int(round(len(partials) * TAIL_FRACTION)))
    return np.mean(partials[-k:])


def _check_series(nh, d=None, T=None, name: str = "nh") -> None:
    """Reject a truncation depth or a timing no series is defined for."""
    try:
        nh = operator.index(nh)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {nh!r}") from None
    if nh < 1:
        raise DomainError(f"{name} must be positive, got {nh!r}")
    if T is None:
        return
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"period must be finite and positive, got T={T!r}")
    if not 0.0 < d <= T:
        raise DomainError(f"need 0 < d <= T, got d={d!r}, T={T!r}")


def convergence_points(nh: int) -> list[int]:
    """Truncation depths reported alongside a series result."""
    pts = sorted({max(1, nh // 4), max(1, nh // 2), nh})
    return pts


def _square_wave(n, vs: float, d: float, T: float):
    """Diode-voltage Fourier coefficients for harmonics n != 0 (array-wise)."""
    return vs / (2j * math.pi * n) * (1.0 - np.exp(-2j * math.pi * n * d / T))


def square_wave_coeff(n: int, vs: float, d: float, T: float) -> complex:
    """Fourier coefficient of the diode voltage over one cycle.

    The waveform is vs during the on-time and 0 after it; coefficient n
    is taken against exp(-j n ws t) with ws = 2 pi / T.  The n = 0 limit
    is the average vs d / T.
    """
    if n == 0:
        return complex(vs * d / T)
    return complex(_square_wave(n, vs, d, T))


def period2_coeff(n: int, vs: float, d: float, T: float,
                  delta: float = 0.0) -> complex:
    """Fourier coefficient of the diode voltage over two cycles.

    Describes a subharmonic orbit: two on-pulses of the same width, the
    second displaced by ``delta`` from its nominal position one cycle
    later.  The base period is 2 T, so even coefficients at delta = 0
    reduce to the one-cycle coefficients and odd ones vanish.
    """
    if n == 0:
        return complex(vs * d / T)
    ws = 2.0 * math.pi / T
    pulse = vs / (2j * math.pi * n) * (1.0 - cmath.exp(-1j * n * ws * d / 2.0))
    comb = 1.0 + (-1) ** n * cmath.exp(1j * n * ws * delta / 2.0)
    return pulse * comb


def _gain(s, p: BuckParams, weights, derivative: bool = False):
    """Weighted filter gain wv gv(s) + wi gi(s), elementwise over ``s``.

    The one place the power-stage filter is written: numerators a1 s + a0
    of the voltage and current paths over the shared denominator
    b2 s^2 + b1 s + 1, each path divided before it is weighted.  With
    ``derivative`` the pair (G, dG/ds) is returned.
    """
    r = 1.0 + p.Rc / p.R
    b2, b1 = p.L * p.C * r, p.L / p.R + p.Rc * p.C
    s = np.asarray(s, dtype=complex)
    den = (b2 * s + b1) * s + 1.0
    g = dg = 0.0
    for w, a1, a0 in zip(weights, (p.Rc * p.C, r * p.C), (1.0, 1.0 / p.R)):
        if not w:
            continue
        num = a1 * s + a0
        g = g + w * (num / den)
        if derivative:
            dg = dg + w * (a1 * den - num * (2.0 * b2 * s + b1)) / (den * den)
    return (g, dg) if derivative else g


def _cmul(a, b):
    """Elementwise complex product, rounded as a scalar product rounds
    (numpy's vector loop may fuse multiply-adds and move the last bit)."""
    return ((a.real * b.real - a.imag * b.imag)
            + 1j * (a.real * b.imag + a.imag * b.real))


def gv(s: complex, p: BuckParams) -> complex:
    """Diode voltage to output voltage transfer function."""
    return complex(_gain(s, p, (1.0, 0.0)))


def gi(s: complex, p: BuckParams) -> complex:
    """Diode voltage to inductor current transfer function."""
    return complex(_gain(s, p, (0.0, 1.0)))


def _loop_weights(scheme: Scheme, p: BuckParams):
    """Loop-gain weights of the voltage and sense-scaled current paths.

    The feedback comparator closes with negative sign, so the gain that
    enters every balance condition is the negative of the physical path
    (output voltage, sense-scaled inductor current, or their sum).
    """
    if scheme is Scheme.V_COTC:
        return -1.0, 0.0
    if scheme is Scheme.C_COTC:
        return 0.0, -p.Ri
    if scheme is Scheme.V_COTC_CURRENT_RAMP:
        return -1.0, -p.Ri
    raise UsageError(f"unknown scheme {scheme!r}")


def scheme_gain(s: complex, p: BuckParams, scheme: Scheme) -> complex:
    """Loop transfer numerator: minus the diode-to-feedback path."""
    return complex(_gain(s, p, _loop_weights(scheme, p)))


def scheme_gain_derivative(s: complex, p: BuckParams, scheme: Scheme) -> complex:
    """d/ds of :func:`scheme_gain`, by exact rational differentiation."""
    return complex(_gain(s, p, _loop_weights(scheme, p), derivative=True)[1])


def _normalized(val: complex, p: BuckParams, ma: float, T: float) -> complex:
    if ma == 0.0:
        raise InfiniteLoopGainError(
            "the loop gain is unbounded without a ramp; use the unscaled "
            "series forms instead")
    return val * p.vs / (ma * T)


def loop_gain(s: complex, p: BuckParams, scheme: Scheme, ma: float,
              T: float) -> complex:
    """Sampled-loop transfer function scaled by source and ramp height."""
    return _normalized(scheme_gain(s, p, scheme), p, ma, T)


def y0_series(t, p: BuckParams, scheme: Scheme, vc: float, d: float,
              T: float, nh: int = 2000):
    """Steady feedback signal reconstructed from its harmonic series.

    Sums the filtered square-wave harmonics and subtracts the reference.
    Accepts a scalar or an array of times; returns real values (the
    conjugate-pair sum is taken explicitly).
    """
    _check_series(nh, d, T)
    ws = 2.0 * math.pi / T
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    base = float(square_wave_coeff(0, p.vs, d, T).real
                 * (-scheme_gain(0.0, p, scheme)).real) - vc
    ns = np.arange(1, nh + 1)
    coeffs = _square_wave(ns, p.vs, d, T)
    gains = -_gain(1j * ns * ws, p, _loop_weights(scheme, p))
    phases = np.exp(1j * np.outer(tt, ns) * ws)
    vals = base + 2.0 * np.real(phases @ (coeffs * gains))
    return vals[0] if np.isscalar(t) or np.ndim(t) == 0 else vals


def _pdb_terms(p: BuckParams, scheme: Scheme, d: float, T: float,
               nh: int, side: float = 1.0) -> np.ndarray:
    """Half-harmonic terms n = 1..nh of the period-doubling balance.

    ``side`` = -1 gives the conjugate terms at the negative frequencies.
    """
    _check_series(nh, d, T)
    ws = 2.0 * math.pi / T
    ns = np.arange(1, nh + 1)
    return _cmul((np.exp(-side * 0.5j * ns * ws * d) - 1.0) * (-1.0) ** ns,
                 _gain(side * 0.5j * ns * ws, p, _loop_weights(scheme, p)))


def _h_sum(p, scheme, d, T, nh) -> complex:
    return complex(_tail_average(_pdb_terms(p, scheme, d, T, nh)))


def _l2_sum(p, scheme, d, T, nh) -> complex:
    # explicit conjugate pairs: the negative-frequency terms are summed,
    # not taken as conjugates of the positive ones
    return complex(_tail_average(_pdb_terms(p, scheme, d, T, nh, 1.0)
                                 + _pdb_terms(p, scheme, d, T, nh, -1.0)))


def _period(omega_s: float) -> float:
    if not (math.isfinite(omega_s) and omega_s > 0.0):
        raise DomainError(
            f"switching frequency must be finite and positive, got {omega_s!r}")
    return 2.0 * math.pi / omega_s


def h_plot(omega_s: float, p: BuckParams, scheme: Scheme, d: float,
           nh: int = 2000) -> complex:
    """One-sided subharmonic balance sum H at a switching frequency.

    The period-doubling boundary in this form reads Re H = T ma / vs.
    """
    return _h_sum(p, scheme, d, _period(omega_s), nh)


def l2_plot(omega_s: float, p: BuckParams, scheme: Scheme, d: float,
            nh: int = 2000) -> complex:
    """Two-sided subharmonic balance sum; boundary at 2 T ma / vs.

    Summed by explicit conjugate pairs in ascending harmonic order, so its
    agreement with twice the real part of :func:`h_plot` is a genuine
    cross-check rather than an algebraic identity of the code.
    """
    return _l2_sum(p, scheme, d, _period(omega_s), nh)


def l1_plot(omega_s: float, p: BuckParams, scheme: Scheme, ma: float,
            d: float, nh: int = 2000) -> complex:
    """Two-sided balance sum normalized by the loop scale; boundary at 2."""
    T = _period(omega_s)
    return _normalized(_l2_sum(p, scheme, d, T, nh), p, ma, T)


def loop_gain_pdb(p: BuckParams, scheme: Scheme, ma: float, d: float,
                  T: float, nh: int = 2000, form: str = "two_sided") -> complex:
    """Period-doubling balance in loop-gain form.

    ``two_sided`` sums both harmonic signs (boundary value 2);
    ``one_sided`` keeps positive harmonics (boundary: real part 1);
    ``first_harmonic`` truncates the one-sided form at the half-switching
    frequency, the classical slope-compensation estimate.
    """
    if form == "two_sided":
        val = _l2_sum(p, scheme, d, T, nh)
    elif form == "one_sided":
        val = _h_sum(p, scheme, d, T, nh)
    elif form == "first_harmonic":
        val = complex(_pdb_terms(p, scheme, d, T, 1)[0])
    else:
        raise UsageError(
            f"form must be two_sided, one_sided or first_harmonic, got {form!r}")
    return _normalized(val, p, ma, T)


def hb_pdb_splot(p: BuckParams, scheme: Scheme, d: float, T: float,
                 nh: int = 2000) -> float:
    """Critical ramp slope at period doubling, from the harmonic series.

    Independent of the stage-transition route; the two are compared
    point by point in the regression suite.
    """
    return float(_h_sum(p, scheme, d, T, nh).real * p.vs / T)


def hb_pdb_first_harmonic(p: BuckParams, scheme: Scheme, d: float,
                          T: float) -> float:
    """First-harmonic estimate of the critical ramp slope."""
    return float(_pdb_terms(p, scheme, d, T, 1)[0].real * p.vs / T)


def hb_snb_condition(p: BuckParams, scheme: Scheme, d: float, T: float,
                     nh: int = 2000) -> float:
    """Critical ramp slope at the saddle-node boundary, series route.

    Differentiates the steady balance with respect to the period; each
    harmonic contributes a filtered term plus a frequency-sensitivity term
    through the exact derivative of the path gain, at both signs of the
    frequency.
    """
    _check_series(nh, d, T)
    ws = 2.0 * math.pi / T
    ns = np.arange(1, nh + 1)
    sides = np.array([[1.0], [-1.0]])
    g, dg = _gain(1j * sides * ns * ws, p, _loop_weights(scheme, p),
                  derivative=True)
    e = np.exp(-1j * sides * ns * ws * d)
    terms = np.empty(nh + 1, dtype=complex)
    terms[0] = d / T ** 2 * scheme_gain(0.0, p, scheme)
    terms[1:] = (d / T ** 2 * e * g + (1.0 - e) / T ** 2 * dg).sum(axis=0)
    return float(_tail_average(terms).real * p.vs)


def series_identities_check(D: float, nterms: int = 2000) -> dict[str, tuple[float, float]]:
    """Closed-form values of the two slowly converging support series.

    Returns computed-versus-exact pairs for the alternating cosine series
    (limit -pi^2 D^2 / 4) and the alternating sine series (limit -pi D / 2).
    """
    _check_series(nterms, name="nterms")
    if not 0.0 <= D <= 1.0:
        raise DomainError(f"duty must lie in [0, 1], got {D!r}")
    ks = np.arange(1, nterms + 1, dtype=float)
    alt = (-1.0) ** ks
    cos_terms = (1.0 - np.cos(math.pi * ks * D)) * alt / ks ** 2
    sin_terms = np.sin(math.pi * ks * D) * alt / ks
    cos_val = float(_tail_average(cos_terms).real)
    sin_val = float(_tail_average(sin_terms).real)
    return {
        "alternating_cosine": (cos_val, -math.pi ** 2 * D ** 2 / 4.0),
        "alternating_sine": (sin_val, -math.pi * D / 2.0),
    }
