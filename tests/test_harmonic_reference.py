"""The vectorised harmonic series against the loop forms they replaced.

Every series in ``cotstab.harmonic`` builds its terms as arrays from one
gain kernel.  The reference below keeps the original per-term forms: the
two filter gains evaluated one harmonic at a time by ``np.polyval``, each
weighted and summed separately, and every term formed in a Python loop.
Vectorising must change values by rounding only, so each public series
has to agree with its reference to 1e-12 relative on all three schemes,
from a single harmonic up to the default depth.
"""

import cmath
import math

import numpy as np
import pytest

from cotstab import Scheme
from cotstab.harmonic import (TAIL_FRACTION, h_plot, hb_pdb_first_harmonic,
                              hb_pdb_splot, hb_snb_condition, l1_plot,
                              l2_plot, loop_gain_pdb, y0_series)

from helpers import CURRENT, CUR_D, CUR_T, FAST, FAST_D, FAST_T

REL = 1e-12
DEPTHS = (1, 2, 7, 500, 2000)
CONVERTERS = (
    pytest.param(FAST, Scheme.V_COTC, FAST_D, FAST_T, id="V_COTC"),
    pytest.param(FAST.with_(Ri=5e-3), Scheme.V_COTC_CURRENT_RAMP, FAST_D,
                 FAST_T, id="V_COTC_CURRENT_RAMP"),
    pytest.param(CURRENT, Scheme.C_COTC, CUR_D, CUR_T, id="C_COTC"),
)


# -- reference: the per-term loop forms ------------------------------------

def ref_tail_average(terms):
    partials = np.cumsum(terms)
    k = max(1, int(round(len(partials) * TAIL_FRACTION)))
    return np.mean(partials[-k:])


def ref_polys(p):
    den = (p.L * p.C * (1.0 + p.Rc / p.R), p.L / p.R + p.Rc * p.C, 1.0)
    num_v = (p.Rc * p.C, 1.0)
    num_i = ((1.0 + p.Rc / p.R) * p.C, 1.0 / p.R)
    return den, num_v, num_i


def ref_weights(scheme, p):
    return {Scheme.V_COTC: (1.0, 0.0), Scheme.C_COTC: (0.0, p.Ri),
            Scheme.V_COTC_CURRENT_RAMP: (1.0, p.Ri)}[scheme]


def ref_gain(s, p, scheme):
    den, num_v, num_i = ref_polys(p)
    wv, wi = ref_weights(scheme, p)
    out = 0.0 + 0.0j
    if wv:
        out += wv * complex(np.polyval(num_v, s) / np.polyval(den, s))
    if wi:
        out += wi * complex(np.polyval(num_i, s) / np.polyval(den, s))
    return -out


def ref_gain_derivative(s, p, scheme):
    den, num_v, num_i = ref_polys(p)
    wv, wi = ref_weights(scheme, p)
    dval = np.polyval(den, s)
    ddval = np.polyval(np.polyder(np.array(den)), s)
    out = 0.0 + 0.0j
    for w, num in ((wv, num_v), (wi, num_i)):
        if w:
            nval = np.polyval(num, s)
            dnval = np.polyval(np.polyder(np.array(num)), s)
            out += w * (dnval * dval - nval * ddval) / (dval * dval)
    return -complex(out)


def ref_h(omega_s, p, scheme, d, nh):
    ws = 2.0 * math.pi / (2.0 * math.pi / omega_s)
    terms = np.empty(nh, dtype=complex)
    for i, n in enumerate(range(1, nh + 1)):
        terms[i] = ((cmath.exp(-0.5j * n * ws * d) - 1.0) * (-1.0) ** n
                    * ref_gain(0.5j * n * ws, p, scheme))
    return complex(ref_tail_average(terms))


def ref_l2(omega_s, p, scheme, d, nh):
    ws = omega_s
    terms = np.empty(nh, dtype=complex)
    for i, n in enumerate(range(1, nh + 1)):
        up = ((cmath.exp(-0.5j * n * ws * d) - 1.0) * (-1.0) ** n
              * ref_gain(0.5j * n * ws, p, scheme))
        dn = ((cmath.exp(0.5j * n * ws * d) - 1.0) * (-1.0) ** n
              * ref_gain(-0.5j * n * ws, p, scheme))
        terms[i] = up + dn
    return complex(ref_tail_average(terms))


def ref_first_harmonic(p, scheme, d, T):
    return ((1.0 - cmath.exp(-1j * math.pi * d / T))
            * ref_gain(0.5j * 2.0 * math.pi / T, p, scheme))


def ref_snb(p, scheme, d, T, nh):
    ws = 2.0 * math.pi / T
    terms = np.empty(nh + 1, dtype=complex)
    terms[0] = d / T ** 2 * ref_gain(0.0, p, scheme)
    for i, n in enumerate(range(1, nh + 1)):
        val = 0.0 + 0.0j
        for sign in (1.0, -1.0):
            s = 1j * sign * n * ws
            e = cmath.exp(-1j * sign * n * ws * d)
            val += (d / T ** 2 * e * ref_gain(s, p, scheme)
                    + (1.0 - e) / T ** 2 * ref_gain_derivative(s, p, scheme))
        terms[i + 1] = val
    return float(ref_tail_average(terms).real * p.vs)


def ref_y0(t, p, scheme, vc, d, T, nh):
    ws = 2.0 * math.pi / T
    base = p.vs * d / T * (-ref_gain(0.0, p, scheme)).real - vc
    ns = np.arange(1, nh + 1)
    coeffs = np.array([p.vs / (2j * math.pi * n)
                       * (1.0 - cmath.exp(-2j * math.pi * n * d / T))
                       for n in ns])
    gains = np.array([-ref_gain(1j * n * ws, p, scheme) for n in ns])
    phases = np.exp(1j * np.outer(t, ns) * ws)
    return base + 2.0 * np.real(phases @ (coeffs * gains))


# -- the comparisons ---------------------------------------------------------

@pytest.mark.parametrize("nh", DEPTHS)
@pytest.mark.parametrize("p, scheme, d, T", CONVERTERS)
def test_pdb_sums_match_the_loop_forms(p, scheme, d, T, nh):
    omega_s = 2.0 * math.pi / T
    ma = 1000.0
    h = ref_h(omega_s, p, scheme, d, nh)
    l2 = ref_l2(omega_s, p, scheme, d, nh)
    scale = p.vs / (ma * T)
    assert h_plot(omega_s, p, scheme, d, nh) == pytest.approx(h, rel=REL)
    assert l2_plot(omega_s, p, scheme, d, nh) == pytest.approx(l2, rel=REL)
    assert l1_plot(omega_s, p, scheme, ma, d, nh) == pytest.approx(
        l2 * scale, rel=REL)
    assert hb_pdb_splot(p, scheme, d, T, nh) == pytest.approx(
        h.real * p.vs / T, rel=REL)
    assert loop_gain_pdb(p, scheme, ma, d, T, nh, "two_sided") == \
        pytest.approx(l2 * scale, rel=REL)
    assert loop_gain_pdb(p, scheme, ma, d, T, nh, "one_sided") == \
        pytest.approx(h * scale, rel=REL)


@pytest.mark.parametrize("p, scheme, d, T", CONVERTERS)
def test_first_harmonic_matches_the_loop_form(p, scheme, d, T):
    ma = 1000.0
    first = ref_first_harmonic(p, scheme, d, T)
    assert hb_pdb_first_harmonic(p, scheme, d, T) == pytest.approx(
        first.real * p.vs / T, rel=REL)
    assert loop_gain_pdb(p, scheme, ma, d, T, 7, "first_harmonic") == \
        pytest.approx(first * p.vs / (ma * T), rel=REL)


@pytest.mark.parametrize("nh", DEPTHS)
@pytest.mark.parametrize("p, scheme, d, T", CONVERTERS)
def test_snb_condition_matches_the_loop_form(p, scheme, d, T, nh):
    assert hb_snb_condition(p, scheme, d, T, nh) == pytest.approx(
        ref_snb(p, scheme, d, T, nh), rel=REL)


@pytest.mark.parametrize("nh", DEPTHS)
@pytest.mark.parametrize("p, scheme, d, T", CONVERTERS)
def test_y0_series_matches_the_loop_form(p, scheme, d, T, nh):
    vc = 0.9 * p.vs * d / T
    ts = np.array([0.1, 0.45, 0.8]) * T
    got = y0_series(ts, p, scheme, vc, d, T, nh)
    want = ref_y0(ts, p, scheme, vc, d, T, nh)
    assert got == pytest.approx(want, rel=REL)
    assert y0_series(float(ts[1]), p, scheme, vc, d, T, nh) == \
        pytest.approx(want[1], rel=REL)
