"""Converter descriptions: parameters, schemes, state matrices."""

import numpy as np
import pytest

from cotstab import (BuckParams, ConverterModel, DomainError, RampSpec,
                     Scheme, UsageError, build_model, slope_normalizer)
from helpers import CURRENT, FAST


def test_scheme_parse_roundtrip():
    for scheme in Scheme:
        assert Scheme.parse(scheme.name) is scheme
        assert Scheme.parse(scheme) is scheme
    assert Scheme.parse("  V_COTC ") is Scheme.V_COTC
    with pytest.raises(UsageError):
        Scheme.parse("PWM")


def test_params_validation():
    with pytest.raises(DomainError):
        BuckParams(R=-1.0, L=1e-6, C=1e-5)
    with pytest.raises(DomainError):
        BuckParams(R=1.0, L=0.0, C=1e-5)
    with pytest.raises(DomainError):
        BuckParams(R=1.0, L=1e-6, C=1e-5, Rc=-0.01)


def test_params_with_replaces_fields():
    p = FAST.with_(vs=12.0)
    assert p.vs == 12.0
    assert p.R == FAST.R
    assert FAST.vs == 5.0  # original untouched


def test_rho_is_output_divider():
    p = FAST
    assert p.rho == pytest.approx(p.R / (p.R + p.Rc), rel=1e-15)


def test_ramp_spec_validation():
    with pytest.raises(DomainError):
        RampSpec(ma=0.0, d=0.0)
    with pytest.raises(DomainError):
        RampSpec(ma=0.0, d=-1e-6)


def test_buck_state_matrices():
    # both stages share the filter dynamics; only the source feed differs
    m = build_model(FAST, Scheme.V_COTC)
    p = FAST
    rho = p.rho
    a_expected = rho * np.array([
        [-p.Rc / p.L, -1.0 / p.L],
        [1.0 / p.C, -1.0 / (p.R * p.C)],
    ])
    assert np.allclose(m.A, a_expected, rtol=1e-14)
    assert np.allclose(m.B[:, 0], [1.0 / p.L, 0.0], rtol=1e-14)
    assert np.array_equal(m.B[:, 1], np.zeros(2))


def test_feedback_rows_by_scheme():
    p = CURRENT
    rho = p.rho
    mv = build_model(p, Scheme.V_COTC)
    assert np.allclose(mv.Cvec, [rho * p.Rc, rho], rtol=1e-14)
    mc = build_model(p, Scheme.C_COTC)
    assert np.allclose(mc.Cvec, [p.Ri, 0.0], rtol=1e-14)
    mr = build_model(p, Scheme.V_COTC_CURRENT_RAMP)
    assert np.allclose(mr.Cvec, [rho * p.Rc + p.Ri, rho], rtol=1e-14)
    for m in (mv, mc, mr):
        assert np.array_equal(m.Dvec, [0.0, -1.0])


def test_current_schemes_require_ri():
    p = FAST  # Ri defaults to zero
    for scheme in (Scheme.C_COTC, Scheme.V_COTC_CURRENT_RAMP):
        with pytest.raises(UsageError, match="Ri"):
            build_model(p, scheme)
    build_model(p, Scheme.V_COTC)  # no sense resistor needed


def test_model_records_its_scheme():
    for scheme in Scheme:
        assert build_model(CURRENT, scheme.name).scheme is scheme
    m = build_model(FAST, Scheme.V_COTC)
    with pytest.raises(TypeError, match="scheme"):
        ConverterModel(A=m.A, B=m.B, Cvec=m.Cvec, Dvec=m.Dvec)


def test_model_rejects_a_control_reference_in_the_drive():
    # vc acts only through Dvec; a B that feeds it into the state would
    # make the consistent orbit's reference wrong
    m = build_model(FAST, Scheme.V_COTC)
    b = m.B.copy()
    b[1, 1] = 1e-9
    with pytest.raises(DomainError, match="vc"):
        ConverterModel(A=m.A, B=b, Cvec=m.Cvec, Dvec=m.Dvec, scheme=m.scheme)


def test_slope_normalizer_is_ripple_slope_scale():
    # sf = Rc * vs * D / L for the voltage-feedback schemes
    p = FAST
    d_over_t = 0.4
    sf = slope_normalizer(p, d_over_t, Scheme.V_COTC)
    assert sf == pytest.approx(p.Rc * p.vs * d_over_t / p.L, rel=1e-12)
    assert sf == pytest.approx(20000.0, rel=1e-12)


