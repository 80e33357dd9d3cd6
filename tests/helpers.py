"""Shared fixtures for the test suite: reference converters and random draws.

Expected values in the tests were produced by an independent route (closed
form, simulation, or a different formula) and frozen; property tests draw
operating points from physically plausible ranges with a seeded generator.
"""

from __future__ import annotations

from cotstab import (BuckParams, RampSpec, Scheme, build_model,
                     consistent_steady_state)

# Low-voltage, high-ripple buck under output-voltage feedback.  Large ESR
# against the load makes the no-ramp orbit unstable, which exercises every
# boundary routine away from trivial limits.
FAST = BuckParams(R=0.5, L=2e-6, C=2e-5, Rc=0.02, vs=5.0)
FAST_D = 1.2e-6
FAST_T = 3e-6

# Current-feedback buck with a big, low-ESR output capacitor: one pole near
# the unit circle, the other at the origin.
CURRENT = BuckParams(R=10.0, L=3.1e-6, C=3e-4, Rc=4.5e-3, Ri=0.15, vs=13.2)
CUR_D = 0.26e-6
CUR_T = 1.04e-6

SCHEMES = (Scheme.V_COTC, Scheme.C_COTC, Scheme.V_COTC_CURRENT_RAMP)


def operating(p, scheme, d, T, ma):
    """Model, inputs, steady state at a self-consistent control reference."""
    m = build_model(p, scheme)
    ramp = RampSpec(ma=ma, d=d)
    ss = consistent_steady_state(m, ramp, T, p.vs)
    return m, ramp, ss.u, ss


def random_buck(rng) -> BuckParams:
    """Component draw spanning the usual point-of-load design space."""
    return BuckParams(
        R=float(10.0 ** rng.uniform(-0.7, 1.2)),
        L=float(10.0 ** rng.uniform(-6.3, -5.1)),
        C=float(10.0 ** rng.uniform(-5.0, -3.6)),
        Rc=float(10.0 ** rng.uniform(-3.0, -1.6)),
        Ri=float(10.0 ** rng.uniform(-2.0, -0.7)),
        vs=float(rng.uniform(3.0, 24.0)),
    )


def random_operating(rng, scheme=None, ma=0.0):
    """Random converter, scheme and cycle with a consistent reference."""
    p = random_buck(rng)
    if scheme is None:
        scheme = SCHEMES[rng.integers(len(SCHEMES))]
    T = float(10.0 ** rng.uniform(-6.3, -5.3))
    d = float(rng.uniform(0.15, 0.85)) * T
    m, ramp, u, ss = operating(p, scheme, d, T, ma)
    return p, scheme, d, T, m, ramp, u, ss


def closed_form_q(m) -> float:
    """``q = -det(M - a I)`` of a 2x2 matrix, formed as the closed form
    of the stage exponential forms it: its sign picks the branch."""
    h = 0.5 * (m[0, 0] - m[1, 1])
    return float(h * h + m[0, 1] * m[1, 0])
