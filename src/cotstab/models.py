"""Converter parameter sets, control schemes, and state-space construction.

The plant is a synchronous buck converter in continuous conduction with
state ``x = (iL, vC)'`` (inductor current, capacitor voltage) and inputs
``u = (vs, vc)'`` (source voltage, control reference).  Both switching
stages share one state matrix ``A``; the source drives the on stage only:

    on stage:   ``xdot = A x + B u``
    off stage:  ``xdot = A x``

    ``A = rho * [[-Rc/L, -1/L], [1/C, -1/(R*C)]]``,   rho = R/(R+Rc)
    ``B = [[1/L, 0], [0, 0]]``

The control reference ``vc`` never enters the state equations; it acts only
through the switching condition via the feedthrough row ``Dvec = [0, -1]``.
The feedback row ``Cvec`` selects the controlled signal per scheme:

* ``V_COTC``              - output voltage valley control, ``y = vo - vc``
* ``C_COTC``              - inductor current valley control, ``y = Ri*iL - vc``
* ``V_COTC_CURRENT_RAMP`` - voltage control with a current ramp added,
  ``y = vo + Ri*iL - vc``

with the output voltage ``vo = rho * (Rc*iL + vC)`` measured across the load.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, DomainError, UsageError

__all__ = [
    "Scheme",
    "BuckParams",
    "RampSpec",
    "ConverterModel",
    "build_model",
    "slope_normalizer",
]


class Scheme(enum.Enum):
    """Feedback arrangement of the constant on-time modulator."""

    V_COTC = "V_COTC"
    C_COTC = "C_COTC"
    V_COTC_CURRENT_RAMP = "V_COTC_CURRENT_RAMP"

    @classmethod
    def parse(cls, text):
        """The scheme named by ``text``; a member is returned unchanged."""
        if isinstance(text, cls):
            return text
        try:
            return cls[str(text).strip()]
        except KeyError:
            names = ", ".join(s.name for s in cls)
            raise UsageError(f"unknown scheme {text!r}; expected one of {names}") from None


@dataclass(frozen=True)
class BuckParams:
    """Electrical parameters of the buck power stage (SI units).

    ``Rc`` is the output capacitor ESR, ``Ri`` the current-sense gain in
    ohms (required by the current-feedback schemes), ``vs`` the source
    voltage.  The control reference is an input of the analyses, not a
    parameter of the power stage.
    """

    R: float
    L: float
    C: float
    Rc: float = 0.0
    Ri: float = 0.0
    vs: float = 0.0

    def __post_init__(self):
        for name in ("R", "L", "C"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"BuckParams.{name} must be finite and > 0, got {v!r}")
        for name in ("Rc", "Ri", "vs"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"BuckParams.{name} must be finite, got {v!r}")
        if self.Rc < 0.0 or self.Ri < 0.0:
            raise DomainError("resistances Rc and Ri must be >= 0")

    @property
    def rho(self):
        """Load divider ratio R/(R+Rc); equals 1 for zero ESR."""
        return self.R / (self.R + self.Rc)

    def with_(self, **kw):
        """Copy with selected fields replaced (validation re-runs)."""
        return replace(self, **kw)


@dataclass(frozen=True)
class RampSpec:
    """External stabilising ramp: slope ``ma`` (V/s), fixed on-time ``d`` (s).

    The ramp restarts at zero at every cycle start, so its value at the end
    of a cycle of length ``T`` is the amplitude ``ma * T``.  ``ma``
    may take either sign; negative slopes model droop-like compensation.
    """

    ma: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise DomainError(f"RampSpec.d must be finite and > 0, got {self.d!r}")
        if not math.isfinite(self.ma):
            raise DomainError(f"RampSpec.ma must be finite, got {self.ma!r}")


def _check_matrix(name, m, shape):
    m = np.array(m, dtype=float)
    if m.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ConverterModel:
    """Switched linear model of the buck stage under one scheme.

    On stage (duration ``d``): ``xdot = A x + B u``; off stage (duration
    ``T - d``): ``xdot = A x``.  The modulator compares
    ``y = Cvec x + Dvec u`` against the ramp; ``scheme`` is the feedback
    arrangement ``Cvec`` realises.
    :func:`build_model` builds it from the parameters.  The arrays are
    read-only copies, which the stage operators kept in ``_cycle`` rely on.
    """

    A: np.ndarray
    B: np.ndarray
    Cvec: np.ndarray
    Dvec: np.ndarray
    scheme: Scheme = field(compare=False)
    _cycle: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, shape in (("A", (2, 2)), ("B", (2, 2)), ("Cvec", (2,)),
                            ("Dvec", (2,))):
            object.__setattr__(self, name,
                               _check_matrix(name, getattr(self, name), shape))
        if np.any(self.B[:, 1] != 0.0):
            raise DomainError("B must have a zero vc column: the control "
                              "reference acts only through Dvec")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def B11(self):
        """Source column of the on-stage input matrix."""
        return self.B[:, 0]


def _needs_ri(scheme):
    return scheme in (Scheme.C_COTC, Scheme.V_COTC_CURRENT_RAMP)


def build_model(p: BuckParams, scheme: Scheme) -> ConverterModel:
    """State-space realisation of the buck stage under the given scheme."""
    scheme = Scheme.parse(scheme)
    if _needs_ri(scheme) and p.Ri <= 0.0:
        raise UsageError(
            f"scheme {scheme.name} senses the inductor current: Ri must be > 0")
    rho = p.rho
    a = rho * np.array([[-p.Rc / p.L, -1.0 / p.L],
                        [1.0 / p.C, -1.0 / (p.R * p.C)]])
    b = np.array([[1.0 / p.L, 0.0],
                  [0.0, 0.0]])
    e = rho * np.array([p.Rc, 1.0])     # state to output voltage
    current = np.array([p.Ri, 0.0])
    if scheme is Scheme.V_COTC:
        c = e
    elif scheme is Scheme.C_COTC:
        c = current
    else:
        c = e + current
    dvec = np.array([0.0, -1.0])
    return ConverterModel(A=a, B=b, Cvec=c, Dvec=dvec, scheme=scheme)


def slope_normalizer(p: BuckParams, D, scheme: Scheme) -> float:
    """Natural ramp-slope scale ``sf`` for quoting boundaries dimensionlessly.

    Voltage-feedback schemes ripple at the ESR slope ``Rc*vs*D/L``; current
    feedback at the sensed inductor slope ``Ri*vs*D/L``.  Returns 0 when the
    relevant resistance is 0 (callers must not divide by it blindly).
    """
    scheme = Scheme.parse(scheme)
    D = float(D)
    if not 0.0 < D < 1.0:
        raise DomainError(f"duty ratio must lie in (0, 1), got {D!r}")
    gain = p.Ri if scheme is Scheme.C_COTC else p.Rc
    return gain * p.vs * D / p.L
