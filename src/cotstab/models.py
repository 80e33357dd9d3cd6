"""Converter parameter sets, control schemes, and state-space construction.

The plant is a synchronous buck converter in continuous conduction with
state ``x = (iL, vC)'`` (inductor current, capacitor voltage) and inputs
``u = (vs, vc)'`` (source voltage, control reference).  Both switching
stages share the same state matrix; the source only drives the on stage:

    ``A1 = A2 = rho * [[-Rc/L, -1/L], [1/C, -1/(R*C)]]``,   rho = R/(R+Rc)
    ``B1  = [[1/L, 0], [0, 0]]``,   ``B2 = 0``

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
    voltage and ``vc`` the control reference fed to the modulator.
    """

    R: float
    L: float
    C: float
    Rc: float = 0.0
    Ri: float = 0.0
    vs: float = 0.0
    vc: float = 0.0

    def __post_init__(self):
        for name in ("R", "L", "C"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"BuckParams.{name} must be finite and > 0, got {v!r}")
        for name in ("Rc", "Ri", "vs", "vc"):
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

    @property
    def u(self):
        """Input vector (vs, vc)'."""
        return np.array([self.vs, self.vc])


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
    m = np.asarray(m, dtype=float)
    if m.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class ConverterModel:
    """Two-stage switched linear model.

    Stage 1 (on, duration ``d``): ``xdot = A1 x + B1 u``; stage 2 (off,
    duration ``T - d``): ``xdot = A2 x + B2 u``.  The modulator compares
    ``y = Cvec x + Dvec u`` against the ramp; ``E1``/``E2`` map the state to
    the reported output voltage in each stage.  Generic dimensions are
    supported (N states, 2 inputs); :func:`build_model` produces the N=2
    buck realisation.
    """

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    Cvec: np.ndarray
    Dvec: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    scheme: Scheme | None = field(default=None, compare=False)

    def __post_init__(self):
        a1 = np.asarray(self.A1, dtype=float)
        if a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
            raise DimensionError(f"A1 must be square, got shape {a1.shape}")
        n = a1.shape[0]
        object.__setattr__(self, "A1", _check_matrix("A1", self.A1, (n, n)))
        object.__setattr__(self, "A2", _check_matrix("A2", self.A2, (n, n)))
        object.__setattr__(self, "B1", _check_matrix("B1", self.B1, (n, 2)))
        object.__setattr__(self, "B2", _check_matrix("B2", self.B2, (n, 2)))
        object.__setattr__(self, "Cvec", _check_matrix("Cvec", self.Cvec, (n,)))
        object.__setattr__(self, "Dvec", _check_matrix("Dvec", self.Dvec, (2,)))
        object.__setattr__(self, "E1", _check_matrix("E1", self.E1, (n,)))
        object.__setattr__(self, "E2", _check_matrix("E2", self.E2, (n,)))

    @property
    def n(self):
        return self.A1.shape[0]

    @property
    def B11(self):
        """Source column of the on-stage input matrix."""
        return self.B1[:, 0]

    @property
    def E(self):
        """Stage-averaged output row used by the transfer functions."""
        return 0.5 * (self.E1 + self.E2)

    @property
    def is_buck_structured(self):
        """True when both stages share the state matrix and only the on
        stage sees the source (the structure the closed forms assume)."""
        return (
            np.array_equal(self.A1, self.A2)
            and not np.any(self.B2)
            and not np.any(self.B1[:, 1])
        )

    def y(self, x, u):
        """Modulator feedback signal ``Cvec x + Dvec u``."""
        return float(self.Cvec @ np.asarray(x, dtype=float) + self.Dvec @ u)


def _needs_ri(scheme):
    return scheme in (Scheme.C_COTC, Scheme.V_COTC_CURRENT_RAMP)


def build_model(p: BuckParams, scheme: Scheme) -> ConverterModel:
    """State-space realisation of the buck stage under the given scheme."""
    if not isinstance(scheme, Scheme):
        scheme = Scheme.parse(scheme)
    if _needs_ri(scheme) and p.Ri <= 0.0:
        raise UsageError(
            f"scheme {scheme.name} senses the inductor current: Ri must be > 0")
    rho = p.rho
    a = rho * np.array([[-p.Rc / p.L, -1.0 / p.L],
                        [1.0 / p.C, -1.0 / (p.R * p.C)]])
    b1 = np.array([[1.0 / p.L, 0.0],
                   [0.0, 0.0]])
    b2 = np.zeros((2, 2))
    e = rho * np.array([p.Rc, 1.0])
    current = np.array([p.Ri, 0.0])
    if scheme is Scheme.V_COTC:
        c = e.copy()
    elif scheme is Scheme.C_COTC:
        c = current
    else:
        c = e + current
    dvec = np.array([0.0, -1.0])
    return ConverterModel(A1=a, A2=a.copy(), B1=b1, B2=b2, Cvec=c,
                          Dvec=dvec, E1=e, E2=e.copy(), scheme=scheme)


def slope_normalizer(p: BuckParams, D, scheme: Scheme) -> float:
    """Natural ramp-slope scale ``sf`` for quoting boundaries dimensionlessly.

    Voltage-feedback schemes ripple at the ESR slope ``Rc*vs*D/L``; current
    feedback at the sensed inductor slope ``Ri*vs*D/L``.  Returns 0 when the
    relevant resistance is 0 (callers must not divide by it blindly).
    """
    if not isinstance(scheme, Scheme):
        scheme = Scheme.parse(scheme)
    D = float(D)
    if not 0.0 < D < 1.0:
        raise DomainError(f"duty ratio must lie in (0, 1), got {D!r}")
    gain = p.Ri if scheme is Scheme.C_COTC else p.Rc
    return gain * p.vs * D / p.L
