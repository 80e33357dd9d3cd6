"""Stability boundaries, pole placement, and closed-form design rules.

The central object is the pole placement function S: the ramp slope that
puts a real eigenvalue of the cycle-map Jacobian at a chosen location.  Its
slice at -1 is the period-doubling boundary, at +1 the saddle-node
boundary, and as a function of the pole alone it is the pole locus.  Exact
matrix forms are evaluated side by side with the published closed-form
approximations; every approximation carries a stable formula identifier so
emitted results are never ambiguous about their provenance within the
catalog.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CotstabError, DomainError, PoleEvaluationError, UsageError
from .linalg import eigenvalues, find_root, solve_linear
from .models import BuckParams, ConverterModel, Scheme, build_model
from .sampled import (CycleOps, SteadyState, _cycle, linearize,
                      steady_state_at)

__all__ = [
    "CATALOG",
    "FORMULA_IDS",
    "applicable_formulas",
    "s_exact",
    "s_approx",
    "pdb_boundary_exact",
    "pdb_boundary_approx",
    "pdb_onset_duty",
    "family_point",
    "range_max_pdb_ramp",
    "max_on_time",
    "exact_max_on_time",
    "min_ramp_formula",
    "min_ramp_normalized",
    "min_sense_resistance",
    "exact_min_ri",
    "closed_form_pole",
    "equivalent_ct_pole",
    "ct_pole_formula",
    "snb_boundary_exact",
    "snb_boundary_approx",
    "critical_ramp_eig",
    "sweep",
]

_ALL = frozenset(Scheme)
_V = frozenset({Scheme.V_COTC})
_C = frozenset({Scheme.C_COTC})
_VR = frozenset({Scheme.V_COTC_CURRENT_RAMP})

# closed-form kind -> catalog id -> the schemes the form applies to.  Eq44
# and Eq45 are both on-time and sense-resistance limits.
CATALOG = {
    "pole": {"Eq20": _ALL, "Eq21": _ALL, "Eq40": _V, "Eq42": _V,
             "Eq46": _VR, "Eq50": _C},
    "ct_pole": {"Eq43": _V, "Eq51": _C},
    "min_ramp": {"Eq32": _V, "Eq34": _V, "Eq49": _C},
    "min_ramp_normalized": {"Eq36": _V, "Eq37": _V},
    "on_time": {"Eq27": _ALL, "Eq33": _V, "Eq35": _V, "Eq38": _V, "Eq39": _V,
                "Eq41": _V, "Eq44": _VR, "Eq45": _VR},
    "min_ri": {"Eq44": _VR, "Eq45": _VR, "Eq47": _VR},
    "snb": {"Eq54": _ALL, "Eq55": _V, "Eq56": _C},
}

# every identifier attached to emitted results: the closed forms plus the
# exact and series routes
FORMULA_IDS = frozenset().union(
    *CATALOG.values(),
    {"Eq15", "Eq17", "Eq19", "Eq22", "Eq24", "Eq26", "Eq53"})

DUTY_GRID = 400     # duty points scanned along the fixed-output family
ON_TIME_GRID = 200  # on-time points scanned by exact_max_on_time


def applicable_formulas(kind: str, scheme: Scheme) -> tuple[str, ...]:
    """Catalog ids of one closed-form kind that apply to ``scheme``."""
    scheme = Scheme.parse(scheme)
    return tuple(f for f, schemes in CATALOG[kind].items() if scheme in schemes)


def _check_formula(kind: str, formula: str, scheme=None):
    """Raise UsageError unless ``formula`` is a ``kind`` form for ``scheme``.

    Without a scheme only the kind is checked: the function evaluating the
    form then serves a single scheme by construction.
    """
    forms = CATALOG[kind]
    if formula not in forms:
        if formula not in FORMULA_IDS:
            raise UsageError(f"unknown formula id {formula!r}")
        raise UsageError(f"formula {formula} does not apply here; expected "
                         "one of " + ", ".join(forms))
    if scheme is not None:
        scheme = Scheme.parse(scheme)
        if scheme not in forms[formula]:
            names = ", ".join(s.name for s in Scheme if s in forms[formula])
            raise UsageError(f"formula {formula} applies to {names}, "
                             f"not {scheme.name}")


def _check_duty(D):
    if not 0.0 < D <= 1.0:
        raise DomainError(f"duty must lie in (0, 1], got {D!r}")


def s_exact(m: ConverterModel, ss: SteadyState, lam: float) -> float:
    """Ramp slope that places a real cycle-map eigenvalue at ``lam``.

    Evaluated from the resolvent of the reversed stage product acting on
    the end-of-cycle state velocity.  The value at 0 is 0: without a ramp
    the map Jacobian is always singular.
    """
    lam = float(lam)
    if lam == 0.0:
        return 0.0
    wr = ss.ops.p1 @ ss.ops.p2
    eigs = eigenvalues(wr)
    if np.min(np.abs(eigs - lam)) <= 1e-9 * (1.0 + abs(lam)):
        raise PoleEvaluationError(
            f"lambda = {lam!r} lies on the open-loop stage-product spectrum")
    sol = solve_linear(lam * np.eye(m.n) - wr, ss.xdot0_minus)
    return float(lam * (m.Cvec @ sol))


def s_approx(m: ConverterModel, ss: SteadyState, lam: float) -> float:
    """First-order pole locus: S with the stage exponentials linearized.

    Valid when the cycle is short against the natural time constants.  Has
    an artificial pole at lam = 1 that the exact form does not share.
    """
    lam = float(lam)
    if lam == 1.0:
        raise PoleEvaluationError(
            "the linearized pole locus is singular at lambda = 1")
    a_mix = m.A * ss.d + m.A * (ss.T - ss.d)
    vec = ss.xdot0_minus + (a_mix @ ss.xdot0_minus) / (lam - 1.0)
    return float(lam / (lam - 1.0) * (m.Cvec @ vec))


def _boundary_core(m: ConverterModel, vs, d, T):
    """Shared factor of the buck PDB/SNB boundaries at every (vs, d, T).

    The arguments broadcast; returns them as arrays with ``W = exp(A T)``
    and the vs-free drive ``(W - exp(A (T - d))) B11`` per point.  A grid
    forms its own stage operators; a single point reads the model's.
    """
    vs, d, T = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                     for x in (vs, d, T)))
    ok = (0.0 < d) & (d <= T)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DomainError(f"need 0 < d <= T, got d={float(d.flat[i])!r}, "
                          f"T={float(T.flat[i])!r}")
    ok = np.isfinite(vs)
    if not ok.all():
        raise DomainError(f"vs must be finite, got {float(vs[~ok][0])!r}")
    ops = CycleOps(m, d, T) if T.ndim else _cycle(m, d, T, closed=True)
    return vs, ops.W, (ops.W - ops.p2) @ m.B11


def _feedback(m: ConverterModel, sol, vs):
    """``Cvec @ sol * vs`` per point; a float for a single point."""
    out = (m.Cvec @ sol[..., None])[..., 0] * vs
    return float(out) if out.ndim == 0 else out


def pdb_boundary_exact(m: ConverterModel, vs, d, T):
    """Critical ramp slope at the period-doubling boundary (exact).

    The converter is stable against period doubling when the applied ramp
    slope exceeds this value.  Requires T >= d; T = d is the degenerate
    zero-off-time corner, still well defined algebraically.  ``vs``, ``d``
    and ``T`` may be arrays, which broadcast: the grid is evaluated with
    stacked operators and each point equals its scalar call bit for bit.
    """
    vs, w, drive = _boundary_core(m, vs, d, T)
    sol = solve_linear(np.eye(m.n) - w @ w, drive)
    return _feedback(m, sol, vs)


def pdb_boundary_approx(m: ConverterModel, vs: float, d: float, T: float,
                        order: str = "full") -> float:
    """Closed-form period-doubling threshold from series expansion.

    ``order="full"`` keeps terms through second order in the cycle length
    (catalog id Eq24); ``order="linear"`` keeps the leading duty-linear
    terms only (id Eq26).  Both assume the natural time constants dominate
    the cycle; accuracy degrades as T grows.
    """
    D = d / T
    cb = float(m.Cvec @ m.B11)
    cab = float(m.Cvec @ (m.A @ m.B11))
    if order == "full":
        caab = float(m.Cvec @ (m.A @ m.A @ m.B11))
        return (-0.5 * D * cb + 0.25 * D * D * cab * T
                + (D - D ** 3) / 12.0 * caab * T * T) * vs
    if order == "linear":
        return 0.5 * D * vs * (0.5 * d * cab - cb)
    raise UsageError(f"order must be 'full' or 'linear', got {order!r}")


def min_ramp_formula(p: BuckParams, scheme: Scheme, d: float, T: float,
                     formula: str) -> float:
    """Closed-form minimum stabilizing ramp slope, per-scheme reductions.

    Eq32 keeps the equivalent-series-resistance correction terms, Eq34
    drops them (valid when the resistance is small against the load and
    the filter).  Eq49 is the current-feedback counterpart; it is negative
    for every duty ratio, so any non-negative ramp suffices there.
    """
    _check_formula("min_ramp", formula, scheme)
    D = d / T
    rho = p.rho
    if formula == "Eq32":
        return (D * p.vs * rho * rho / (2.0 * p.L * p.C)
                * (0.5 * d * (1.0 - p.Rc ** 2 * p.C / p.L)
                   - p.Rc * p.C / rho))
    if formula == "Eq34":
        return D * p.vs / (2.0 * p.L * p.C) * (0.5 * d - p.Rc * p.C)
    return (-D * p.vs * p.Ri / (2.0 * p.L)
            * (d * rho * p.Rc / (2.0 * p.L) + 1.0))


def min_ramp_normalized(p: BuckParams, d: float, T: float,
                        formula: str) -> float:
    """Minimum ramp slope over the ESR ripple-slope scale, closed forms."""
    _check_formula("min_ramp_normalized", formula)
    if p.Rc == 0.0:
        raise DomainError("no ESR (Rc = 0): the ripple-slope scale is 0")
    D = d / T
    rho = p.rho
    if formula == "Eq36":
        return (rho * rho / 2.0
                * (d / (2.0 * p.Rc * p.C) * (1.0 - p.Rc ** 2 * p.C / p.L)
                   - 1.0 / rho))
    return 0.5 * (d / (2.0 * p.Rc * p.C) - 1.0)


def family_point(p: BuckParams, d: float, vo: float, D: float) -> tuple[BuckParams, float]:
    """Fixed-output operating family: source and period implied by duty.

    With the on-time and the regulated output held fixed, choosing the duty
    ratio fixes the period (d / D) and the source (vo / D).  Returns the
    parameter set with the implied source voltage, and the period.
    """
    _check_duty(D)
    return p.with_(vs=vo / D), d / D


def _family_boundary(p: BuckParams, scheme: Scheme, d: float, vo: float):
    """Exact PDB threshold along the fixed-output family, by duty.

    A depends on neither the source nor the period, so one model serves
    the whole family; the returned function takes a duty or an array of
    duties (source vo / D and period d / D, as :func:`family_point`).
    """
    m = build_model(p, scheme)

    def boundary(D):
        D = np.asarray(D, dtype=float)
        bad = ~((0.0 < D) & (D <= 1.0))
        if bad.any():
            raise DomainError(
                f"duty must lie in (0, 1], got {float(D[bad].flat[0])!r}")
        return pdb_boundary_exact(m, vo / D, d, d / D)

    return boundary


def _bracket(name: str, lo: float, hi: float, n: int):
    """``n`` points from ``lo`` to ``hi``; DomainError unless lo < hi."""
    if not lo < hi:
        raise DomainError(f"need {name}_lo < {name}_hi, got [{lo!r}, {hi!r}]")
    return np.linspace(lo, hi, n)


def _first_root(residual, xs):
    """First root of ``residual`` on the grid ``xs``, polished; or None.

    ``residual`` takes the whole grid at once.  The first cell whose end
    values straddle or touch zero is handed to the bracketing root finder,
    which returns a grid zero as it stands.
    """
    vals = residual(xs)
    for i in range(len(xs) - 1):
        if vals[i] * vals[i + 1] <= 0.0:
            return float(find_root(residual, xs[i], xs[i + 1]))
    return None


def pdb_onset_duty(p: BuckParams, scheme: Scheme, ma: float, d: float,
                   vo: float, D_lo: float = 0.05, D_hi: float = 0.999):
    """Duty ratio where period doubling sets in along the fixed-output family.

    Scans the exact boundary minus the applied ramp slope over
    ``DUTY_GRID`` duties and polishes the first sign change.  Only that
    first crossing, the lowest duty of the range, is returned: the boundary
    need not be monotone in duty, and a later crossing is found by a search
    from above the first.  Returns None when the family never crosses the
    applied slope in the range.
    """
    boundary = _family_boundary(p, scheme, d, vo)
    return _first_root(lambda D: boundary(D) - ma,
                       _bracket("D", D_lo, D_hi, DUTY_GRID))


def range_max_pdb_ramp(p: BuckParams, scheme: Scheme, d: float, vo: float,
                       D_lo: float, D_hi: float) -> tuple[float, float]:
    """Largest exact period-doubling threshold over a duty range.

    A ramp at least this steep stabilizes the whole operating range.  Scan
    of ``DUTY_GRID`` duties followed by golden-section refinement to 1e-6
    relative in duty.  Returns (duty at the maximum, threshold value).
    """
    value = _family_boundary(p, scheme, d, vo)
    ds = _bracket("D", D_lo, D_hi, DUTY_GRID)
    k = int(np.argmax(value(ds)))
    a, b = ds[max(k - 1, 0)], ds[min(k + 1, len(ds) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = value(c), value(e)
    while (b - a) > 1e-6 * max(abs(a), abs(b)):
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = value(e)
    dstar = 0.5 * (a + b)
    return float(dstar), float(value(dstar))


def max_on_time(p: BuckParams, scheme: Scheme, ma: float, D: float,
                formula: str, T: float | None = None) -> float:
    """Critical on-time from one of the closed-form subharmonic limits.

    Most forms are period-free; the T-dependent form (Eq41) needs the
    nominal period supplied.  The returned value bounds the on-time from
    above when the feedback acceleration term is positive; when that term
    is negative the boundary direction reverses (no upper limit), and the
    returned critical value may be negative or unphysical, by design.
    """
    _check_formula("on_time", formula, scheme)
    _check_duty(D)
    rho = p.rho
    if formula == "Eq27":
        mdl = build_model(p, scheme)
        cb = float(mdl.Cvec @ mdl.B11)
        cab = float(mdl.Cvec @ (mdl.A @ mdl.B11))
        if cab == 0.0:
            raise DomainError("feedback acceleration term is zero; no "
                              "finite on-time boundary")
        return 2.0 * (cb + 2.0 * ma / (D * p.vs)) / cab
    if formula == "Eq33":
        num = rho * p.Rc / p.L + 2.0 * ma / (D * p.vs)
        den = rho * rho / (p.L * p.C) * (1.0 - p.Rc ** 2 * p.C / p.L)
        return 2.0 * num / den
    if formula == "Eq35":
        return 2.0 * (p.Rc * p.C + 2.0 * ma * p.L * p.C / (D * p.vs))
    if formula == "Eq38":
        return 2.0 * p.Rc * p.C / (rho * (1.0 - p.Rc ** 2 * p.C / p.L))
    if formula == "Eq39":
        return 2.0 * p.Rc * p.C
    if formula == "Eq41":
        if T is None:
            raise UsageError("formula Eq41 needs the nominal period T")
        rcx = (p.R + p.Rc) * p.C
        return 2.0 * (p.Rc * p.C + T * T / (4.0 * rcx)) / (1.0 + T / (2.0 * rcx))
    if formula == "Eq44":
        num = (rho * p.Rc + p.Ri) * p.C
        den = rho * rho * (1.0 - p.Rc ** 2 * p.C / p.L
                           - p.Rc * p.C * p.Ri / (rho * p.L))
        return 2.0 * num / den
    # Eq45
    return 2.0 * (p.Rc + p.Ri) * p.C


def exact_max_on_time(p: BuckParams, scheme: Scheme, ma: float, D: float,
                      d_lo: float, d_hi: float) -> float:
    """On-time at which the exact period-doubling boundary is crossed.

    Sweeps ``ON_TIME_GRID`` on-times at constant duty (period scales with
    it) and locates where the exact boundary equals the applied ramp slope.
    """
    _check_duty(D)
    m = build_model(p, scheme)
    root = _first_root(lambda d: pdb_boundary_exact(m, p.vs, d, d / D) - ma,
                       _bracket("d", d_lo, d_hi, ON_TIME_GRID))
    if root is None:
        raise DomainError("the period-doubling boundary is not crossed "
                          "inside the on-time bracket")
    return root


def min_sense_resistance(p: BuckParams, d: float, T: float,
                         formula: str = "Eq47") -> float:
    """Closed-form minimum current-sense resistance against subharmonics.

    For the voltage-feedback scheme that adds the sensed inductor current
    as its compensating ramp.  Three published forms with different levels
    of approximation; the exact search is :func:`exact_min_ri`.
    """
    _check_formula("min_ri", formula)
    rho = p.rho
    if formula == "Eq47":
        num = 2.0 * d - 4.0 * p.Rc * p.C - rho * T * (T - d) / (p.R * p.C)
        den = 4.0 * p.C + rho * T * (T - d) / p.L
        return num / den
    if formula == "Eq44":
        # on-time form solved for the sense resistance
        num = rho * (0.5 * d * rho * (1.0 - p.Rc ** 2 * p.C / p.L) - p.Rc * p.C)
        den = p.C * (1.0 + d * rho * p.Rc / (2.0 * p.L))
        return num / den
    # Eq45
    return d / (2.0 * p.C) - p.Rc


def exact_min_ri(p: BuckParams, d: float, T: float) -> float:
    """Sense resistance that puts the exact boundary at zero ramp slope.

    The boundary value is affine in the sense resistance (it enters only
    through the feedback row), so two evaluations solve it exactly.
    """
    def boundary(ri):
        pr = p.with_(Ri=ri)
        mdl = build_model(pr, Scheme.V_COTC_CURRENT_RAMP)
        return pdb_boundary_exact(mdl, pr.vs, d, T)

    s0 = boundary(1e-12)          # builder requires a positive Ri
    s1 = boundary(1.0)
    slope = (s1 - s0) / (1.0 - 1e-12)
    if slope == 0.0:
        raise DomainError("boundary does not depend on the sense resistance")
    return float(1e-12 - s0 / slope)


def closed_form_pole(p: BuckParams, scheme: Scheme, d: float, T: float,
                     formula: str) -> float:
    """Nonzero cycle-map pole without a ramp, by closed form.

    The companion pole is always 0 in that case.  Eq20/Eq21 evaluate the
    general first-order expression at the exact orbit; the remaining ids
    are the fully reduced per-scheme expressions.
    """
    _check_formula("pole", formula, scheme)
    rho = p.rho
    if formula in ("Eq20", "Eq21"):
        mdl = build_model(p, scheme)
        ss = steady_state_at(mdl, d, T, (p.vs, 0.0))
        if formula == "Eq20":
            v = ss.xdot0_minus
            a_mix = mdl.A * d + mdl.A * (T - d)
            return 1.0 - float(mdl.Cvec @ (a_mix @ v)) / float(mdl.Cvec @ v)
        x0 = ss.x0_0
        a1x = mdl.A @ x0
        return 1.0 - float(mdl.Cvec @ (mdl.A @ a1x)) * T / float(mdl.Cvec @ a1x)
    if formula == "Eq40":
        gain = 2.0 * rho * T / (2.0 * p.Rc * p.C + T - d)
        return 1.0 + gain * ((T - d) / (2.0 * p.R * p.C) - 1.0)
    if formula == "Eq42":
        return 1.0 - 2.0 * T / (2.0 * p.Rc * p.C + T - d)
    if formula == "Eq46":
        gain = 2.0 * rho * T / (2.0 * (p.Rc + p.Ri) * p.C + T - d)
        return 1.0 + gain * ((T - d) / (2.0 * p.R * p.C) - 1.0
                             + p.Ri * (T - d) / (2.0 * p.L))
    # Eq50
    return 1.0 - rho * T * (T - d) / (2.0 * p.L * p.C)


def equivalent_ct_pole(lam: float, T: float, method: str = "linear") -> float:
    """Continuous-time pole equivalent to a cycle-map pole.

    ``linear`` uses (1 - lam)/T, the map that reduces the closed-form
    discrete poles to their published continuous counterparts; ``log`` uses
    -ln(lam)/T (requires a positive pole) and differs by under half a
    percent near 1.
    """
    if method == "linear":
        return (1.0 - lam) / T
    if method == "log":
        if lam <= 0.0:
            raise DomainError("log mapping needs a positive pole")
        return -math.log(lam) / T
    raise UsageError(f"method must be 'linear' or 'log', got {method!r}")


def ct_pole_formula(p: BuckParams, scheme: Scheme, d: float, T: float,
                    formula: str) -> float:
    """Closed-form continuous-time pole estimates (catalog Eq43, Eq51)."""
    _check_formula("ct_pole", formula, scheme)
    if formula == "Eq43":
        return 2.0 / (2.0 * p.Rc * p.C + T - d)
    return p.rho * (T - d) / (2.0 * p.L * p.C)


def snb_boundary_exact(m: ConverterModel, vs, d, T):
    """Critical ramp slope at the saddle-node boundary (exact).

    Equals the slope of the end-of-cycle feedback signal with respect to
    the period: at the boundary the feedback curve is tangent to the ramp,
    and the steady cycle appears or disappears.  The same value follows
    from the eigenvalue condition at +1, which tests cross-check.  Takes
    arrays like :func:`pdb_boundary_exact`.
    """
    vs, w, drive = _boundary_core(m, vs, d, T)
    lhs = np.eye(m.n) - w
    sol = solve_linear(lhs, solve_linear(lhs, drive))
    return _feedback(m, sol, vs)


def snb_boundary_approx(m: ConverterModel, p: BuckParams, d: float, T: float,
                        formula: str = "Eq54") -> float:
    """Closed-form saddle-node threshold by series expansion.

    ``Eq54`` is the generic matrix form; ``Eq55``/``Eq56`` are its
    per-scheme scalar reductions.  All are negative for the usual parameter
    ranges, so a non-negative ramp slope rules the bifurcation out.
    """
    _check_formula("snb", formula, m.scheme)
    D = d / T
    vs = p.vs
    rho = p.rho
    if formula == "Eq54":
        cb = float(m.Cvec @ m.B11)
        cab = float(m.Cvec @ (m.A @ m.B11))
        caib = float(m.Cvec @ solve_linear(m.A, m.B11))
        return (D / T * caib - 0.5 * D * D * cb
                + (2.0 * D ** 3 - D) / 12.0 * cab * T) * vs
    if formula == "Eq55":
        return vs * (-D / T - D * D * rho * p.Rc / (2.0 * p.L)
                     + (2.0 * D ** 3 - D) / 12.0 * T * rho * rho
                     / (p.L * p.C) * (1.0 - p.Rc ** 2 * p.C / p.L))
    # Eq56
    return vs * p.Ri * (-D / (T * p.R) - D * D / (2.0 * p.L)
                        - (2.0 * D ** 3 - D) / 12.0 * rho * p.Rc * T / p.L ** 2)


def critical_ramp_eig(m: ConverterModel, d: float, T: float, u, target: float,
                      ma_lo: float, ma_hi: float) -> float:
    """Ramp slope that places a cycle-map eigenvalue at the real target.

    Independent search route: a bracketed root search over the applied
    slope on the full Jacobian, rather than an evaluation of the boundary
    formulas.  Used to cross-validate them.  The residual is
    ``(cv - ma) * det(target I - Phi(ma))``, with ``cv`` the feedback
    slope at the switching instant.  Phi is the stage product plus a
    rank-one term in ``1 / (cv - ma)``, so by the matrix determinant lemma
    the residual is affine in ``ma``: it changes sign once, where a real
    eigenvalue reaches the target, and has no pole at ``ma = cv``.
    """
    ss = steady_state_at(m, d, T, u)
    cv = float(m.Cvec @ ss.xdot0_minus)

    def residual(ma):
        (f00, f01), (f10, f11) = linearize(m, ss, ma).Phi.tolist()
        return (cv - ma) * ((target - f00) * (target - f11) - f01 * f10)

    return find_root(residual, ma_lo, ma_hi)


def sweep(func, lo: float, hi: float, n: int):
    """Uniform 1-D sweep of an analysis function.

    ``func`` returns one value, or a fixed-length tuple of values, per
    point.  Evaluation failures (any :class:`CotstabError`) are recorded as
    NaN in every column with the error message kept, never raised, so a
    sweep across a resolvent pole still yields a usable curve; any other
    exception is a bug and propagates.  Returns (xs, ys, notes): ys holds
    one value or one row per point, and is a single NaN column when no
    point succeeded.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    xs = np.linspace(lo, hi, int(n)) if n else np.empty(0)
    values: list = []
    notes: list[str] = []
    for x in xs:
        try:
            values.append(func(float(x)))
        except CotstabError as exc:  # recorded per point by contract
            values.append(math.nan)
            notes.append(f"x={x:.6g}: {exc}")
    shape = max((np.shape(v) for v in values), key=len, default=())
    ys = np.empty(xs.shape + shape)
    for i, value in enumerate(values):
        ys[i] = value
    return xs, ys, notes
