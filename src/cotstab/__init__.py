"""Stability and bifurcation analysis of constant on-time DC-DC converters.

Three independent routes to the same physics: exact sampled-data analysis
of the switching cycle, harmonic balance in the frequency domain, and
brute-force time-domain simulation.  The package computes stability
boundaries (period doubling and saddle-node), pole placement ramps, and
the closed-form design rules that approximate them, and cross-checks the
routes against each other.

The analysis functions are re-exported here; the submodules stay
reachable as attributes.  ``cotstab.simulate`` is the simulation module,
so its function is ``cotstab.simulate.simulate``.
"""

from types import ModuleType as _ModuleType

from .bifurcation import (CATALOG, FORMULA_IDS, applicable_formulas,
                          closed_form_pole, critical_ramp_eig, ct_pole_formula,
                          equivalent_ct_pole, exact_max_on_time,
                          exact_min_ri, family_point, max_on_time,
                          min_ramp_formula, min_ramp_normalized,
                          min_sense_resistance, pdb_boundary_approx,
                          pdb_boundary_exact, pdb_onset_duty,
                          range_max_pdb_ramp, s_approx, s_exact,
                          snb_boundary_approx, snb_boundary_exact, sweep)
from .errors import (BracketError, ConfigError, CotstabError,
                     DegenerateSwitchingError, DimensionError, DomainError,
                     InfiniteLoopGainError, MissedSwitchingError,
                     NumericError, PoleEvaluationError, SingularMatrixError,
                     UsageError)
from .harmonic import (convergence_points, h_plot, hb_pdb_splot,
                       hb_snb_condition, l1_plot, l2_plot, scheme_gain,
                       scheme_gain_derivative, series_identities_check,
                       square_wave_coeff, y0_series)
from .linalg import eigenvalues, expm, expm_integral, find_root, solve_linear
from .models import (BuckParams, ConverterModel, RampSpec, Scheme, build_model,
                     slope_normalizer)
from .sampled import (CycleOps, LinearizedMap, SteadyState,
                      consistent_steady_state, consistent_vc, linearize,
                      orbit_sample, period_residual, poles, solve_period,
                      steady_state_at)
from .simulate import (Trace, classify_orbit, estimate_multiplier,
                       make_duty_family, make_ramp_family,
                       nominal_probe_state, onset_search)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
