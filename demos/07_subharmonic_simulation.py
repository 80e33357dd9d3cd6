"""
Watching the subharmonic happen
===============================

Everything so far came from linearized analysis.  The simulator knows
nothing about Jacobians: it integrates the switched system cycle by cycle
and finds each ramp crossing by root solving.  So let it vote: probe the
orbit just above and just below the predicted boundary, then bisect the
slope to the onset and compare against the formula.
"""

import numpy as np

from cotstab import BuckParams, RampSpec, Scheme, build_model
from cotstab.bifurcation import pdb_boundary_exact
from cotstab.sampled import consistent_steady_state
from cotstab.simulate import (
    classify_orbit,
    make_ramp_family,
    onset_search,
    simulate,
)

p = BuckParams(R=0.5, L=2e-6, C=2e-5, Rc=0.02, vs=5.0)
d, T = 1.2e-6, 3e-6
m = build_model(p, Scheme.V_COTC)
ma_crit = pdb_boundary_exact(m, p.vs, d, T)
print(f"predicted boundary: {ma_crit:.2f} V/s")


def probe(ma, ncycles=1200, settle=600):
    ramp = RampSpec(ma=ma, d=d)
    ss = consistent_steady_state(m, ramp, T, p.vs)
    x0 = ss.x0_0.copy()
    x0[-1] *= 1.0 + 1e-5   # tiny kick off the exact orbit
    return simulate(m, ramp, x0, ss.u, ncycles, T), settle


# slightly above the boundary the kick dies out and the cycle lengths
# collapse back to the design period; the multiplier is barely inside
# the circle there, so the decay takes a few thousand cycles
tr, settle = probe(1.05 * ma_crit, ncycles=4000, settle=3400)
tail = tr.Tn[settle:]
print(f"at 1.05 x boundary: {classify_orbit(tr, settle)}, "
      f"period spread {np.max(tail) - np.min(tail):.2e} s")

# below it the deviation grows until cycles saturate at the bare on-time
# and alternate with long recovery cycles: the large-signal subharmonic
tr, settle = probe(0.60 * ma_crit)
tail = tr.Tn[settle:]
sat = int(np.sum(tr.saturated[settle:]))
print(f"at 0.60 x boundary: {classify_orbit(tr, settle)}, "
      f"{sat} saturated cycles in the tail, "
      f"cycle lengths span [{np.min(tail) * 1e6:.2f}, "
      f"{np.max(tail) * 1e6:.2f}] us")

# bisect the slope between a clearly unstable and a clearly stable probe;
# the probes start on the exact orbit, so the verdicts are sharp
fam = make_ramp_family(p, Scheme.V_COTC, d, T)
onset = onset_search(fam, 600.0, 1500.0, cycles=1500, settle=300)
print(f"simulated onset: {onset:.2f} V/s "
      f"({(onset - ma_crit) / ma_crit:+.2%} vs the formula)")
