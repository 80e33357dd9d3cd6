"""
Reading cycle-map poles off the slope locus
===========================================

The locus S(lam) gives, for every real pole position lam, the ramp slope
that would put a cycle-map pole exactly there.  Drawing a horizontal line
at the applied slope and intersecting it with the locus is therefore the
graphic way to find the real poles; here we do it numerically.
"""

from pathlib import Path

from cotstab import BuckParams, RampSpec, Scheme, build_model
from cotstab.bifurcation import s_approx, s_exact, sweep
from cotstab.sampled import consistent_steady_state, poles
from cotstab.tables import Table, write_table

# a fast low-output buck: 5 V in, 2 V out, 333 kHz equivalent rate
p = BuckParams(R=0.5, L=2e-6, C=2e-5, Rc=0.02, vs=5.0)
d, T = 1.2e-6, 3e-6

m = build_model(p, Scheme.V_COTC)
ramp = RampSpec(ma=0.0, d=d)
ss = consistent_steady_state(m, ramp, T, p.vs)

# the locus over a window around the unit circle; the exact curve and its
# short series approximation (which has an artificial pole at lam = 1)
lams, exact_vals, _ = sweep(lambda lam: s_exact(m, ss, lam), -1.5, 1.5, 121)
_, approx_vals, _ = sweep(lambda lam: s_approx(m, ss, lam), -1.5, 1.5, 121)

table = Table(["pole", "slope_exact_vps", "slope_series_vps"],
              metadata={"duty": d / T, "T_seconds": T})
for lam, se, sa in zip(lams, exact_vals, approx_vals):
    table.add(float(lam), float(se), float(sa))
out = Path(__file__).parent / "pole_locus.csv"
write_table(table, path=str(out))
print(f"locus written to {out.name} ({len(table.rows)} points)")

# without a ramp the map always parks one pole at the origin; the other
# sits outside the unit circle here, so the bare loop subharmonics
lam = sorted(poles(m, ramp, ss.u, T), key=abs)
print(f"poles at ma=0:      {lam[0]:+.6f}, {lam[1]:+.6f}")
print(f"S at the unstable pole: {s_exact(m, ss, lam[1]):+.3f} V/s "
      "(zero, as it must be on the locus)")

# the PDB and SNB thresholds are just two special locus values
print(f"S(-1) = {s_exact(m, ss, -1.0):+.3f} V/s  (ramp needed to sit on "
      "the period-doubling boundary)")
print(f"S(+1) = {s_exact(m, ss, +1.0):+.3f} V/s  (saddle-node threshold, "
      "negative: only a falling ramp can cause it)")
