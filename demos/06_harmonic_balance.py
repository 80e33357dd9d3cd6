"""
The frequency-domain route to the same boundaries
=================================================

The stability boundaries come out of a sampled-data Jacobian, but they can
be rebuilt from transfer functions alone: write the steady feedback
waveform as a Fourier series, perturb the switching instants at half the
switching frequency, and balance the harmonics.  Same numbers, completely
different machinery; the agreement is a strong end-to-end check.
"""

from pathlib import Path

import numpy as np

from cotstab import BuckParams, Scheme, build_model
from cotstab.bifurcation import pdb_boundary_exact
from cotstab.harmonic import convergence_points, hb_pdb_splot, l1_plot, l2_plot
from cotstab.tables import Table, write_table

p = BuckParams(R=0.5, L=2e-6, C=2e-5, Rc=0.02, vs=5.0)
d, T = 1.2e-6, 3e-6
m = build_model(p, Scheme.V_COTC)

# series depth matters: the boundary value converges as harmonics stack up
exact = pdb_boundary_exact(m, p.vs, d, T)
print(f"stage-transition boundary: {exact:.5f} V/s")
for nh in convergence_points(2000):
    hb = hb_pdb_splot(p, Scheme.V_COTC, d, T, nh=nh)
    print(f"  harmonic balance, {nh:5d} harmonics: {hb:.5f} "
          f"({(hb - exact) / exact:+.2e} relative)")

# keeping only the first harmonic is the textbook describing-function
# shortcut; useful for intuition, crude in value
first = hb_pdb_splot(p, Scheme.V_COTC, d, T, nh=1)
print(f"  first harmonic only: {first:.1f} V/s ({first / exact:.1f} x)")

# at the critical slope the two-sided loop gain at half the switching
# frequency is exactly 2
gain = l1_plot(2.0 * np.pi / T, p, Scheme.V_COTC, exact, d, 2000)
print(f"two-sided loop gain at the boundary: {gain.real:.6f} "
      f"(imag {gain.imag:+.1e})")

# the boundary against duty from both routes, on a fixed period
table = Table(["duty", "hb_vps", "exact_vps"],
              metadata={"T_seconds": T, "nh": 2000})
for D in np.linspace(0.2, 0.95, 31):
    dD = float(D) * T
    table.add(float(D), hb_pdb_splot(p, Scheme.V_COTC, dD, T, nh=2000),
              pdb_boundary_exact(m, p.vs, dD, T))
out = Path(__file__).parent / "hb_vs_exact.csv"
write_table(table, path=str(out))
dev = max(abs(r[1] - r[2]) for r in table.rows)
print(f"curves written to {out.name}; max deviation {dev:.2f} V/s")

# the half-frequency locus evaluated along the frequency axis doubles as
# a design chart: where its real part crosses 2 T ma / vs, the boundary sits
val = l2_plot(2.0 * np.pi / T, p, Scheme.V_COTC, d, 2000)
print(f"L2 at the switching frequency: {val.real:+.6f} "
      f"(boundary criterion value {2.0 * T * exact / p.vs:+.6f})")
