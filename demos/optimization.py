"""Map the realizable parameter region and find the two optima.

Run: python3 demos/optimization.py
"""

import numpy as np

from qclone import (
    BHParams,
    average_fidelity,
    feasible,
    optimize_average,
    optimize_equal_fidelity,
    scan_feasible_region,
    synthesize,
    validate_unitarity,
)
from qclone.machines import UNITARITY_TOL

print("Not every (zeta, eta, kappa) comes from a unitary machine: the Gram")
print("matrix of the apparatus vectors must be positive semidefinite for")
print("some overlap q = <Q0|Q1>, which reduces to")
print("kappa^2 + eta^2 <= 4 zeta (1 - 2 zeta).\n")

rows = scan_feasible_region(40)
frac = rows[:, 3].mean()
print(f"On a 40^3 grid, {frac:.1%} of the parameter box is realizable.")
feas = rows[rows[:, 3] == 1.0]
best = feas[np.nanargmax(feas[:, 4])]
print(f"Best mean fidelity on that coarse grid: {best[4]:.6f} at "
      f"(zeta, eta, kappa) = ({best[0]:.3f}, {best[1]:.3f}, {best[2]:.3f})\n")

print("Mode 1: make the fidelity equal at the poles and the Eastern equator")
print("point, then push that common value as high as it goes.")
res = optimize_equal_fidelity()
p = res.params
print(f"  optimum (zeta, eta, kappa) = ({p.zeta:.9f}, {p.eta:.9f}, {p.kappa:.9f})")
print(f"  common fidelity F = {res.objective:.9f}")
print(f"  active constraints: {[k for k, v in res.boundary_active.items() if v]}\n")

print("Mode 2: maximize the average fidelity over the Eastern meridian.")
res2 = optimize_average()
q = res2.params
print(f"  optimum (zeta, eta, kappa) = ({q.zeta:.9f}, {q.eta:.9f}, {q.kappa:.9f})")
print(f"  mean fidelity = {res2.objective:.9f}")
print(f"  note: {res2.notes}\n")

print("Both optima sit on the Gram boundary, so each can be synthesized into")
print("explicit apparatus vectors and checked against the unitarity equations:")
for label, params in (("equal-fidelity", p), ("average", q)):
    spec = synthesize(params)
    worst = max(abs(v) for v in validate_unitarity(spec).values())
    print(f"  {label:>14}: apparatus_dim = {spec.apparatus_dim}, "
          f"max |residual| = {worst:.2e}, passed = {worst <= UNITARITY_TOL}")

print()
print("The equal-fidelity point is the better machine for guaranteed quality;")
print(f"the average-optimal point trades a lower floor for a higher mean "
      f"({average_fidelity(q):.6f} vs {average_fidelity(p):.6f}).")
assert feasible(BHParams(q.zeta, q.eta, q.kappa))
