# The numeric lower-bound curve as a function of the cost exponent.
#
# Generalizing the batch construction: 2z jobs of value c_z + x arrive at
# once, where x may not exceed the convexity gap c_{z+1} - c_z (so at most z
# jobs are ever worth batching). Maximizing over (z, x) and minimizing over
# the policy's count k gives a lower bound on every deadline-blind policy's
# competitive ratio. Anchors: phi + 1 at exponent 2, at least sqrt(2) + 1
# beyond it.
import csv
import sys

from speedscale import (PHI_PLUS_1, SQRT2_PLUS_1, TabulatedConvex, eval_lower_bound,
                        lower_bound_ratio)
from speedscale.cli import main

# One hand-checked point: z=10, x=2, k=6 at exponent 2.
print("sample ratio(z=10, x=2, k=6) =", lower_bound_ratio(2.0, 10, 2.0, 6))

# The dataset is what `speedscale lowerbound` writes: after each alpha's grid
# points (columns z, x, k_star and value) comes a summary row with z, x and
# k_star empty and the best as its value: the largest of the grid and of each
# row's peak, where two branches in k cross.
argv = ["lowerbound", "--alpha", "2,2.2,2.5,3,3.5,4", "--z-max", "200", "--x-grid", "64",
        "--no-header", "--out", "lowerbound_curve.csv"]
if main(argv) != 0:
    sys.exit("lowerbound failed")
with open("lowerbound_curve.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))

print(f"\n{'alpha':>6} {'best':>10}   anchors: phi+1={PHI_PLUS_1:.5f}, "
      f"sqrt2+1={SQRT2_PLUS_1:.5f}")
for row in rows:
    if not row["z"]:
        print(f"{float(row['alpha']):6.1f} {float(row['value']):10.6f}")

# The curve takes any convex cost, read from a table of g(0..z_max+1): here
# g(k) = k^2 + k^3/50, which is no power law.
mix = TabulatedConvex(tuple(k * k + k ** 3 / 50 for k in range(202)))
_, best = eval_lower_bound(mix, 200, 64)
print(f"\ng(k) = k^2 + k^3/50, z <= 200: best {best:.6f}")

print(f"\nwrote {len(rows)} rows to lowerbound_curve.csv")
print("the same file from the shell: speedscale " + " ".join(argv))
