# The numeric lower-bound curve as a function of the cost exponent.
#
# Generalizing the batch construction: 2z jobs of value c_z + x arrive at
# once, where x may not exceed the convexity gap c_{z+1} - c_z (so at most z
# jobs are ever worth batching). Maximizing over (z, x) and minimizing over
# the policy's count k gives a lower bound on every deadline-blind policy's
# competitive ratio. Anchors: phi + 1 at exponent 2, at least sqrt(2) + 1
# beyond it.
import csv

from speedscale import (PHI_PLUS_1, SQRT2_PLUS_1, eval_lower_bound,
                        lower_bound_ratio)

# One hand-checked point: z=10, x=2, k=6 at exponent 2.
print("sample ratio(z=10, x=2, k=6) =", lower_bound_ratio(2.0, 10, 2.0, 6))

print(f"\n{'alpha':>6} {'best':>10}   anchors: phi+1={PHI_PLUS_1:.5f}, "
      f"sqrt2+1={SQRT2_PLUS_1:.5f}")
rows = []
for alpha in (2.0, 2.2, 2.5, 3.0, 3.5, 4.0):
    # the curve is a structured array with columns z, x, k_star and value
    curve, best = eval_lower_bound(alpha, z_max=200, x_grid=64)
    print(f"{alpha:6.1f} {best:10.6f}")
    columns = [curve[name].tolist() for name in ("z", "x", "k_star", "value")]
    rows.extend([alpha, *point] for point in zip(*columns))

with open("lowerbound_curve.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["alpha", "z", "x", "k_star", "value"])
    writer.writerows(rows)
print(f"\nwrote {len(rows)} grid points to lowerbound_curve.csv")
print("equivalently: speedscale lowerbound --alpha 2,2.5,3 --out curve.csv")
