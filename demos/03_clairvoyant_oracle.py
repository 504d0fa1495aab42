# The exact clairvoyant benchmark: best possible profit with known deadlines.
#
# Formulated as a min-cost flow (jobs -> window slots -> unit arcs priced at
# the marginal costs) and solved by successive most-profitable augmenting
# paths. `solve_offline_flow` also returns a witness schedule; `offline_profit`
# runs the same pass and returns only the value. A brute-force search over all
# feasible assignments double-checks it on small instances.
import numpy as np

from speedscale import (INFINITE, Instance, Job, PowerLaw, offline_profit,
                        solve_offline_bruteforce, solve_offline_flow, union)
from speedscale.analysis import random_instance

cost = PowerLaw(2.0)

inst = Instance((
    Job(0, 1, 4.0, INFINITE),
    Job(1, 1, 4.0, INFINITE),
), label="two-patient-jobs")
profit, witness = solve_offline_flow(inst, cost)
print("two never-expiring jobs: profit", profit)
for d in witness.decisions:
    print(f"  slot {d.slot}: jobs {sorted(d.processed)} profit {d.profit}")

rushed = Instance((Job(0, 1, 4.0, 1), Job(1, 1, 4.0, 1)))
profit = offline_profit(rushed, cost)
print("same values, both expiring now: profit", profit,
      "(batching 8 - 4 beats one alone 4 - 1)")

# Agreement with the exhaustive oracle on random small instances.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(300):
    n = int(rng.integers(1, 7))
    jobs = tuple(Job(i, int(rng.integers(1, 3)), float(rng.uniform(0, 20)),
                     int(rng.integers(1, 5))) for i in range(n))
    inst = Instance(jobs)
    f = offline_profit(inst, cost)
    b, _ = solve_offline_bruteforce(inst, cost)
    worst = max(worst, abs(f - b))
print("300 random instances: worst |flow - brute| =", worst)

# Clairvoyant profit is sub-additive over instance unions.
rng = np.random.default_rng(1)
a = random_instance(rng, cost, n_max=8, label="a")
b = random_instance(rng, cost, n_max=8, label="b")
off = lambda x: offline_profit(x, cost)
print(f"off(a)={off(a):.2f} off(b)={off(b):.2f} "
      f"off(a|b)={off(union(a, b)):.2f} <= sum")
