# Basics: jobs, convex energy costs, and profit accounting.
#
# A job takes one slot; processing k jobs together in a slot costs g(k).
# The marginal ("effective") cost of the k-th simultaneous job is
# g(k) - g(k-1): convexity makes batching progressively more expensive.
from speedscale import (INFINITE, Instance, Job, PowerLaw, SlotDecision,
                        TabulatedConvex, Trace, dumps_instance, evaluate_trace, loads_instance, union_with_provenance)

cost = PowerLaw(2.0)
print("g(k) = k^2 marginals:", [cost.effective_cost(k) for k in range(1, 6)])

table = TabulatedConvex((0.0, 2.0, 5.0, 9.0, 14.0))
print("tabulated marginals: ", [table.effective_cost(k) for k in range(1, 5)])

# Two jobs land at slot 1. One must run immediately (deadline 1 slot), the
# other never expires.
inst = Instance((
    Job(id=0, arrival=1, value=4.0, deadline=1),
    Job(id=1, arrival=1, value=4.0, deadline=INFINITE),
), label="demo")
print("\ninstance file form:")
print(dumps_instance(inst), end="")
assert loads_instance(dumps_instance(inst)).jobs == inst.jobs

# Profit of two hand-built schedules. Batching both jobs into slot 1 pays
# 8 - g(2) = 4; spreading them out pays (4-1) + (4-1) = 6.
batched = Trace.build([SlotDecision.build(1, list(inst.jobs), cost)])
spread = Trace.build([
    SlotDecision.build(1, [inst.jobs[0]], cost),
    SlotDecision.build(2, [inst.jobs[1]], cost),
])
print("batched profit:", evaluate_trace(inst, batched, cost))
print("spread profit: ", evaluate_trace(inst, spread, cost))

# evaluate_trace recomputes everything and rejects infeasible schedules.
late = Trace.build([SlotDecision.build(2, [inst.jobs[0]], cost)])
try:
    evaluate_trace(inst, late, cost)
except Exception as exc:
    print("late schedule rejected:", exc)

# Instances merge slot-wise; ids are reassigned with a provenance map.
other = Instance((Job(0, 1, 9.0, 2),), label="other")
merged, origin = union_with_provenance(inst, other)
print("\nmerged jobs:", [(j.id, j.arrival, j.value) for j in merged.jobs])
print("provenance: ", origin)
