# The deadline-blind policies and their per-slot reasoning.
#
# A policy only ever sees (job id, value) pairs for the currently available
# jobs. It hedges against the worst deadlines consistent with that view: if it
# processes i jobs now, a clairvoyant adversary lets exactly those i jobs live
# forever (so they were worth processing one per slot, alone) and expires the
# rest (which the clairvoyant scheduler would have batched right now). The
# ratio of those two profits is the local competitive ratio LCR_i.
from speedscale import (INFINITE, POLICIES, Instance, Job, PolicyView,
                        PowerLaw, beta_root, compute_m, lcr_breakdown, run_policy)

cost = PowerLaw(2.0)
view = PolicyView(slot=1, candidates=((0, 10.0), (1, 6.0), (2, 3.0)))

m = compute_m(view, cost)
print(f"profitable prefix m = {m}  (v - marginal > 0 for the top {m} jobs)")

for i in range(1, m + 1):
    b = lcr_breakdown(view, cost, i)
    print(f"  i={i}: clairvoyant later={b.M:5.1f}  leftover now={b.c_greedy:4.1f} "
          f" online={b.P:5.1f}  LCR={b.lcr:.4f}")

print("min-lcr processes", POLICIES["min-lcr"].decide(view, cost).count,
      "jobs (argmin of the LCR column)")

# sim-lcr skips the full argmin: it probes floor/ceil of beta*m where beta
# solves x^a + x^(a-1) = 1.
print("beta(2) =", beta_root(2.0))
print("sim-lcr processes", POLICIES["sim-lcr"].decide(view, cost).count, "jobs")
print("greedy processes ", POLICIES["greedy"].decide(view, cost).count, "jobs (always m)")

# Full runs keep an audit ledger per processing slot.
inst = Instance((
    Job(0, 1, 10.0, INFINITE),
    Job(1, 1, 6.0, 2),
    Job(2, 1, 3.0, 1),
    Job(3, 3, 7.0, INFINITE),
), label="mixed")
for name in ("min-lcr", "sim-lcr", "greedy"):
    trace = run_policy(inst, name, cost)
    picks = [(entry.slot, entry.chosen) for entry in trace.ledgers]
    print(f"{name:8s} profit={trace.total_profit:6.2f}  per-slot counts={picks}")

# The same values with different hidden deadlines produce the same slot-1
# decision: the policy cannot tell the instances apart.
alt = Instance(tuple(Job(j.id, j.arrival, j.value, 1) for j in inst.jobs))
t1 = run_policy(inst, "min-lcr", cost)
t2 = run_policy(alt, "min-lcr", cost)
print("slot-1 choice equal despite different deadlines:",
      t1.decisions[0].processed == t2.decisions[0].processed)
