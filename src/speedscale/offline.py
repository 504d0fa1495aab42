"""Exact clairvoyant scheduling: the best possible profit with known deadlines.

The problem is a min-cost-flow: source -> job arcs carry each job's value,
job -> slot arcs cover the job's availability window, and each slot feeds the
sink through parallel unit arcs priced at the marginal costs c_1 <= c_2 <= ...
(convexity makes that unit-arc decomposition exact). The solver makes one
pass over the jobs in non-increasing value order (ties: smaller id). Each job
takes its cheapest residual path when its value beats that path's cost, and
is skipped for good otherwise. This is successive shortest paths adding one
source arc at a time, as the Hungarian method adds rows (Ahuja, Magnanti &
Orlin, *Network Flows*, 1993), so the flow stays optimal for the jobs seen so
far. The reachability search below leaves out only paths that evict a placed
job; moves are free, so such a path gains v_new - v_old <= 0 and never beats
a skip. A skipped job stays skipped, because marginal costs only rise as
jobs are placed.

Every residual source-to-sink path has the shape

    source -> job i -> slot t1 -> (reassign a job out of t1) -> ... -> slot T -> sink

where all reassignment hops are free and the only paid arc is the final one,
costing the marginal c at slot T's current load. So the cheapest path for a
job is the smallest marginal over every slot reachable from its window by
chains of reassignments. Those slots form one interval (job windows make a
convex bipartite graph): every job in a covered slot may move anywhere in its
window, which overlaps the interval and so extends it.
`_FlowState.cheapest_reachable` grows the interval from the job's window,
reading each busy slot's hull of windows, and records each extension as a
ring; `_FlowState.apply` walks the rings back to move the chain.

The state is kept per busy slot, never per slot of the horizon: `loads` maps
each busy slot to its job count, and `skip` maps it to a later slot with every
slot in between busy. `first_idle(t)` follows those links to the first idle
slot at or after t and points every slot it passed straight there (path
compression, as in Tarjan's set union, JACM 1975). The links stay sound
because a slot never goes idle again: a move hands every slot on the chain one
job and takes one away. So "is [a, b] all busy" is `first_idle(a) > b`, an
interval that holds an idle slot takes its first one as the target, and an
all-busy interval has at most one slot per placed job, scanned for its first
least-loaded slot. Idle gaps between arrivals cost nothing, however long.

The flow cuts every window at last arrival + n for n jobs: at most n jobs are
ever processed, so one per slot right after the final arrival suffices and
later slots never help. Never-expiring windows end there, and a far deadline
costs no more than none.

Two entry points run that one pass on `(instance, cost)`. `offline_profit`
returns only the optimum's value; callers that need only the value, such as
competitive ratios and the verifiers, use it. `solve_offline_flow` returns the
same value, bit for bit, together with a witness schedule of the instance's jobs.

`solve_offline_bruteforce` is the independent oracle: exhaustive search over
all feasible assignments (organized as a subset DP per slot), guarded to
small inputs.
"""
from __future__ import annotations

import math

from .model import EMPTY_TRACE, CostModel, Instance, Job, ModelError, SlotDecision, Trace


class OfflineSizeError(ModelError):
    """Brute-force enumeration refused: instance too large for the guard."""


def _trace_from_assignment(slot_jobs: dict[int, list[Job]], cost: CostModel) -> Trace:
    return Trace([SlotDecision.build(slot, slot_jobs[slot], cost)
                  for slot in sorted(slot_jobs) if slot_jobs[slot]])


# ---------------------------------------------------------------------------
# Flow solver
# ---------------------------------------------------------------------------

class _FlowState:
    def __init__(self, instance: Instance, cost: CostModel):
        jobs = instance.jobs  # read into flat per-job lists, indexed by position
        cap = instance.last_arrival + len(jobs)  # the window cut, see the module docstring
        self.cost = cost
        self.ids = [j.id for j in jobs]
        self.values = [j.value for j in jobs]
        self.starts = [j.arrival for j in jobs]
        self.ends = [min(j.expiry, cap) for j in jobs]
        self.loads: dict[int, int] = {}  # busy slot -> number of its jobs
        self.skip: dict[int, int] = {}  # busy slot -> a later slot, every slot before it busy
        self.marginal: list[float] = []  # marginal[k]: cost of a (k+1)-th job in one slot
        self.slot_jobs: dict[int, list[int]] = {}  # busy slot -> positions of its jobs
        self.spans: dict[int, tuple[int, int]] = {}  # busy slot -> hull of its jobs' windows
        self.payoff = 0.0  # values of the placed jobs, summed in placement order

    # -- reachability ------------------------------------------------------

    def first_idle(self, t: int) -> int:
        """First slot >= t that holds no job; compresses the skip links it follows."""
        skip = self.skip
        path = []
        while t in skip:
            path.append(t)
            t = skip[t]
        for slot in path:
            skip[slot] = t
        return t

    def cheapest_reachable(self, seed: tuple[int, int]):
        """Min marginal cost over all slots reachable from `seed` by reassignment chains.

        Returns (marginal, target slot, rings). A ring (first, last, slot) is
        one extension of the interval: some job now in `slot` can move to any
        slot of it. The search stops once the interval holds an idle slot,
        which is then the target; over an all-busy interval the target is its
        first least-loaded slot.
        """
        loads, spans, first_idle = self.loads, self.spans, self.first_idle
        lo, hi = seed
        rings: list[tuple[int, int, int]] = []
        left, right = lo, lo - 1  # slots left..right are visited
        busy = first_idle(lo) > hi
        while busy and (lo < left or right < hi):
            if right < hi:
                right = slot = right + 1
            else:
                left = slot = left - 1
            start, end = spans[slot]
            if start < lo:
                rings.append((start, lo - 1, slot))
                busy = first_idle(start) >= lo
                lo = start
            if end > hi:
                rings.append((hi + 1, end, slot))
                busy = busy and first_idle(hi + 1) > end
                hi = end
        if busy:  # at most one slot per placed job
            target = min(range(lo, hi + 1), key=loads.__getitem__)
            load = loads[target]
        else:
            target, load = first_idle(lo), 0
        while len(self.marginal) <= load:  # tabulated only as far as loads reach
            self.marginal.append(self.cost.effective_cost(len(self.marginal) + 1))
        return self.marginal[load], target, rings

    # -- mutation ----------------------------------------------------------

    def _attach(self, pos: int, slot: int) -> None:
        start, end = self.starts[pos], self.ends[pos]
        load = self.loads.get(slot, 0)
        if load:
            lo, hi = self.spans[slot]
            start, end = min(lo, start), max(hi, end)
        else:
            self.skip.setdefault(slot, slot + 1)
        self.spans[slot] = (start, end)
        self.slot_jobs.setdefault(slot, []).append(pos)
        self.loads[slot] = load + 1

    def apply(self, pos: int, plan) -> None:
        # Each ring's slot lies in an earlier ring or in the seed window, so
        # one backward pass walks the chain from the target to the seed. A
        # slot on the chain holds no job for a moment, then gets one back.
        _, t, rings = plan
        starts, ends = self.starts, self.ends
        for first, last, slot in reversed(rings):
            if first <= t <= last:
                held = self.slot_jobs[slot]
                moved = next(q for q in held if starts[q] <= t <= ends[q])
                held.remove(moved)
                self.loads[slot] -= 1
                if held:
                    self.spans[slot] = (min(starts[q] for q in held), max(ends[q] for q in held))
                self._attach(moved, t)
                t = slot
        self._attach(pos, t)
        self.payoff += self.values[pos]

    # -- results -----------------------------------------------------------

    def profit(self) -> float:
        total = self.payoff
        for slot in sorted(self.loads):  # slot order: rounding independent of placement order
            total -= self.cost.g(self.loads[slot])
        return float(total)


def _flow_pass(instance: Instance, cost: CostModel) -> _FlowState:
    """The one pass both entry points share.

    Non-increasing value order, smaller id first on ties, one reachability
    search per job. A job is placed when its value beats the cheapest
    reachable marginal cost by more than 1e-12 and skipped for good
    otherwise; the module docstring says why that is exact.
    """
    state = _FlowState(instance, cost)
    ids, values, starts, ends = state.ids, state.values, state.starts, state.ends
    for pos in sorted(range(len(ids)), key=lambda p: (-values[p], ids[p])):
        plan = state.cheapest_reachable((starts[pos], ends[pos]))
        if values[pos] - plan[0] > 1e-12:
            state.apply(pos, plan)
    return state


def offline_profit(instance: Instance, cost: CostModel) -> float:
    """Maximum clairvoyant profit, bit-equal to solve_offline_flow's, without a witness."""
    return _flow_pass(instance, cost).profit() if instance.jobs else 0.0


def solve_offline_flow(instance: Instance, cost: CostModel) -> tuple[float, Trace]:
    """Maximum clairvoyant profit and a witness schedule built from `instance.jobs`."""
    if not instance.jobs:
        return 0.0, EMPTY_TRACE
    state, jobs = _flow_pass(instance, cost), instance.jobs
    return state.profit(), _trace_from_assignment(
        {slot: [jobs[p] for p in held] for slot, held in state.slot_jobs.items()}, cost)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

_MAX_BRUTE_JOBS = 10
_MAX_BRUTE_HORIZON = 8


def solve_offline_bruteforce(instance: Instance, cost: CostModel) -> tuple[float, Trace]:
    """Exact maximum by exhaustive search over all feasible assignments.

    Organized as a DP over (slot, processed subset) so shared sub-schedules
    are enumerated once; still explores the full assignment space. Windows
    that never expire end at last arrival + n; finite ones stay whole. Refuses
    instances beyond 10 jobs or horizon (last window end) 8.
    """
    jobs = instance.jobs
    n = len(jobs)
    if n == 0:
        return 0.0, EMPTY_TRACE
    if n > _MAX_BRUTE_JOBS:
        raise OfflineSizeError(f"brute force limited to {_MAX_BRUTE_JOBS} jobs, got {n}")
    bound = instance.last_arrival + n
    ends = [int(j.expiry) if j.expires else bound for j in jobs]
    horizon = max(ends)
    if horizon > _MAX_BRUTE_HORIZON:
        raise OfflineSizeError(
            f"brute force limited to horizon {_MAX_BRUTE_HORIZON}, got {horizon}")

    g = [cost.g(k) for k in range(n + 1)]
    value_sum = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        value_sum[mask] = value_sum[mask & (mask - 1)] + jobs[low].value

    dp: dict[int, float] = {0: 0.0}
    parents: list[dict[int, tuple[int, int]]] = []
    for slot in range(1, horizon + 1):
        avail = 0
        for idx, (j, end) in enumerate(zip(jobs, ends)):
            if j.arrival <= slot <= end:
                avail |= 1 << idx
        nxt: dict[int, float] = {}
        back: dict[int, tuple[int, int]] = {}
        for mask, profit in dp.items():
            free = avail & ~mask
            sub = free
            while True:
                gain = value_sum[sub] - g[sub.bit_count()]
                new_mask = mask | sub
                cand = profit + gain
                if cand > nxt.get(new_mask, -math.inf):
                    nxt[new_mask] = cand
                    back[new_mask] = (mask, sub)
                if sub == 0:
                    break
                sub = (sub - 1) & free
        dp = nxt
        parents.append(back)

    best_mask = max(dp, key=lambda m: (dp[m], -m))
    best = dp[best_mask]

    by_slot: dict[int, list[Job]] = {}
    mask = best_mask
    for slot in range(horizon, 0, -1):
        prev_mask, sub = parents[slot - 1][mask]
        chosen = [jobs[i] for i in range(n) if sub >> i & 1]
        if chosen:
            by_slot[slot] = chosen
        mask = prev_mask
    return float(best), _trace_from_assignment(by_slot, cost)
