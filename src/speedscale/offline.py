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
far. The reachability search leaves out only paths that evict a placed
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

`offline_profit` and `solve_offline_flow` run the pass (`_flow_pass`) on an
instance, and the adaptive game on columns of its own.
`solve_offline_bruteforce` is the independent oracle: exhaustive search over
all feasible assignments, guarded to small inputs.
"""
from __future__ import annotations

import math
from collections.abc import Iterator

from .model import (EMPTY_TRACE, CostModel, Instance, Job, ModelError, SlotDecision, Trace,
                    _trace_from_checked, cost_table)


class OfflineSizeError(ModelError):
    """Brute-force enumeration refused: instance too large for the guard."""


def _trace_from_assignment(slot_jobs: dict[int, list[Job]], cost: CostModel) -> Trace:
    return _trace_from_checked([SlotDecision.build(slot, slot_jobs[slot], cost)
                                for slot in sorted(slot_jobs) if slot_jobs[slot]])


# ---------------------------------------------------------------------------
# Flow solver
# ---------------------------------------------------------------------------

class _FlowState:
    """The flow of one pass: three maps keyed by busy slot.

    `skip` holds the slot's link, `slot_jobs` its jobs (a slot's load is the
    length of its list) and `spans` the hull of their windows.

    State is kept per busy slot, never per slot of the horizon, so idle gaps
    between arrivals cost nothing, however long. `skip` links each busy slot
    to a later slot with every slot in between busy; `first_idle` follows
    the links with path compression (Tarjan's set union, JACM 1975). They
    stay sound because a slot never goes idle again: a move hands every slot
    on the chain one job and takes one away. Prices and the profit read the
    run's table of g (`model.CostTable`).
    """

    def __init__(self, values, arrivals, expiries, cost: CostModel):
        # flat per-job columns in (arrival, id) order, indexed by position.
        # Windows are cut at last arrival + n: at most n jobs are processed,
        # so later slots never help, and a far deadline costs no more than none.
        cap = arrivals[-1] + len(values)
        self.table = table = cost_table(cost)
        self.values, self.starts = values, arrivals
        self.ends = [e if e < cap else cap for e in expiries]
        self.skip: dict[int, int] = {}  # busy slot -> a later slot, every slot before it busy
        self.g = table.values  # the run's g(0), g(1), ...: grown only as far as reads reach
        self.idle_price = table.g(1) - self.g[0]  # the marginal cost of a job in an idle slot
        self.slot_jobs: dict[int, list[int]] = {}  # busy slot -> positions of its jobs
        self.spans: dict[int, tuple[int, int]] = {}  # busy slot -> hull of its jobs' windows
        self.payoff = 0.0  # values of the placed jobs, summed in placement order

    # -- reachability ------------------------------------------------------

    def first_idle(self, t: int) -> int:
        """First slot >= t that holds no job; compresses the skip links it follows."""
        skip = self.skip
        idle = t
        while idle in skip:
            idle = skip[idle]
        while t != idle:  # the same path again, each link pointed at idle
            skip[t], t = idle, skip[t]
        return idle

    def cheapest_reachable(self, lo: int, hi: int, idle: int):
        """Where the cheapest slot reachable from the all-busy window [lo, hi] lies.

        `idle` is first_idle(lo), which lies past hi. Returns (idle slot,
        reach), where reach is (lo, hi, rings) for the reached interval
        [lo, hi]. A ring (first, last, slot) is one extension of the interval:
        some job now in `slot` can move to any slot of it. The search stops
        once the interval holds an idle slot, the cheapest target, and returns
        it; it returns 0 for an all-busy interval, whose first least-loaded
        slot `place` then takes.
        """
        spans, first_idle = self.spans, self.first_idle
        rings: list[tuple[int, int, int]] = []
        left, right = lo, lo - 1  # slots left..right are visited
        busy = True  # while so, idle is first_idle(lo) and lies past hi
        while busy and (lo < left or right < hi):
            if right < hi:
                right = slot = right + 1
            else:
                left = slot = left - 1
            start, end = spans[slot]
            if start < lo:
                rings.append((start, lo - 1, slot))
                idle = first_idle(start)
                busy = idle >= lo
                lo = start
            if end > hi:
                rings.append((hi + 1, end, slot))
                if busy:
                    busy = idle > end
                hi = end
        return 0 if busy else idle, (lo, hi, rings)

    # -- mutation ----------------------------------------------------------

    def place(self, pos: int, rest: Iterator[int]) -> int | None:
        """Places the run that starts with job `pos`; returns the next run's first job.

        A run is a maximal group of consecutive jobs in pass order that share
        one cut window: `pos` and the jobs that `rest`, the rest of the pass
        order, yields while their window stays the same. Each job is placed on
        its cheapest residual path when value - price > 0.0, `Policy.decide`'s
        exact test (see `model`); the first job that fails it is skipped with
        the rest of the run: a skip changes no state, and pass order never
        raises the value. Returns None at the end of the pass.

        Each job reuses what the run's earlier jobs left standing, exactly. A
        window with an idle slot t is filled there with no search; every slot
        from the window's start to t is then busy, so the next job looks from
        t + 1. An all-busy window is searched (`cheapest_reachable`). When the
        search reached the closed interval R and the job lands on a slot of
        its own window, only that slot's load changed, and its hull grew
        within R: a next search from the window would reach the same R with
        the same rings. So the run's next jobs take R's first least-loaded
        slot in turn and redo only the price test. A one-slot R is the window
        itself, so there only the price test and the append are looped, with
        the load and the payoff sum in locals. A target outside the window
        moves a chain along the rings, and the next job starts afresh. A run
        of jobs with one window thus costs one search until a chain move: the
        adaptive game's 2z equal-value jobs make two runs.
        """
        values, starts, ends = self.values, self.starts, self.ends
        skip, spans, slot_jobs = self.skip, self.spans, self.slot_jobs
        idle_price = self.idle_price
        start, end = starts[pos], ends[pos]
        window = (start, end)  # the hull of every idle slot the run fills
        idle = start  # every slot of the window before it is busy
        while True:  # places job `pos`, or skips it and the rest of the run
            value = values[pos]
            if idle in skip:  # busy: follow the links; most windows start idle, with no call
                idle = self.first_idle(idle)
            if idle <= end:
                if not value - idle_price > 0.0:
                    break
                # a fresh slot: no span, job list or skip link yet
                skip[idle] = idle + 1
                spans[idle] = window
                slot_jobs[idle] = [pos]
                idle += 1
            else:
                target, (lo, hi, rings) = self.cheapest_reachable(start, end, idle)
                if target:
                    price = idle_price
                elif lo == hi:  # the window itself: only the price test is redone
                    g, held = self.g, slot_jobs[lo]
                    load, payoff = len(held), self.payoff
                    while True:
                        if len(g) <= load + 1:  # the table grows only as far as loads reach
                            self.table.g(load + 1)
                        if not value - (g[load + 1] - g[load]) > 0.0:
                            break
                        held.append(pos)
                        load += 1
                        payoff += value
                        pos = next(rest, None)
                        if pos is None or starts[pos] != start or ends[pos] != end:
                            self.payoff = payoff
                            return pos
                        value = values[pos]
                    self.payoff = payoff
                    break
                else:  # an all-busy reach: its first least-loaded slot, at most one per placed job
                    g = self.g
                    while True:
                        loads = [*map(len, map(slot_jobs.__getitem__, range(lo, hi + 1)))]
                        load = min(loads)
                        target = lo + loads.index(load)
                        if len(g) <= load + 1:
                            self.table.g(load + 1)
                        price = g[load + 1] - g[load]
                        if not (value - price > 0.0 and start <= target <= end):
                            break
                        # a target in the window moves no chain: the busy slot
                        # gains the job, and its hull grows to cover the window
                        first, last = spans[target]
                        if start < first or last < end:
                            spans[target] = (min(first, start), max(last, end))
                        slot_jobs[target].append(pos)
                        self.payoff += value
                        pos = next(rest, None)
                        if pos is None or starts[pos] != start or ends[pos] != end:
                            return pos
                        value = values[pos]
                if not value - price > 0.0:
                    break
                self.apply(pos, target, rings)
                idle = start
            self.payoff += value
            pos = next(rest, None)
            if pos is None or starts[pos] != start or ends[pos] != end:
                return pos
        for pos in rest:  # a skip: the run's later jobs are worth no more
            if starts[pos] != start or ends[pos] != end:
                return pos
        return None

    def _attach(self, pos: int, slot: int) -> None:
        start, end = self.starts[pos], self.ends[pos]
        held = self.slot_jobs.get(slot)
        if held is None:  # busy for the first time
            self.skip[slot] = slot + 1
            self.slot_jobs[slot] = held = []
        elif held:  # widen the hull; an empty list is a chain slot refilled
            lo, hi = self.spans[slot]
            start, end = lo if lo < start else start, hi if hi > end else end
        self.spans[slot] = (start, end)
        held.append(pos)

    def apply(self, pos: int, t: int, rings) -> None:
        """Moves the chain from target `t` back to the seed window and attaches `pos` there."""
        # Each ring's slot lies in an earlier ring or in the seed window, so
        # one backward pass walks the chain from the target to the seed. A
        # slot on the chain holds no job for a moment, then gets one back.
        starts, ends = self.starts, self.ends
        for first, last, slot in reversed(rings):
            if first <= t <= last:
                held = self.slot_jobs[slot]
                for moved in held:  # the ring holds one whose window holds t
                    if starts[moved] <= t <= ends[moved]:
                        break
                held.remove(moved)
                if held:
                    self.spans[slot] = (min([starts[q] for q in held]), max([ends[q] for q in held]))
                self._attach(moved, t)
                t = slot
        self._attach(pos, t)

    # -- results -----------------------------------------------------------

    def profit(self) -> float:
        total, g, slot_jobs = self.payoff, self.g, self.slot_jobs
        for slot in sorted(slot_jobs):  # slot order: rounding independent of placement order
            total -= g[len(slot_jobs[slot])]
        return float(total)


def _columns(instance: Instance) -> tuple[list, list, list, list]:
    """An instance's pass order, and its values, arrivals and expiries in (arrival, id) order.

    The pass order ranks positions by non-increasing value, smaller id first
    on ties.
    """
    jobs = instance.jobs
    ids, values = [j.id for j in jobs], [j.value for j in jobs]
    # two stable sorts: by id, then by value with reverse=True, which keeps
    # equal values in id order (values are finite, 0.0 and -0.0 tie)
    order = sorted(range(len(values)), key=ids.__getitem__)
    order.sort(key=values.__getitem__, reverse=True)
    return order, values, [j.arrival for j in jobs], [j.expiry for j in jobs]


def _flow_pass(order, values, arrivals, expiries, cost: CostModel) -> _FlowState:
    """The one pass every caller shares, over non-empty columns in (arrival, id) order.

    `order` is the pass order, every position once: non-increasing value,
    smaller id first on ties, from `_columns` or, in the game,
    `adversary.InstanceTemplate.slot1_view`. One `place` per run of
    consecutive jobs with one cut window.
    """
    state = _FlowState(values, arrivals, expiries, cost)
    place, rest = state.place, iter(order)
    pos = next(rest, None)
    while pos is not None:
        pos = place(pos, rest)
    return state


def offline_profit(instance: Instance, cost: CostModel) -> float:
    """Maximum clairvoyant profit, bit-equal to solve_offline_flow's, without a witness."""
    return _flow_pass(*_columns(instance), cost).profit() if instance.jobs else 0.0


def solve_offline_flow(instance: Instance, cost: CostModel) -> tuple[float, Trace]:
    """Maximum clairvoyant profit and a witness schedule built from `instance.jobs`."""
    if not instance.jobs:
        return 0.0, EMPTY_TRACE
    state, jobs = _flow_pass(*_columns(instance), cost), instance.jobs
    return state.profit(), _trace_from_assignment(
        {slot: [jobs[p] for p in held] for slot, held in state.slot_jobs.items()}, state.table)


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
