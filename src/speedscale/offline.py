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
least-loaded slot. A job whose own window holds an idle slot is placed there
with no search (`_FlowState.place`); only an all-busy window is searched, from
the idle slot already found. Idle gaps between arrivals cost nothing, however
long.

Jobs with one window often come in runs in pass order: the adaptive game's
2z equal-value jobs make two runs. `_flow_pass` hands `place` each maximal run
of consecutive jobs that share one cut window, and each job of the run reuses
what the run's earlier jobs left standing; the reuse is exact. A skip ends the
run with no work per job: it changes no state, and pass order never raises
the value. After a job takes the idle slot t, every slot from the window's
start to t is busy, so the next job looks from t + 1. After an all-busy
search that reached the closed interval R and placed the job on a slot of its
own window, only that slot's load changed, and its hull of windows grew
within R. So a next search from the same window would visit the same slots,
read the same hulls and reach the same R with the same rings; the run's next
jobs take R's first least-loaded slot in turn, and only the price test is
redone (for a one-slot R, a price test and an append). A target outside the
window moves a chain along the rings and ends the reuse: the next job starts
afresh. So a run of jobs with one window costs one search until a chain move.

The flow cuts every window at last arrival + n for n jobs: at most n jobs are
ever processed, so one per slot right after the final arrival suffices and
later slots never help. Never-expiring windows end there, and a far deadline
costs no more than none.

The pass (`_flow_pass`) reads flat per-job columns in (arrival, id) order:
ids, values, arrivals and expiries. Two entry points run it on an instance's
columns. `offline_profit` returns only the optimum's value, for callers that
need only that, such as competitive ratios and the verifiers.
`solve_offline_flow` returns the same value, bit for bit, together with a
witness schedule of the instance's jobs. The adaptive game builds its columns
with no jobs.

`solve_offline_bruteforce` is the independent oracle: exhaustive search over
all feasible assignments (organized as a subset DP per slot), guarded to
small inputs.
"""
from __future__ import annotations

import math
from collections.abc import Iterator

from .model import EMPTY_TRACE, CostModel, Instance, Job, ModelError, SlotDecision, Trace


PLACE_TOL = 1e-12
"""The flow places a job only when its value beats its path's marginal cost by
more than this absolute margin."""


class OfflineSizeError(ModelError):
    """Brute-force enumeration refused: instance too large for the guard."""


def _trace_from_assignment(slot_jobs: dict[int, list[Job]], cost: CostModel) -> Trace:
    return Trace([SlotDecision.build(slot, slot_jobs[slot], cost)
                  for slot in sorted(slot_jobs) if slot_jobs[slot]])


# ---------------------------------------------------------------------------
# Flow solver
# ---------------------------------------------------------------------------

class _FlowState:
    def __init__(self, values, arrivals, expiries, cost: CostModel):
        # flat per-job columns in (arrival, id) order, indexed by position
        cap = arrivals[-1] + len(values)  # the window cut, see the module docstring
        self.cost = cost
        self.values, self.starts = values, arrivals
        self.ends = [e if e < cap else cap for e in expiries]
        self.loads: dict[int, int] = {}  # busy slot -> number of its jobs
        self.skip: dict[int, int] = {}  # busy slot -> a later slot, every slot before it busy
        self.g = [cost.g(0), cost.g(1)]  # g(0), g(1), ...: grown only as far as loads reach
        self.idle_price = self.g[1] - self.g[0]  # the marginal cost of a job in an idle slot
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
        its cheapest residual path when its value beats that path's marginal
        cost by more than PLACE_TOL; the first job that does not is skipped
        with the rest of the run. The first job takes the window's first idle
        slot with no search, or searches the all-busy window. After an idle
        slot t the next job looks from t + 1. After an all-busy reach whose
        first least-loaded slot lies in the window, the next jobs take that
        reach's first least-loaded slot in turn, with no search. A target
        outside the window moves a chain, and the next job starts afresh. The
        module docstring says why each reuse is exact. Returns None at the
        end of the pass.
        """
        values, starts, ends = self.values, self.starts, self.ends
        loads, skip = self.loads, self.skip
        start, end = starts[pos], ends[pos]
        idle = start  # every slot of the window before it is busy
        while True:  # places job `pos`, or skips it and the rest of the run
            value = values[pos]
            if idle in skip:  # busy: follow the links; most windows start idle, with no call
                idle = self.first_idle(idle)
            if idle <= end:
                if not value - self.idle_price > PLACE_TOL:
                    break
                # a fresh slot: no load, span, job list or skip link yet
                loads[idle] = 1
                skip[idle] = idle + 1
                self.spans[idle] = (start, end)
                self.slot_jobs[idle] = [pos]
                idle += 1
            else:
                target, (lo, hi, rings) = self.cheapest_reachable(start, end, idle)
                if target:
                    price = self.idle_price
                else:  # an all-busy reach: its first least-loaded slot, at most one per placed job
                    g, spans, slot_jobs = self.g, self.spans, self.slot_jobs
                    while True:
                        target = lo if lo == hi else min(range(lo, hi + 1), key=loads.__getitem__)
                        load = loads[target]
                        while len(g) <= load + 1:  # tabulated only as far as loads reach
                            g.append(self.cost.g(len(g)))
                        price = g[load + 1] - g[load]
                        if not (value - price > PLACE_TOL and start <= target <= end):
                            break
                        # a target in the window moves no chain: the busy slot
                        # gains the job, and its hull grows to cover the window
                        first, last = spans[target]
                        if start < first or last < end:
                            spans[target] = (min(first, start), max(last, end))
                        slot_jobs[target].append(pos)
                        loads[target] = load + 1
                        self.payoff += value
                        pos = next(rest, None)
                        if pos is None or starts[pos] != start or ends[pos] != end:
                            return pos
                        value = values[pos]
                if not value - price > PLACE_TOL:
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
        load = self.loads.get(slot, 0)
        if load:
            lo, hi = self.spans[slot]
            start, end = min(lo, start), max(hi, end)
        else:
            self.skip.setdefault(slot, slot + 1)
        self.spans[slot] = (start, end)
        self.slot_jobs.setdefault(slot, []).append(pos)
        self.loads[slot] = load + 1

    def apply(self, pos: int, t: int, rings) -> None:
        """Moves the chain from target `t` back to the seed window and attaches `pos` there."""
        # Each ring's slot lies in an earlier ring or in the seed window, so
        # one backward pass walks the chain from the target to the seed. A
        # slot on the chain holds no job for a moment, then gets one back.
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

    # -- results -----------------------------------------------------------

    def profit(self) -> float:
        total, g, loads = self.payoff, self.g, self.loads
        for slot in sorted(loads):  # slot order: rounding independent of placement order
            total -= g[loads[slot]]
        return float(total)


def _columns(instance: Instance) -> tuple[list, list, list, list]:
    """An instance's ids, values, arrivals and expiries, in its (arrival, id) order."""
    jobs = instance.jobs
    return ([j.id for j in jobs], [j.value for j in jobs],
            [j.arrival for j in jobs], [j.expiry for j in jobs])


def _flow_pass(ids, values, arrivals, expiries, cost: CostModel) -> _FlowState:
    """The one pass every caller shares, over non-empty columns in (arrival, id) order.

    Non-increasing value order, smaller id first on ties, one `place` per run
    of consecutive jobs with one cut window: a job is placed when its value
    beats the cheapest reachable marginal cost by more than PLACE_TOL and
    skipped for good otherwise; the module docstring says why that is exact.
    """
    state = _FlowState(values, arrivals, expiries, cost)
    order = [(-value, job_id) for value, job_id in zip(values, ids)]
    place, rest = state.place, iter(sorted(range(len(order)), key=order.__getitem__))
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
