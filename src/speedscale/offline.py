"""Exact clairvoyant scheduling: the best possible profit with known deadlines.

The problem is a min-cost-flow: source -> job arcs carry each job's value,
job -> slot arcs cover the job's availability window, and each slot feeds the
sink through parallel unit arcs priced at the marginal costs c_1 <= c_2 <= ...
(convexity makes that unit-arc decomposition exact). The solver augments one
job at a time along the most profitable residual path and stops when no path
earns anything.

Every residual source-to-sink path has the shape

    source -> job i -> slot t1 -> (reassign a job out of t1) -> ... -> slot T -> sink

where all reassignment hops are free and the only paid arc is the final one,
costing the marginal c at slot T's current load. So the cheapest path for a
job is "the smallest marginal over every slot reachable from its window by
chains of reassignments", which is what `_cheapest_reachable` computes.

`solve_offline_bruteforce` is the independent oracle: exhaustive search over
all feasible assignments (organized as a subset DP per slot), guarded to
small inputs.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
import numpy as np

from .model import EMPTY_TRACE, CostModel, Instance, ModelError, SlotDecision, Trace


class OfflineSizeError(ModelError):
    """Brute-force enumeration refused: instance too large for the guard."""


@dataclass(frozen=True)
class OfflineJob:
    id: int
    value: float
    start: int
    end: int

    @property
    def window(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class OfflineProblem:
    """Jobs with concrete windows, a horizon, and a cost model.

    Never-expiring jobs are truncated to last arrival + number of jobs: at
    most n jobs are ever processed, so scheduling one per slot right after the
    final arrival already suffices and later slots can never help.
    """

    jobs: tuple[OfflineJob, ...]
    horizon: int
    cost: CostModel

    @staticmethod
    def from_instance(instance: Instance, cost: CostModel) -> "OfflineProblem":
        if not instance.jobs:
            return OfflineProblem((), 0, cost)
        bound = instance.last_arrival + len(instance)
        jobs = []
        for j in instance.jobs:
            end = int(j.expiry) if j.expires else bound
            jobs.append(OfflineJob(id=j.id, value=j.value, start=j.arrival, end=end))
        horizon = max(j.end for j in jobs)
        return OfflineProblem(tuple(jobs), horizon, cost)


def _trace_from_assignment(slot_jobs: dict[int, list[OfflineJob]], cost: CostModel) -> Trace:
    return Trace.build([SlotDecision.build(slot, slot_jobs[slot], cost)
                        for slot in sorted(slot_jobs) if slot_jobs[slot]])


# ---------------------------------------------------------------------------
# Flow solver
# ---------------------------------------------------------------------------

class _FlowState:
    def __init__(self, problem: OfflineProblem):
        jobs = problem.jobs
        n = len(jobs)
        last_arrival = max(j.start for j in jobs)
        cap = last_arrival + n  # lossless truncation, see OfflineProblem docstring
        self.cost = problem.cost
        self.windows: dict[int, tuple[int, int]] = {}
        self.values: dict[int, float] = {}
        self.pool: dict[tuple[int, int], list[tuple[float, int]]] = {}
        for j in jobs:
            w = (j.start, min(j.end, cap))
            self.windows[j.id] = w
            self.values[j.id] = j.value
            self.pool.setdefault(w, []).append((j.value, -j.id))
        for stack in self.pool.values():
            stack.sort()  # pop() yields highest value, smallest id on ties
        horizon = max(w[1] for w in self.pool)
        self.loads = np.zeros(horizon + 1, dtype=np.int64)
        self.marginal = [self.cost.effective_cost(k) for k in range(1, n + 1)]
        self.assigned_slots: dict[tuple[int, int], list[int]] = {}
        self.slot_jobs: dict[int, dict[tuple[int, int], list[int]]] = {}
        self.placed: dict[int, int] = {}

    # -- reachability ------------------------------------------------------

    def cheapest_reachable(self, seed: tuple[int, int]):
        """Min marginal cost over all slots reachable from `seed` by reassignment chains.

        Returns (marginal, target slot, interval list, index of target interval).
        Intervals record which assigned job witnessed each expansion so the
        augmenting chain can be replayed.
        """
        loads = self.loads
        intervals: list[tuple[int, int, int, int, int]] = [(seed[0], seed[1], -1, -1, -1)]
        added = {seed}
        best_k = int(loads[seed[0]: seed[1] + 1].min())
        best_idx = 0
        progress = best_k > 0
        while progress and best_k > 0:
            progress = False
            for w, slots in self.assigned_slots.items():
                if w in added or not slots:
                    continue
                hit = self._hit(slots, intervals)
                if hit is None:
                    continue
                hit_slot, hit_idx = hit
                witness = self.slot_jobs[hit_slot][w][-1]
                intervals.append((w[0], w[1], hit_idx, witness, hit_slot))
                added.add(w)
                k = int(loads[w[0]: w[1] + 1].min())
                if k < best_k:
                    best_k, best_idx = k, len(intervals) - 1
                progress = True
                if best_k == 0:
                    break
        lo, hi = intervals[best_idx][0], intervals[best_idx][1]
        target = lo + int(np.argmin(loads[lo: hi + 1]))
        return self.marginal[best_k], target, intervals, best_idx

    @staticmethod
    def _hit(slots: list[int], intervals) -> tuple[int, int] | None:
        for idx, (lo, hi, _, _, _) in enumerate(intervals):
            pos = bisect_left(slots, lo)
            if pos < len(slots) and slots[pos] <= hi:
                return slots[pos], idx
        return None

    # -- mutation ----------------------------------------------------------

    def _attach(self, job_id: int, w: tuple[int, int], slot: int) -> None:
        self.slot_jobs.setdefault(slot, {}).setdefault(w, []).append(job_id)
        insort(self.assigned_slots.setdefault(w, []), slot)
        self.loads[slot] += 1
        self.placed[job_id] = slot

    def _detach(self, job_id: int, w: tuple[int, int], slot: int) -> None:
        self.slot_jobs[slot][w].remove(job_id)
        slots = self.assigned_slots[w]
        slots.pop(bisect_left(slots, slot))
        self.loads[slot] -= 1

    def apply(self, job_id: int, w: tuple[int, int], plan) -> None:
        _, target, intervals, idx = plan
        t = target
        while idx != 0:
            _, _, parent, via_job, via_slot = intervals[idx]
            via_w = self.windows[via_job]
            self._detach(via_job, via_w, via_slot)
            self._attach(via_job, via_w, t)
            t, idx = via_slot, parent
        self._attach(job_id, w, t)

    # -- results -----------------------------------------------------------

    def profit(self) -> float:
        total = sum(self.values[j] for j in self.placed)
        for k in self.loads[np.nonzero(self.loads)[0]]:
            total -= self.cost.g(int(k))
        return float(total)

    def trace(self) -> Trace:
        by_slot: dict[int, list[OfflineJob]] = {}
        for jid, slot in self.placed.items():
            by_slot.setdefault(slot, []).append(
                OfflineJob(jid, self.values[jid], *self.windows[jid]))
        return _trace_from_assignment(by_slot, self.cost)


def solve_offline_flow(problem: OfflineProblem) -> tuple[float, Trace]:
    """Maximum clairvoyant profit and a witness schedule.

    Successive most-profitable augmentations; terminates when the best
    augmentation's net profit drops to 1e-12 or below.
    """
    if not problem.jobs:
        return 0.0, EMPTY_TRACE
    state = _FlowState(problem)
    g1 = state.cost.g(1)
    while True:
        order = sorted((w for w, stack in state.pool.items() if stack),
                       key=lambda w: (-state.pool[w][-1][0], w))
        best = None  # (profit, window, value, job_id, plan)
        for w in order:
            value, neg_id = state.pool[w][-1]
            if best is not None and best[0] >= value - g1:
                break
            plan = state.cheapest_reachable(w)
            profit = value - plan[0]
            if best is None or profit > best[0]:
                best = (profit, w, value, -neg_id, plan)
        if best is None or best[0] <= 1e-12:
            break
        _, w, _, job_id, plan = best
        state.pool[w].pop()
        state.apply(job_id, w, plan)
    return state.profit(), state.trace()


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

_MAX_BRUTE_JOBS = 10
_MAX_BRUTE_HORIZON = 8


def solve_offline_bruteforce(problem: OfflineProblem) -> tuple[float, Trace]:
    """Exact maximum by exhaustive search over all feasible assignments.

    Organized as a DP over (slot, processed subset) so shared sub-schedules
    are enumerated once; still explores the full assignment space. Refuses
    instances beyond 10 jobs or horizon 8.
    """
    jobs = problem.jobs
    n = len(jobs)
    if n == 0:
        return 0.0, EMPTY_TRACE
    if n > _MAX_BRUTE_JOBS:
        raise OfflineSizeError(f"brute force limited to {_MAX_BRUTE_JOBS} jobs, got {n}")
    if problem.horizon > _MAX_BRUTE_HORIZON:
        raise OfflineSizeError(
            f"brute force limited to horizon {_MAX_BRUTE_HORIZON}, got {problem.horizon}")

    g = [problem.cost.g(k) for k in range(n + 1)]
    value_sum = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        value_sum[mask] = value_sum[mask & (mask - 1)] + jobs[low].value

    dp: dict[int, float] = {0: 0.0}
    parents: list[dict[int, tuple[int, int]]] = []
    for slot in range(1, problem.horizon + 1):
        avail = 0
        for idx, j in enumerate(jobs):
            if j.start <= slot <= j.end:
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
                if cand > nxt.get(new_mask, -np.inf):
                    nxt[new_mask] = cand
                    back[new_mask] = (mask, sub)
                if sub == 0:
                    break
                sub = (sub - 1) & free
        dp = nxt
        parents.append(back)

    best_mask = max(dp, key=lambda m: (dp[m], -m))
    best = dp[best_mask]

    by_slot: dict[int, list[OfflineJob]] = {}
    mask = best_mask
    for slot in range(problem.horizon, 0, -1):
        prev_mask, sub = parents[slot - 1][mask]
        chosen = [jobs[i] for i in range(n) if sub >> i & 1]
        if chosen:
            by_slot[slot] = chosen
        mask = prev_mask
    return float(best), _trace_from_assignment(by_slot, problem.cost)
