"""Deadline-blind online policies and the per-slot local competitive ratio (LCR).

A policy sees only the values of the currently available jobs, never their
deadlines. At each slot it ranks the candidates by value and picks how many of
the top jobs to process. The LCR of a candidate count i is the ratio between
the best profit a clairvoyant scheduler could still extract under the worst
deadline assignment consistent with the view (chosen jobs never expire, the
rest expire now, no future arrivals) and the profit of processing i jobs now.

Shipped policies:

* ``min-lcr``  - evaluates every profitable prefix count and picks the
  argmin-LCR count;
* ``sim-lcr``  - only evaluates floor/ceil of beta*m, where beta solves
  x**a + x**(a-1) = 1 for the power-law exponent a;
* ``greedy``   - always processes all m profitable jobs;
* ``fixed:K``  - greedy capped at K jobs a slot, a probe for the adaptive game
  (``FixedCountPolicy(K)``; not in ``POLICIES``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Sequence

from .model import (CostModel, Instance, Job, ModelError, PowerLaw,
                    SlotDecision, Trace, _value_order_key)


class UnsupportedCostError(ModelError):
    """The policy requires a cost model it was not given (e.g. power-law)."""


@dataclass(frozen=True)
class PolicyView:
    """What a deadline-blind policy is allowed to see at one slot.

    ``candidates`` holds (job id, value) pairs sorted by non-increasing value;
    no deadline information is reachable from this type.
    """

    slot: int
    candidates: tuple[tuple[int, float], ...]

    def __post_init__(self):
        values = [v for _, v in self.candidates]
        if any(a < b for a, b in zip(values, values[1:])):
            raise ModelError("view candidates must be sorted by non-increasing value")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple([v for _, v in self.candidates])  # from a list: see run_policy

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class LcrBreakdown:
    """The LCR of processing the top ``i`` jobs, with its three ingredients.

    M is the clairvoyant profit from the i chosen jobs processed alone in
    later slots, c_greedy the best single-slot profit from the leftover jobs,
    and P the online profit of processing the i jobs now.
    """

    i: int
    M: float
    P: float
    c_greedy: float
    lcr: float

    def to_obj(self) -> dict:
        return {"i": self.i, "M": self.M, "P": self.P,
                "c_greedy": self.c_greedy, "lcr": self.lcr}


@dataclass(frozen=True)
class SlotLedger:
    """Audit record of one slot: the candidate breakdowns a policy examined."""

    slot: int
    chosen: int
    breakdowns: tuple[LcrBreakdown, ...]

    def chosen_breakdown(self) -> LcrBreakdown:
        for b in self.breakdowns:
            if b.i == self.chosen:
                return b
        raise ModelError(f"slot {self.slot}: no breakdown for chosen count {self.chosen}")

    def to_obj(self) -> dict:
        return {"slot": self.slot, "chosen": self.chosen,
                "breakdowns": [b.to_obj() for b in self.breakdowns]}


@dataclass(frozen=True)
class Decision:
    """A policy's output for one slot: how many top jobs to process."""

    count: int
    breakdowns: tuple[LcrBreakdown, ...] = ()


def compute_m(view: PolicyView, cost: CostModel) -> int:
    """Largest j such that the j-th best value strictly beats its marginal cost.

    Returns 0 when nothing is profitable. Values are non-increasing while
    marginal costs are non-decreasing, so the profitable counts form a prefix.
    """
    m = 0
    for j, (_, v) in enumerate(view.candidates, start=1):
        if v - cost.effective_cost(j) > 0.0:
            m = j
        else:
            break
    return m


def inner_greedy_profit(leftover_values: Sequence[float], cost: CostModel) -> float:
    """Best single-slot profit from a leftover pool: max_j (top-j sum - g(j)).

    Prefix sums are taken within the leftover set itself; j = 0 contributes 0,
    so the result is never negative. The profit is concave in j, so the scan
    stops at the first j whose value does not beat its marginal g(j) - g(j-1),
    as `_prefix_ledger` does, and never evaluates a g(j) past it.
    """
    values = list(leftover_values)
    if any(a < b for a, b in zip(values, values[1:])):
        raise ModelError("leftover values must be sorted non-increasing")
    best = 0.0
    running = 0.0
    g_prev = cost.g(0)
    for j, v in enumerate(values, start=1):
        g_j = cost.g(j)
        if not v - (g_j - g_prev) > 0.0:
            break
        running += v
        best = max(best, running - g_j)
        g_prev = g_j
    return best


def lcr_breakdown(view: PolicyView, cost: CostModel, i: int) -> LcrBreakdown:
    """LCR ingredients for processing the top ``i`` jobs of the view."""
    m = compute_m(view, cost)
    if not 1 <= i <= m:
        raise ModelError(f"i must be in 1..m={m}, got {i}")
    return _breakdown(view.values, cost, i)


def _breakdown(values: Sequence[float], cost: CostModel, i: int) -> LcrBreakdown:
    """lcr_breakdown for a policy that has already checked 1 <= i <= compute_m."""
    top = sum(values[:i])
    M = top - i * cost.g(1)
    P = top - cost.g(i)
    cg = inner_greedy_profit(values[i:], cost)
    return LcrBreakdown(i=i, M=M, P=P, c_greedy=cg, lcr=(M + cg) / P)


def _prefix_ledger(values: Sequence[float], cost: CostModel, m: int) -> list[LcrBreakdown]:
    """The breakdowns for i = 1..m in one pass over prefix sums.

    c_greedy(i) = max_j prefix[i+j] - prefix[i] - g(j) is concave in j, so it
    peaks at the last leftover count j with v[i+j] > c_j (1-based). That j
    never grows with i, so one pointer walked downwards serves every i. g is
    tabulated only as far as the counts i <= m and that scan reach, so a
    g(k) the ledger never uses is never evaluated (it may overflow, or lie
    past a cost table).
    """
    n = len(values)
    g = [cost.g(k) for k in range(m + 1)]
    prefix = [0.0]
    for v in values:
        prefix.append(prefix[-1] + v)
    j = 0
    while j < n - 1:
        if len(g) == j + 1:
            g.append(cost.g(j + 1))
        if not values[1 + j] - (g[j + 1] - g[j]) > 0.0:
            break
        j += 1
    ledger = []
    for i in range(1, m + 1):
        j = min(j, n - i)
        while j > 0 and not values[i + j - 1] - (g[j] - g[j - 1]) > 0.0:
            j -= 1
        top = prefix[i]
        M = top - i * g[1]
        P = top - g[i]
        cg = max(prefix[i + j] - top - g[j], 0.0)
        ledger.append(LcrBreakdown(i=i, M=M, P=P, c_greedy=cg, lcr=(M + cg) / P))
    return ledger


@lru_cache(maxsize=None)
def beta_root(alpha: float) -> float:
    """Unique root in (0, 1) of x**alpha + x**(alpha-1) - 1 = 0.

    The map is strictly increasing on (0, 1) for alpha > 1, from -1 at 0+ to
    +1 at 1, so plain bisection converges; tolerance 1e-12.
    """
    if not alpha >= 1.0 + 1e-9:
        raise ModelError(f"beta root needs alpha > 1, got {alpha}")

    def f(x: float) -> float:
        return x ** alpha + x ** (alpha - 1.0) - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def _sim_lcr_candidates(m: int, alpha: float) -> tuple[int, ...]:
    beta = beta_root(alpha)
    lo = max(1, math.floor(beta * m))
    hi = min(m, math.ceil(beta * m))
    return (lo,) if lo == hi else (lo, hi)


class Policy:
    """Deterministic per-slot decision rule over deadline-blind views."""

    name: str = "policy"

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class MinLcrPolicy(Policy):
    """Argmin-LCR count over i = 1..m, with the full ledger of breakdowns.

    The ledger comes from one O(n) pass over prefix sums (_prefix_ledger);
    lcr_breakdown stays the single-candidate definition it is tested against.
    Processes nothing when no count is profitable. Ties pick the smallest count.
    """

    name = "min-lcr"

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        m = compute_m(view, cost)
        if m == 0:
            return Decision(0)
        ledger = _prefix_ledger(view.values, cost, m)
        return Decision(min(ledger, key=lambda b: (b.lcr, b.i)).i, tuple(ledger))


class SimLcrPolicy(Policy):
    name = "sim-lcr"

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        if not isinstance(cost, PowerLaw):
            raise UnsupportedCostError("sim-lcr requires a power-law cost model")
        if cost.alpha < 2.0:
            raise UnsupportedCostError(f"sim-lcr requires alpha >= 2, got {cost.alpha}")
        m = compute_m(view, cost)
        if m == 0:
            return Decision(0)
        values = view.values
        breakdowns = tuple(_breakdown(values, cost, i) for i in _sim_lcr_candidates(m, cost.alpha))
        return Decision(min(breakdowns, key=lambda b: (b.lcr, b.i)).i, breakdowns)


class GreedyPolicy(Policy):
    """Processes min(k, m) jobs each slot; greedy has no cap, so it takes all m."""

    name = "greedy"
    k: float = math.inf

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        m = compute_m(view, cost)
        if m == 0:
            return Decision(0)
        count = min(self.k, m)
        return Decision(count, (_breakdown(view.values, cost, count),))


class FixedCountPolicy(GreedyPolicy):
    """Greedy capped at k jobs a slot (`fixed:K`); used to explore game branches."""

    def __init__(self, k: int):
        if k < 1:
            raise ModelError(f"fixed count must be >= 1, got {k}")
        self.k = k
        self.name = f"fixed:{k}"


POLICIES: dict[str, Policy] = {
    p.name: p for p in (MinLcrPolicy(), SimLcrPolicy(), GreedyPolicy())
}


def get_policy(policy) -> Policy:
    """Resolve a policy name ("min-lcr" | "sim-lcr" | "greedy") or pass through a Policy."""
    if isinstance(policy, Policy):
        return policy
    if policy in POLICIES:
        return POLICIES[policy]
    valid = ", ".join(sorted(POLICIES))
    raise ModelError(f"unknown policy {policy!r}; valid names: {valid}")


def checked_decision(policy: Policy, view: PolicyView, cost: CostModel) -> Decision:
    """The policy's decision at a view, refused unless its count lies in 0..len(view)."""
    decision = policy.decide(view, cost)
    if not 0 <= decision.count <= len(view):
        raise ModelError(f"slot {view.slot}: policy {policy.name!r} chose {decision.count} jobs, "
                         f"only {len(view)} available")
    return decision


def run_policy(instance: Instance, policy, cost: CostModel) -> Trace:
    """Simulate a policy over an instance, visiting only slots where something can happen.

    Only this harness sees deadlines; the policy receives a PolicyView of the
    live jobs, kept in value order (model._value_order_key). Arrivals are
    merged in once per visited slot. Processed jobs leave from the front,
    since a policy always takes a top prefix. Expired jobs leave lazily: a
    min-heap of window ends tells when one has closed, and the live list is
    then filtered, at the cost of building one view.

    Slots where nothing is processed add no decision and no ledger entry.
    After such a slot the loop jumps to the next arrival, or ends once every
    job has arrived. That rests on the invariant the slot-by-slot loop already
    stopped on: until a job arrives the live set only shrinks, and a policy
    that processes nothing keeps doing so on a shrinking set (every shipped
    policy processes nothing exactly when no job beats g(1)).
    """
    policy = get_policy(policy)
    jobs = instance.jobs
    n = len(jobs)
    hard_stop = instance.last_arrival + n + 1
    live: list[tuple[tuple, float, Job]] = []  # (_value_order_key(job), expiry, job)
    expiries: list[float] = []  # min-heap of the windows' last slots
    decisions: list[SlotDecision] = []
    ledgers: list[SlotLedger] = []
    arrived = 0
    slot = 1
    while slot <= hard_stop:
        first = arrived
        while arrived < n and jobs[arrived].arrival <= slot:
            job = jobs[arrived]
            live.append((_value_order_key(job), job.expiry, job))
            if job.expires:
                heappush(expiries, job.expiry)
            arrived += 1
        if arrived > first:
            live.sort()
        if expiries and expiries[0] < slot:
            while expiries and expiries[0] < slot:
                heappop(expiries)
            live = [entry for entry in live if entry[1] >= slot]
        # A tuple built from a generator is resized to its length, yet freed
        # onto that length's free list, which only a full gc pass empties;
        # built from a list it is taken from that free list in the first place.
        view = PolicyView(slot, tuple([(j.id, j.value) for _, _, j in live]))
        decision = checked_decision(policy, view, cost)
        count = decision.count
        if count > 0:
            decisions.append(SlotDecision.build(slot, [j for _, _, j in live[:count]], cost))
            del live[:count]
        if decision.breakdowns:
            ledgers.append(SlotLedger(slot, count, decision.breakdowns))
        if count != 0:
            slot += 1
        elif arrived < n:
            slot = jobs[arrived].arrival
        else:
            break
    return Trace(decisions, ledgers)
