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

The policies differ only in which counts they score (``Policy.counts``);
``Policy.decide`` is written once. It scans the view once (``_scan``), and
the g values and prefix sums it finds while computing m feed one pass over
prefix sums (``_ledger``) that builds the breakdowns of every scored count.
``lcr_breakdown`` reads the same pass for one count, so a breakdown has the
same bits whichever policy scores it.

``Decision``, ``LcrBreakdown`` and ``SlotLedger`` are immutable named tuples:
the simulator makes several per visited slot. The simulator ``run_policy``
and the adaptive game share one slot step, ``_play_slot``, which checks the
policy's count and appends the slot's records.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import NamedTuple, Sequence

from .model import (INFINITE, CostModel, Instance, ModelError, PowerLaw, SlotDecision,
                    Trace, _is_int, _ltr_sum, _value_order_key)


class UnsupportedCostError(ModelError):
    """The policy requires a cost model it was not given (e.g. power-law)."""


@dataclass(frozen=True, slots=True, init=False)
class PolicyView:
    """What a deadline-blind policy is allowed to see at one slot.

    ``candidates`` holds (job id, value) pairs sorted by non-increasing value;
    no deadline information is reachable from this type.
    """

    slot: int
    candidates: tuple[tuple[int, float], ...]
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, slot: int, candidates: tuple[tuple[int, float], ...]):
        values = tuple([v for _, v in candidates])
        if not all(map(operator.ge, values, values[1:])):
            raise ModelError("view candidates must be sorted by non-increasing value")
        _set_slot(self, slot)
        _set_candidates(self, candidates)
        _set_values(self, values)

    def __len__(self) -> int:
        return len(self.candidates)


# PolicyView.__init__ fills the slots through their descriptors, as Job's does
_set_slot, _set_candidates, _set_values = (
    PolicyView.__dict__[name].__set__ for name in ("slot", "candidates", "values"))


class LcrBreakdown(NamedTuple):
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


class SlotLedger(NamedTuple):
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
                "breakdowns": [b._asdict() for b in self.breakdowns]}


class Decision(NamedTuple):
    """A policy's output for one slot: how many top jobs to process."""

    count: int
    breakdowns: tuple[LcrBreakdown, ...] = ()


# builds a record's fields with no call of the named tuple's Python-level __new__
_new = tuple.__new__


def _scan(values: Sequence[float], cost: CostModel) -> tuple[int, list[float], list[float]]:
    """m, the g values the scan for it evaluated, and the top-m prefix sums.

    Returns (m, g, prefix): g holds g(0), g(1), ... up to the first count
    whose job does not beat its marginal cost (g(min(m + 1, n)) for n jobs),
    and prefix[i] is the sum of the top i values added left to right, for
    i = 0..m. Every LCR breakdown of the step reads both lists, and g covers
    every leftover count j they read: the view is sorted, so when the j-th
    leftover job beats c_j, the view's j-th job does too and m >= j. So a
    g(k) the step never reads is never evaluated (it may overflow, or lie
    past a cost table).
    """
    g_prev = cost.g(0)
    g = [g_prev]
    prefix = [0.0]
    top = 0.0
    for v in values:
        g_k = cost.g(len(g))
        g.append(g_k)
        if not v - (g_k - g_prev) > 0.0:
            break
        top += v
        prefix.append(top)
        g_prev = g_k
    return len(prefix) - 1, g, prefix


def compute_m(view: PolicyView, cost: CostModel) -> int:
    """Largest j such that the j-th best value strictly beats its marginal cost.

    Returns 0 when nothing is profitable. Values are non-increasing while
    marginal costs are non-decreasing, so the profitable counts form a prefix.
    """
    return _scan(view.values, cost)[0]


def lcr_breakdown(view: PolicyView, cost: CostModel, i: int) -> LcrBreakdown:
    """LCR ingredients for processing the top ``i`` jobs of the view."""
    m, g, prefix = _scan(view.values, cost)
    if not 1 <= i <= m:
        raise ModelError(f"i must be in 1..m={m}, got {i}")
    return _ledger(view.values, g, prefix, (i,))[0]


def _ledger(values: Sequence[float], g: list[float], prefix: list[float],
            counts: Sequence[int]) -> list[LcrBreakdown]:
    """The breakdowns for an increasing run of counts in 1..m, in one pass over prefix sums.

    c_greedy(i) = max_j prefix[i+j] - prefix[i] - g(j) is concave in j, so it
    peaks at the last leftover count j with v[i+j] > c_j (1-based). That j
    never grows with i: it is found once, at the first count, by walking up,
    and walked down for each later count. So the prefix sums are extended
    only as far as the last count plus that first j. g and prefix come from
    `_scan` (prefix holds the top-m sums), whose g table covers every count
    read here.
    """
    n = len(values)
    first = counts[0]
    j = 0
    while j < n - first and values[first + j] - (g[j + 1] - g[j]) > 0.0:
        j += 1
    top = prefix[-1]
    for v in values[len(prefix) - 1:counts[-1] + j]:
        top += v
        prefix.append(top)
    ledger = []
    for i in counts:
        if j > n - i:
            j = n - i
        while j > 0 and not values[i + j - 1] - (g[j] - g[j - 1]) > 0.0:
            j -= 1
        top = prefix[i]
        M = top - i * g[1]
        P = top - g[i]
        cg = prefix[i + j] - top - g[j]
        if cg < 0.0:  # j = 0 is a leftover count too
            cg = 0.0
        ledger.append(_new(LcrBreakdown, (i, M, P, cg, (M + cg) / P)))
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


# Breakdowns come in increasing i and min keeps the first of equal keys, so
# ties pick the smallest count
_BY_LCR = operator.itemgetter(4)


class Policy:
    """Deterministic per-slot decision rule over deadline-blind views.

    A shipped policy supplies only `counts`; `decide` takes the first of them
    with least LCR, and processes nothing when no count is profitable.
    """

    name: str = "policy"

    def counts(self, m: int, cost: CostModel) -> Sequence[int]:
        """The increasing candidate counts in 1..m, for m >= 1 profitable jobs."""
        raise NotImplementedError

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        values = view.values
        m, g, prefix = _scan(values, cost)
        if m == 0:
            return _new(Decision, (0, ()))
        ledger = _ledger(values, g, prefix, self.counts(m, cost))
        return _new(Decision, (min(ledger, key=_BY_LCR).i, tuple(ledger)))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class MinLcrPolicy(Policy):
    """Argmin-LCR count over i = 1..m, with the full ledger of breakdowns."""

    name = "min-lcr"

    def counts(self, m: int, cost: CostModel) -> range:
        return range(1, m + 1)


class SimLcrPolicy(Policy):
    name = "sim-lcr"

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        # refused before the scan, so an unprofitable view is refused too
        if not isinstance(cost, PowerLaw):
            raise UnsupportedCostError("sim-lcr requires a power-law cost model")
        if cost.alpha < 2.0:
            raise UnsupportedCostError(f"sim-lcr requires alpha >= 2, got {cost.alpha}")
        return super().decide(view, cost)

    def counts(self, m: int, cost: CostModel) -> tuple[int, ...]:
        beta = beta_root(cost.alpha)
        lo = max(1, math.floor(beta * m))
        hi = min(m, math.ceil(beta * m))
        return (lo,) if lo == hi else (lo, hi)


class GreedyPolicy(Policy):
    """Processes min(k, m) jobs each slot; greedy has no cap, so it takes all m."""

    name = "greedy"
    k: float = math.inf

    def counts(self, m: int, cost: CostModel) -> tuple[int]:
        return (min(self.k, m),)


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


def _play_slot(policy: Policy, view: PolicyView, cost: CostModel,
               decisions: list[SlotDecision], ledgers: list[SlotLedger]) -> int:
    """The policy's decision at `view`, checked and recorded; returns its count.

    A count other than an integer in 0..len(view) is refused, a bool or float
    too, as `Job` refuses them. A positive count appends the SlotDecision of
    the top `count` candidates, and a decision with breakdowns its SlotLedger.
    """
    decision = policy.decide(view, cost)
    count = decision.count
    if not ((type(count) is int or _is_int(count)) and 0 <= count <= len(view)):
        raise ModelError(f"slot {view.slot}: policy {policy.name!r} chose {count!r} jobs, "
                         f"only {len(view)} available")
    if count:
        chosen = view.candidates[:count]
        decisions.append(SlotDecision(view.slot, frozenset([jid for jid, _ in chosen]),
                                      float(_ltr_sum([v for _, v in chosen])), cost.g(count)))
    if decision.breakdowns:
        ledgers.append(SlotLedger(view.slot, count, decision.breakdowns))
    return count


def run_policy(instance: Instance, policy, cost: CostModel) -> Trace:
    """Simulate a policy over an instance, visiting only slots where something can happen.

    Only this harness sees deadlines; the policy receives a PolicyView of the
    live jobs, kept in value order (model._value_order_key). Each job's
    (id, value) candidate pair and expiry are made once, when it arrives, and
    every view shares those pairs. Arrivals are merged in once per visited
    slot. Processed jobs leave from the front, since a policy always takes a
    top prefix. Expired jobs leave lazily: a min-heap of window ends tells
    when one has closed, and the live list is then filtered, at the cost of
    building one view.

    A slot with no live job is never shown to a policy: the loop jumps to
    the next arrival, or ends once every job has arrived. Slots where
    nothing is processed add no decision and no ledger entry, and the loop
    jumps on from them in the same way. That rests on the invariant the
    slot-by-slot loop already stopped on: until a job arrives the live set
    only shrinks, and a policy that processes nothing keeps doing so on a
    shrinking set (every shipped policy processes nothing exactly when no job
    beats g(1), and so on an empty view).
    """
    policy = get_policy(policy)
    jobs = instance.jobs
    n = len(jobs)
    hard_stop = instance.last_arrival + n + 1
    live: list[tuple[tuple, float, tuple[int, float]]] = []  # (order key, expiry, (id, value))
    expiries: list[float] = []  # min-heap of the windows' last slots
    decisions: list[SlotDecision] = []
    ledgers: list[SlotLedger] = []
    arrived = 0
    slot = 1
    while slot <= hard_stop:
        first = arrived
        while arrived < n and jobs[arrived].arrival <= slot:
            job = jobs[arrived]
            expiry = job.expiry
            live.append((_value_order_key(job), expiry, (job.id, job.value)))
            if expiry != INFINITE:
                heappush(expiries, expiry)
            arrived += 1
        if arrived > first:
            live.sort()
        if expiries and expiries[0] < slot:
            while expiries and expiries[0] < slot:
                heappop(expiries)
            live = [entry for entry in live if entry[1] >= slot]
        if not live:
            if arrived < n:
                slot = jobs[arrived].arrival
                continue
            break
        # A tuple built from a generator is resized to its length, yet freed
        # onto that length's free list, which only a full gc pass empties;
        # built from a list it is taken from that free list in the first place.
        view = PolicyView(slot, tuple([pair for _, _, pair in live]))
        count = _play_slot(policy, view, cost, decisions, ledgers)
        if count != 0:
            del live[:count]
            slot += 1
        elif arrived < n:
            slot = jobs[arrived].arrival
        else:
            break
    return Trace(decisions, ledgers)
