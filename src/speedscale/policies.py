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
``Policy.decide`` is written once and is the one LCR ledger: one pass over
the view and its prefix sums, on the run's table of g. ``compute_m`` and
``lcr_breakdown`` call it. The simulator ``run_policy`` and the adaptive
game share one slot step, ``_play_slot``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import NamedTuple, Sequence

from .model import (INFINITE, CostModel, CostTable, Instance, ModelError, PowerLaw,
                    SlotDecision, Trace, _is_int, _ltr_sum, _trace_from_checked, cost_table)


class UnsupportedCostError(ModelError):
    """The policy requires a cost model it was not given (e.g. power-law)."""


@dataclass(frozen=True, slots=True, init=False)
class PolicyView:
    """What a deadline-blind policy is allowed to see at one slot.

    ``candidates`` holds (job id, value) pairs sorted by non-increasing value,
    and ``values`` their values in that order; no deadline information is
    reachable from this type. The order matters, since `Policy.decide` stops
    at the first unprofitable job, and this constructor refuses candidates
    out of it. The simulator and the game build their views sorted in the
    first place and check nothing (`_sorted_view`); the tests hold every
    view they hand a policy to that order.
    """

    slot: int
    candidates: tuple[tuple[int, float], ...]
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, slot: int, candidates: tuple[tuple[int, float], ...]):
        values = tuple([*map(_VALUE, candidates)])  # from a list: see run_policy
        if not all(map(operator.ge, values, values[1:])):
            raise ModelError("view candidates must be sorted by non-increasing value")
        _set_slot(self, slot)
        _set_candidates(self, candidates)
        _set_values(self, values)

    def __len__(self) -> int:
        return len(self.candidates)


# a candidate's id and value
_ID, _VALUE = operator.itemgetter(0), operator.itemgetter(1)

# PolicyView.__init__ fills the slots through their descriptors, as Job's does
_set_slot, _set_candidates, _set_values = (
    PolicyView.__dict__[name].__set__ for name in ("slot", "candidates", "values"))


def _sorted_view(slot: int, candidates: tuple[tuple[int, float], ...],
                 values: tuple[float, ...]) -> PolicyView:
    """`PolicyView` of candidates the caller already sorted, with no check."""
    view = object.__new__(PolicyView)
    _set_slot(view, slot)
    _set_candidates(view, candidates)
    _set_values(view, values)
    return view


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


class Decision(NamedTuple):
    """A policy's output for one slot: how many top jobs to process."""

    count: int
    breakdowns: tuple[LcrBreakdown, ...] = ()


# builds a record's fields with no call of the named tuple's Python-level __new__
_new = tuple.__new__


def compute_m(view: PolicyView, cost: CostModel) -> int:
    """Largest j such that the j-th best value strictly beats its marginal cost.

    Returns 0 when nothing is profitable. Values are non-increasing while
    marginal costs are non-decreasing, so the profitable counts form a prefix:
    greedy's count, from `Policy.decide`.
    """
    return POLICIES["greedy"].decide(view, cost).count


def lcr_breakdown(view: PolicyView, cost: CostModel, i: int) -> LcrBreakdown:
    """LCR ingredients for processing the top ``i`` jobs of the view: the
    breakdown `Policy.decide` gives every policy that scores ``i``, bits and all."""
    m = compute_m(view, cost)
    if not 1 <= i <= m:
        raise ModelError(f"i must be in 1..m={m}, got {i}")
    return FixedCountPolicy(i).decide(view, cost).breakdowns[0]


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


class Policy:
    """Deterministic per-slot decision rule over deadline-blind views.

    A shipped policy supplies only `counts`; `decide` takes the first of them
    with least LCR, and processes nothing when no count is profitable.

    `decide` is the one step and the one LCR ledger: one pass on the run's
    `model.CostTable`, whose list it grows in place (a plain cost model gets
    a table for the call; `counts` is given the model). The pass finds m,
    the profitable prefix of the sorted view, with its prefix sums, reading g
    up to the first count whose job does not beat its marginal cost, which
    is g(min(m + 1, n)) for n jobs. Each count's c_greedy(i) is a difference
    of prefix sums. It is concave in the leftover count j and peaks at the
    last j with v[i+j] > c_j; that j never grows with i, so it is walked up
    once, at the first count, and down for each later count. Every g(j) it
    reads is in the table already: the view is sorted, so when the j-th
    leftover job beats c_j, the view's j-th job does too and m >= j. The
    best count changes only where an LCR is strictly less than the best so
    far, so it is the count `min(..., key=lcr)` picks, ties (the smaller
    count) and NaN included.
    """

    name: str = "policy"

    def counts(self, m: int, cost: CostModel) -> Sequence[int]:
        """The increasing candidate counts in 1..m, for m >= 1 profitable jobs."""
        raise NotImplementedError

    def decide(self, view: PolicyView, cost: CostModel) -> Decision:
        table = cost if type(cost) is CostTable else CostTable(cost)
        model = table.model
        values = view.values
        g = table.values
        if not g:
            g.append(model.g(0))
        g_prev = g[0]
        prefix = [0.0]
        top = 0.0
        for k, v in enumerate(values, 1):
            if k == len(g):  # the table's next entry
                g.append(model.g(k))
            g_k = g[k]
            if not v - (g_k - g_prev) > 0.0:
                break
            top += v
            prefix.append(top)
            g_prev = g_k
        m = len(prefix) - 1
        if not m:
            return _new(Decision, (0, ()))
        counts = self.counts(m, model)
        n = len(values)
        first = counts[0]
        j = 0
        while j < n - first and values[first + j] - (g[j + 1] - g[j]) > 0.0:
            j += 1
        for v in values[m:counts[-1] + j]:  # prefix sums past m, as far as read
            top += v
            prefix.append(top)
        ledger = []
        best = best_lcr = None
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
            lcr = (M + cg) / P
            ledger.append(_new(LcrBreakdown, (i, M, P, cg, lcr)))
            if best is None or lcr < best_lcr:
                best, best_lcr = i, lcr
        return _new(Decision, (best, tuple(ledger)))

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
        # the run's model is refused before the scan reads any g, so an
        # unprofitable view is refused too
        model = cost.model if type(cost) is CostTable else cost
        if not isinstance(model, PowerLaw):
            raise UnsupportedCostError("sim-lcr requires a power-law cost model")
        if model.alpha < 2.0:
            raise UnsupportedCostError(f"sim-lcr requires alpha >= 2, got {model.alpha}")
        return Policy.decide(self, view, cost)

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
        if not _is_int(k):  # a float, nan or bool count would reach the slot step
            raise ModelError(f"fixed count must be an integer, got {k!r}")
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


def _play_slot(policy: Policy, view: PolicyView, table: CostTable,
               decisions: list[SlotDecision], ledgers: list[SlotLedger]) -> int:
    """The policy's decision at `view` on the run's `table`, checked and
    recorded; returns its count.

    A count other than an integer in 0..len(view) is refused, a bool or
    float too, as `Job` refuses them. A positive count appends the
    SlotDecision of the top `count` candidates, its energy read from the
    table's list (a shipped policy's step has read that far; a count past
    the list's end grows it), and a decision with breakdowns its SlotLedger.
    """
    decision = policy.decide(view, table)
    count = decision.count
    n = len(view.candidates)
    if not ((type(count) is int or _is_int(count)) and 0 <= count <= n):
        raise ModelError(f"slot {view.slot}: policy {policy.name!r} chose {count!r} jobs, "
                         f"only {n} available")
    if count:
        g = table.values
        decisions.append(_new(SlotDecision, (view.slot,
                                             frozenset(map(_ID, view.candidates[:count])),
                                             float(_ltr_sum(view.values[:count])),
                                             g[count] if count < len(g) else table.g(count))))
    if decision.breakdowns:
        ledgers.append(_new(SlotLedger, (view.slot, count, decision.breakdowns)))
    return count


def run_policy(instance: Instance, policy, cost: CostModel) -> Trace:
    """Simulate a policy over an instance, visiting only slots where something can happen.

    Only this harness sees deadlines; the policy receives a PolicyView of the
    live jobs, kept in value order (ties: earlier arrival, then smaller id).
    Each job is one flat tuple, made once, when it arrives, that sorts in
    that order: (-value, arrival, id) and then its expiry, value and (id,
    value) candidate pair. Every view shares those pairs and is read off the
    sorted list. Arrivals are merged in once per visited slot.
    Processed jobs leave from the front, since a policy always takes a top
    prefix. Expired jobs leave lazily: a min-heap of window ends tells when
    one has closed, and the live list is then filtered, at the cost of
    building one view.

    A slot with no live job is never shown to a policy: the loop jumps to
    the next arrival, or ends once every job has arrived. Slots where
    nothing is processed add no decision and no ledger entry, and the loop
    jumps on from them in the same way. That rests on the invariant the
    slot-by-slot loop already stopped on: until a job arrives the live set
    only shrinks, and a policy that processes nothing keeps doing so on a
    shrinking set (every shipped policy processes nothing exactly when no job
    beats g(1), and so on an empty view). So the loop needs no slot bound:
    each visited slot processes a job, jumps to a later arrival, or ends it.
    """
    policy = get_policy(policy)
    table = cost_table(cost)
    jobs = instance.jobs
    n = len(jobs)
    # ids are unique, so the sort never reads past the id
    live: list[tuple[float, int, int, float, float, tuple[int, float]]] = []
    expiries: list[float] = []  # min-heap of the windows' last slots
    decisions: list[SlotDecision] = []
    ledgers: list[SlotLedger] = []
    arrived = 0
    slot = 1
    while True:
        first = arrived
        while arrived < n:
            job = jobs[arrived]
            if job.arrival > slot:
                break
            expiry = job.expiry
            # non-increasing value; ties by earlier arrival, then smaller id
            value, job_id = job.value, job.id
            live.append((-value, job.arrival, job_id, expiry, value, (job_id, value)))
            if expiry != INFINITE:
                heappush(expiries, expiry)
            arrived += 1
        if arrived > first:
            live.sort()
        if expiries and expiries[0] < slot:
            while expiries and expiries[0] < slot:
                heappop(expiries)
            live = [entry for entry in live if entry[3] >= slot]
        if not live:
            if arrived < n:
                slot = jobs[arrived].arrival
                continue
            break
        # Every per-slot tuple (this view's candidates and values, the game's
        # slot-1 view) is built from a list. A tuple built from a generator,
        # map or zip is resized to its length, yet freed onto that length's
        # free list, which only a full gc pass empties; built from a list it
        # is taken from that free list in the first place. Built with
        # tuple(map(...)), the view's values raised the bursty benchmark's
        # peak RSS by about 10%.
        view = _sorted_view(slot, tuple([entry[5] for entry in live]),
                            tuple([entry[4] for entry in live]))
        count = _play_slot(policy, view, table, decisions, ledgers)
        if count != 0:
            del live[:count]
            slot += 1
        elif arrived < n:
            slot = jobs[arrived].arrival
        else:
            break
    return _trace_from_checked(decisions, ledgers)
