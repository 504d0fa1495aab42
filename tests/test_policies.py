import copy
import dataclasses
import itertools
import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedscale.adversary import (PHI_PLUS_1, InstanceTemplate, gen_alpha2_lb_instance,
                                  run_adversarial_game)
from speedscale.analysis import competitive_report, random_instance
from speedscale.model import (INFINITE, CostTable, Instance, Job, ModelError, PowerLaw,
                              SlotDecision, TabulatedConvex, Trace, cost_table,
                              evaluate_trace)
from speedscale.policies import (POLICIES, Decision, FixedCountPolicy, LcrBreakdown, Policy,
                                 PolicyView, SlotLedger, UnsupportedCostError,
                                 beta_root, compute_m, get_policy, lcr_breakdown, run_policy)

from conftest import CountingPowerLaw, available_jobs, mk_instance


def inner_greedy_profit(leftover_values, cost):
    """Best single-slot profit from a leftover pool: max_j (top-j sum - g(j)).

    Prefix sums are taken within the leftover set itself; j = 0 contributes 0,
    so the result is never negative. The pool's own table of g grows as far
    as the profit loop reads it, and no further. The profit is concave in j,
    so the loop stops at the first j whose value does not beat its marginal.
    """
    values = list(leftover_values)
    if not all(map(operator.ge, values, values[1:])):
        raise ModelError("leftover values must be sorted non-increasing")
    g = cost_table(cost).g
    best = running = 0.0
    for j, v in enumerate(values, 1):
        if not v - (g(j) - g(j - 1)) > 0.0:
            break
        running += v
        best = max(best, running - g(j))
    return best


def _reference_run_policy(instance, policy, cost):
    """The slot-by-slot simulator that run_policy replaced: it visits every slot
    up to the last arrival and rescans every job for availability in each."""
    policy = get_policy(policy)
    processed = set()
    decisions, ledgers = [], []
    last_arrival = instance.last_arrival
    hard_stop = last_arrival + len(instance) + 1
    slot = 1
    while slot <= hard_stop:
        live = available_jobs(instance, slot, processed)
        view = PolicyView(slot, tuple((j.id, j.value) for j in live))
        decision = policy.decide(view, cost)
        if decision.count > len(live):
            raise ModelError(f"slot {slot}: chose {decision.count} of {len(live)} jobs")
        if decision.count > 0:
            chosen = live[:decision.count]
            processed.update(j.id for j in chosen)
            decisions.append(SlotDecision.build(slot, chosen, cost))
        if decision.breakdowns:
            ledgers.append(SlotLedger(slot, decision.count, decision.breakdowns))
        if decision.count == 0 and slot > last_arrival:
            break
        slot += 1
    return Trace(decisions, ledgers)


@st.composite
def sparse_instances(draw):
    """Instances with idle gaps between arrivals, mixing expiring jobs,
    never-expiring jobs and jobs worth at most g(1) = 1 (never profitable).

    The reference pays for every slot of a gap, so drawn gaps stop at 500;
    a gap of 10**5 is an explicit example."""
    jobs, arrival = [], 1
    for i in range(draw(st.integers(0, 8))):
        arrival += draw(st.integers(0, 2) | st.integers(0, 500))
        value = draw(st.floats(0, 1) | st.floats(0, 30))
        deadline = draw(st.just(INFINITE) | st.integers(1, 6))
        jobs.append(Job(i, arrival, value, deadline))
    return Instance(tuple(jobs))


MIN_LCR = POLICIES["min-lcr"]


class CountingPolicy(Policy):
    """A shipped policy that records every view it is shown and its slot, none empty."""

    name = "counting"

    def __init__(self, policy):
        self.policy = get_policy(policy)
        self.slots = []
        self.views = []

    def decide(self, view, cost):
        assert len(view) > 0, f"empty view at slot {view.slot}"
        self.slots.append(view.slot)
        self.views.append(view)
        return self.policy.decide(view, cost)


def view_of(*values, slot=1):
    return PolicyView(slot, tuple((i, float(v)) for i, v in enumerate(values)))


def ltr_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def last_profitable(pool, cost):
    """The last count j whose j-th job of `pool` beats its marginal cost."""
    j = 0
    while j < len(pool) and pool[j] - (cost.g(j + 1) - cost.g(j)) > 0.0:
        j += 1
    return j


def prefix_breakdown(values, cost, i):
    """The LCR breakdown of the top i by its definition over prefix sums.

    Prefix sums are added left to right from 0.0, and c_greedy(i) is
    prefix[i+j] - prefix[i] - g(j) at the last leftover count j whose job
    beats its marginal cost, floored at 0.
    """
    prefix = [0.0]
    for v in values:
        prefix.append(prefix[-1] + v)
    j = last_profitable(values[i:], cost)
    M = prefix[i] - i * cost.g(1)
    P = prefix[i] - cost.g(i)
    cg = max(prefix[i + j] - prefix[i] - cost.g(j), 0.0)
    return LcrBreakdown(i, M, P, cg, (M + cg) / P)


def policy_named(name):
    return FixedCountPolicy(int(name[6:])) if name.startswith("fixed:") else POLICIES[name]


def bits(breakdown):
    """A breakdown with its floats as hex strings, so == compares every bit."""
    return (breakdown.i, *(x.hex() for x in breakdown[1:]))


def brute_inner_greedy(values, cost):
    # independent oracle: try every prefix size explicitly
    return max((sum(values[:j]) - cost.g(j) for j in range(len(values) + 1)), default=0.0)


def brute_m(values, cost):
    # independent oracle: direct scan of v_j - c_j over every j
    hits = [j for j in range(1, len(values) + 1)
            if values[j - 1] - cost.effective_cost(j) > 0]
    return max(hits, default=0)


class TestComputeM:
    def test_examples(self, alpha2):
        assert compute_m(view_of(10, 6, 3), alpha2) == 2 == brute_m([10, 6, 3], alpha2)
        assert compute_m(view_of(0.5), alpha2) == 0
        assert compute_m(view_of(*[100] * 5), alpha2) == 5 == brute_m([100] * 5, alpha2)

    def test_strict_inequality(self, alpha2):
        # v exactly equal to the marginal cost is excluded
        assert compute_m(view_of(1.0), alpha2) == 0
        assert compute_m(view_of(3.0, 3.0), alpha2) == 1  # second job: v - c_2 = 0

    def test_view_must_be_sorted(self):
        with pytest.raises(ModelError):
            view_of(2.0, 3.0)

    @given(st.lists(st.floats(0, 100), min_size=0, max_size=12),
           st.sampled_from([1.5, 2.0, 2.5, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_scan_oracle(self, values, alpha):
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        assert compute_m(view_of(*values), cost) == brute_m(values, cost)

    @pytest.mark.parametrize("policy", ["min-lcr", "sim-lcr", "greedy", FixedCountPolicy(2)],
                             ids=["min-lcr", "sim-lcr", "greedy", "fixed:2"])
    def test_one_call_per_decide(self, policy):
        # one scan finds m and tabulates g for every breakdown: a decide
        # evaluates g(0), g(1), ... each once, as far as it reads, and its
        # breakdowns still equal the public one-candidate definition bit for bit
        cost = CountingPowerLaw(2.0)
        view = view_of(20, 12, 9, 7, 4, 1)
        decision = get_policy(policy).decide(view, cost)
        assert decision.count >= 1
        assert sorted(cost.calls) == list(range(len(cost.calls))) == list(range(5))
        assert all(b == lcr_breakdown(view, cost, b.i) for b in decision.breakdowns)

    @given(st.lists(st.floats(0, 100), min_size=0, max_size=16),
           st.sampled_from(["sim-lcr", "greedy", "fixed:1", "fixed:2", "fixed:5"]),
           st.sampled_from([2.0, 2.5, 3.0]) | st.lists(st.integers(1, 80), min_size=17,
                                                        max_size=17))
    @settings(max_examples=150, deadline=None)
    def test_breakdowns_match_left_to_right_definition(self, values, name, cost_spec):
        # greedy, fixed:K and sim-lcr score their counts, and each breakdown
        # is the prefix-sum definition (prefix sums added left to right)
        values = sorted(values, reverse=True)
        if isinstance(cost_spec, float):
            cost = PowerLaw(cost_spec)
        else:
            if name == "sim-lcr":
                name = "greedy"  # sim-lcr refuses a table
            marginals = sorted(c / 4 for c in cost_spec)  # sums of quarters are exact
            cost = TabulatedConvex(tuple(ltr_sum(marginals[:k]) for k in range(18)))
        policy = policy_named(name)
        decision = policy.decide(view_of(*values), cost)
        m = brute_m(values, cost)
        if name == "sim-lcr" and m:
            expected = sorted({max(1, math.floor(beta_root(cost.alpha) * m)),
                               min(m, math.ceil(beta_root(cost.alpha) * m))})
        else:
            expected = [min(policy.k, m)] if m else []
        assert [b.i for b in decision.breakdowns] == expected
        for b in decision.breakdowns:
            assert bits(b) == bits(prefix_breakdown(values, cost, b.i))


class TestInnerGreedyProfit:
    def test_examples(self, alpha2):
        assert inner_greedy_profit([6.0, 3.0], alpha2) == 5.0
        assert inner_greedy_profit([], alpha2) == 0.0
        assert inner_greedy_profit([3.0], alpha2) == 2.0

    def test_rejects_unsorted(self, alpha2):
        with pytest.raises(ModelError):
            inner_greedy_profit([1.0, 2.0], alpha2)

    @given(st.lists(st.floats(0, 50), min_size=0, max_size=10),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration_oracle(self, values, alpha):
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        got = inner_greedy_profit(values, cost)
        assert math.isclose(got, brute_inner_greedy(values, cost), abs_tol=1e-9)
        # sorted prefixes dominate any same-size subset, so prefix search is exhaustive
        for subset in itertools.combinations(values, min(len(values), 3)):
            assert got >= sum(subset) - cost.g(len(subset)) - 1e-9


class TestLcrBreakdown:
    def test_worked_example_i1(self, alpha2):
        b = lcr_breakdown(view_of(10, 6, 3), alpha2, 1)
        assert (b.M, b.P, b.c_greedy) == (9.0, 9.0, 5.0)
        assert math.isclose(b.lcr, 14.0 / 9.0, abs_tol=1e-12)

    def test_worked_example_i2(self, alpha2):
        b = lcr_breakdown(view_of(10, 6, 3), alpha2, 2)
        assert (b.M, b.P, b.c_greedy) == (14.0, 12.0, 2.0)
        assert math.isclose(b.lcr, 4.0 / 3.0, abs_tol=1e-12)

    def test_singleton(self, alpha2):
        b = lcr_breakdown(view_of(10), alpha2, 1)
        assert (b.M, b.P, b.c_greedy, b.lcr) == (9.0, 9.0, 0.0, 1.0)

    def test_out_of_range_i(self, alpha2):
        with pytest.raises(ModelError):
            lcr_breakdown(view_of(10, 6, 3), alpha2, 3)  # m = 2
        with pytest.raises(ModelError):
            lcr_breakdown(view_of(10), alpha2, 0)

    @given(st.lists(st.floats(0.1, 80), min_size=1, max_size=14),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_prefix_profit_positive(self, values, alpha):
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        view = view_of(*values)
        m = compute_m(view, cost)
        for i in range(1, m + 1):
            assert lcr_breakdown(view, cost, i).P > 0

    @given(st.lists(st.floats(0, 80), min_size=1, max_size=14),
           st.sampled_from([2.0, 2.5, 3.0]), st.integers(0, 13))
    @settings(max_examples=100, deadline=None)
    def test_leftover_profit_capped_by_full_view(self, values, alpha, split):
        # best single-slot profit of any leftover tail never beats the full view's
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        view = view_of(*values)
        m = compute_m(view, cost)
        split = min(split, len(values))
        cap = sum(values[:m]) - cost.g(m)
        assert inner_greedy_profit(values[split:], cost) <= cap + 1e-9


# marginal costs 1, 3, 4, 4, 5, 6, ..., 16: five jobs of value 5 tie at two counts
TIE_TABLE = TabulatedConvex(tuple(itertools.accumulate((0.0, 1.0, 3.0, 4.0, 4.0,
                                                        *map(float, range(5, 17))))))


class TestMinLcrDecide:
    def test_prefers_lower_lcr(self, alpha2):
        decision = MIN_LCR.decide(view_of(10, 6, 3), alpha2)
        assert decision.count == 2
        assert [b.i for b in decision.breakdowns] == [1, 2]

    def test_nothing_profitable(self, alpha2):
        assert MIN_LCR.decide(view_of(0.5), alpha2) == Decision(0, ())

    def test_single_option(self, alpha2):
        decision = MIN_LCR.decide(view_of(10), alpha2)
        assert decision.count == 1 and len(decision.breakdowns) == 1

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=16),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_argmin_contract(self, values, alpha):
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        decision = MIN_LCR.decide(view_of(*values), cost)
        count, ledger = decision.count, decision.breakdowns
        if ledger:
            chosen = next(b for b in ledger if b.i == count)
            assert all(chosen.lcr <= b.lcr + 1e-12 for b in ledger)
            assert all(chosen.i <= b.i for b in ledger if b.lcr == chosen.lcr)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40),
           st.sampled_from([PowerLaw(2.0), PowerLaw(2.5), PowerLaw(3.0), PowerLaw(4.0),
                            TabulatedConvex(tuple(float(k * (k + 1) // 2) for k in range(41)))]))
    @settings(max_examples=100, deadline=None)
    def test_one_pass_ledger_matches_reference(self, values, cost):
        # min-lcr builds the whole ledger in one pass; lcr_breakdown is the
        # per-candidate entry point. Both read the one ledger definition, so
        # every breakdown agrees bit for bit, and the count is the argmin
        values = sorted(values, reverse=True)
        view = view_of(*values)
        decision = MIN_LCR.decide(view, cost)
        count, ledger = decision.count, decision.breakdowns
        reference = [lcr_breakdown(view, cost, i) for i in range(1, compute_m(view, cost) + 1)]
        assert [bits(b) for b in ledger] == [bits(b) for b in reference]
        expected = min(reference, key=lambda b: (b.lcr, b.i)).i if reference else 0
        assert count == expected

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40),
           st.sampled_from([PowerLaw(2.0), PowerLaw(2.5), PowerLaw(3.0),
                            TabulatedConvex(tuple(float(k * (k + 1) // 2) for k in range(41)))]),
           st.sampled_from(["min-lcr", "sim-lcr", "greedy", "fixed:1", "fixed:3"]))
    @settings(max_examples=100, deadline=None)
    def test_ledger_is_prefix_difference_definition(self, values, cost, name):
        # bit for bit: min-lcr's ledger is the prefix-sum definition at
        # i = 1..m, and every policy's breakdown at count i is entry i
        values = sorted(values, reverse=True)
        if name == "sim-lcr" and not isinstance(cost, PowerLaw):
            name = "greedy"  # sim-lcr refuses a table
        expected = [bits(prefix_breakdown(values, cost, i))
                    for i in range(1, last_profitable(values, cost) + 1)]
        ledger = MIN_LCR.decide(view_of(*values), cost).breakdowns
        assert [bits(b) for b in ledger] == expected
        for b in policy_named(name).decide(view_of(*values), cost).breakdowns:
            assert bits(b) == expected[b.i - 1]

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=16)
           | st.tuples(st.integers(1, 16), st.integers(1, 30)).map(lambda nv: [nv[1]] * nv[0]),
           st.sampled_from([PowerLaw(2.0), PowerLaw(2.5), PowerLaw(3.0), TIE_TABLE]),
           st.sampled_from(["min-lcr", "sim-lcr", "greedy", "fixed:1", "fixed:3"]))
    @example([11] * 9, PowerLaw(2.0), "min-lcr")  # counts 3 and 4 both at LCR 2.5
    @example([5] * 5, TIE_TABLE, "min-lcr")  # counts 2 and 4 both at LCR 2.5
    @example([5, 4, 4], PowerLaw(2.0), "sim-lcr")  # both of sim-lcr's counts at LCR 2
    @settings(max_examples=150, deadline=None)
    def test_count_is_min_of_breakdowns(self, values, cost, name):
        # the ledger pass picks the count as min(..., key=lcr) picks it:
        # the first of equal least LCRs, so a tie goes to the smaller count
        values = sorted(map(float, values), reverse=True)
        if name == "sim-lcr" and not isinstance(cost, PowerLaw):
            name = "greedy"  # sim-lcr refuses a table
        decision = policy_named(name).decide(view_of(*values), cost)
        if decision.breakdowns:
            assert decision.count == min(decision.breakdowns, key=lambda b: b.lcr).i
        else:
            assert decision.count == 0


# A float's unit roundoff: a sum, difference or product of floats is
# rounded to within ROUNDOFF of its exact value, relative to that value
ROUNDOFF = Fraction(1, 2 ** 53)


def exact_ledger(values, g, m):
    """(M, P, c_greedy, LCR) for i = 1..m, in exact rational arithmetic.

    The inputs are the float view and a float g table for 0..len(values),
    read as exact rationals; c_greedy(i) is the maximum over every leftover
    count j, not only the j the program's scan stops at.
    """
    g = [Fraction(x) for x in g]
    prefix = [Fraction(0)]
    for v in values:
        prefix.append(prefix[-1] + Fraction(v))
    ledger = {}
    for i in range(1, m + 1):
        M = prefix[i] - i * g[1]
        P = prefix[i] - g[i]
        cg = max(prefix[i + j] - prefix[i] - g[j] for j in range(len(values) - i + 1))
        ledger[i] = (M, P, cg, (M + cg) / P)
    return ledger


def lcr_rounding_bounds(n, total, P, lcr):
    """(E, L): how far a float breakdown of an n-job view may lie from the exact one.

    E bounds the error of M, P and c_greedy. With g(0) = 0, every term they
    add or subtract (a prefix sum, i * g(1), g(i), g(j)) is at most about the
    view's total S, so each rounding is at most ROUNDOFF * S. A prefix sum of
    k values added left to right rounds k - 1 times. M and P add one or two
    roundings to prefix[i]. c_greedy is prefix[i+j] - prefix[i] - g(j): the
    two prefixes share their first i additions, so their difference carries
    at most j <= n - 1 roundings, and the two subtractions add two more. The
    scan for the last profitable j compares each value with a rounded
    marginal g(j) - g(j-1); every count on which that comparison and the
    exact one disagree changes the exact profit by at most the rounding of
    its marginal, at most ROUNDOFF * S over all of them. In all, at most
    n + 2 roundings: E = (n + 4) * ROUNDOFF * S leaves two for second-order
    terms.

    L bounds the LCR's error: (M + c_greedy) / P moves by at most
    d = (2 + LCR) * E / (P - E) when its three inputs move by E, and the
    addition and the division round twice more, relative to the result.
    L is infinite when P <= E.
    """
    E = (n + 4) * ROUNDOFF * total
    if P <= E:
        return E, math.inf
    d = (2 + lcr) * E / (P - E)
    return E, d + 3 * ROUNDOFF * (lcr + d)


def assert_within_exact_ledger(values, alpha, fixed):
    """Every policy's breakdowns lie within lcr_rounding_bounds of the exact
    ledger, and min-lcr's count is the exact argmin wherever the exact gap to
    every other count is larger than both counts' LCR bounds. Returns whether
    that argmin check applied."""
    cost = PowerLaw(alpha)
    view = view_of(*values)
    m = compute_m(view, cost)
    exact = exact_ledger(values, [cost.g(j) for j in range(len(values) + 1)], m)
    total = sum(map(Fraction, values))
    bounds = {i: lcr_rounding_bounds(len(values), total, P, lcr)
              for i, (_, P, _, lcr) in exact.items()}
    for policy in (MIN_LCR, POLICIES["sim-lcr"], POLICIES["greedy"], FixedCountPolicy(fixed)):
        for b in policy.decide(view, cost).breakdowns:
            E, L = bounds[b.i]
            for got, want in zip((b.M, b.P, b.c_greedy), exact[b.i]):
                assert abs(Fraction(got) - want) <= E, (policy, b)
            assert abs(Fraction(b.lcr) - exact[b.i][3]) <= L, (policy, b)
    if m == 0:
        return False
    best = min(exact, key=lambda i: (exact[i][3], i))
    if all(exact[i][3] - exact[best][3] > bounds[i][1] + bounds[best][1]
           for i in exact if i != best):
        assert MIN_LCR.decide(view, cost).count == best
        return True
    return False


class TestExactLedger:
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40),
           st.sampled_from([2.0, 2.5, 3.0]), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_breakdowns_within_rounding_bound(self, values, alpha, fixed):
        assert_within_exact_ledger(sorted(values, reverse=True), alpha, fixed)

    def test_battery_views_within_rounding_bound(self):
        # the views the simulator shows min-lcr on battery-like instances
        views = []

        class Recording(Policy):
            name = "recording"

            def decide(self, view, cost):
                views.append((view.values, cost.alpha))
                return MIN_LCR.decide(view, cost)

        rng = np.random.default_rng(25)
        for s in range(60):
            alpha = (2.0, 2.5, 3.0)[s % 3]
            run_policy(random_instance(rng, PowerLaw(alpha), heavy_tail=s % 2 == 1),
                       Recording(), PowerLaw(alpha))
        checked = [assert_within_exact_ledger(values, alpha, 1 + len(values) % 4)
                   for values, alpha in views]
        assert len(checked) > 300
        assert sum(checked) > 0.9 * len(checked)


class TestBetaRoot:
    def test_alpha2_is_golden_ratio_conjugate(self):
        assert abs(beta_root(2.0) - (math.sqrt(5) - 1) / 2) < 1e-9

    def test_alpha3(self):
        assert abs(beta_root(3.0) - 0.7548776662) < 1e-9

    def test_residuals_small(self):
        for alpha in np.arange(2.0, 6.0001, 0.25):
            b = beta_root(float(alpha))
            assert 0 < b < 1
            assert abs(b ** alpha + b ** (alpha - 1) - 1.0) < 1e-10

    def test_alpha_at_one_rejected(self):
        with pytest.raises(ModelError):
            beta_root(1.0)


class TestSimLcr:
    def test_compares_floor_and_ceil(self, alpha2):
        # m=2, beta*m ~ 1.236: candidates 1 and 2; i=2 has the lower LCR
        assert POLICIES["sim-lcr"].decide(view_of(10, 6, 3), alpha2).count == 2

    def test_m1_forces_single_candidate(self, alpha2):
        assert POLICIES["sim-lcr"].decide(view_of(10), alpha2).count == 1

    def test_m0(self, alpha2):
        assert POLICIES["sim-lcr"].decide(view_of(0.5), alpha2).count == 0

    def test_rejects_non_power_law(self):
        tab = TabulatedConvex((0.0, 1.0, 4.0, 9.0, 16.0))
        with pytest.raises(UnsupportedCostError):
            POLICIES["sim-lcr"].decide(view_of(10, 6, 3), tab)

    def test_rejects_small_alpha(self):
        with pytest.raises(UnsupportedCostError):
            POLICIES["sim-lcr"].decide(view_of(10), PowerLaw(1.5))

    @pytest.mark.parametrize("cost", [TabulatedConvex((0.0, 1.0, 4.0)), PowerLaw(1.5)],
                             ids=["table", "alpha-1.5"])
    def test_rejects_bad_cost_on_unprofitable_view(self, cost):
        # the cost is refused before the view is scanned, so a view where
        # nothing is profitable is refused as well
        with pytest.raises(UnsupportedCostError):
            POLICIES["sim-lcr"].decide(PolicyView(1, ((0, 0.5),)), cost)

    def test_run_policy_rejects_table_on_unprofitable_instance(self):
        with pytest.raises(UnsupportedCostError):
            run_policy(mk_instance((1, 0.5, 1)), "sim-lcr", TabulatedConvex((0.0, 1.0, 4.0)))

    @pytest.mark.parametrize("cost", [TabulatedConvex((0.0, 1.0, 4.0, 9.0, 16.0)), PowerLaw(1.5)],
                             ids=["table", "alpha-1.5"])
    @pytest.mark.parametrize("run", ["game", "report"])
    def test_runs_refuse_the_model_before_any_g(self, monkeypatch, cost, run):
        # a run hands sim-lcr its table, and sim-lcr checks the model under
        # it before the scan evaluates g(0)
        calls, model_g = [], type(cost).g

        def recording(self, k):
            calls.append(k)
            return model_g(self, k)

        monkeypatch.setattr(type(cost), "g", recording)
        with pytest.raises(UnsupportedCostError, match="^sim-lcr requires"):
            if run == "game":
                run_adversarial_game("sim-lcr", gen_alpha2_lb_instance(5), cost)
            else:
                competitive_report(mk_instance((1, 9.0, 1), (1, 5.0, INFINITE)), "sim-lcr", cost)
        assert calls == []

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=16),
           st.sampled_from([2.0, 2.5, 3.0, 3.5, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_per_slot_bound(self, values, alpha):
        # at alpha = 2 or alpha >= 2.5 the better candidate stays below phi + 1
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        view = view_of(*values)
        decision = POLICIES["sim-lcr"].decide(view, cost)
        if decision.breakdowns:
            assert min(b.lcr for b in decision.breakdowns) <= PHI_PLUS_1 + 1e-9


class TestGreedy:
    def test_examples(self, alpha2):
        greedy = POLICIES["greedy"]
        assert greedy.decide(view_of(10, 6, 3), alpha2).count == 2
        assert greedy.decide(view_of(0.5), alpha2).count == 0
        assert greedy.decide(view_of(*[100] * 5), alpha2).count == 5

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=16),
           st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_lcr_at_m_bounded_by_three(self, values, alpha):
        values = sorted(values, reverse=True)
        cost = PowerLaw(alpha)
        view = view_of(*values)
        m = compute_m(view, cost)
        if m:
            assert lcr_breakdown(view, cost, m).lcr <= 3.0 + 1e-9


class TestFixedCount:
    @pytest.mark.parametrize("k", [math.nan, 2.5, 2.0, True, "3"])
    def test_non_integral_count_refused(self, k):
        # each of these used to construct, and a game against it then failed
        # in slicing (TypeError) or in the slot step
        with pytest.raises(ModelError, match=rf"^fixed count must be an integer, got {k!r}$"):
            FixedCountPolicy(k)

    def test_count_below_one_refused(self):
        with pytest.raises(ModelError, match="^fixed count must be >= 1, got 0$"):
            FixedCountPolicy(0)
        with pytest.raises(ModelError, match="^fixed count must be >= 1, got -2$"):
            FixedCountPolicy(np.int64(-2))

    def test_numpy_int_count_plays(self, alpha2):
        policy = FixedCountPolicy(np.int64(2))
        report = run_adversarial_game(policy, gen_alpha2_lb_instance(3), alpha2)
        assert policy.name == "fixed:2"
        assert report == run_adversarial_game(FixedCountPolicy(2), gen_alpha2_lb_instance(3), alpha2)


class TestRunPolicy:
    def test_two_expiring_jobs(self, alpha2):
        inst = mk_instance((1, 4.0, 1), (1, 4.0, 1))
        trace = run_policy(inst, "min-lcr", alpha2)
        assert len(trace.decisions) == 1
        assert trace.decisions[0].processed == {0, 1}
        assert trace.total_profit == 4.0

    def test_empty_instance(self, alpha2):
        trace = run_policy(Instance(()), "min-lcr", alpha2)
        assert trace.decisions == () and trace.total_profit == 0.0

    def test_greedy_spreads_over_arrivals(self, alpha2):
        inst = mk_instance((1, 10.0, INFINITE), (2, 10.0, INFINITE))
        trace = run_policy(inst, "greedy", alpha2)
        assert trace.total_profit == 18.0
        assert [d.slot for d in trace.decisions] == [1, 2]

    def test_trace_feasible(self, alpha2, rng):
        from speedscale.analysis import random_instance
        for _ in range(25):
            inst = random_instance(rng, alpha2, n_max=15)
            for name in POLICIES:
                trace = run_policy(inst, name, alpha2)
                total = evaluate_trace(inst, trace, alpha2)
                assert math.isclose(total, trace.total_profit, abs_tol=1e-9)

    def test_unknown_policy(self, alpha2):
        with pytest.raises(ModelError, match="greedy"):
            run_policy(Instance(()), "nope", alpha2)

    def test_ledger_only_on_processing_slots(self, alpha2):
        inst = mk_instance((1, 0.5, 3), (3, 10.0, 1))
        trace = run_policy(inst, "min-lcr", alpha2)
        assert [entry.slot for entry in trace.ledgers] == [3]

    def test_unprofitable_tail_terminates(self, alpha2):
        inst = mk_instance((1, 0.5, INFINITE), (1, 0.7, INFINITE))
        trace = run_policy(inst, "greedy", alpha2)
        assert trace.total_profit == 0.0 and trace.decisions == ()


    @given(sparse_instances(), st.sampled_from([2.0, 2.5, 3.0]),
           st.sampled_from(["min-lcr", "sim-lcr", "greedy", "fixed:1", "fixed:3"]))
    @example(mk_instance((1, 0.5, INFINITE), (1, 9.0, 2), (1, 7.0, INFINITE),
                         (100_001, 9.0, 1), (100_001, 1.0, INFINITE)), 2.0, "min-lcr")
    @settings(max_examples=40, deadline=None)
    def test_matches_slot_by_slot_reference(self, inst, alpha, name):
        policy = FixedCountPolicy(int(name[6:])) if name.startswith("fixed:") else name
        cost = PowerLaw(alpha)
        assert run_policy(inst, policy, cost) == _reference_run_policy(inst, policy, cost)

    @pytest.mark.parametrize("idle", [(), ((1, 0.5, INFINITE),)])
    def test_sparse_arrivals_cost_decisions_not_slots(self, alpha2, idle):
        # an unprofitable never-expiring job stays live through the gap; the
        # jump to the next arrival must not wait for an empty live set
        inst = mk_instance((1, 5.0, INFINITE), (200_000, 5.0, INFINITE), *idle)
        policy = CountingPolicy("min-lcr")
        trace = run_policy(inst, policy, alpha2)
        assert [d.slot for d in trace.decisions] == [1, 200_000]
        assert len(policy.slots) <= 4

    def test_empty_view_never_decided(self, alpha2):
        # job 0 is done at slot 1 and job 1 arrives at 10**12: the slots in
        # between and the slot after hold no live job, and cost no decide call
        inst = mk_instance((1, 5.0, 1), (10**12, 5.0, 1))
        policy = CountingPolicy("min-lcr")
        trace = run_policy(inst, policy, alpha2)
        assert [d.slot for d in trace.decisions] == [1, 10**12]
        assert policy.slots == [1, 10**12]

    @given(sparse_instances(), st.sampled_from([2.0, 2.5, 3.0]),
           st.sampled_from(["min-lcr", "sim-lcr", "greedy", "fixed:1", "fixed:3"]))
    @settings(max_examples=40, deadline=None)
    def test_no_empty_view_on_sparse_instances(self, inst, alpha, name):
        # a policy shown only non-empty views gives the same trace, ledgers included
        policy = FixedCountPolicy(int(name[6:])) if name.startswith("fixed:") else name
        cost = PowerLaw(alpha)
        counting = CountingPolicy(policy)
        assert run_policy(inst, counting, cost) == run_policy(inst, policy, cost)
        assert counting.slots == sorted(set(counting.slots))

    @pytest.mark.parametrize("name", ["min-lcr", "greedy"])
    def test_sums_added_left_to_right(self, name):
        # every job beats its 2**-60 marginal; 1.0 + 1e-16 + 1e-16 is 1.0 left
        # to right, where compensated summation gives 1.0000000000000002
        cost = TabulatedConvex(tuple(k * 2.0 ** -60 for k in range(4)))
        trace = run_policy(mk_instance((1, 1.0, 1), (1, 1e-16, 1), (1, 1e-16, 1)), name, cost)
        assert [b.P for b in trace.ledgers[0].breakdowns if b.i == 3] == [1.0]
        if name == "greedy":
            assert trace.decisions[0].payoff_sum == 1.0

    def test_overlong_count_rejected(self, alpha2):
        # counts outside 0..len(view), too many and negative, are refused, and
        # so are counts that are not integers: a float, and a bool as Job does
        for count in (lambda view: len(view) + 1, lambda view: -1,
                      lambda view: 1.5, lambda view: True):
            class Overreach(Policy):
                name = "overreach"

                def decide(self, view, cost):
                    return Decision(count(view))

            with pytest.raises(ModelError, match="only 1 available"):
                run_policy(mk_instance((1, 5.0, INFINITE)), Overreach(), alpha2)


class TestRunTable:
    """The slot step reads the run's table: a decide handed a `CostTable`
    grows its list, and a run makes no table call per slot."""

    @pytest.mark.parametrize("policy", [*POLICIES, "fixed:2"])
    def test_decide_grows_the_table_it_is_handed(self, policy):
        # at alpha = 2.5 the marginals are 1, 4.66, 9.93, 16.4: the scan
        # reads g(4), where the fourth job stops it, and nothing further
        table = CostTable(PowerLaw(2.5))
        g = table.values
        decision = policy_named(policy).decide(view_of(30, 20, 12, 1, 1), table)
        assert decision.count >= 1
        assert table.values is g
        assert g == [PowerLaw(2.5).g(k) for k in range(5)]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_no_table_call_per_slot(self, policy, monkeypatch):
        # n jobs with their own slots: every slot processes one, and the
        # run's table calls do not grow with n
        import speedscale
        calls = {"cost_table": 0, "g": 0}
        real_cost_table, real_g = cost_table, CostTable.g

        def counting_cost_table(cost):
            calls["cost_table"] += 1
            return real_cost_table(cost)

        def counting_g(table, k):
            calls["g"] += 1
            return real_g(table, k)

        for module in (speedscale.model, speedscale.policies, speedscale.analysis,
                       speedscale.offline, speedscale.adversary):
            if hasattr(module, "cost_table"):
                monkeypatch.setattr(module, "cost_table", counting_cost_table)
        monkeypatch.setattr(CostTable, "g", counting_g)

        def counted(n):
            calls.update(cost_table=0, g=0)
            instance = mk_instance(*[(slot, 5.0, 1) for slot in range(1, n + 1)])
            report = competitive_report(instance, policy, PowerLaw(2.0))
            assert len(report.per_slot_lcr) == n
            return dict(calls)

        assert counted(10) == counted(40)


class TestPolicyViewConstructor:
    def test_sort_check(self):
        with pytest.raises(ModelError) as info:
            PolicyView(1, ((0, 1.0), (1, 2.0)))
        assert str(info.value) == "view candidates must be sorted by non-increasing value"
        assert view_of().values == () and view_of(3, 3, 1).values == (3.0, 3.0, 1.0)

    def test_keywords_and_repr(self):
        view = PolicyView(slot=2, candidates=((5, 4.0),))
        assert view == PolicyView(2, ((5, 4.0),)) and view.values == (4.0,)
        assert repr(view) == "PolicyView(slot=2, candidates=((5, 4.0),))"

    def test_replace_recomputes_values(self):
        view = view_of(3, 2, 1)
        moved = dataclasses.replace(view, candidates=((7, 9.0), (8, 0.5)))
        assert moved.slot == 1 and moved.values == (9.0, 0.5)
        assert dataclasses.replace(view, slot=4).values == view.values
        with pytest.raises(ModelError, match="sorted"):
            dataclasses.replace(view, candidates=((7, 0.5), (8, 9.0)))
        with pytest.raises(ValueError):
            dataclasses.replace(view, values=(1.0,))

    def test_compare_and_hash_ignore_values(self):
        assert [f.name for f in dataclasses.fields(PolicyView) if f.compare] == \
            ["slot", "candidates"]
        view = view_of(3, 2, 1)
        assert hash(view) == hash((1, view.candidates)) and view == view_of(3, 2, 1)
        assert view != view_of(3, 2, 1, slot=2)

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                            lambda view: pickle.loads(pickle.dumps(view))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies(self, round_trip):
        view = view_of(3, 2, 1)
        back = round_trip(view)
        assert back == view and back.values == view.values and len(back) == 3

    @pytest.mark.parametrize("name", ["slot", "candidates", "values"])
    def test_frozen_and_slotted(self, name):
        view = view_of(3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(view, name, ())
        assert view.values == (3.0, 2.0) and not hasattr(view, "__dict__")


def assert_sorted_views(views, tie_key):
    """Each view's values are its candidates' values, in non-increasing order,
    and candidates of equal value are in increasing `tie_key(id)` order."""
    assert views
    for view in views:
        candidates, values = view.candidates, view.values
        assert repr(values) == repr(tuple(v for _, v in candidates))  # -0.0 too
        assert all(map(operator.ge, values, values[1:]))
        for (a, va), (b, vb) in zip(candidates, candidates[1:]):
            if va == vb:
                assert tie_key(a) < tie_key(b), (view.slot, candidates)


# few distinct values, so that equal values meet in one view
tied_values = st.sampled_from([0.0, -0.0, 0.5, 3.0, 6.0, 12.0]) | st.floats(0.0, 40.0)


@st.composite
def burst_instances(draw):
    """Bursts of jobs at one slot or a few adjacent slots, with ids in shuffled
    order, so ties on value are broken by arrival and by id."""
    specs, arrival = [], 1
    for _ in range(draw(st.integers(1, 4))):
        arrival += draw(st.integers(0, 3) | st.integers(0, 60))
        for _ in range(draw(st.integers(1, 10))):
            specs.append((arrival + draw(st.integers(0, 2)), draw(tied_values),
                          draw(st.just(INFINITE) | st.integers(1, 6))))
    ids = draw(st.permutations(range(len(specs))))
    return Instance(tuple(Job(i, a, v, d) for i, (a, v, d) in zip(ids, specs)))


class TestViewsHandedToPolicies:
    """The simulator and the game build their views sorted and check nothing
    per slot, so every view they hand a policy is held to the order here."""

    policies = st.sampled_from(["min-lcr", "sim-lcr", "greedy"]) | \
        st.integers(1, 4).map(FixedCountPolicy)

    @given(sparse_instances() | burst_instances(), policies, st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_run_policy_views(self, inst, policy, alpha):
        counting = CountingPolicy(policy)
        trace = run_policy(inst, counting, PowerLaw(alpha))
        assert trace == run_policy(inst, policy, PowerLaw(alpha))
        if inst.jobs:
            by_id = {job.id: job for job in inst.jobs}
            assert_sorted_views(counting.views, lambda i: (by_id[i].arrival, i))

    @given(st.lists(tied_values, min_size=1, max_size=30), policies,
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_game_view(self, values, policy, alpha):
        counting = CountingPolicy(policy)
        report = run_adversarial_game(counting, InstanceTemplate(tuple(values)),
                                      PowerLaw(alpha))
        assert report == run_adversarial_game(policy, InstanceTemplate(tuple(values)),
                                              PowerLaw(alpha))
        assert len(counting.views) == 1
        assert_sorted_views(counting.views, lambda i: i)


class TestInformationHiding:
    def test_view_carries_no_deadlines(self):
        view = view_of(3, 2, 1)
        assert not hasattr(view, "deadline")
        assert all(len(c) == 2 for c in view.candidates)

    def test_decisions_identical_until_availability_diverges(self, alpha2, rng):
        # same values, different deadlines: per-slot decisions agree as long as
        # the two runs have seen identical views
        from speedscale.analysis import random_instance
        for _ in range(20):
            a = random_instance(rng, alpha2, n_max=12)
            jobs_b = tuple(
                Job(j.id, j.arrival, j.value,
                    INFINITE if rng.random() < 0.5 else int(rng.integers(1, 7)))
                for j in a.jobs)
            b = Instance(jobs_b)
            policy = POLICIES["min-lcr"]
            done_a, done_b = set(), set()
            for slot in range(1, 12):
                live_a = available_jobs(a, slot, done_a)
                live_b = available_jobs(b, slot, done_b)
                view_a = PolicyView(slot, tuple((j.id, j.value) for j in live_a))
                view_b = PolicyView(slot, tuple((j.id, j.value) for j in live_b))
                if view_a != view_b:
                    break
                da = policy.decide(view_a, alpha2)
                db = policy.decide(view_b, alpha2)
                assert da.count == db.count
                done_a.update(j.id for j in live_a[:da.count])
                done_b.update(j.id for j in live_b[:db.count])
