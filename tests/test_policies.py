import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedscale import policies
from speedscale.adversary import PHI_PLUS_1
from speedscale.model import (INFINITE, Instance, Job, ModelError, PowerLaw,
                              SlotDecision, TabulatedConvex, Trace, evaluate_trace)
from speedscale.policies import (POLICIES, Decision, FixedCountPolicy, Policy,
                                 PolicyView, SlotLedger, UnsupportedCostError,
                                 beta_root, compute_m, get_policy,
                                 inner_greedy_profit, lcr_breakdown, run_policy)

from conftest import available_jobs, mk_instance


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


def view_of(*values, slot=1):
    return PolicyView(slot, tuple((i, float(v)) for i, v in enumerate(values)))


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
    def test_one_call_per_decide(self, alpha2, monkeypatch, policy):
        # a policy computes m once and hands it on; its breakdowns still
        # equal the public one-candidate definition bit for bit
        calls = []

        def counting(view, cost):
            calls.append(view)
            return compute_m(view, cost)

        monkeypatch.setattr(policies, "compute_m", counting)
        view = view_of(20, 12, 9, 7, 4, 1)
        decision = get_policy(policy).decide(view, alpha2)
        assert len(calls) == 1
        assert decision.count >= 1
        monkeypatch.undo()
        assert all(b == lcr_breakdown(view, alpha2, b.i) for b in decision.breakdowns)


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
        # min-lcr builds the ledger from prefix sums; lcr_breakdown is the
        # per-candidate definition. M, P and c_greedy are sums of the view's
        # values, so their rounding is bounded relative to the view's total and
        # enters the LCR divided by P.
        values = sorted(values, reverse=True)
        view = view_of(*values)
        decision = MIN_LCR.decide(view, cost)
        count, ledger = decision.count, decision.breakdowns
        reference = [lcr_breakdown(view, cost, i) for i in range(1, compute_m(view, cost) + 1)]
        assert [b.i for b in ledger] == [b.i for b in reference]
        tol = 1e-12 * sum(values)
        for a, b in zip(ledger, reference):
            assert abs(a.M - b.M) <= tol
            assert abs(a.P - b.P) <= tol
            assert abs(a.c_greedy - b.c_greedy) <= tol
            assert abs(a.lcr - b.lcr) <= tol * (2.0 + b.lcr) / b.P
        expected = min(reference, key=lambda b: (b.lcr, b.i)).i if reference else 0
        assert count == expected


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

    def test_trace_json_carries_full_ledger(self, alpha2):
        from speedscale.model import trace_to_obj
        inst = mk_instance((1, 10.0, INFINITE), (1, 6.0, 2), (1, 3.0, 1))
        obj = trace_to_obj(run_policy(inst, "min-lcr", alpha2))
        entry = obj["lcr_ledger"][0]
        assert entry["slot"] == 1 and entry["chosen"] >= 1
        assert {"i", "M", "P", "c_greedy", "lcr"} <= set(entry["breakdowns"][0])


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
        class Counting(Policy):
            name = "counting"
            calls = 0

            def decide(self, view, cost):
                self.calls += 1
                return POLICIES["min-lcr"].decide(view, cost)

        inst = mk_instance((1, 5.0, INFINITE), (200_000, 5.0, INFINITE), *idle)
        policy = Counting()
        trace = run_policy(inst, policy, alpha2)
        assert [d.slot for d in trace.decisions] == [1, 200_000]
        assert policy.calls <= 4

    def test_overlong_count_rejected(self, alpha2):
        # counts outside 0..len(view), too many and negative, are refused
        for count in (lambda view: len(view) + 1, lambda view: -1):
            class Overreach(Policy):
                name = "overreach"

                def decide(self, view, cost):
                    return Decision(count(view))

            with pytest.raises(ModelError, match="only 1 available"):
                run_policy(mk_instance((1, 5.0, INFINITE)), Overreach(), alpha2)


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
