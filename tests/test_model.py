import copy
import dataclasses
import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale.model import (EMPTY_TRACE, INFINITE, CostTable, InfeasibleTraceError, Instance,
                              InstanceFormatError, Job, ModelError, PowerLaw,
                              SlotDecision, TabulatedConvex, Trace, _trace_from_checked,
                              cost_table, dumps_instance, evaluate_trace, loads_instance,
                              read_instance, union)

from speedscale.offline import offline_profit, solve_offline_flow
from speedscale.policies import Decision, FixedCountPolicy, LcrBreakdown, SlotLedger, run_policy
from speedscale.reports import SlotLcr

from conftest import (CountingPowerLaw, assert_same_instance, available_jobs,
                      count_checked_constructions, job_values, mk_instance)

# (arrival, value, deadline) as Job accepts them, numpy integers included
drawn_jobs = st.tuples(st.one_of(st.integers(1, 5), st.integers(1, 5).map(np.int64)), job_values,
                       st.one_of(st.just(INFINITE), st.integers(1, 4), st.just(2.0),
                                 st.integers(1, 4).map(np.int64)))


class TestEffectiveCost:
    def test_power_law_examples(self):
        assert PowerLaw(2.0).effective_cost(3) == 5.0  # 9 - 4
        assert PowerLaw(2.0).effective_cost(1) == 1.0
        assert PowerLaw(3.0).effective_cost(2) == 7.0  # 8 - 1

    def test_k_zero_rejected(self):
        with pytest.raises(ModelError):
            PowerLaw(2.0).effective_cost(0)

    def test_marginals_nondecreasing_on_grid(self):
        # strictly positive and non-decreasing over k = 1..10_000 for a grid of alpha
        for alpha in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            k = np.arange(0, 10_001, dtype=float)
            marg = np.diff(k ** alpha)
            assert (marg > 0).all()
            assert (np.diff(marg) >= -1e-9).all()

    def test_tabulated_convex(self):
        t = TabulatedConvex((0.0, 1.0, 4.0, 9.0))
        assert t.g(2) == 4.0
        assert t.effective_cost(3) == 5.0
        with pytest.raises(ModelError):
            t.g(4)  # beyond the table

    def test_tabulated_rejects_nonconvex(self):
        with pytest.raises(ModelError):
            TabulatedConvex((0.0, 5.0, 6.0, 6.5))  # marginals decrease
        with pytest.raises(ModelError):
            TabulatedConvex((1.0, 2.0))  # g(0) != 0
        with pytest.raises(ModelError):
            TabulatedConvex((0.0, 0.0, 1.0))  # c_1 = 0

    @pytest.mark.parametrize("table, k", [((0.0, math.nan, 4.0), 1), ((0.0, 1.0, math.nan), 2),
                                          ((0.0, 1.0, math.inf, math.inf), 2)])
    def test_tabulated_refuses_non_finite(self, table, k):
        with pytest.raises(ModelError, match=rf"^cost table entry g\({k}\) must be"):
            TabulatedConvex(table)

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_tabulated_accepts_finite_convex_refuses_non_finite(self, marginals, data):
        # integer marginals in non-decreasing order sum exactly to a convex table
        table = (0.0, *itertools.accumulate(float(c) for c in sorted(marginals)))
        assert TabulatedConvex(table).table == table
        k = data.draw(st.integers(1, len(table) - 1))
        bad = data.draw(st.sampled_from([math.nan, math.inf]))
        with pytest.raises(ModelError, match=rf"^cost table entry g\({k}\) must be"):
            TabulatedConvex(table[:k] + (bad,) + table[k + 1:])


class TestJob:
    def test_expiry(self):
        assert Job(0, 3, 1.0, 2).expiry == 4
        assert Job(0, 3, 1.0, INFINITE).expiry == INFINITE

    def test_validation(self):
        with pytest.raises(ModelError):
            Job(-1, 1, 1.0, 1)
        with pytest.raises(ModelError):
            Job(0, 0, 1.0, 1)
        with pytest.raises(ModelError):
            Job(0, 1, -1.0, 1)
        with pytest.raises(ModelError):
            Job(0, 1, 1.0, 0)

    @pytest.mark.parametrize("fields", [(0, 2.0, 5.0, 3), (1.0, 1, 5.0, 3), (0, math.inf, 1.0),
                                        (math.nan, 1, 1.0), (0, "1", 1.0), (0, None, 1.0)],
                             ids=["float-arrival", "float-id", "inf-arrival", "nan-id",
                                  "str-arrival", "none-arrival"])
    def test_integer_fields_not_coerced(self, fields):
        with pytest.raises(ModelError, match="integer"):
            Job(*fields)

    def test_numpy_integers_accepted(self):
        job = Job(np.int64(3), np.int32(2), 1.0, 2)
        assert job.expiry == 3

    def test_numpy_integers_stored_as_int(self):
        # stored as an int32, the arrival wrapped around in the simulator's hard
        # stop (profit 0.0) and in the flow's window cut (ValueError)
        job = Job(np.int32(0), np.int32(2**31 - 1), 5.0, INFINITE)
        assert type(job.id) is int and type(job.arrival) is int
        inst = Instance((job,))
        assert run_policy(inst, "min-lcr", PowerLaw(2.0)).total_profit == 4.0
        assert offline_profit(inst, PowerLaw(2.0)) == 4.0

    @pytest.mark.parametrize("fields", [(True, 1, 1.0), (0, True, 1.0), (0, 1, True),
                                        (0, 1, 1.0, True), (0, np.True_, 1.0),
                                        (0, 1, 1.0, np.True_)],
                             ids=["id", "arrival", "value", "deadline", "numpy-arrival",
                                  "numpy-deadline"])
    def test_bools_refused(self, fields):
        # the instance loader rejects a JSON true in every field, so Job does too
        with pytest.raises(ModelError):
            Job(*fields)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_value_must_be_finite(self, value):
        with pytest.raises(ModelError, match="finite"):
            Job(0, 1, value, 1)

    def test_slotted(self):
        assert not hasattr(Job(0, 1, 5.0, 2), "__dict__")


class TestJobConstructor:
    # checks run in a fixed order: id, arrival, value, deadline
    @pytest.mark.parametrize("fields, message", [
        ((-1, 0, -1.0, 0), "job id must be a non-negative integer, got -1"),
        ((np.int64(-2), 1, 1.0), "job id must be a non-negative integer, got -2"),
        ((0.5, 1, 1.0), "job id must be a non-negative integer, got 0.5"),
        ((0, 0, -1.0, 0), "arrival must be an integer slot >= 1, got 0"),
        ((0, np.int32(-3), 1.0), "arrival must be an integer slot >= 1, got -3"),
        ((0, 2.0, 1.0), "arrival must be an integer slot >= 1, got 2.0"),
        ((0, 1, -1.0, 0), "value must be non-negative and finite, got -1.0"),
        ((0, 1, True, 0), "value must be non-negative and finite, got True"),
        ((0, 1, math.nan), "value must be non-negative and finite, got nan"),
        ((0, 1, 1.0, 0), "deadline must be a positive integer or INFINITE, got 0"),
        ((0, 1, 1.0, 1.5), "deadline must be a positive integer or INFINITE, got 1.5"),
        ((0, 1, 1.0, True), "deadline must be a positive integer or INFINITE, got True"),
        ((0, 1, 1.0, -math.inf), "deadline must be a positive integer or INFINITE, got -inf"),
    ])
    def test_messages(self, fields, message):
        with pytest.raises(ModelError) as info:
            Job(*fields)
        assert str(info.value) == message

    def test_keywords_and_defaults(self):
        job = Job(id=np.int64(4), arrival=np.int32(3), value=2.5)
        assert (type(job.id), type(job.arrival)) == (int, int)
        assert job == Job(4, 3, 2.5, INFINITE) and job.expiry == INFINITE
        assert Job(0, 3, 1.0, 2.0).expiry == 4 and Job(0, 3, 1.0, np.int64(2)).expiry == 4
        assert repr(job) == "Job(id=4, arrival=3, value=2.5, deadline=inf)"

    def test_replace_recomputes_expiry(self):
        job = Job(0, 3, 1.0, 2)
        assert dataclasses.replace(job, deadline=5).expiry == 7
        assert dataclasses.replace(job, arrival=10).expiry == 11
        assert dataclasses.replace(job, deadline=INFINITE).expiry == INFINITE
        with pytest.raises(ModelError, match="deadline"):
            dataclasses.replace(job, deadline=0)
        with pytest.raises(ValueError):
            dataclasses.replace(job, expiry=9)

    def test_compare_and_hash_ignore_expiry(self):
        assert [f.name for f in dataclasses.fields(Job) if f.compare] == \
            ["id", "arrival", "value", "deadline"]
        a, b = Job(1, 2, 3.0, 4), Job(1, 2, 3.0, 5)
        assert hash(a) == hash((1, 2, 3.0, 4)) and a == Job(1, 2, 3.0, 4.0)
        assert a < b and sorted([b, a]) == [a, b] and a != b
        assert Job(0, 9, 1.0) < Job(1, 1, 1.0)  # ordered as (id, arrival, value, deadline)

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                            lambda job: pickle.loads(pickle.dumps(job))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies(self, round_trip):
        for job in (Job(3, 2, 5.0, 4), Job(0, 1, 0.0)):
            back = round_trip(job)
            assert back == job and back.expiry == job.expiry and repr(back) == repr(job)

    @pytest.mark.parametrize("name", ["id", "arrival", "value", "deadline", "expiry"])
    def test_frozen(self, name):
        job = Job(0, 1, 5.0, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(job, name, 3)
        assert (job.id, job.arrival, job.value, job.deadline, job.expiry) == (0, 1, 5.0, 2, 2)


@pytest.mark.parametrize("record, field", [
    (LcrBreakdown(1, 2.0, 3.0, 0.5, 0.8), "lcr"),
    (Decision(1), "count"),
    (SlotLedger(1, 1, ()), "chosen"),
    (SlotDecision(1, frozenset({0}), 5.0, 1.0), "payoff_sum"),
    (SlotLcr(1, 1, 1.5), "lcr"),
    (Job(0, 1, 5.0), "value"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_records_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    assert getattr(record, field) == before


class TestAvailableJobs:
    def test_expired_job_excluded(self):
        inst = mk_instance((1, 5.0, 1))
        assert available_jobs(inst, 2) == []

    def test_infinite_deadline_included_far_out(self):
        inst = mk_instance((1, 5.0, INFINITE))
        assert [j.id for j in available_jobs(inst, 99)] == [0]

    def test_sort_contract(self):
        # values [6 (id2), 6 (id1), 10 (id3)] -> id3 first, then ties by id
        jobs = (Job(2, 1, 6.0, 9), Job(1, 1, 6.0, 9), Job(3, 1, 10.0, 9))
        inst = Instance(jobs)
        assert [j.id for j in available_jobs(inst, 1)] == [3, 1, 2]

    def test_tie_broken_by_arrival_before_id(self):
        jobs = (Job(0, 2, 6.0, 9), Job(5, 1, 6.0, 9))
        assert [j.id for j in available_jobs(Instance(jobs), 3)] == [5, 0]

    def test_excludes_processed(self):
        inst = mk_instance((1, 5.0, 9), (1, 4.0, 9))
        assert [j.id for j in available_jobs(inst, 1, {0})] == [1]


class TestInstance:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError):
            Instance((Job(1, 1, 1.0, 1), Job(1, 2, 1.0, 1)))

    def test_jobs_sorted_by_arrival_then_id(self):
        inst = Instance((Job(3, 2, 1.0, 1), Job(1, 1, 2.0, 1), Job(2, 1, 3.0, 1)))
        assert [j.id for j in inst.jobs] == [1, 2, 3]


class TestUnion:
    def test_identity_with_empty(self):
        sigma = mk_instance((1, 3.0, 2), (2, 4.0, INFINITE))
        merged = union(Instance(()), sigma)
        assert [(j.arrival, j.value, j.deadline) for j in merged.jobs] == \
               [(j.arrival, j.value, j.deadline) for j in sigma.jobs]

    def test_multiset_union_same_slot(self):
        a = mk_instance((1, 1.0, 1), (1, 2.0, 1))
        b = mk_instance((1, 3.0, 1))
        merged = union(a, b)
        assert len(merged) == 3
        assert all(j.arrival == 1 for j in merged.jobs)
        # ids are dense, a's jobs first in their own order
        assert [(j.id, j.value) for j in merged.jobs] == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_disjoint_slots_concatenate(self):
        a = mk_instance((1, 1.0, 1))
        b = mk_instance((5, 2.0, 1))
        merged = union(a, b)
        assert [j.arrival for j in merged.jobs] == [1, 5]
        assert len({j.id for j in merged.jobs}) == 2

    @given(st.lists(drawn_jobs, max_size=12), st.lists(drawn_jobs, max_size=12),
           st.sampled_from(["", "a"]), st.sampled_from(["", "b"]))
    def test_equals_checked_construction(self, a_rows, b_rows, a_label, b_label):
        a = Instance(tuple(Job(i, *row) for i, row in enumerate(a_rows)), label=a_label)
        b = Instance(tuple(Job(10 * i + 5, *row) for i, row in enumerate(reversed(b_rows))),
                     label=b_label)
        tagged = sorted((j.arrival, side, j.id, j) for side, part in enumerate((a, b))
                        for j in part.jobs)
        want = Instance(tuple(Job(new_id, j.arrival, j.value, j.deadline)
                              for new_id, (*_, j) in enumerate(tagged)),
                        label="|".join(l for l in (a_label, b_label) if l))
        assert_same_instance(union(a, b), want)

    def test_builds_no_checked_job(self, monkeypatch):
        a = mk_instance(*[(1 + i % 4, float(i), 3) for i in range(50)])
        b = mk_instance(*[(2 + i % 3, float(i), INFINITE) for i in range(50)])
        calls = count_checked_constructions(monkeypatch)
        merged = union(a, b)
        assert len(merged) == 100 and calls == []


class TestCostTable:
    def test_grows_lazily_each_g_once(self):
        cost = CountingPowerLaw(2.5)
        table = CostTable(cost)
        assert cost.calls == [] and table.values == []
        assert table.g(3) == PowerLaw(2.5).g(3) and table.g(1) == PowerLaw(2.5).g(1)
        assert table.effective_cost(3) == PowerLaw(2.5).effective_cost(3)
        assert cost.calls == [0, 1, 2, 3]
        assert table.values == [PowerLaw(2.5).g(k) for k in range(4)]

    def test_model_attributes_and_refusals(self):
        table = CostTable(PowerLaw(2.5))
        assert table.alpha == 2.5 and cost_table(table) is table
        assert type(cost_table(PowerLaw(2.5))) is CostTable
        with pytest.raises(ModelError, match="g is defined for k >= 0"):
            table.g(-1)
        assert table.values == []
        covered = CostTable(TabulatedConvex((0.0, 1.0, 4.0)))
        with pytest.raises(ModelError, match="covers k <= 2"):
            covered.g(3)
        assert covered.values == [0.0, 1.0, 4.0]
        assert copy.copy(covered).values == covered.values

    def test_one_table_per_run(self):
        # nothing is kept on the cost model between runs: a second run of the
        # same model evaluates what the first did
        inst = mk_instance((1, 9.0, 1), (1, 7.0, INFINITE), (2, 6.0, 2), (2, 5.0, 1))
        cost = CountingPowerLaw(2.0)
        first = run_policy(inst, "min-lcr", cost)
        calls = list(cost.calls)
        assert run_policy(inst, "min-lcr", cost) == first
        assert cost.calls == calls + calls and sorted(calls) == list(range(len(calls)))


class TestEvaluateTrace:
    def test_calls_the_raw_model(self):
        # the independent check evaluates g itself, once per decision, even
        # where the run that made the trace already read g(k)
        inst = mk_instance((1, 9.0, 1), (1, 7.0, INFINITE), (2, 6.0, 2), (2, 5.0, 1))
        cost = CountingPowerLaw(2.0)
        trace = run_policy(inst, "greedy", cost)
        cost.calls.clear()
        assert evaluate_trace(inst, trace, cost) == trace.total_profit
        assert cost.calls == [len(d.processed) for d in trace.decisions]

    def test_single_job(self, alpha2):
        inst = mk_instance((1, 10.0, 1))
        trace = Trace([SlotDecision.build(1, [inst.jobs[0]], alpha2)])
        assert evaluate_trace(inst, trace, alpha2) == 9.0

    def test_pair_in_one_slot(self, alpha2):
        inst = mk_instance((1, 10.0, 1), (1, 6.0, 1))
        trace = Trace([SlotDecision.build(1, list(inst.jobs), alpha2)])
        assert evaluate_trace(inst, trace, alpha2) == 12.0

    def test_processing_after_expiry_rejected(self, alpha2):
        inst = mk_instance((1, 10.0, 1))
        trace = Trace([SlotDecision.build(2, [inst.jobs[0]], alpha2)])
        with pytest.raises(InfeasibleTraceError) as err:
            evaluate_trace(inst, trace, alpha2)
        assert err.value.job_id == 0 and err.value.slot == 2

    def test_unknown_job_rejected(self, alpha2):
        inst = mk_instance((1, 10.0, 1))
        trace = Trace([SlotDecision(1, frozenset([5]), 10.0, 1.0)])
        with pytest.raises(InfeasibleTraceError) as err:
            evaluate_trace(inst, trace, alpha2)
        assert str(err.value) == "job 5 not in instance (slot 1)"
        assert err.value.job_id == 5 and err.value.slot == 1

    def test_double_processing_rejected(self, alpha2):
        inst = mk_instance((1, 10.0, INFINITE))
        job = inst.jobs[0]
        trace = Trace([SlotDecision.build(1, [job], alpha2),
                       SlotDecision.build(2, [job], alpha2)])
        with pytest.raises(InfeasibleTraceError):
            evaluate_trace(inst, trace, alpha2)

    @given(st.lists(st.tuples(st.integers(1, 4), st.floats(0, 50), st.integers(1, 5)),
                    min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_slots(self, specs):
        cost = PowerLaw(2.0)
        inst = mk_instance(*specs)
        decisions = []
        used = set()
        for slot in range(1, 7):
            batch = [j for j in available_jobs(inst, slot, used)][:2]
            if not batch:
                continue
            used.update(j.id for j in batch)
            decisions.append(SlotDecision.build(slot, batch, cost))
        trace = Trace(decisions)
        total = evaluate_trace(inst, trace, cost)
        assert math.isclose(total, sum(d.profit for d in decisions), abs_tol=1e-9)
        assert math.isclose(total, trace.total_profit, abs_tol=1e-9)


class TestTrace:
    def test_slot_profit_derived(self, alpha2):
        decision = SlotDecision.build(1, mk_instance((1, 10.0, 1), (1, 6.0, 1)).jobs, alpha2)
        assert list(SlotDecision._fields) == [
            "slot", "processed", "payoff_sum", "energy"]
        assert (decision.payoff_sum, decision.energy, decision.profit) == (16.0, 4.0, 12.0)

    @pytest.mark.parametrize("slots", [pytest.param((2, 1), id="out-of-order"),
                                       pytest.param((1, 3, 3), id="duplicate")])
    def test_slots_strictly_ordered(self, alpha2, slots):
        job = Job(0, 1, 5.0)
        with pytest.raises(ModelError, match="strictly ordered"):
            Trace([SlotDecision.build(slot, [job], alpha2) for slot in slots])

    def test_lists_stored_as_tuples(self, alpha2):
        jobs = mk_instance((1, 10.0, 1), (2, 6.0, INFINITE)).jobs
        decisions = [SlotDecision.build(1, jobs[:1], alpha2), SlotDecision.build(4, jobs[1:], alpha2)]
        ledgers = [SlotLedger(1, 1, ()), SlotLedger(4, 1, ())]
        trace = Trace(decisions, ledgers)
        assert trace == Trace(tuple(decisions), tuple(ledgers))
        assert type(trace.decisions) is tuple and type(trace.ledgers) is tuple

    @given(st.lists(st.floats(0, 50), max_size=6), st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_total_profit_sums_decisions(self, values, alpha):
        cost = PowerLaw(alpha)
        inst = mk_instance(*((1, v, INFINITE) for v in values))
        decisions = [SlotDecision.build(slot, [job], cost) for slot, job in enumerate(inst.jobs, 1)]
        total = 0.0
        for d in decisions:  # left to right, as on Python 3.11
            total += d.profit
        assert Trace(decisions).total_profit == total
        assert EMPTY_TRACE.total_profit == 0.0

    def test_sums_added_left_to_right(self, alpha2):
        # compensated summation, the builtin sum's from Python 3.12, gives 1.0000000000000002
        values = [1.0, 1e-16, 1e-16]
        jobs = mk_instance(*((1, v, 1) for v in values)).jobs
        assert SlotDecision.build(1, jobs, alpha2).payoff_sum == 1.0
        decisions = [SlotDecision(slot, frozenset([slot]), v, 0.0)
                     for slot, v in enumerate(values, 1)]
        assert Trace(decisions).total_profit == 1.0


    @given(st.lists(drawn_jobs, max_size=10),
           st.sampled_from(["min-lcr", "sim-lcr", "greedy", FixedCountPolicy(2)]),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_trusted_trace_equals_checked(self, specs, policy, alpha):
        # the traces the program builds itself skip the order check, and nothing else
        inst = Instance(tuple(Job(i, *spec) for i, spec in enumerate(specs)))
        cost = PowerLaw(alpha)
        for trace in (run_policy(inst, policy, cost), solve_offline_flow(inst, cost)[1]):
            checked = Trace(trace.decisions, trace.ledgers)
            trusted = _trace_from_checked(list(trace.decisions), list(trace.ledgers))
            assert trusted == checked == trace
            assert trusted.total_profit.hex() == checked.total_profit.hex()
            assert type(trusted.decisions) is tuple and type(trusted.ledgers) is tuple


class TestInstanceFiles:
    def test_round_trip(self):
        inst = mk_instance((1, 2.5, 3), (2, 0.0, INFINITE), label="x")
        text = dumps_instance(inst)
        back = loads_instance(text, label="x")
        assert [(j.id, j.arrival, j.value, j.deadline) for j in back.jobs] == \
               [(j.id, j.arrival, j.value, j.deadline) for j in inst.jobs]

    def test_numpy_fields_written(self):
        job = Job(np.int64(0), np.int64(2), np.float64(1.5), np.int64(3))
        assert json.loads(dumps_instance(Instance((job,)))) == \
            {"id": 0, "arrival": 2, "value": 1.5, "deadline": 3}

    @given(st.one_of(st.integers(-2, 10**20), st.booleans(), st.floats(),
                     st.integers(0, 2**62).map(np.int64)),
           st.one_of(st.integers(-2, 10**20), st.booleans(), st.floats(),
                     st.integers(-2, 2**31 - 1).map(np.int32)),
           st.one_of(st.floats(), st.integers(-2, 10**6), st.booleans(),
                     st.floats(0, 1e6, width=32).map(np.float32)),
           st.one_of(st.just(INFINITE), st.integers(-2, 10**20), st.booleans(), st.floats(),
                     st.integers(-2, 10**6).map(np.int64)))
    @settings(max_examples=400, deadline=None)
    def test_every_accepted_job_round_trips(self, job_id, arrival, value, deadline):
        try:
            job = Job(job_id, arrival, value, deadline)
        except ModelError:
            return
        (back,) = loads_instance(dumps_instance(Instance((job,)))).jobs
        assert back == job
        assert back.expiry == job.expiry

    def test_inf_literal(self):
        text = '{"id": 0, "arrival": 1, "value": 1.5, "deadline": "inf"}\n'
        inst = loads_instance(text)
        assert inst.jobs[0].deadline == INFINITE
        assert json.loads(dumps_instance(inst).strip())["deadline"] == "inf"

    def test_bad_line_reports_number(self):
        text = '{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1}\nnot json\n'
        with pytest.raises(InstanceFormatError) as err:
            loads_instance(text)
        assert err.value.line == 2

    def test_bad_deadline_type(self):
        with pytest.raises(InstanceFormatError):
            loads_instance('{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1.5}\n')

    @pytest.mark.parametrize("field, raw", [
        ("id", "true"), ("id", "1.7"), ("arrival", "true"), ("arrival", "1.7"),
        ("value", '"3"'), ("value", "true"), ("value", "Infinity"), ("value", "NaN"),
        ("value", "1e400"), pytest.param("value", "1" + "0" * 400, id="value-400-digit-int"),
    ])
    def test_field_rejected_not_coerced(self, field, raw):
        good = {"id": 1, "arrival": 2, "value": 3.0, "deadline": 2}
        bad = ", ".join(f'"{k}": {raw if k == field else json.dumps(v)}' for k, v in good.items())
        text = '{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1}\n{' + bad + '}\n'
        with pytest.raises(InstanceFormatError, match=field) as err:
            loads_instance(text)
        assert err.value.line == 2

    def test_missing_field(self):
        with pytest.raises(InstanceFormatError) as err:
            loads_instance('{"id": 0, "arrival": 1, "value": 1.0}\n')
        assert err.value.line == 1

    def test_duplicate_id_names_both_lines(self):
        text = (Path(__file__).resolve().parent / "duplicate_id_instance.jsonl").read_text()
        with pytest.raises(InstanceFormatError) as err:
            loads_instance(text)
        assert str(err.value) == "line 2: duplicate job id 1 (first on line 1)"
        assert err.value.line == 2
        assert isinstance(err.value, ModelError)

    def test_non_utf8_file_names_the_line(self):
        # the byte 0xff stands inside line 2's JSON string
        path = Path(__file__).resolve().parent / "non_utf8_instance.jsonl"
        with pytest.raises(InstanceFormatError) as err:
            read_instance(path)
        assert str(err.value) == "line 2: not UTF-8 (byte 0xff: invalid start byte)"
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_file_newlines(self, tmp_path, newline):
        # a file reads "\r" and "\r\n" as line ends, for the jobs and for a bad byte
        path = tmp_path / "jobs.jsonl"
        lines = [b'{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1}',
                 b'{"id": 1, "arrival": 2, "value": 1.0, "deadline": "inf"}']
        path.write_bytes(newline.join(lines) + newline)
        assert read_instance(path).jobs == (Job(0, 1, 1.0, 1), Job(1, 2, 1.0, INFINITE))
        path.write_bytes(newline.join(lines + [b'"\xff"']) + newline)
        with pytest.raises(InstanceFormatError) as err:
            read_instance(path)
        assert str(err.value) == "line 3: not UTF-8 (byte 0xff: invalid start byte)"

    def test_job_refusal_names_the_line(self):
        text = ('{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1}\n'
                '{"id": 1, "arrival": 0, "value": 1.0, "deadline": 1}\n')
        with pytest.raises(InstanceFormatError) as err:
            loads_instance(text)
        assert str(err.value) == "line 2: arrival must be an integer slot >= 1, got 0"
        assert err.value.line == 2

    def test_line_separator_inside_string(self):
        # U+2028 may stand unescaped inside a JSON string; it ends no line
        text = '{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1, "note": "a\u2028b"}\n'
        assert loads_instance(text).jobs == (Job(0, 1, 1.0, 1),)

    @pytest.mark.parametrize("first, line", [
        pytest.param("\x0c", 2, id="form-feed-line"),
        pytest.param('{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1}\x0c', 1,
                     id="form-feed-after-job"),  # not JSON whitespace
    ])
    def test_only_newline_ends_a_line(self, first, line):
        with pytest.raises(InstanceFormatError) as err:
            loads_instance(first + '\n{"id": 1, "arrival": 1, "value": 1.0}\n')
        assert err.value.line == line
