import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale.model import (EMPTY_TRACE, INFINITE, InfeasibleTraceError, Instance,
                              InstanceFormatError, Job, ModelError, PowerLaw,
                              SlotDecision, TabulatedConvex, Trace,
                              dumps_instance, evaluate_trace, loads_instance, union)

from speedscale.offline import offline_profit
from speedscale.policies import SlotLedger, run_policy

from conftest import available_jobs, mk_instance


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


class TestEvaluateTrace:
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
        assert [f.name for f in dataclasses.fields(SlotDecision)] == [
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
        assert Trace(decisions).total_profit == float(sum(d.profit for d in decisions))
        assert EMPTY_TRACE.total_profit == 0.0


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
