import math
import time
from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale import adversary, offline
from speedscale.adversary import (InstanceTemplate, adversary_finalize, gen_alpha2_lb_instance,
                                  run_adversarial_game)
from speedscale.analysis import _small_instance, competitive_report, random_instance
from speedscale.model import (EMPTY_TRACE, INFINITE, Instance, Job, PowerLaw,
                              evaluate_trace, union)
from speedscale.offline import (OfflineSizeError, _columns, _FlowState, offline_profit,
                                solve_offline_bruteforce, solve_offline_flow)
from speedscale.policies import POLICIES, FixedCountPolicy, run_policy

from conftest import mk_instance


class TestWindowCut:
    def test_never_expiring_windows_cut(self, alpha2):
        inst = mk_instance((1, 4.0, INFINITE), (1, 4.0, INFINITE))
        assert _columns(inst) == ([0, 1], [4.0, 4.0], [1, 1], [INFINITE, INFINITE])
        state = _FlowState([4.0, 4.0], [1, 1], [INFINITE, INFINITE], alpha2)
        assert state.ends == [3, 3]  # last arrival 1 + two jobs

    def test_long_finite_windows_cut(self, alpha2):
        # the flow cuts a finite window at the same slot; a short one stays whole
        inst = mk_instance((1, 4.0, 7), (2, 4.0, 2))
        assert _columns(inst) == ([0, 1], [4.0, 4.0], [1, 2], [7, 3])
        state = _FlowState([4.0, 4.0], [1, 2], [7, 3], alpha2)
        assert state.ends == [4, 3]  # last arrival 2 + two jobs

    @pytest.mark.parametrize("template, policy, chosen", [
        (gen_alpha2_lb_instance(5), FixedCountPolicy(3), {0, 1, 2}),
        # ids 1 and 3 hold the two profitable values: chosen by id, not by rank
        (InstanceTemplate((1.0, 9.0, 5.0, 8.0)), "greedy", {1, 3})])
    def test_game_windows_cut(self, monkeypatch, alpha2, template, policy, chosen):
        # the game's n = 2z jobs arrive at slot 1: chosen ones end at the cut 1 + n, the others at 1
        states = []

        def recorded(*columns):
            states.append(offline._flow_pass(*columns))
            return states[-1]

        monkeypatch.setattr(adversary, "_flow_pass", recorded)
        run_adversarial_game(policy, template, alpha2)
        n = len(template.values)
        assert [state.ends for state in states] == [
            [1 + n if jid in chosen else 1 for jid in range(n)]]

    def test_empty(self, alpha2):
        empty = Instance(())
        assert offline_profit(empty, alpha2) == 0.0
        assert solve_offline_flow(empty, alpha2) == (0.0, EMPTY_TRACE)


class TestWorkedExamples:
    def test_two_infinite_jobs_spread_out(self, alpha2):
        inst = mk_instance((1, 4.0, INFINITE), (1, 4.0, INFINITE))
        profit, trace = solve_offline_flow(inst, alpha2)
        assert profit == 6.0  # one per slot beats both at once
        assert solve_offline_bruteforce(inst, alpha2)[0] == 6.0

    def test_two_expiring_jobs_share_slot(self, alpha2):
        inst = mk_instance((1, 4.0, 1), (1, 4.0, 1))
        profit, _ = solve_offline_flow(inst, alpha2)
        assert profit == 4.0  # 8 - 4 beats 4 - 1
        assert solve_offline_bruteforce(inst, alpha2)[0] == 4.0

    def test_unprofitable_job_dropped(self, alpha2):
        inst = mk_instance((1, 0.5, 1))
        assert solve_offline_flow(inst, alpha2)[0] == 0.0
        assert solve_offline_bruteforce(inst, alpha2)[0] == 0.0

    def test_single_job_two_slot_window(self, alpha2):
        inst = mk_instance((1, 10.0, 2))
        assert solve_offline_bruteforce(inst, alpha2)[0] == 9.0
        assert solve_offline_flow(inst, alpha2)[0] == 9.0

    def test_zero_jobs(self, alpha2):
        assert solve_offline_bruteforce(Instance(()), alpha2)[0] == 0.0


class TestBruteForceGuards:
    def test_too_many_jobs(self, alpha2):
        inst = mk_instance(*[(1, 1.0, 1)] * 11)
        with pytest.raises(OfflineSizeError):
            solve_offline_bruteforce(inst, alpha2)

    def test_horizon_too_deep(self, alpha2):
        # the brute force keeps finite windows whole: expiry 9, though the flow cuts at 2
        inst = mk_instance((1, 1.0, 9))
        with pytest.raises(OfflineSizeError):
            solve_offline_bruteforce(inst, alpha2)


class TestOracleEquivalence:
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
    def test_random_instances(self, alpha, rng):
        cost = PowerLaw(alpha)
        for _ in range(150):
            inst = _small_instance(rng)
            f, trace_f = solve_offline_flow(inst, cost)
            b, trace_b = solve_offline_bruteforce(inst, cost)
            assert abs(f - b) <= 1e-6, (f, b, inst.jobs)
            # both witnesses must be feasible and add up
            assert math.isclose(evaluate_trace(inst, trace_f, cost), f, abs_tol=1e-9)
            assert math.isclose(evaluate_trace(inst, trace_b, cost), b, abs_tol=1e-9)

    @given(st.lists(st.tuples(st.integers(1, 3), st.floats(0, 25), st.integers(1, 4)),
                    min_size=1, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_instances(self, specs):
        cost = PowerLaw(2.0)
        specs = [(a, v, min(d, 6 - a + 1)) for a, v, d in specs]
        inst = mk_instance(*specs)
        f, _ = solve_offline_flow(inst, cost)
        b, _ = solve_offline_bruteforce(inst, cost)
        assert abs(f - b) <= 1e-6


class TestOfflineProperties:
    def test_subadditive_over_union(self, alpha2, rng):
        for _ in range(120):
            a = random_instance(rng, alpha2, n_max=8, max_deadline=4)
            b = random_instance(rng, alpha2, n_max=8, max_deadline=4)
            off_a = solve_offline_flow(a, alpha2)[0]
            off_b = solve_offline_flow(b, alpha2)[0]
            off_ab = solve_offline_flow(union(a, b), alpha2)[0]
            assert off_ab <= off_a + off_b + 1e-6

    def test_dominates_online_policies(self, alpha2, rng):
        for _ in range(60):
            inst = random_instance(rng, alpha2, n_max=12)
            off = solve_offline_flow(inst, alpha2)[0]
            for name in POLICIES:
                assert run_policy(inst, name, alpha2).total_profit <= off + 1e-9

    def test_alone_in_distinct_slots_upper_bound(self, alpha2, rng):
        for _ in range(60):
            inst = random_instance(rng, alpha2, n_max=12)
            off = solve_offline_flow(inst, alpha2)[0]
            cap = sum(max(0.0, j.value - alpha2.g(1)) for j in inst.jobs)
            assert off <= cap + 1e-9

    def test_flow_handles_large_batch(self, alpha2):
        # 2z identical jobs, z infinite 1-slot windows: closed form z^2 + 2zk - k
        z, k = 50, 31
        jobs = [Job(i, 1, float(2 * z), INFINITE if i < k else 1) for i in range(2 * z)]
        profit, _ = solve_offline_flow(Instance(tuple(jobs)), alpha2)
        assert profit == z * z + 2 * z * k - k

    def test_flow_reroutes_earlier_assignment(self, alpha2):
        # the high-value job gets placed first, then must vacate slot 1 for the
        # job that can only run there
        inst = mk_instance((1, 10.0, 2), (1, 9.9, 1))
        profit, trace = solve_offline_flow(inst, alpha2)
        assert math.isclose(profit, (9.9 - 1) + (10.0 - 1), abs_tol=1e-9)
        placed = {d.slot: set(d.processed) for d in trace.decisions}
        assert placed == {1: {1}, 2: {0}}

    def test_flow_chain_of_displacements(self, alpha2):
        # nested windows force a two-step chain: adding the [1,1] job pushes the
        # [1,2] job to slot 2, which pushes the [1,3] job to slot 3
        inst = mk_instance((1, 8.0, 3), (1, 9.0, 2), (1, 10.0, 1))
        profit, trace = solve_offline_flow(inst, alpha2)
        assert math.isclose(profit, 7.0 + 8.0 + 9.0, abs_tol=1e-9)
        assert math.isclose(solve_offline_bruteforce(inst, alpha2)[0], profit, abs_tol=1e-9)


def bursts_instance(seed, never_expiring):
    """1,000 jobs in 4 bursts of 250, each burst 5,000 idle slots after the last.

    Poisson(0.3) arrival gaps inside a burst; `never_expiring` jobs, at random
    positions, never expire and the others stay for 1-6 slots.
    """
    rng = np.random.default_rng(seed)
    never = rng.permutation(1000) < never_expiring
    jobs, arrival = [], 1
    for i in range(1000):
        if i % 250 == 0 and i:
            arrival += 5000
        elif i:
            arrival += int(rng.poisson(0.3))
        deadline = INFINITE if never[i] else int(rng.integers(1, 7))
        jobs.append(Job(i, arrival, float(rng.uniform(0.0, 12.0)), deadline))
    return Instance(tuple(jobs))


class TestSparseBursts:
    def test_thousand_jobs_with_never_expiring(self, alpha2):
        # never-expiring windows reach across every gap, so reassignment chains
        # span the whole instance
        inst = bursts_instance(11, never_expiring=150)
        start = time.perf_counter()
        profit, trace = solve_offline_flow(inst, alpha2)
        assert time.perf_counter() - start < 2.0
        assert math.isclose(evaluate_trace(inst, trace, alpha2), profit, rel_tol=1e-9)

    def test_finite_bursts_solve_apart(self, alpha2):
        # with finite windows no chain crosses a 5,000-slot gap
        inst = bursts_instance(12, never_expiring=0)
        profit, trace = solve_offline_flow(inst, alpha2)
        apart = sum(solve_offline_flow(Instance(inst.jobs[b: b + 250]), alpha2)[0]
                    for b in range(0, 1000, 250))
        assert math.isclose(profit, apart, rel_tol=1e-9)
        assert math.isclose(evaluate_trace(inst, trace, alpha2), profit, rel_tol=1e-9)


def pass_runs(inst):
    """(cut window, positions) of each maximal run of one window in pass order."""
    cut = inst.last_arrival + len(inst)
    jobs = inst.jobs
    order = sorted(range(len(jobs)), key=lambda p: (-jobs[p].value, jobs[p].id))
    return [(window, list(run)) for window, run in groupby(
        order, key=lambda p: (jobs[p].arrival, min(jobs[p].expiry, cut)))]


@pytest.fixture
def steps(monkeypatch):
    # the runs read by `place`, the flow's one step per run, as (window,
    # positions); and the windows searched, each of them all busy
    runs, searches = [], []
    place, search = _FlowState.place, _FlowState.cheapest_reachable

    def counted_place(state, pos, rest):
        run = [pos]

        def tapped():
            for p in rest:
                run.append(p)
                yield p

        after = place(state, pos, tapped())
        if after is not None:  # the next run's first job, read for the boundary test
            assert run.pop() == after
        runs.append(((state.starts[pos], state.ends[pos]), run))
        return after

    def counted_search(state, lo, hi, idle):
        assert idle == plain_first_idle(state, lo) > hi
        searches.append((lo, hi))
        return search(state, lo, hi, idle)

    monkeypatch.setattr(_FlowState, "place", counted_place)
    monkeypatch.setattr(_FlowState, "cheapest_reachable", counted_search)
    return runs, searches


class TestOnePass:
    @pytest.mark.parametrize("inst", [random_instance(np.random.default_rng(39), PowerLaw(2.0),
                                                      n_max=30, mean_gap=0.3),
                                      bursts_instance(11, never_expiring=150)],
                             ids=["random", "bursts"])
    def test_one_search_per_job(self, alpha2, steps, inst):
        # 30 jobs, and 1,000 in bursts: each cut window is read exactly once,
        # in one step per run of one window, however many jobs get placed, by
        # either entry point; it is searched at most once per job, and only
        # when it holds no idle slot
        runs, searches = steps
        profit, trace = solve_offline_flow(inst, alpha2)
        expected = pass_runs(inst)
        windows = [window for window, run in expected for _ in run]
        assert runs == expected
        assert not Counter(searches) - Counter(windows) and len(searches) < len(windows)
        assert 0 < sum(len(d.processed) for d in trace.decisions) < len(inst)
        assert math.isclose(evaluate_trace(inst, trace, alpha2), profit, rel_tol=1e-9)
        first_searches = searches[:]
        runs.clear()
        searches.clear()
        assert offline_profit(inst, alpha2) == profit
        assert runs == expected and searches == first_searches

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("policy", ["min-lcr", "greedy"])
    def test_game_searches_twice(self, steps, alpha, policy):
        # 4,000 jobs in two runs of one window: the chosen jobs each take an
        # idle slot, and the rest, all with window [1, 1], search twice: once
        # to move a chain, once more for the reach the run's next jobs reuse
        runs, searches = steps
        run_adversarial_game(policy, gen_alpha2_lb_instance(2000), PowerLaw(alpha))
        assert sum(len(run) for _, run in runs) == 4000 and len(searches) <= 2

    def test_thousands_of_dense_jobs(self, alpha2):
        # Poisson(0.3) arrival gaps pack 3,498 jobs into ~1,000 slots, so most
        # searches cross long runs of busy slots
        inst = random_instance(np.random.default_rng(4000), alpha2, n_max=4000, mean_gap=0.3)
        assert len(inst) == 3498
        start = time.perf_counter()
        profit, trace = solve_offline_flow(inst, alpha2)
        assert time.perf_counter() - start < 3.0
        assert math.isclose(evaluate_trace(inst, trace, alpha2), profit, rel_tol=1e-9)


class TestRunSteps:
    # work counters, not seconds: the flow takes one step per run of one
    # window, so the game's steps and searches stay flat as z grows
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_game_work_does_not_grow_with_z(self, steps, alpha):
        runs, searches = steps
        for z in (500, 1000, 2000):
            runs.clear()
            searches.clear()
            run_adversarial_game("min-lcr", gen_alpha2_lb_instance(z), PowerLaw(alpha))
            assert sum(len(run) for _, run in runs) == 2 * z
            assert len(searches) <= 2 and len(runs) <= 4

    def test_one_step_per_run_on_battery_instances(self, alpha2, steps):
        # Poisson(0.3) arrival gaps: now and then two jobs next to each other
        # in pass order share a window, so runs are fewer than jobs
        runs, _ = steps
        rng = np.random.default_rng(7)
        jobs = merged = 0
        for _ in range(100):
            inst = random_instance(rng, alpha2, n_max=30, mean_gap=0.3)
            runs.clear()
            offline_profit(inst, alpha2)
            assert runs == pass_runs(inst)
            jobs += len(inst)
            merged += len(inst) - len(runs)
        assert merged > 0.02 * jobs


class CountingPowerLaw(PowerLaw):
    """PowerLaw(alpha) that counts its g evaluations by k."""

    def __init__(self, alpha):
        super().__init__(alpha)
        object.__setattr__(self, "calls", Counter())

    def g(self, k):
        self.calls[k] += 1
        return super().g(k)


class TestOneCostTable:
    @pytest.mark.parametrize("inst", [
        random_instance(np.random.default_rng(39), PowerLaw(2.0), n_max=30, mean_gap=0.3),
        bursts_instance(11, never_expiring=150),
        adversary_finalize(gen_alpha2_lb_instance(2000), range(1236)),
    ], ids=["random", "bursts", "game"])
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_each_g_once_per_pass(self, inst, alpha):
        # the flow prices and scores from one table g(0), g(1), ..., grown
        # only as far as loads reach
        cost = CountingPowerLaw(alpha)
        profit = offline_profit(inst, cost)
        assert max(cost.calls.values()) == 1
        assert sorted(cost.calls) == list(range(len(cost.calls)))
        assert profit == offline_profit(inst, PowerLaw(alpha))
        _, trace = solve_offline_flow(inst, PowerLaw(alpha))
        assert len(cost.calls) <= 2 + max(len(d.processed) for d in trace.decisions)


class TestLongDeadlines:
    def test_far_deadline_acts_like_none(self, alpha2):
        # slots past last arrival + n never help, so a deadline of 10**12 acts
        # like none; the solver must not size its state from the raw deadline
        far = mk_instance((1, 4.0, 10**12), (1, 4.0, 10**12), (2, 3.0, 10**12))
        never = mk_instance((1, 4.0, INFINITE), (1, 4.0, INFINITE), (2, 3.0, INFINITE))
        start = time.perf_counter()
        profit, trace = solve_offline_flow(far, alpha2)
        assert time.perf_counter() - start < 1.0
        assert math.isclose(evaluate_trace(far, trace, alpha2), profit, rel_tol=1e-12)
        assert profit == solve_offline_flow(never, alpha2)[0] == 8.0  # one job per slot


def shifted(inst, s):
    return Instance(tuple(Job(j.id, j.arrival + s, j.value, j.deadline) for j in inst.jobs))


def witness(trace, s=0):
    return [(d.slot + s, d.processed) for d in trace.decisions]


class TestSlotTranslation:
    # the flow follows jobs, not slot numbers: moving every arrival by s moves
    # the schedule by s and leaves the profit's bits alone
    @given(st.lists(st.tuples(st.integers(1, 12), st.floats(0, 25),
                              st.one_of(st.integers(1, 6), st.just(INFINITE))),
                    min_size=1, max_size=14),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_profit_and_witness_shift(self, specs, alpha):
        cost = PowerLaw(alpha)
        inst = mk_instance(*sorted(specs, key=lambda spec: spec[0]))
        profit, trace = solve_offline_flow(inst, cost)
        for s in (0, 1, 10**6, 10**12):
            moved = shifted(inst, s)
            assert offline_profit(moved, cost).hex() == profit.hex()
            moved_profit, moved_trace = solve_offline_flow(moved, cost)
            assert moved_profit.hex() == profit.hex()
            assert witness(moved_trace) == witness(trace, s)

    def test_far_arrival_within_budget(self, alpha2):
        # a never-expiring window spans 10**12 slots; nothing may be sized by it
        inst = mk_instance((1, 5.0, INFINITE), (10**12, 4.0, INFINITE), (10**12, 3.0, 1))
        start = time.perf_counter()
        report = competitive_report(inst, "min-lcr", alpha2)
        assert time.perf_counter() - start < 0.05
        assert report.off_profit == 9.0  # one job per slot: 4 + 3 + 2


def plain_first_idle(state, t):
    while state.loads.get(t, 0):
        t += 1
    return t


def assert_first_idle_sound(state):
    assert set(state.skip) == set(state.loads)  # links only on busy slots
    assert min(state.loads.values(), default=1) >= 1
    for t in range(1, max(state.ends) + 2):
        assert state.first_idle(t) == plain_first_idle(state, t)


def small_bursts_instance(rng):
    """3 bursts of up to 10 jobs, 40 idle slots apart; a fifth never expire."""
    jobs, arrival = [], 1
    for burst in range(3):
        for _ in range(int(rng.integers(1, 11))):
            arrival += int(rng.poisson(0.3))
            deadline = INFINITE if rng.random() < 0.2 else int(rng.integers(1, 7))
            jobs.append(Job(len(jobs), arrival, float(rng.uniform(0.0, 12.0)), deadline))
        arrival += 40
    return Instance(tuple(jobs))


class TestFirstIdle:
    @pytest.fixture
    def checked(self, monkeypatch):
        placed = []  # jobs placed by each step that placed any
        place = _FlowState.place

        def checked_place(state, pos, rest):
            before = sum(map(len, state.slot_jobs.values()))
            after = place(state, pos, rest)
            assert_first_idle_sound(state)
            if sum(map(len, state.slot_jobs.values())) > before:
                placed.append(pos)
            return after

        monkeypatch.setattr(_FlowState, "place", checked_place)
        return placed

    def test_matches_plain_scan(self, alpha2, checked):
        # after every run step of 100 random and 100 burst instances
        rng = np.random.default_rng(2026)
        for i in range(200):
            if i % 2:
                inst = small_bursts_instance(rng)
            else:
                inst = random_instance(rng, alpha2, n_max=30, mean_gap=0.5)
            checked.clear()
            profit, _ = solve_offline_flow(inst, alpha2)
            assert profit == 0.0 or checked

    def test_chain_empties_and_refills_a_slot(self, alpha2):
        # job 0 takes slot 1; job 1 fits only slot 1, so the chain moves job 0
        # to slot 2, leaving slot 1 with no job until job 1 lands there
        state = _FlowState([10.0, 9.0], [1, 1], [2, 1], alpha2)
        assert state.place(0, iter([1])) == 1  # [1, 2] and [1, 1]: two runs
        assert state.slot_jobs == {1: [0]}
        assert_first_idle_sound(state)
        assert state.cheapest_reachable(1, 1, state.first_idle(1)) == (2, (1, 2, [(2, 2, 1)]))
        assert state.place(1, iter(())) is None
        assert_first_idle_sound(state)
        assert state.slot_jobs == {1: [1], 2: [0]}
        assert state.first_idle(1) == 3
