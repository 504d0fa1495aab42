"""Cross-check the production flow solver against a textbook reference:
an explicit residual graph (source -> jobs -> window slots -> parallel unit
arcs to the sink) solved by Bellman-Ford successive shortest paths. Slower
but independent of the displacement-chain search, and it scales past the
brute-force guard.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedscale import offline
from speedscale.adversary import adversary_finalize, gen_alpha2_lb_instance
from speedscale.model import (INFINITE, CostModel, Instance, Job, PowerLaw, TabulatedConvex,
                              evaluate_trace)
from speedscale.offline import (OfflineSizeError, _columns, _flow_pass, _FlowState,
                                offline_profit, solve_offline_bruteforce, solve_offline_flow)


class RefGraph:
    def __init__(self, n_nodes):
        self.adj = [[] for _ in range(n_nodes)]

    def add(self, u, v, cap, cost):
        self.adj[u].append([v, cap, cost, len(self.adj[v])])
        self.adj[v].append([u, 0, -cost, len(self.adj[u]) - 1])


def reference_offline(instance: Instance, cost: CostModel) -> float:
    jobs = instance.jobs
    if not jobs:
        return 0.0
    n = len(jobs)
    bound = max(j.arrival for j in jobs) + n  # n jobs never need a later slot
    windows = [(j.arrival, min(j.expiry, bound)) for j in jobs]
    horizon = max(end for _, end in windows)
    source, sink = 0, 1 + n + horizon
    g = RefGraph(sink + 1)
    for idx, (j, (start, end)) in enumerate(zip(jobs, windows)):
        g.add(source, 1 + idx, 1, -j.value)
        for t in range(start, end + 1):
            g.add(1 + idx, n + t, 1, 0.0)
    for t in range(1, horizon + 1):
        for k in range(1, n + 1):
            g.add(n + t, sink, 1, cost.effective_cost(k))

    total = 0.0
    while True:
        dist = [math.inf] * (sink + 1)
        parent = [None] * (sink + 1)
        dist[source] = 0.0
        for _ in range(sink + 1):
            changed = False
            for u in range(sink + 1):
                if dist[u] == math.inf:
                    continue
                for ei, (v, cap, cost, _) in enumerate(g.adj[u]):
                    if cap > 0 and dist[u] + cost < dist[v] - 1e-12:
                        dist[v] = dist[u] + cost
                        parent[v] = (u, ei)
                        changed = True
            if not changed:
                break
        if dist[sink] >= -1e-12:
            break
        total -= dist[sink]
        v = sink
        while v != source:
            u, ei = parent[v]
            arc = g.adj[u][ei]
            arc[1] -= 1
            g.adj[v][arc[3]][1] += 1
            v = u
    return total


def random_medium_instance(rng):
    n = int(rng.integers(5, 36))
    jobs = []
    arrival = 1
    for i in range(n):
        arrival += int(rng.poisson(0.4))
        deadline = INFINITE if rng.random() < 0.2 else int(rng.integers(1, 7))
        jobs.append(Job(i, arrival, float(rng.uniform(0, 30)), deadline))
    return Instance(tuple(jobs))


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_flow_matches_bellman_ford_reference(alpha):
    rng = np.random.default_rng(hash(alpha) % 2 ** 32)
    cost = PowerLaw(alpha)
    for _ in range(12):
        inst = random_medium_instance(rng)
        fast, _ = solve_offline_flow(inst, cost)
        slow = reference_offline(inst, cost)
        assert abs(fast - slow) <= 1e-6, (fast, slow, inst.jobs)


def test_flow_matches_reference_on_sparse_tied_instances():
    # arrival gaps, duplicate values, and a non-integer exponent together
    rng = np.random.default_rng(99)
    cost = PowerLaw(2.5)
    for _ in range(15):
        n = int(rng.integers(3, 25))
        arrival = 1
        jobs = []
        for i in range(n):
            arrival += int(rng.integers(0, 8))
            d = INFINITE if rng.random() < 0.3 else int(rng.integers(1, 12))
            value = float(rng.choice([0.0, 0.5, 3.0, 9.0, 9.0, 25.0]))
            jobs.append(Job(i, arrival, value, d))
        inst = Instance(tuple(jobs))
        fast, _ = solve_offline_flow(inst, cost)
        assert abs(fast - reference_offline(inst, cost)) <= 1e-6


@given(st.lists(st.tuples(st.sampled_from([0, 0, 0, 1, 2, 10]),
                          st.sampled_from([1, 1, 2, 3, 12, None]),
                          st.floats(0.0, 30.0)),
                min_size=4, max_size=30),
       st.sampled_from([2.0, 2.5, 3.0]))
@example([(0, 1, 1.5), (0, 1, 2.5), (5, 1, 0.0), (5, 1, 0.0)], 2.0)  # by arrival: 0.5, not 1.5
@settings(max_examples=120, deadline=None)
def test_flow_matches_reference_on_drawn_instances(specs, alpha):
    # mostly simultaneous arrivals with short deadlines, so slots are
    # contested, and values spread over [0, 30], across the first marginals
    # k**alpha - (k-1)**alpha: which job takes a contested slot decides the
    # optimum, so placing jobs in any order but by value shows up here
    jobs, arrival = [], 1
    for i, (gap, deadline, value) in enumerate(specs):
        arrival += gap
        jobs.append(Job(i, arrival, value, INFINITE if deadline is None else deadline))
    inst, cost = Instance(tuple(jobs)), PowerLaw(alpha)
    fast, _ = solve_offline_flow(inst, cost)
    assert abs(fast - reference_offline(inst, cost)) <= 1e-6


@given(st.lists(st.tuples(st.integers(0, 1), st.one_of(st.integers(1, 3), st.none()),
                          st.sampled_from([1.0, 1.5, 2.0, 2.0, 3.0, 3.5])),
                min_size=1, max_size=9),
       st.integers(1, 3))
@example([(0, 1, 2.0), (0, 1, 3.0), (0, 1, 3.5)], 1)  # placing by arrival earns 2.5, not 3.5
@settings(max_examples=150, deadline=None)
def test_flow_matches_oracles_with_tied_marginals(specs, repeat):
    # marginals 1, 1, 2, 2, ... (each `repeat` times) tie with each other and
    # with the drawn values, so equal-value jobs and zero-gain placements meet;
    # offline_profit runs the same pass without the witness, so it is bit-equal
    jobs, arrival = [], 1
    for i, (gap, deadline, value) in enumerate(specs):
        arrival += gap
        jobs.append(Job(i, arrival, value, INFINITE if deadline is None else deadline))
    inst = Instance(tuple(jobs))
    table = np.concatenate(([0.0], np.cumsum([1.0 + k // repeat for k in range(len(jobs))])))
    cost = TabulatedConvex(tuple(table))
    fast, trace = solve_offline_flow(inst, cost)
    assert offline_profit(inst, cost) == fast
    assert abs(fast - reference_offline(inst, cost)) <= 1e-9
    assert math.isclose(evaluate_trace(inst, trace, cost), fast, abs_tol=1e-9)
    try:
        brute, _ = solve_offline_bruteforce(inst, cost)
    except OfflineSizeError:
        return
    assert abs(fast - brute) <= 1e-9


def test_flow_matches_reference_with_far_deadlines():
    # a deadline of 10**12 among short ones: the solver and the reference
    # each cut it at last arrival + n
    rng = np.random.default_rng(12)
    cost = PowerLaw(2.0)
    for _ in range(30):
        inst = random_medium_instance(rng)
        far = {int(i) for i in rng.choice(len(inst), size=3, replace=False)}
        inst = Instance(tuple(
            Job(j.id, j.arrival, j.value, 10**12) if j.id in far else j for j in inst.jobs))
        fast, _ = solve_offline_flow(inst, cost)
        assert abs(fast - reference_offline(inst, cost)) <= 1e-6


def test_reference_on_known_instances(alpha2):
    # anchor the reference itself on hand-computed values
    inst = Instance((Job(0, 1, 4.0, INFINITE), Job(1, 1, 4.0, INFINITE)))
    assert math.isclose(reference_offline(inst, alpha2), 6.0)
    inst = Instance((Job(0, 1, 4.0, 1), Job(1, 1, 4.0, 1)))
    assert math.isclose(reference_offline(inst, alpha2), 4.0)
    inst = Instance((Job(0, 1, 8.0, 3), Job(1, 1, 9.0, 2), Job(2, 1, 10.0, 1)))
    assert math.isclose(reference_offline(inst, alpha2), 24.0)


# -- runs of one window --------------------------------------------------------

class OneJobState(_FlowState):
    """The flow stepping one job at a time: each job is a run of its own and starts afresh."""

    def place(self, pos, rest):
        assert super().place(pos, iter(())) is None
        return next(rest, None)


def flow_outputs(instance, cost):
    state = _flow_pass(*_columns(instance), cost)
    profit, trace = solve_offline_flow(instance, cost)
    return (offline_profit(instance, cost).hex(), profit.hex(),
            [(d.slot, d.processed, d.payoff_sum.hex(), d.energy.hex()) for d in trace.decisions],
            list(state.slot_jobs.items()), state.payoff.hex())


def assert_run_step_exact(instance, cost):
    by_run = flow_outputs(instance, cost)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(offline, "_FlowState", OneJobState)
        assert flow_outputs(instance, cost) == by_run
    assert abs(float.fromhex(by_run[0]) - reference_offline(instance, cost)) <= 1e-9


@given(st.lists(st.tuples(st.integers(1, 4), st.one_of(st.integers(1, 4), st.none()),
                          st.sampled_from([0.5, 1.0, 3.0, 5.0, 7.5, 12.0, 20.0])),
                min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=24),
       st.sampled_from([2.0, 2.5, 3.0]))
# a chain move inside a run: the third [3, 3] job's would-be reach [3, 5] no
# longer holds, since the second one's chain move pulled a [3, 5] job out of
# slot 3, so the third job searches afresh
@example([(3, 1, 7.5), (3, 3, 12.0)], [0, 0, 1, 0, 1, 1], 2.0)
@settings(max_examples=150, deadline=None)
def test_run_memo_is_exact_on_repeated_jobs(kinds, picks, alpha):
    # a few distinct (arrival, deadline, value) kinds, each repeated many
    # times, so that pass order meets long runs of one window with one value,
    # and values that tie the first marginals 1, 3, 5, 7 (alpha = 2)
    jobs = []
    for i, k in enumerate(picks):
        arrival, deadline, value = kinds[k % len(kinds)]
        jobs.append(Job(i, arrival, value, INFINITE if deadline is None else deadline))
    assert_run_step_exact(Instance(tuple(jobs)), PowerLaw(alpha))


@given(st.integers(1, 8), st.data(), st.sampled_from([2.0, 2.5, 3.0]))
@settings(max_examples=100, deadline=None)
def test_run_memo_is_exact_on_games(z, data, alpha):
    # the adaptive game's instance for any slot-1 choice, not only a prefix
    template = gen_alpha2_lb_instance(z)
    chosen = data.draw(st.sets(st.integers(0, 2 * z - 1)))
    assert_run_step_exact(adversary_finalize(template, chosen), PowerLaw(alpha))
