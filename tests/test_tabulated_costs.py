"""End-to-end coverage for tabulated convex costs (the non-power-law kind).

A table must cover every batch size k at which an operation evaluates g(k);
nothing extrapolates past the table.
"""
import math

import numpy as np
import pytest

from speedscale.analysis import _small_instance
from speedscale.model import (INFINITE, Instance, Job, ModelError,
                              TabulatedConvex, evaluate_trace)
from speedscale.offline import solve_offline_bruteforce, solve_offline_flow
from speedscale.policies import (POLICIES, PolicyView, compute_m, lcr_breakdown,
                                 run_policy)

from conftest import mk_instance

TRIANGLE = TabulatedConvex(tuple(float(k * (k + 1) // 2) for k in range(12)))  # marginals 1,2,3,...
QUADRATIC = TabulatedConvex(tuple(float(k * k) for k in range(12)))


class TestPolicies:
    def test_min_lcr_matches_quadratic_power_law(self, alpha2):
        # the k^2 table must reproduce the power-law decisions exactly
        view = PolicyView(1, ((0, 10.0), (1, 6.0), (2, 3.0)))
        tab = POLICIES["min-lcr"].decide(view, QUADRATIC)
        pow_ = POLICIES["min-lcr"].decide(view, alpha2)
        assert tab.count == pow_.count == 2
        for a, b in zip(tab.breakdowns, pow_.breakdowns):
            assert math.isclose(a.lcr, b.lcr, abs_tol=1e-12)

    def test_triangle_marginals_admit_larger_batches(self):
        # marginals grow linearly, so m is larger than under k^2
        view = PolicyView(1, tuple((i, 4.5) for i in range(6)))
        assert compute_m(view, TRIANGLE) == 4  # marginals 1,2,3,4 < 4.5 < 5

    def test_run_policy_with_table(self):
        inst = mk_instance((1, 6.0, 1), (1, 5.0, 1), (1, 4.0, 1), (2, 6.0, INFINITE))
        trace = run_policy(inst, "min-lcr", TRIANGLE)
        assert math.isclose(evaluate_trace(inst, trace, TRIANGLE),
                            trace.total_profit, abs_tol=1e-9)

    def test_short_table_raises_clearly(self):
        short = TabulatedConvex((0.0, 1.0, 4.0))  # covers batches up to 2
        view = PolicyView(1, tuple((i, 100.0) for i in range(5)))
        with pytest.raises(ModelError, match="cost table"):
            lcr_breakdown(view, short, 1)  # leftover scan needs g(3)

    def test_min_lcr_tabulates_only_the_costs_it_reaches(self):
        # m = 2 among 8 jobs: compute_m and the ledger's leftover scan stop at
        # g(3), so a table to k = 3 gives the full table's ledger
        short = TabulatedConvex(TRIANGLE.table[:4])
        view = PolicyView(1, tuple(enumerate((10.0, 10.0, 2.5, 1.0, 1.0, 1.0, 1.0, 1.0))))
        decision = POLICIES["min-lcr"].decide(view, short)
        assert decision == POLICIES["min-lcr"].decide(view, TRIANGLE)
        assert decision.breakdowns == tuple(lcr_breakdown(view, TRIANGLE, i) for i in (1, 2))

    def test_leftover_scan_tabulates_only_the_costs_it_reaches(self):
        # after the top i of the same view, the leftover scan stops at the
        # first value under its marginal, at g(3) at the latest
        short = TabulatedConvex(TRIANGLE.table[:4])
        view = PolicyView(1, tuple(enumerate((10.0, 10.0, 2.5, 1.0, 1.0, 1.0, 1.0, 1.0))))
        for i in (1, 2):
            assert lcr_breakdown(view, short, i) == lcr_breakdown(view, TRIANGLE, i)


class TestOffline:
    def test_flow_equals_brute_on_randoms(self, rng):
        for _ in range(120):
            inst = _small_instance(rng)
            f, _ = solve_offline_flow(inst, TRIANGLE)
            b, _ = solve_offline_bruteforce(inst, TRIANGLE)
            assert abs(f - b) <= 1e-6, (f, b, inst.jobs)

    def test_linear_marginals_reward_batching(self):
        # two equal jobs: batching costs 1+2, splitting costs 1+1; with a shared
        # slot deadline the batch is taken and profit is 2v - 3
        inst = mk_instance((1, 4.0, 1), (1, 4.0, 1))
        profit, trace = solve_offline_flow(inst, TRIANGLE)
        assert profit == 5.0
        assert len(trace.decisions) == 1

    def test_flow_tabulates_only_the_loads_it_reaches(self):
        # five jobs each alone in its slot never load a slot past 1, so a
        # table to k=3 is enough even though the instance has 5 jobs
        short = TabulatedConvex((0.0, 1.0, 3.0, 6.0))
        inst = mk_instance(*[(1 + 10 * i, 10.0, 1) for i in range(5)])
        profit, trace = solve_offline_flow(inst, short)
        assert profit == 45.0 == run_policy(inst, "min-lcr", short).total_profit
        assert evaluate_trace(inst, trace, short) == profit

    def test_flow_refuses_batch_past_table(self):
        short = TabulatedConvex((0.0, 1.0, 4.0))
        inst = mk_instance(*[(1, 9.0, 1)] * 4)
        with pytest.raises(ModelError, match="cost table"):
            solve_offline_flow(inst, short)
