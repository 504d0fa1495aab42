"""End-to-end coverage for tabulated convex costs (the non-power-law kind).

A table must cover every batch size k at which an operation evaluates g(k);
nothing extrapolates past the table.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale.adversary import InstanceTemplate, eval_lower_bound, run_adversarial_game
from speedscale.analysis import _small_instance
from speedscale.model import (INFINITE, Instance, Job, ModelError, PowerLaw,
                              TabulatedConvex, evaluate_trace)
from speedscale.offline import solve_offline_bruteforce, solve_offline_flow
from speedscale.policies import (POLICIES, PolicyView, compute_m, lcr_breakdown,
                                 run_policy)

from conftest import mk_instance

TRIANGLE = TabulatedConvex(tuple(float(k * (k + 1) // 2) for k in range(12)))  # marginals 1,2,3,...
QUADRATIC = TabulatedConvex(tuple(float(k * k) for k in range(12)))


def test_short_table_refused():
    with pytest.raises(ModelError) as err:
        TabulatedConvex((0.0,))
    assert str(err.value) == "cost table needs at least g(0) and g(1)"


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


@st.composite
def convex_tables(draw, size):
    """g(0..size-1) of a strictly convex cost: strictly rising marginals,
    integers or floats."""
    if draw(st.booleans()):
        first, steps = st.integers(1, 9), st.integers(1, 9)
    else:
        first, steps = st.floats(0.1, 9.0), st.floats(0.05, 9.0)
    rises = draw(st.lists(steps, min_size=size - 2, max_size=size - 2))
    return rising_marginals_table([draw(first), *rises])


def rising_marginals_table(rises):
    """g(0..len(rises)) whose marginals g(k) - g(k-1) are the running sums of rises."""
    return [0.0, *np.cumsum(np.cumsum(rises, dtype=float)).tolist()]


def ratio_scan(g, z, x):
    """The construction's ratio (k (v - g(1)) + z v - g(z)) / (k v - g(k)),
    v = c_z + x, at every k in 1..z of rows z (n,) and points x (n, m), read
    from the table g; inf at k > z or a denominator <= 0. Shape (n, m, z.max())."""
    g = np.asarray(g)
    k = np.arange(1, z.max() + 1)
    z3, gz = z[:, None, None], g[z][:, None, None]
    v = (gz - g[z - 1][:, None, None]) + x[..., None]
    num, den = k * (v - g[1]) + (z3 * v - gz), k * v - g[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((den > 0.0) & (k <= z3), num / den, np.inf)


class TestLowerBoundCurve:
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 7.3])
    def test_power_table_gives_the_power_law_curve(self, alpha):
        # the curve reads g only from its table, so numpy's k**alpha as a
        # table is the power law, bit for bit
        for z_max in (2, 200):
            table = TabulatedConvex((np.arange(z_max + 2.0) ** alpha).tolist())
            curve, best = eval_lower_bound(table, z_max, 64)
            want, want_best = eval_lower_bound(PowerLaw(alpha), z_max, 64)
            assert curve.tobytes() == want.tobytes() and best.hex() == want_best.hex()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_curve_is_the_k_scan_of_any_convex_table(self, data):
        z_max, x_grid = data.draw(st.integers(1, 30)), data.draw(st.sampled_from([2, 3, 8]))
        g = data.draw(convex_tables(z_max + 2))  # exactly the table the curve reads
        curve, best = eval_lower_bound(TabulatedConvex(g), z_max, x_grid)
        z = np.arange(1, z_max + 1)
        x = curve["x"].reshape(z_max, x_grid)
        ga = np.array(g)
        assert (x[:, -1] == ga[z + 1] - 2.0 * ga[z] + ga[z - 1]).all()  # the grid ends at xcap
        ratios = ratio_scan(g, z, x)
        values, k_star = curve["value"].reshape(x.shape), curve["k_star"].reshape(x.shape)
        np.testing.assert_allclose(values, ratios.min(axis=-1), rtol=1e-12, atol=0.0)
        attained = np.take_along_axis(ratios, k_star[..., None] - 1, axis=-1)[..., 0]
        np.testing.assert_allclose(attained, values, rtol=1e-12, atol=0.0)
        # from the first grid point on, each row peaks at a crossing the best
        # holds or at a grid point; left of it a falling row's supremum, as
        # x -> 0, is the known limit of the grid
        sweep = x[:, -1:] * np.linspace(1.0 / x_grid, 1.0, 2001)
        assert best >= values.max()
        assert ratio_scan(g, z, sweep).min(axis=-1).max() <= best * (1.0 + 1e-12)

    def test_curve_is_the_game_ratio(self):
        # the template of 2z jobs of value c_z + x is the construction at
        # (z, x): min-lcr keeps the curve's k_star of them, the adversary lets
        # the rest expire and the offline side takes z of those at slot 1
        rng = np.random.default_rng(7)
        z_max, x_grid = 12, 4
        tables = [(np.arange(2 * z_max + 2.0) ** 2.5).tolist(),
                  rising_marginals_table(rng.integers(1, 6, 2 * z_max + 1)),
                  rising_marginals_table(rng.uniform(0.05, 3.0, 2 * z_max + 1))]
        costs = [PowerLaw(2.5), TabulatedConvex(tables[1]), TabulatedConvex(tables[2])]
        for cost, g in zip(costs, tables):
            curve, _ = eval_lower_bound(cost, z_max, x_grid)
            # x = xcap is left out: there the offline side's z + 1-st job breaks even
            for i in rng.choice([i for i in range(len(curve)) if i % x_grid != x_grid - 1], 8,
                                replace=False).tolist():
                z, x, k, value = (curve[name][i].item() for name in ("z", "x", "k_star", "value"))
                report = run_adversarial_game(
                    "min-lcr", InstanceTemplate((g[z] - g[z - 1] + x,) * (2 * z)), cost)
                assert math.isclose(report.ratio, value, rel_tol=1e-12), (cost, z, x)
                near = ratio_scan(g, np.array([z]), np.array([[x]]))[0, 0]
                if np.count_nonzero(near <= value * (1.0 + 1e-12)) == 1:  # no tie in k
                    assert report.per_slot_lcr[0].i_chosen == k, (cost, z, x)

    @pytest.mark.parametrize("table, z", [((0.0, 1.0, 2.0, 4.0, 7.0), 1),
                                          ((0.0, 1.0, 3.0, 5.0, 8.0), 2)])
    def test_flat_cost_is_refused(self, table, z):
        # a repeated marginal makes row z's xcap 0, so its grid would hold
        # only x = 0, outside the construction's (0, xcap]: read as a false
        # overflow where g is linear up to z (every denominator is 0 there),
        # and as finite points elsewhere
        with pytest.raises(ModelError) as refused:
            eval_lower_bound(TabulatedConvex(table), 3, 8)
        assert str(refused.value) == ("the lower-bound curve needs g(z+1) - 2g(z) + g(z-1) > 0, "
                                      f"got 0.0 at z={z}")

    def test_short_table_is_refused(self):
        # the curve at z-max 3 reads g(0..4)
        with pytest.raises(ModelError) as refused:
            eval_lower_bound(TabulatedConvex((0.0, 1.0, 3.0, 6.0)), 3, 8)
        assert str(refused.value) == "cost table covers k <= 3, got 4"
