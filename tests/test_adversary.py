import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale import adversary, offline
from speedscale.adversary import (PHI_PLUS_1, SQRT2_PLUS_1, ConstructionError,
                                  InstanceTemplate, _inner_min_batch, _last_rising,
                                  adversary_finalize, alpha2_game_ratio,
                                  lower_bound_ratio, eval_lower_bound,
                                  gen_alpha2_lb_instance, gen_sqrt2_lb_instance,
                                  run_adversarial_game, sqrt2_job_value)
from speedscale.model import INFINITE, Instance, Job, ModelError, PowerLaw, Trace, cost_table
from speedscale.offline import _columns, offline_profit, solve_offline_flow
from speedscale.policies import (Decision, FixedCountPolicy, Policy, _play_slot, get_policy,
                                 run_policy)
from speedscale.reports import build_report

from conftest import (CountingPowerLaw, assert_each_g_once, assert_same_instance,
                      count_checked_constructions, job_values, k_scan)


class CountingPolicy(Policy):
    def __init__(self, inner):
        self.inner = get_policy(inner)
        self.name = self.inner.name
        self.calls = 0

    def decide(self, view, cost):
        self.calls += 1
        return self.inner.decide(view, cost)


def replayed_game_report(policy, template, cost):
    """The game scored by replaying the finalized instance through run_policy."""
    view = template.slot1_view()
    count = get_policy(policy).decide(view, cost).count
    instance = adversary_finalize(template, [jid for jid, _ in view.candidates[:count]])
    off, _ = solve_offline_flow(instance, cost)
    return build_report(template.label, off, run_policy(instance, policy, cost))


def finalized_game_report(policy, template, cost):
    """The game scored from adversary_finalize's instance through offline_profit."""
    view = template.slot1_view()
    decisions, ledgers = [], []
    count = _play_slot(get_policy(policy), view, cost_table(cost), decisions, ledgers)
    instance = adversary_finalize(template, [jid for jid, _ in view.candidates[:count]])
    return build_report(template.label, offline_profit(instance, cost), Trace(decisions, ledgers))


def row_peaks_by_bisection(alpha, z_max):
    """Each row's largest inner min over x in (0, xcap], for rows z = 2..z_max,
    by a direct scan over k and a bisection in x.

    The rising part is the min over the branches k with f(k) = k + z**a -
    (k+z) k**(a-1) > 0, the falling part the min over the others. The bisection
    closes on where rising - falling changes sign, which a golden section on
    the inner min cannot do where rounding leaves the row flat (at alpha = 178
    the row z = 2 reads 2.0 from 1e-15 xcap on, and peaks near 1e-31 xcap).
    The peak is the larger inner min at the two ends of the final bracket, or
    at xcap. A row whose crossing lies at x <= 0 keeps lo = 0, so its peak is
    its limit as x -> 0, which no grid point reaches.
    """
    z = np.arange(2, z_max + 1, dtype=float)[:, None]
    k = np.arange(1, z_max + 1, dtype=float)[None, :]
    with np.errstate(all="ignore"):
        za = z ** alpha
        cz = za - (z - 1.0) ** alpha
        rising = k + za - (k + z) * k ** (alpha - 1.0) > 0.0

        def parts(x, rows=slice(None)):
            zr, v = z[rows], cz[rows] + x[:, None]
            den = k * v - k ** alpha
            ratio = np.where((k <= zr) & (den > 0.0),
                             (k * (v - 1.0) + (zr * v - za[rows])) / den, np.inf)
            up = rising[rows]
            return np.where(up, ratio, np.inf).min(1), np.where(up, np.inf, ratio).min(1)

        cap = ((z + 1.0) ** alpha - 2.0 * za + (z - 1.0) ** alpha).ravel()
        lo, hi = np.zeros_like(cap), cap.copy()
        todo = np.arange(cap.size)
        while todo.size:  # rows leave once their bracket holds no float between its ends
            mid = 0.5 * (lo[todo] + hi[todo])
            open_ = (lo[todo] < mid) & (mid < hi[todo])
            todo, mid = todo[open_], mid[open_]
            up, down = parts(mid, todo)
            left = up < down  # the crossing lies right of mid
            lo[todo[left]], hi[todo[~left]] = mid[left], mid[~left]
        peak = np.fmin(*parts(hi))
        peak = np.fmax(peak, np.where(lo > 0.0, np.fmin(*parts(lo)), -np.inf))
        return np.fmax(peak, np.fmin(*parts(cap)))


def bracket_80(alpha, z, x):
    """The bracket on k* after all 80 bisection steps, taken unconditionally."""
    zf = z.astype(float)
    cz = zf ** alpha - (zf - 1.0) ** alpha
    v = cz + x
    A = v - 1.0
    B = zf * v - zf ** alpha
    kbar = v ** (1.0 / (alpha - 1.0))

    lo = np.full_like(v, 1e-9)
    hi = kbar.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = A * (alpha - 1.0) * mid ** alpha + alpha * B * mid ** (alpha - 1.0) - B * v
        neg = val < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return lo, hi


def stationary_xs(alpha, z, n):
    """The x > 0 at which the stationary point k* of row z is the integer n.

    k* = n solves -z v**2 + [(a-1) n**a + a z n**(a-1) + z**a] v
    - [(a-1) n**a + a z**a n**(a-1)] = 0 in v = c_z + x, with a = alpha.
    """
    za, na, na1 = float(z) ** alpha, float(n) ** alpha, float(n) ** (alpha - 1.0)
    a = -float(z)
    b = (alpha - 1.0) * na + alpha * z * na1 + za
    c = -((alpha - 1.0) * na + alpha * za * na1)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    cz = za - (z - 1.0) ** alpha
    return [v - cz for v in (q / a, c / q) if v - cz > 0.0]


def power_table(alpha, z_max):
    """g(0..z_max+1) for g(k) = k**alpha, as eval_lower_bound builds it."""
    with np.errstate(over="ignore"):
        return np.arange(z_max + 2, dtype=float) ** alpha


def x_cap(alpha, z):
    """Each row's g(z+1) - 2g(z) + g(z-1), read from the power table."""
    g = power_table(alpha, int(np.max(z)))
    return g[z + 1] - 2.0 * g[z] + g[z - 1]


def inner_min(alpha, z, x):
    """_inner_min_batch on the power table, with each z's k0 searched as the
    curve searches it."""
    g = power_table(alpha, int(np.max(z)))
    return _inner_min_batch(g, z, x, _last_rising(g, np.asarray(z)))


def inner_min_batch_80(alpha, z, x):
    """_inner_min_batch at g(k) = k**alpha with its bisection run for all 80
    steps, unconditionally, from no bracket."""
    z, x = np.broadcast_arrays(z, x)  # the curve passes z once per row
    zf = z.astype(float)
    v = zf ** alpha - (zf - 1.0) ** alpha + x
    A = v - 1.0
    B = zf * v - zf ** alpha
    kbar = v ** (1.0 / (alpha - 1.0))
    lo, hi = bracket_80(alpha, z, x)
    kstar = 0.5 * (lo + hi)

    kmax = np.minimum(zf, np.ceil(kbar) - 1.0)
    candidates = np.stack([
        np.clip(np.floor(kstar), 1.0, zf),
        np.clip(np.ceil(kstar), 1.0, zf),
        np.ones_like(zf),
        np.clip(kmax, 1.0, zf),
    ])
    num = A * candidates + B
    den = v * candidates - candidates ** alpha
    ratio = np.where(den > 1e-300, num / den, np.inf)
    pick = np.argmin(ratio, axis=0)
    best = np.take_along_axis(ratio, pick[None], axis=0)[0]
    best_k = np.take_along_axis(candidates, pick[None], axis=0)[0]
    return best, best_k.astype(np.int64)


def k0_by_scan(alpha, z):
    """Each row's k0, the count of k in 1..z with f(k) = k + z**alpha -
    (k+z) k**(alpha-1) > 0, by evaluating f at every k."""
    zf = np.asarray(z, dtype=float)[:, None]
    k = np.arange(1.0, zf.max() + 1.0)[None, :]
    with np.errstate(all="ignore"):
        f = k + zf ** alpha - (k + zf) * k ** (alpha - 1.0)
    return ((f > 0.0) & (k <= zf)).sum(axis=1)


def assert_matches_k_scan(alpha, z, x, values, k_star):
    """Each value is the k-scan minimum, inf where the scan finds no finite
    ratio, and each finite one is attained at its k; returns the inf count."""
    infinite = 0
    for point in zip(z.ravel().tolist(), x.ravel().tolist(),
                     values.ravel().tolist(), k_star.ravel().tolist()):
        z_i, x_i, value, k = point
        best = k_scan(alpha, z_i, x_i)
        assert math.isclose(value, best, rel_tol=1e-11), point
        if math.isinf(best):
            infinite += 1
        else:
            assert math.isclose(lower_bound_ratio(alpha, z_i, x_i, k), best,
                                rel_tol=1e-11), point
    return infinite


class TestTemplates:
    def test_alpha2_template_shape(self):
        t = gen_alpha2_lb_instance(1)
        assert t.values == (2.0, 2.0)
        t = gen_alpha2_lb_instance(10)
        assert len(t.values) == 20 and set(t.values) == {20.0}

    def test_alpha2_rejects_z0(self):
        with pytest.raises(ModelError):
            gen_alpha2_lb_instance(0)

    def test_sqrt2_values(self):
        # direct evaluation of (1 + 1/sqrt(2)) (g(2) - sqrt(2) g(1))
        assert abs(sqrt2_job_value(3.0) - 11.242640687119286) < 1e-12
        assert abs(sqrt2_job_value(2.5) - (1 + 2 ** -0.5) * (2 ** 2.5 - math.sqrt(2))) < 1e-12
        t = gen_sqrt2_lb_instance(3.0)
        assert len(t.values) == 4

    def test_sqrt2_feasibility_condition(self):
        for alpha in np.arange(2.1, 4.01, 0.1):
            g = PowerLaw(float(alpha))
            v = sqrt2_job_value(float(alpha))
            assert v < g.g(3) - g.g(2)
            assert g.g(4) - g.g(3) > g.g(3) - g.g(2)  # third/fourth job never profitable

    def test_sqrt2_rejects_alpha_at_2(self):
        with pytest.raises(ModelError):
            gen_sqrt2_lb_instance(2.0)

    @pytest.mark.parametrize("value,shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-1.0, "-1.0"),
        (True, "True"), (False, "False"),
    ])
    def test_template_refuses_what_job_refuses(self, value, shown):
        message = f"value must be non-negative and finite, got {shown}"
        with pytest.raises(ModelError, match=f"^{message}$"):
            InstanceTemplate((5.0, value))
        with pytest.raises(ModelError, match=f"^{message}$"):
            Job(0, 1, value)

    def test_template_refuses_no_jobs(self):
        with pytest.raises(ModelError, match="^template needs at least one job$"):
            InstanceTemplate(())

    @pytest.mark.parametrize("z", [1, 2, 40, 2000])
    def test_alpha2_equals_checked_template(self, z):
        # built with one value check, it is the template the public constructor makes
        got = gen_alpha2_lb_instance(z)
        want = InstanceTemplate((float(2 * z),) * (2 * z), f"alpha2-lb:z={z}")
        assert got == want and repr(got) == repr(want)
        assert type(got.values) is tuple

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 7.0])
    def test_sqrt2_equals_checked_template(self, alpha):
        got = gen_sqrt2_lb_instance(alpha)
        want = InstanceTemplate((sqrt2_job_value(alpha),) * 4, f"sqrt2-lb:alpha={alpha:g}")
        assert got == want and repr(got) == repr(want)
        assert type(got.values) is tuple

    @pytest.mark.parametrize("value,shown", [
        (math.nan, "nan"), (-1.0, "-1.0"), (math.inf, "inf"), (True, "True")])
    def test_repeated_template_refuses_what_template_refuses(self, value, shown):
        # the one check the constructions make, with InstanceTemplate's message
        message = f"value must be non-negative and finite, got {shown}"
        with pytest.raises(ModelError, match=f"^{message}$"):
            adversary._repeated_template(value, 4, "drawn")

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, 2.0, 7.25]), min_size=1, max_size=40))
    def test_slot1_view_ranks_by_value_then_id(self, values):
        view = InstanceTemplate(tuple(values)).slot1_view()
        ranked = sorted(enumerate(values), key=lambda t: (-t[1], t[0]))
        assert view.candidates == tuple(ranked)


class TestFinalize:
    def test_empty_choice_expires_everything(self):
        t = gen_alpha2_lb_instance(2)
        inst = adversary_finalize(t, ())
        assert all(j.deadline == 1 for j in inst.jobs)

    def test_full_choice_never_expires(self):
        t = gen_alpha2_lb_instance(2)
        inst = adversary_finalize(t, range(len(t.values)))
        assert all(j.deadline == INFINITE for j in inst.jobs)

    def test_partial_choice(self):
        t = gen_alpha2_lb_instance(10)
        inst = adversary_finalize(t, tuple(range(6)))
        infinite = [j.id for j in inst.jobs if j.deadline == INFINITE]
        assert sorted(infinite) == list(range(6))
        assert sum(j.deadline == 1 for j in inst.jobs) == 14

    def test_ids_equal_to_known_ids(self):
        # a choice holding 1.0 or True marks job 1, as an int 1 does
        t = gen_alpha2_lb_instance(2)
        assert adversary_finalize(t, [1.0, 3]) == adversary_finalize(t, [1, 3])
        assert adversary_finalize(t, [True]) == adversary_finalize(t, [1])

    def test_unknown_ids_rejected(self):
        t = gen_alpha2_lb_instance(2)
        with pytest.raises(ModelError):
            adversary_finalize(t, (99,))

    @pytest.mark.parametrize("choice, unknown", [
        ((4,), "[4]"), ((-1, 0), "[-1]"), ((0, 7, 5), "[5, 7]"), ((1.5,), "[1.5]")])
    def test_unknown_ids_named(self, choice, unknown):
        with pytest.raises(ModelError, match=rf"^choice contains unknown job ids: \{unknown}$"):
            adversary_finalize(gen_alpha2_lb_instance(2), choice)

    @given(st.lists(job_values, min_size=1, max_size=30).flatmap(
        lambda values: st.tuples(st.just(values), st.sets(st.integers(0, len(values) - 1)))),
        st.sampled_from(["", "drawn"]))
    def test_equals_checked_construction(self, values_choice, label):
        values, choice = values_choice
        want = Instance(tuple(Job(jid, 1, value, INFINITE if jid in choice else 1)
                              for jid, value in enumerate(values)), label=label)
        got = adversary_finalize(InstanceTemplate(values, label), choice)
        assert_same_instance(got, want)

    def test_template_keeps_the_values_it_checked(self):
        values = [3.0, 5.0, 0.0]
        template = InstanceTemplate(values)
        values[0] = -1.0  # Job refuses this, and finalize checks nothing again
        values.append(math.nan)
        assert template.values == (3.0, 5.0, 0.0)
        instance = adversary_finalize(template, [1])
        assert [(j.value, j.deadline) for j in instance.jobs] == [
            (3.0, 1), (5.0, INFINITE), (0.0, 1)]

    def test_builds_no_checked_job_at_scale(self, monkeypatch):
        # the template checked every value once; z = 2000 makes 4,000 jobs
        template = gen_alpha2_lb_instance(2000)
        calls = count_checked_constructions(monkeypatch)
        instance = adversary_finalize(template, range(1236))
        assert len(instance) == 4000 and calls == []
        assert sum(j.expires for j in instance.jobs) == 4000 - 1236


class TestGames:
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("z", [50, 500])
    @pytest.mark.parametrize("name", ["min-lcr", "sim-lcr", "greedy", "fixed:3"])
    def test_each_g_once_per_game(self, name, z, alpha):
        # the slot step and the flow read one table of g, and the report is
        # the one a plain power law gives
        policy = FixedCountPolicy(3) if name == "fixed:3" else name
        cost = CountingPowerLaw(alpha)
        report = run_adversarial_game(policy, gen_alpha2_lb_instance(z), cost)
        assert_each_g_once(cost.calls)
        assert repr(report) == repr(
            run_adversarial_game(policy, gen_alpha2_lb_instance(z), PowerLaw(alpha)))

    @pytest.mark.parametrize("name", ["min-lcr", "sim-lcr", "greedy", "fixed:3"])
    def test_z2000_game_evaluates_2002_g(self, name):
        # g(0..2001): the scan reads them all, the slot's energy and the
        # flow's slot-1 loads read none anew (4,005 evaluations without the table)
        cost = CountingPowerLaw(2.0)
        run_adversarial_game(FixedCountPolicy(3) if name == "fixed:3" else name,
                             gen_alpha2_lb_instance(2000), cost)
        assert_each_g_once(cost.calls)
        assert len(cost.calls) == 2002

    def test_alpha2_fixed_k_matches_closed_form(self, alpha2):
        report = run_adversarial_game(FixedCountPolicy(6), gen_alpha2_lb_instance(10), alpha2)
        assert math.isclose(report.ratio, 214.0 / 84.0, abs_tol=1e-9)
        assert math.isclose(report.ratio, alpha2_game_ratio(10, 6), abs_tol=1e-12)
        assert report.off_profit == 214.0 and report.alg_profit == 84.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_sqrt2_game_both_choices(self, k):
        cost = PowerLaw(3.0)
        report = run_adversarial_game(FixedCountPolicy(k), gen_sqrt2_lb_instance(3.0), cost)
        assert math.isclose(report.ratio, SQRT2_PLUS_1, abs_tol=1e-9)

    def test_any_policy_at_least_formula_floor(self, alpha2):
        # the game realizes the bound: every policy's ratio >= min_k closed form
        z = 1000
        floor = min(alpha2_game_ratio(z, k) for k in range(1, z + 1))
        for policy in ("min-lcr", "sim-lcr", "greedy", FixedCountPolicy(13)):
            report = run_adversarial_game(policy, gen_alpha2_lb_instance(z), alpha2)
            assert report.ratio >= floor - 1e-9

    def test_game_off_matches_direct_solve(self, alpha2):
        t = gen_alpha2_lb_instance(7)
        report = run_adversarial_game("greedy", t, alpha2)
        inst = adversary_finalize(t, range(7))  # greedy picks m = z = 7
        off, _ = solve_offline_flow(inst, alpha2)
        assert math.isclose(report.off_profit, off, abs_tol=1e-9)

    @pytest.mark.parametrize("count", [7, -1, 1.5, True])
    def test_count_outside_view_rejected(self, alpha2, count):
        # read as a slice, a count of -1 would take 5 of the 6 jobs, 1.5 would
        # raise TypeError and True would take one job
        class Fixed(Policy):
            name = "fixed-count"

            def decide(self, view, cost):
                return Decision(count)

        with pytest.raises(ModelError, match="only 6 available"):
            run_adversarial_game(Fixed(), gen_alpha2_lb_instance(3), alpha2)

    @pytest.mark.parametrize("policy", ["min-lcr", "sim-lcr", "greedy"])
    def test_policy_decides_once(self, alpha2, policy):
        counting = CountingPolicy(policy)
        run_adversarial_game(counting, gen_alpha2_lb_instance(20), alpha2)
        assert counting.calls == 1

    @pytest.mark.parametrize("policy", ["min-lcr", "sim-lcr", "greedy"])
    def test_game_builds_no_witness(self, monkeypatch, alpha2, policy):
        # the ratio reads only the optimum's value, so no schedule is assembled
        template = gen_alpha2_lb_instance(40)
        report = run_adversarial_game(policy, template, alpha2)

        def refuse(*args):
            raise AssertionError("run_adversarial_game built a witness schedule")

        monkeypatch.setattr(offline, "_trace_from_assignment", refuse)
        assert run_adversarial_game(policy, template, alpha2) == report

    @pytest.mark.parametrize("policy", ["min-lcr", "sim-lcr", "greedy", FixedCountPolicy(7)])
    def test_game_builds_no_jobs(self, monkeypatch, alpha2, policy):
        # the flow reads the game's columns: adversary_finalize builds no instance for it
        template = gen_alpha2_lb_instance(40)
        report = run_adversarial_game(policy, template, alpha2)

        def refuse(*args):
            raise AssertionError("run_adversarial_game built the finalized instance")

        monkeypatch.setattr(adversary, "_instance_from_checked", refuse)
        assert run_adversarial_game(policy, template, alpha2) == report

    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 4.0, 7.5, 12.0]),
                              st.floats(0.0, 30.0)), min_size=1, max_size=12),
           st.one_of(st.sampled_from(["min-lcr", "sim-lcr", "greedy"]),
                     st.integers(1, 12).map(FixedCountPolicy)),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_report_equals_finalized_instance(self, values, policy, alpha):
        # ties, unprofitable values and unsorted ids, so the chosen ids are
        # any set of the template's ids, not only 0..k-1
        template, cost = InstanceTemplate(tuple(values), "drawn"), PowerLaw(alpha)
        got = run_adversarial_game(policy, template, cost)
        want = finalized_game_report(policy, template, cost)
        assert repr(got) == repr(want)
        assert got.off_profit.hex() == want.off_profit.hex()

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 4.0, 9.0]) | st.floats(0.0, 12.0),
                    min_size=1, max_size=40),
           st.one_of(st.sampled_from(["min-lcr", "sim-lcr", "greedy"]),
                     st.integers(1, 12).map(FixedCountPolicy)),
           st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_view_ranking_is_flow_pass_order(self, values, policy, alpha):
        # the game hands the flow the slot-1 view's ranking as its pass order:
        # it is the order _columns gives the finalized instance, ties, 0.0 and
        # -0.0 included, and the game's profit has offline_profit's bits
        template, cost = InstanceTemplate(tuple(values), "drawn"), PowerLaw(alpha)
        view = template.slot1_view()
        ranked = [jid for jid, _ in view.candidates]
        instance = adversary_finalize(template, ranked[:get_policy(policy).decide(view, cost).count])
        assert ranked == _columns(instance)[0]
        assert (run_adversarial_game(policy, template, cost).off_profit.hex()
                == offline_profit(instance, cost).hex())

    @pytest.mark.parametrize("policy", ["min-lcr", "sim-lcr", "greedy", FixedCountPolicy(3)])
    @pytest.mark.parametrize("alpha,template", [
        (2.0, gen_alpha2_lb_instance(1)), (2.0, gen_alpha2_lb_instance(40)),
        (2.5, gen_alpha2_lb_instance(9)), (3.0, gen_sqrt2_lb_instance(3.0))])
    def test_report_equals_replay(self, policy, alpha, template):
        cost = PowerLaw(alpha)
        assert (run_adversarial_game(policy, template, cost)
                == replayed_game_report(policy, template, cost))


class TestLowerBoundCurve:
    def test_point_formula(self):
        # direct arithmetic: z=10, x=2, k=6 at exponent 2 gives (120+110)/(126-36)
        assert math.isclose(lower_bound_ratio(2.0, 10, 2.0, 6), 230.0 / 90.0, abs_tol=1e-12)

    def test_ratio_at_a_zero_denominator_is_inf(self):
        # z = 1, x = 5e-324: v = 1 + x rounds to 1, so k v - k**alpha is 0
        assert lower_bound_ratio(2.0, 1, 5e-324, 1) == math.inf

    @pytest.mark.parametrize("z,k", [(0, 1), (3, 5), (3, 0), (3.0, 1), (3, 1.0), (3, True)])
    def test_point_outside_the_family_rejected(self, z, k):
        # z = 0 once gave a complex number, k > z a finite ratio and k = 0 inf
        with pytest.raises(ModelError, match=rf"^k must be in 1\.\.z, got k={k}, z={z}$"):
            lower_bound_ratio(2.5, z, 1.0, k)

    def test_ratio_that_overflows_raises_model_error(self):
        with pytest.raises(ModelError, match=r"overflows a float at alpha=200\.0, z=50, k=1$"):
            lower_bound_ratio(200.0, 50, 1.0, 1)

    def test_z1_degenerate(self):
        # z=1 forces k=1; at exponent 2 the ratio is exactly 2 for any feasible x
        curve, best = eval_lower_bound(PowerLaw(2.0), 1, 8)
        assert len(curve) == 8
        assert (curve["k_star"] == 1).all()
        assert np.allclose(curve["value"], 2.0, rtol=0.0, atol=1e-9)
        assert math.isclose(best, 2.0, abs_tol=1e-9)

    def test_curve_points_respect_x_cap(self):
        curve, _ = eval_lower_bound(PowerLaw(2.5), 12, 16)
        assert len(curve) == 12 * 16
        assert (curve["z"] == np.repeat(np.arange(1, 13), 16)).all()
        for z, x, k in zip(curve["z"].tolist(), curve["x"].tolist(), curve["k_star"].tolist()):
            cap = (z + 1) ** 2.5 - 2 * z ** 2.5 + (z - 1) ** 2.5
            assert 0 < x <= cap + 1e-12
            assert 1 <= k <= z

    def test_inner_min_matches_direct_scan(self):
        # exact integer minimum cross-checked against full enumeration over k
        for alpha in (2.0, 2.7, 3.3):
            curve, _ = eval_lower_bound(PowerLaw(alpha), 9, 7)
            for z, x, value in zip(curve["z"].tolist(), curve["x"].tolist(),
                                   curve["value"].tolist()):
                ratios = []
                for k in range(1, z + 1):
                    den = k * ((z ** alpha - (z - 1) ** alpha) + x) - float(k) ** alpha
                    if den > 0:
                        ratios.append(lower_bound_ratio(alpha, z, x, k))
                assert math.isclose(value, min(ratios), rel_tol=1e-9)

    def test_inner_min_matches_k_scan_where_the_numerator_overflows(self):
        # alpha = 180, z = 50: A k + B overflows from k = 41 on, so at
        # x = 1.36e306 the minimum 2.24 sits at k = 40 next to ratios that read
        # inf, and from x = 4.08e306 on every k reads inf
        alpha = 180.0
        z = np.arange(1, 51)
        x = x_cap(alpha, z)[:, None] * (np.arange(1, 17) / 16.0)
        zz = np.broadcast_to(z[:, None], x.shape)
        with np.errstate(all="ignore"):
            values, k_star = inner_min(alpha, zz, x)
        assert assert_matches_k_scan(alpha, zz, x, values, k_star) == 14
        assert k_star[49, 0] == 40 and math.isclose(values[49, 0], 2.2418243311234747)

    @given(st.floats(2.0, 200.0), st.data())
    @settings(max_examples=100, deadline=None)
    def test_inner_min_matches_k_scan(self, alpha, data):
        # z + 1 <= e**(709 / alpha) keeps (z + 1) ** alpha, and so the x cap
        # and the scan's own powers, finite; the ratios may still overflow
        z_top = min(200, int(math.exp(709.0 / alpha)) - 1)
        points = data.draw(st.lists(st.tuples(st.integers(1, z_top),
                                              st.floats(0.0, 1.0, exclude_min=True)),
                                    min_size=1, max_size=20))
        z = np.array([p[0] for p in points])
        x = x_cap(alpha, z) * np.array([p[1] for p in points])
        with np.errstate(all="ignore"):
            values, k_star = inner_min(alpha, z, x)
        assert_matches_k_scan(alpha, z, x, values, k_star)

    @pytest.mark.parametrize("alpha", [2.0, 2.1, 2.5, 2.7, 3.0, 3.4, 4.0, 5.0, 7.3,
                                       10.0, 16.0, 20.0, 100.0])
    def test_grid_k_star_lies_in_its_rows_bracket(self, alpha):
        # each search starts from [k0, k0 + 1] and widens only where that
        # bracket misses the minimiser; on the grid it never does
        curve, _ = eval_lower_bound(PowerLaw(alpha), 1000, 64)
        k0 = np.repeat(k0_by_scan(alpha, np.arange(1, 1001)), 64)
        assert np.isin(curve["k_star"] - k0, [0, 1]).all()

    def test_inner_min_matches_k_scan_off_the_row(self):
        # x far below and above the grid's (0, xcap]: 588 of the 800 points
        # have their minimiser outside [k0, k0 + 1], so the bracket's check
        # must widen their search to 1..z
        alpha, z = 3.0, np.arange(1, 201)
        x = x_cap(alpha, z)[:, None] * np.array([1e-6, 5.0, 50.0, 1e3])
        values, k_star = inner_min(alpha, z[:, None], x)
        k0 = k0_by_scan(alpha, z)[:, None]
        assert np.count_nonzero((k_star < k0) | (k_star > k0 + 1)) == 588
        zz = np.broadcast_to(z[:, None], x.shape)
        assert assert_matches_k_scan(alpha, zz, x, values, k_star) == 0

    def test_exact_tie_takes_the_smaller_k(self):
        # at alpha = 2 the last grid point of each row is x = xcap = 2, where
        # row 5 has two minimisers, k = 3 and 4 (ratio 5/2 exactly), and row
        # 39 has k = 24 and 25
        curve, _ = eval_lower_bound(PowerLaw(2.0), 39, 4)
        last = curve[3::4]
        assert (last["x"] == 2.0).all()
        for z, k in [(5, 3), (39, 24)]:
            assert lower_bound_ratio(2.0, z, 2.0, k) == lower_bound_ratio(2.0, z, 2.0, k + 1)
            assert last["k_star"][z - 1] == k
            assert last["value"][z - 1] == lower_bound_ratio(2.0, z, 2.0, k)

    @given(st.floats(2.0, 8.0),
           st.lists(st.tuples(st.integers(1, 10_000), st.floats(0.0, 1.0, exclude_min=True)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bisection_stop_matches_80_steps(self, alpha, points):
        # the search over integer k must not move a single bit of the result
        # of the 80-step bisection on the stationary point
        z = np.array([p[0] for p in points])
        x = x_cap(alpha, z) * np.array([p[1] for p in points])
        with np.errstate(invalid="ignore"):  # z = 1 with x near 0 is 0/0, read as inf
            values, k_star = inner_min(alpha, z, x)
            ref_values, ref_k = inner_min_batch_80(alpha, z, x)
        assert values.tobytes() == ref_values.tobytes()
        assert (k_star == ref_k).all()

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.7, 8.0])
    def test_bisection_stop_matches_80_steps_near_integer_k_star(self, alpha):
        # x solved so that k* is an integer, and its 1-3 ulp neighbours: the
        # points where neighbouring ratios come closest to a tie, and where the
        # reference bracket keeps an integer longest, up to its fixed point
        zs, xs = [], []
        for z in (1, 2, 10, 57, 1000, 10_000):
            for n in sorted({1, 2, z // 3, z // 2, z - 1, z} - {0}):
                for x in stationary_xs(alpha, z, n):
                    up = down = x
                    for _ in range(3):
                        up, down = np.nextafter(up, math.inf), np.nextafter(down, 0.0)
                        xs += [up, down]
                    xs.append(x)
                    zs += [z] * 7
        z, x = np.array(zs), np.array(xs)
        lo, hi = bracket_80(alpha, z, x)
        assert 2 * (np.floor(hi) >= np.ceil(lo)).sum() >= z.size  # most reach its fixed point
        values, k_star = inner_min(alpha, z, x)
        ref_values, ref_k = inner_min_batch_80(alpha, z, x)
        assert values.tobytes() == ref_values.tobytes()
        assert (k_star == ref_k).all()

    def test_bisection_points_settle_at_different_steps(self):
        # at alpha = 2, z = 10, x = 7 the stationary condition is
        # 25 k**2 + 320 k - 4160 = 0, so k* = 8 exactly and the reference
        # bracket runs to its fixed point; x = 0.5 leaves no integer in that
        # bracket early on. The integer search must pick k = 8 all the same
        z = np.array([[10, 10], [10, 10]])
        x = np.array([[0.5, 7.0], [3.3, 7.0]])
        lo, hi = bracket_80(2.0, z, x)
        assert (np.floor(hi) >= np.ceil(lo)).tolist() == [[False, True], [False, True]]
        values, k_star = inner_min(2.0, z, x)
        ref_values, ref_k = inner_min_batch_80(2.0, z, x)
        assert values.shape == k_star.shape == (2, 2)
        assert values.tobytes() == ref_values.tobytes()
        assert (k_star == ref_k).all()
        assert k_star[0, 1] == k_star[1, 1] == 8

    def test_bisection_stop_matches_80_steps_at_alpha2_z10000(self):
        _, best = eval_lower_bound(PowerLaw(2.0), 10_000, 64)
        with mock.patch.object(adversary, "_inner_min_batch",
                               lambda g, z, x, k0: inner_min_batch_80(2.0, z, x)):
            _, reference = eval_lower_bound(PowerLaw(2.0), 10_000, 64)
        assert best == reference

    def test_alpha2_limit_approaches_phi_plus_1(self):
        _, best = eval_lower_bound(PowerLaw(2.0), 10_000, 64)
        assert abs(best - PHI_PLUS_1) < 1e-3
        assert best <= PHI_PLUS_1 + 1e-9

    def test_alpha3_peak_is_sqrt2_plus_1(self):
        # the 4-job construction appears at z=2; refinement must find its kink
        _, best = eval_lower_bound(PowerLaw(3.0), 2, 64)
        assert abs(best - SQRT2_PLUS_1) <= 4 * math.ulp(SQRT2_PLUS_1)

    def test_best_equals_row_peak_reference(self):
        # seeded alphas from 2 to 178; 40 rows keep every grid point finite
        # up to alpha = 178, and the coarse grids miss most row peaks. Row
        # z = 1 reads 2 at every x, below every other row's peak
        rng = np.random.default_rng(7)
        alphas = [2.0, 2.5, 3.0, 14.0, 16.0, 20.0, 178.0]
        alphas += np.exp(rng.uniform(math.log(2.0), math.log(178.0), 12)).tolist()
        cases = [(alpha, 40, int(rng.choice([2, 3, 16]))) for alpha in alphas]
        cases += [(2.0, 400, 8), (3.0, 300, 2)]
        for alpha, z_max, x_grid in cases:
            curve, best = eval_lower_bound(PowerLaw(alpha), z_max, x_grid)
            reference = float(row_peaks_by_bisection(alpha, z_max).max())
            assert math.isclose(best, reference, rel_tol=1e-12), (alpha, z_max, x_grid)
            assert best >= curve["value"].max()

    def test_alpha2_z10000_best(self):
        # the crossing of row 10,000's branches 6,180 and 6,181
        _, best = eval_lower_bound(PowerLaw(2.0), 10_000, 64)
        assert best == 2.617961636212655

    def test_best_reaches_sqrt2_plus_1(self):
        # wherever the 4-job construction is feasible, row z = 2 holds it, so
        # the best is at least sqrt(2) + 1 however coarse the grid. At alpha =
        # 300 and 510 the crossing's quadratic overflows a float unless scaled;
        # there only z_max <= 3 keeps the grid finite
        rng = np.random.default_rng(11)
        alphas = [2.05, 2.2, 3.0, 14.0, 16.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0, 150.0, 178.0]
        alphas += rng.uniform(2.0, 178.0, 12).tolist() + [300.0, 510.0]
        feasible = 0
        for alpha in alphas:
            try:
                gen_sqrt2_lb_instance(alpha)
            except ConstructionError:
                continue
            feasible += 1
            sizes = [(2, 2), (3, 16)] + [(int(rng.integers(2, 41)), 3)] * (alpha <= 178.0)
            for z_max, x_grid in sizes:
                _, best = eval_lower_bound(PowerLaw(alpha), z_max, x_grid)
                assert best >= SQRT2_PLUS_1 - 1e-12, (alpha, z_max, x_grid)
        assert feasible >= 20

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0, 2.5, 7.3])
    def test_branches_rise_up_to_k0_and_fall_after(self, monkeypatch, alpha):
        # k0 is the branch _row_peaks hands to _crossings. Integer alphas are
        # checked exactly: f(k) = k + z**a - (k+z) k**(a-1) and each branch's
        # change from x = xcap / 4 to xcap, in Fractions. Other alphas check
        # the sign of f in floats where it is clear of rounding
        seen = {}
        crossings = adversary._crossings

        def recording(g, z, j, k):
            assert (k == j + 1).all()
            seen.update(zip(z.tolist(), j.tolist()))
            return crossings(g, z, j, k)

        monkeypatch.setattr(adversary, "_crossings", recording)
        z_max = 60
        eval_lower_bound(PowerLaw(alpha), z_max, 4)
        assert sorted(seen) == list(range(2, z_max + 1))  # z = 1 has no rising branch
        rows = np.random.default_rng(3).choice(np.arange(2, z_max + 1), 12, replace=False)
        for z in rows.tolist():
            k0 = seen[z]
            assert 1 <= k0 < z
            if alpha.is_integer():
                a = int(alpha)
                cz = z ** a - (z - 1) ** a
                cap = (z + 1) ** a - 2 * z ** a + (z - 1) ** a

                def branch(x, k):
                    v = cz + x
                    return Fraction((k + z) * v - k - z ** a, k * v - k ** a)

                for k in range(1, z + 1):
                    f = k + z ** a - (k + z) * k ** (a - 1)
                    rise = branch(cap, k) - branch(Fraction(cap, 4), k)
                    if k <= k0:
                        assert f > 0 and rise > 0, (z, k)
                    else:
                        assert f <= 0 and rise <= 0, (z, k)
            else:
                za = float(z) ** alpha
                for k in range(1, z + 1):
                    f = k + za - (k + z) * float(k) ** (alpha - 1.0)
                    if abs(f) > 1e-9 * za:
                        assert (f > 0) == (k <= k0), (z, k)

    def test_refused_curve_names_its_largest_value_unrefined(self, monkeypatch):
        # a nan at the first point of each 256-row chunk: the largest value,
        # at z = 300, shares the second chunk with one of them
        curve, _ = eval_lower_bound(PowerLaw(2.5), 300, 8)
        inner = adversary._inner_min_batch

        def first_point_nan(g, z, x, k0):
            values, ks = inner(g, z, x, k0)
            values.flat[0] = math.nan
            return values, ks

        def row_peaks(*args):
            raise AssertionError("a refused curve solves no crossing")

        monkeypatch.setattr(adversary, "_inner_min_batch", first_point_nan)
        monkeypatch.setattr(adversary, "_row_peaks", row_peaks)
        largest = float(np.delete(curve["value"], [0, 256 * 8]).max())
        assert largest == curve["value"][256 * 8:].max()
        with pytest.raises(ModelError, match=f"2 of 2400 grid points are not finite, "
                                             f"best is {largest!r}$"):
            eval_lower_bound(PowerLaw(2.5), 300, 8)

    @pytest.mark.parametrize("z_max, reason", [
        (10 ** 12, r"Unable to allocate 1\.82 PiB"),  # more than any address space
        (2 ** 62, "Maximum allowed dimension exceeded"),  # 2**68 points overflow an index
    ])
    def test_unallocatable_grid_refused(self, z_max, reason):
        # numpy refuses both sizes before it touches memory
        with pytest.raises(ModelError, match=rf"^cannot allocate the lower-bound grid of "
                                             rf"{z_max} x 64 points: {reason}"):
            eval_lower_bound(PowerLaw(2.0), z_max, 64)

    def test_bad_arguments(self):
        with pytest.raises(ModelError):
            eval_lower_bound(PowerLaw(1.5), 10, 8)
        with pytest.raises(ModelError):
            eval_lower_bound(PowerLaw(2.0), 0, 8)
        with pytest.raises(ModelError):
            eval_lower_bound(PowerLaw(2.0), 10, 1)
