import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale import adversary, offline
from speedscale.adversary import (PHI_PLUS_1, SQRT2_PLUS_1, InstanceTemplate,
                                  _inner_min_batch, _refine_peak, _x_cap,
                                  adversary_finalize, alpha2_game_ratio,
                                  lower_bound_ratio, eval_lower_bound,
                                  gen_alpha2_lb_instance,
                                  gen_sqrt2_lb_instance, golden_section_max,
                                  run_adversarial_game, sqrt2_job_value)
from speedscale.model import INFINITE, Instance, Job, ModelError, PowerLaw, Trace
from speedscale.offline import offline_profit, solve_offline_flow
from speedscale.policies import (Decision, FixedCountPolicy, Policy, _play_slot, get_policy,
                                 run_policy)
from speedscale.reports import build_report

from conftest import assert_same_instance, count_checked_constructions, job_values, k_scan


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
    count = _play_slot(get_policy(policy), view, cost, decisions, ledgers)
    instance = adversary_finalize(template, [jid for jid, _ in view.candidates[:count]])
    return build_report(template.label, offline_profit(instance, cost), Trace(decisions, ledgers))


def golden_refine_peak(alpha, z, x_lo, x_hi):
    """The refinement _refine_peak replaced: a golden section per row on the inner min."""
    best = -math.inf
    for row, lo, hi in zip(z.tolist(), x_lo.tolist(), x_hi.tolist()):
        zs = np.array([row])

        def inner_min(x):
            return float(_inner_min_batch(alpha, zs, np.array([x]))[0][0])

        best = max(best, golden_section_max(inner_min, lo, hi, rtol=1e-13)[2])
    return best


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


def inner_min_batch_80(alpha, z, x):
    """_inner_min_batch with its bisection run for all 80 steps, unconditionally."""
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
        curve, best = eval_lower_bound(2.0, 1, 8)
        assert len(curve) == 8
        assert (curve["k_star"] == 1).all()
        assert np.allclose(curve["value"], 2.0, rtol=0.0, atol=1e-9)
        assert math.isclose(best, 2.0, abs_tol=1e-9)

    def test_curve_points_respect_x_cap(self):
        curve, _ = eval_lower_bound(2.5, 12, 16)
        assert len(curve) == 12 * 16
        assert (curve["z"] == np.repeat(np.arange(1, 13), 16)).all()
        for z, x, k in zip(curve["z"].tolist(), curve["x"].tolist(), curve["k_star"].tolist()):
            cap = (z + 1) ** 2.5 - 2 * z ** 2.5 + (z - 1) ** 2.5
            assert 0 < x <= cap + 1e-12
            assert 1 <= k <= z

    def test_inner_min_matches_direct_scan(self):
        # exact integer minimum cross-checked against full enumeration over k
        for alpha in (2.0, 2.7, 3.3):
            curve, _ = eval_lower_bound(alpha, 9, 7)
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
        x = _x_cap(alpha, z)[:, None] * (np.arange(1, 17) / 16.0)
        zz = np.broadcast_to(z[:, None], x.shape)
        with np.errstate(all="ignore"):
            values, k_star = _inner_min_batch(alpha, zz, x)
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
        x = _x_cap(alpha, z) * np.array([p[1] for p in points])
        with np.errstate(all="ignore"):
            values, k_star = _inner_min_batch(alpha, z, x)
        assert_matches_k_scan(alpha, z, x, values, k_star)

    @given(st.floats(2.0, 8.0),
           st.lists(st.tuples(st.integers(1, 10_000), st.floats(0.0, 1.0, exclude_min=True)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bisection_stop_matches_80_steps(self, alpha, points):
        # the search over integer k must not move a single bit of the result
        # of the 80-step bisection on the stationary point
        z = np.array([p[0] for p in points])
        x = _x_cap(alpha, z) * np.array([p[1] for p in points])
        with np.errstate(invalid="ignore"):  # z = 1 with x near 0 is 0/0, read as inf
            values, k_star = _inner_min_batch(alpha, z, x)
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
        values, k_star = _inner_min_batch(alpha, z, x)
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
        values, k_star = _inner_min_batch(2.0, z, x)
        ref_values, ref_k = inner_min_batch_80(2.0, z, x)
        assert values.shape == k_star.shape == (2, 2)
        assert values.tobytes() == ref_values.tobytes()
        assert (k_star == ref_k).all()
        assert k_star[0, 1] == k_star[1, 1] == 8

    def test_bisection_stop_matches_80_steps_at_alpha2_z10000(self):
        _, best = eval_lower_bound(2.0, 10_000, 64)
        with mock.patch.object(adversary, "_inner_min_batch", inner_min_batch_80):
            _, reference = eval_lower_bound(2.0, 10_000, 64)
        assert best == reference

    def test_alpha2_limit_approaches_phi_plus_1(self):
        _, best = eval_lower_bound(2.0, 10_000, 64)
        assert abs(best - PHI_PLUS_1) < 1e-3
        assert best <= PHI_PLUS_1 + 1e-9

    def test_alpha3_peak_is_sqrt2_plus_1(self):
        # the 4-job construction appears at z=2; refinement must find its kink
        _, best = eval_lower_bound(3.0, 2, 64)
        assert abs(best - SQRT2_PLUS_1) <= 4 * math.ulp(SQRT2_PLUS_1)

    @given(st.floats(2.0, 8.0), st.integers(1, 150), st.sampled_from([2, 3, 8, 64]))
    @settings(max_examples=10, deadline=None)
    def test_crossing_refinement_matches_golden_section(self, alpha, z_max, x_grid):
        _, best = eval_lower_bound(alpha, z_max, x_grid)
        with mock.patch.object(adversary, "_refine_peak", golden_refine_peak):
            _, reference = eval_lower_bound(alpha, z_max, x_grid)
        assert best >= reference * (1.0 - 1e-14)
        assert format(best, ".12g") == format(reference, ".12g")

    @pytest.mark.parametrize("alpha,z", [(3.0, 50), (3.0, 150), (4.0, 150)])
    def test_refinement_solves_skipped_branches(self, alpha, z):
        # on a bracket 100 times the x cap the active k jumps past a branch
        # between samples; the peak is a crossing with that skipped branch
        zs = np.array([z])
        cap = float(_x_cap(alpha, zs)[0])
        lo, hi = cap * 1e-6, cap * 100.0
        xs = np.linspace(lo, hi, 20_001)
        dense = _inner_min_batch(alpha, np.full(xs.shape, z), xs)[0].max()
        assert _refine_peak(alpha, zs, np.array([lo]), np.array([hi])) >= dense

    def test_refused_curve_names_its_largest_value_unrefined(self, monkeypatch):
        # a nan at the first point of each 256-row chunk: the largest value,
        # at z = 300, shares the second chunk with one of them
        curve, _ = eval_lower_bound(2.5, 300, 8)
        inner = adversary._inner_min_batch

        def first_point_nan(alpha, z, x):
            values, ks = inner(alpha, z, x)
            values.flat[0] = math.nan
            return values, ks

        def refine_peak(*args):
            raise AssertionError("a refused curve is not refined")

        monkeypatch.setattr(adversary, "_inner_min_batch", first_point_nan)
        monkeypatch.setattr(adversary, "_refine_peak", refine_peak)
        largest = float(np.delete(curve["value"], [0, 256 * 8]).max())
        assert largest == curve["value"][256 * 8:].max()
        with pytest.raises(ModelError, match=f"2 of 2400 grid points are not finite, "
                                             f"best is {largest!r}$"):
            eval_lower_bound(2.5, 300, 8)

    def test_bad_arguments(self):
        with pytest.raises(ModelError):
            eval_lower_bound(1.5, 10, 8)
        with pytest.raises(ModelError):
            eval_lower_bound(2.0, 0, 8)
        with pytest.raises(ModelError):
            eval_lower_bound(2.0, 10, 1)
