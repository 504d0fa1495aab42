"""The model has no units: scaling every value and g by a power of two c
scales every profit by exactly c and changes no bit of any decision, ledger,
LCR or ratio (the rule in `speedscale.model`'s docstring).

Each test runs the same input at c = 1 and at c, and compares the two with
every payoff, cost and profit of the scaled run divided by c, which is exact.
Floats are compared by repr, so nan, inf and the sign of zero count too.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedscale.adversary import (InstanceTemplate, eval_lower_bound, gen_alpha2_lb_instance,
                                  gen_sqrt2_lb_instance, run_adversarial_game)
from speedscale.analysis import competitive_report, random_instance
from speedscale.model import EMPTY_TRACE, Instance, PowerLaw, TabulatedConvex
from speedscale.offline import solve_offline_flow
from speedscale.policies import FixedCountPolicy, run_policy
from speedscale.reports import build_report, profit_ratio

POLICIES = ("min-lcr", "greedy", FixedCountPolicy(2))  # sim-lcr takes only PowerLaw


def power_table(alpha, size, c):
    """TabulatedConvex of c * k**alpha for k in 0..size-1."""
    return TabulatedConvex(tuple(float(k) ** alpha * c for k in range(size)))


def scaled_instance(instance, c):
    return Instance(tuple(dataclasses.replace(j, value=j.value * c) for j in instance.jobs),
                    instance.label)


def decisions(trace, c):
    return repr([(d.slot, sorted(d.processed), d.payoff_sum / c, d.energy / c)
                 for d in trace.decisions])


def ledgers(trace, c):
    return repr([(e.slot, e.chosen, [(b.i, b.M / c, b.P / c, b.c_greedy / c, b.lcr)
                                     for b in e.breakdowns])
                 for e in trace.ledgers])


def report(rep, c):
    return repr((rep.label, rep.off_profit / c, rep.alg_profit / c, rep.ratio,
                 rep.per_slot_lcr, rep.max_lcr))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), e=st.integers(-60, 60))
@example(seed=0, e=-60)
@example(seed=0, e=60)
def test_policies_and_flow_scale_exactly(seed, e):
    c = 2.0 ** e
    instance = random_instance(np.random.default_rng(seed), PowerLaw(2.5), n_max=30,
                               mean_gap=0.3)
    size = len(instance.jobs) + 2
    cost, cost_c = power_table(2.5, size, 1.0), power_table(2.5, size, c)
    instance_c = scaled_instance(instance, c)
    for policy in POLICIES:
        trace, trace_c = run_policy(instance, policy, cost), run_policy(instance_c, policy, cost_c)
        assert decisions(trace_c, c) == decisions(trace, 1.0), policy
        assert ledgers(trace_c, c) == ledgers(trace, 1.0), policy
        assert (report(competitive_report(instance_c, policy, cost_c), c)
                == report(competitive_report(instance, policy, cost), 1.0)), policy
    (off, witness), (off_c, witness_c) = (solve_offline_flow(instance, cost),
                                          solve_offline_flow(instance_c, cost_c))
    assert off_c == c * off
    assert decisions(witness_c, c) == decisions(witness, 1.0)


@settings(max_examples=25, deadline=None)
@given(z=st.integers(1, 40), e=st.integers(-60, 60))
@example(z=5, e=-60)
def test_game_scales_exactly(z, e):
    c = 2.0 ** e
    for template, alpha in ((gen_alpha2_lb_instance(z), 2.0), (gen_sqrt2_lb_instance(2.5), 2.5)):
        size = len(template.values) + 2
        cost, cost_c = power_table(alpha, size, 1.0), power_table(alpha, size, c)
        template_c = InstanceTemplate(tuple(v * c for v in template.values), template.label)
        for policy in POLICIES:
            rep, rep_c = (run_adversarial_game(policy, template, cost),
                          run_adversarial_game(policy, template_c, cost_c))
            assert report(rep_c, c) == report(rep, 1.0), (template.label, policy)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), e=st.integers(-1000, 60))
@example(seed=0, e=-1000)
def test_lower_bound_curve_scales_exactly(seed, e):
    # a random strictly convex table: marginal costs rise by at least 0.1 a step
    z_max, rng = 40, np.random.default_rng(seed)
    marginals = np.cumsum(rng.uniform(0.1, 2.0, size=z_max + 1))
    g = np.concatenate([[0.0], np.cumsum(marginals)])
    curve, best = eval_lower_bound(TabulatedConvex(tuple(g)), z_max, 8)
    curve_c, best_c = eval_lower_bound(TabulatedConvex(tuple(g * 2.0 ** e)), z_max, 8)
    assert best_c == best
    for column in ("z", "k_star", "value"):
        assert curve_c[column].tobytes() == curve[column].tobytes(), column
    assert (curve_c["x"] / 2.0 ** e).tobytes() == curve["x"].tobytes()


@pytest.mark.parametrize("s", [1e-12, 1e-13])
def test_small_scale_keeps_the_clairvoyant_profit(s):
    # at a scale that is not a power of two the runs agree up to rounding
    instance = random_instance(np.random.default_rng(3), PowerLaw(2), n_max=30)
    size = len(instance.jobs) + 2
    rep = competitive_report(instance, "min-lcr", power_table(2.0, size, 1.0))
    rep_s = competitive_report(scaled_instance(instance, s), "min-lcr", power_table(2.0, size, s))
    assert rep.off_profit == pytest.approx(149.3224135209, rel=1e-12)
    assert rep_s.off_profit / s == pytest.approx(rep.off_profit, rel=1e-12)
    assert rep_s.alg_profit / s == pytest.approx(rep.alg_profit, rel=1e-12)
    assert rep_s.ratio == pytest.approx(rep.ratio, rel=1e-12)


def test_a_tiny_profit_is_a_profit():
    assert profit_ratio(3 * 2.0 ** -80, 2.0 ** -80) == 3.0


def test_ratio_without_an_online_profit():
    assert build_report("x", 2.0, EMPTY_TRACE).ratio == math.inf
    assert build_report("x", 0.0, EMPTY_TRACE).ratio == 1.0
