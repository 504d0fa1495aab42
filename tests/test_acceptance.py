"""Acceptance suite: every quantitative reproduction target, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they complete. The random battery (criteria 5-7) is shared
through a module-scoped fixture.
"""
import functools
import math
import time

import numpy as np
import pytest

from speedscale.adversary import (DELTA, PHI_PLUS_1, SQRT2_PLUS_1,
                                  eval_lower_bound, gen_alpha2_lb_instance,
                                  gen_sqrt2_lb_instance, run_adversarial_game)
from speedscale.analysis import (random_instance, theta,
                                 verify_alpha2_lcr_cases, verify_h_bound,
                                 verify_mincran, verify_oracle_equivalence,
                                 verify_small_m_cases, verify_subadditivity)
from speedscale.cli import main
from speedscale.model import PowerLaw
from speedscale.offline import offline_profit
from speedscale.policies import FixedCountPolicy, beta_root, run_policy
from speedscale.reports import build_report, profit_ratio

BATTERY_SIZE = 10_000
BATTERY_ALPHAS = (2.0, 2.5, 3.0)
EXTRA_ALPHAS = (3.5, 4.0)  # sim-lcr per-slot and greedy runs to cover the 2..4 grids
EXTRA_SIZE = 1_500


def criterion(n: int, budget: float | None = None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {n}] FAIL - {type(exc).__name__}: {exc}")
                raise
            elapsed = time.time() - t0
            if budget is not None:
                assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
            print(f"[criterion {n}] PASS - {detail} ({elapsed:.1f}s)")
        return wrapper
    return deco


@criterion(1, budget=10.0)
def test_criterion_1_alpha2_game_at_scale():
    """Adaptive game, z = 1000, min-lcr: ratio within 1% of phi + 1."""
    cost = PowerLaw(2.0)
    report = run_adversarial_game("min-lcr", gen_alpha2_lb_instance(1000), cost)
    rel = abs(report.ratio - PHI_PLUS_1) / PHI_PLUS_1
    assert rel <= 0.01, f"ratio {report.ratio} deviates {rel:.2%} from {PHI_PLUS_1}"
    return f"ratio={report.ratio:.6f} vs phi+1={PHI_PLUS_1:.6f} (rel dev {rel:.2e})"


@criterion(2, budget=1.0)
def test_criterion_2_sqrt2_construction():
    """4-job construction: ratio = sqrt(2)+1 within 1e-6 for k = 1 and k = 2."""
    worst = 0.0
    for alpha in (2.5, 3.0, 4.0):
        cost = PowerLaw(alpha)
        template = gen_sqrt2_lb_instance(alpha)
        for k in (1, 2):
            report = run_adversarial_game(FixedCountPolicy(k), template, cost)
            err = abs(report.ratio - SQRT2_PLUS_1)
            worst = max(worst, err)
            assert err <= 1e-6, f"alpha={alpha} k={k}: ratio {report.ratio}"
    return f"alpha in (2.5, 3, 4), k in (1, 2): max |ratio - (sqrt2+1)| = {worst:.2e}"


@criterion(3, budget=4.0)
def test_criterion_3_lower_bound_curve(tmp_path):
    """Lower-bound curve: phi+1 anchor at alpha=2 and sqrt2+1 floor on the alpha grid."""
    _, best2 = eval_lower_bound(PowerLaw(2.0), 10_000, 64)
    assert abs(best2 - PHI_PLUS_1) <= 1e-2, f"alpha=2 best {best2}"

    alphas = [round(2.1 + 0.1 * i, 1) for i in range(20)]  # 2.1 .. 4.0
    out = tmp_path / "lowerbound.csv"
    code = main(["lowerbound", "--alpha", ",".join(str(a) for a in alphas),
                 "--z-max", "200", "--x-grid", "64", "--out", str(out), "--no-header"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,z,x,k_star,value"
    points = [l for l in lines[1:] if l.split(",")[1] != ""]
    summaries = {float(l.split(",")[0]): float(l.split(",")[4])
                 for l in lines[1:] if l.split(",")[1] == ""}
    assert len(points) == 20 * 200 * 64, "curve dataset incomplete"
    assert sorted(summaries) == alphas
    floor = SQRT2_PLUS_1 - 1e-6
    low = min(summaries.values())
    assert low >= floor, f"grid value {low} under sqrt2+1 floor"
    return (f"alpha=2: best={best2:.6f} (|err|={abs(best2 - PHI_PLUS_1):.1e}); "
            f"grid 2.1..4.0: min best={low:.9f} >= sqrt2+1-1e-6; "
            f"{len(points)} curve points emitted")


@criterion(4)
def test_criterion_4_beta_roots():
    """Bisection root: golden-ratio conjugate at alpha=2, tiny residuals on 2..6."""
    assert abs(beta_root(2.0) - 0.618033989) <= 1e-9
    worst = 0.0
    for alpha in np.arange(2.0, 6.0 + 1e-9, 0.25):
        b = beta_root(float(alpha))
        worst = max(worst, abs(b ** alpha + b ** (alpha - 1.0) - 1.0))
    assert worst < 1e-10
    return f"beta(2)={beta_root(2.0):.9f}; max residual on 2..6 = {worst:.2e}"


@pytest.fixture(scope="module")
def battery():
    """Shared random battery: min-lcr/sim-lcr/greedy vs the clairvoyant solver."""
    t0 = time.time()
    rng = np.random.default_rng(1729)
    stats = {
        "count": 0,
        "ledger_checked": 0,
        "ledger_violations": [],
        "sim_worst": -math.inf,
        "greedy_worst_lcr": -math.inf,
        "greedy_worst_ratio": -math.inf,
        "slots_checked": 0,
    }

    def run_greedy(inst, cost, off):
        trace = run_policy(inst, "greedy", cost)
        for entry in trace.ledgers:
            stats["greedy_worst_lcr"] = max(stats["greedy_worst_lcr"], entry.breakdowns[0].lcr)
        ratio = profit_ratio(off, trace.total_profit)
        if math.isfinite(ratio) and trace.total_profit > 0:
            stats["greedy_worst_ratio"] = max(stats["greedy_worst_ratio"], ratio)

    for i in range(BATTERY_SIZE):
        alpha = BATTERY_ALPHAS[i % len(BATTERY_ALPHAS)]
        cost = PowerLaw(alpha)
        inst = random_instance(rng, cost, n_max=30, label=f"battery-{i}")
        off = offline_profit(inst, cost)
        stats["count"] += 1

        for policy in ("min-lcr", "sim-lcr"):
            trace = run_policy(inst, policy, cost)
            report = build_report(inst.label, off, trace)
            if report.per_slot_lcr and math.isfinite(report.ratio):
                stats["ledger_checked"] += 1
                if report.ratio > report.max_lcr + 1e-9:
                    stats["ledger_violations"].append((i, alpha, policy, report.ratio,
                                                       report.max_lcr))
            if policy == "sim-lcr":
                for entry in trace.ledgers:
                    stats["slots_checked"] += 1
                    stats["sim_worst"] = max(stats["sim_worst"],
                                             min(b.lcr for b in entry.breakdowns))

        run_greedy(inst, cost, off)

    for alpha in EXTRA_ALPHAS:
        cost = PowerLaw(alpha)
        for i in range(EXTRA_SIZE):
            inst = random_instance(rng, cost, n_max=30)
            trace = run_policy(inst, "sim-lcr", cost)
            for entry in trace.ledgers:
                stats["slots_checked"] += 1
                stats["sim_worst"] = max(stats["sim_worst"],
                                         min(b.lcr for b in entry.breakdowns))
            run_greedy(inst, cost, offline_profit(inst, cost))
    stats["elapsed"] = time.time() - t0
    return stats


@criterion(5)
def test_criterion_5_ledger_soundness(battery):
    """off/alg <= max per-slot LCR + 1e-9 on every instance of the seeded battery."""
    assert battery["count"] == BATTERY_SIZE
    assert not battery["ledger_violations"], battery["ledger_violations"][:3]
    assert battery["elapsed"] < 300.0, f"battery took {battery['elapsed']:.0f}s"
    return (f"{battery['count']} instances (alpha in {BATTERY_ALPHAS}), "
            f"{battery['ledger_checked']} ledger checks, 0 violations, "
            f"battery built in {battery['elapsed']:.1f}s")


@criterion(6)
def test_criterion_6_sim_lcr_bound(battery):
    """Per-slot min(LCR_floor, LCR_ceil) <= phi + 1 + 1e-9 across the battery."""
    assert battery["sim_worst"] <= PHI_PLUS_1 + 1e-9, battery["sim_worst"]
    return (f"worst per-slot candidate LCR = {battery['sim_worst']:.9f} <= "
            f"phi+1 = {PHI_PLUS_1:.9f} over {battery['slots_checked']} slots, "
            f"alpha in {BATTERY_ALPHAS + EXTRA_ALPHAS}")


@criterion(7)
def test_criterion_7_greedy_bound(battery):
    """Per-slot LCR_m <= 3 + 1e-9 and empirical off/greedy <= 3 on the battery, alpha 2..4."""
    assert battery["greedy_worst_lcr"] <= 3.0 + 1e-9, battery["greedy_worst_lcr"]
    assert battery["greedy_worst_ratio"] <= 3.0 + 1e-9, battery["greedy_worst_ratio"]
    return (f"worst LCR_m = {battery['greedy_worst_lcr']:.9f}, "
            f"worst empirical ratio = {battery['greedy_worst_ratio']:.9f} <= 3, "
            f"alpha in {BATTERY_ALPHAS + EXTRA_ALPHAS}")


@criterion(8)
def test_criterion_8_offline_oracles():
    """Flow == brute force on 1000 small instances; union sub-additivity on 1000 pairs."""
    eq = verify_oracle_equivalence(samples=1000, seed=2024)
    sub = verify_subadditivity(samples=1000, seed=7)
    assert eq["worst_diff"] <= 1e-6
    assert sub["worst_slack"] <= 1e-6
    return (f"oracle: worst |flow - brute| = {eq['worst_diff']:.2e}; "
            f"sub-additivity: worst slack = {sub['worst_slack']:.2e}")


@criterion(9)
def test_criterion_9_analytic_verifiers():
    """Golden-section minimizer, overhead-term checks, and the small-m case grid."""
    for z in (10, 100, 10_000):
        k_star, _ = verify_mincran(z)  # raises beyond 1e-6 * z
        assert abs(k_star - DELTA * z) <= 1e-6 * z

    assert abs(theta(2.0, 3) - 0.5) <= 1e-12
    for alpha in np.arange(2.0, 6.0 + 1e-9, 0.25):
        verify_h_bound(float(alpha), 100)  # cap at 1/2 and non-increasing slope

    grid = [round(a, 2) for a in np.arange(2.5, 4.0 + 1e-9, 0.05)]
    small_m = verify_small_m_cases(grid, seed=11, samples=40)
    worst_case_bound = max(r["bound"] for r in small_m["rows"])

    alpha2 = verify_alpha2_lcr_cases(range(1, 61))
    bounds = {r["m"]: r["bound"] for r in alpha2["rows"]}
    assert abs(bounds[3] - 7.0 / 3.0) <= 1e-9   # closed-form m=3 value 2.333...
    assert abs(bounds[4] - 2.5) <= 1e-9         # closed-form m=4 value 2.5

    return (f"minimizer = delta*z at z in (10, 100, 10000); theta(2,3)=0.5; "
            f"theta non-increasing on [2,6] for m<=100; "
            f"{len(small_m['rows'])} small-m bounds <= {worst_case_bound:.6f} <= phi+1; "
            f"m=3/m=4 closed-form values reproduced")
