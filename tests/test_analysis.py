import math

import numpy as np
import pytest

from speedscale import offline
from speedscale.adversary import (DELTA, PHI_PLUS_1, SQRT2_PLUS_1,
                                  gen_alpha2_lb_instance, run_adversarial_game)
from speedscale.analysis import (VerificationError, competitive_report,
                                 gamma_root, mincran_ratio, psi,
                                 random_instance, theta,
                                 verify_alpha2_lcr_cases, verify_h_bound,
                                 verify_mincran, verify_oracle_equivalence,
                                 verify_small_m_cases, verify_subadditivity)
from speedscale.model import INFINITE, Instance, ModelError, PowerLaw

from conftest import mk_instance


class TestCompetitiveReport:
    def test_expiring_pair(self, alpha2):
        inst = mk_instance((1, 4.0, 1), (1, 4.0, 1), label="pair")
        rep = competitive_report(inst, "min-lcr", alpha2)
        assert rep.off_profit == 4.0 and rep.alg_profit == 4.0 and rep.ratio == 1.0

    def test_infinite_pair(self, alpha2):
        inst = mk_instance((1, 4.0, INFINITE), (1, 4.0, INFINITE))
        rep = competitive_report(inst, "min-lcr", alpha2)
        assert rep.off_profit == 6.0
        assert rep.ratio <= rep.max_lcr + 1e-9

    def test_empty_instance(self, alpha2):
        rep = competitive_report(Instance((), label="empty"), "min-lcr", alpha2)
        assert rep.off_profit == 0.0 and rep.alg_profit == 0.0 and rep.ratio == 1.0
        assert not rep.has_lcr and math.isnan(rep.max_lcr)

    def test_ledger_rows_match_slots(self, alpha2, rng):
        inst = random_instance(rng, alpha2, n_max=20)
        rep = competitive_report(inst, "sim-lcr", alpha2)
        for row in rep.per_slot_lcr:
            assert row.i_chosen >= 1
            assert row.lcr <= rep.max_lcr

    @pytest.mark.parametrize("policy", ["min-lcr", "sim-lcr", "greedy"])
    def test_builds_no_witness(self, monkeypatch, alpha2, rng, policy):
        # the ratio reads only the optimum's value, so no schedule is assembled
        inst = random_instance(rng, alpha2, n_max=30, mean_gap=0.3)
        report = repr(competitive_report(inst, policy, alpha2))

        def refuse(*args):
            raise AssertionError("competitive_report built a witness schedule")

        monkeypatch.setattr(offline, "_trace_from_assignment", refuse)
        assert repr(competitive_report(inst, policy, alpha2)) == report


class TestMincran:
    def test_minimizer_is_delta_z(self):
        k_star, _ = verify_mincran(100)
        assert abs(k_star - 61.80339887) < 1e-4

    def test_value_at_large_z(self):
        _, value = verify_mincran(10_000)
        assert abs(value - PHI_PLUS_1) < 1e-3

    def test_boundary_value_at_k_equals_z(self):
        # the ratio at k = z is exactly 3 for every z
        for z in (10, 100, 1000):
            assert math.isclose(mincran_ratio(z, z), 3.0, abs_tol=1e-12)
        assert 3.0 >= PHI_PLUS_1

    def test_negative_control(self):
        with pytest.raises(VerificationError) as err:
            verify_mincran(100, delta=DELTA + 0.01)
        assert err.value.check == "mincran-minimizer"


class TestTheta:
    def test_alpha2_m3_is_half(self):
        assert abs(theta(2.0, 3) - 0.5) <= 1e-12

    def test_alpha3_m3(self):
        assert math.isclose(theta(3.0, 3), 24.0 / 54.0, abs_tol=1e-12)

    def test_m1_always_zero(self):
        for alpha in (2.0, 2.7, 5.0):
            assert theta(alpha, 1) == 0.0

    def test_verify_h_bound(self):
        report = verify_h_bound(2.0, 50)
        assert report["max_theta"] <= 0.5 + 1e-12
        # m = 2 pins theta at exactly 1/2 for every exponent; larger m dip below
        report = verify_h_bound(3.5, 50)
        assert report["max_theta"] <= 0.5 + 1e-12
        assert theta(3.5, 2) == 0.5
        assert all(theta(3.5, m) < 0.5 for m in range(3, 50))

    def test_nonincreasing_in_alpha_m_up_to_100(self):
        for m in range(1, 101):
            values = [theta(a, m) for a in np.linspace(2.0, 6.0, 41)]
            assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


class TestSmallMCases:
    def test_grid_passes(self):
        grid = [round(a, 2) for a in np.arange(2.5, 4.001, 0.05)]
        report = verify_small_m_cases(grid, seed=5, samples=8)
        assert all(r["bound"] <= PHI_PLUS_1 + 1e-9 for r in report["rows"])
        covered = {(r["alpha"], r["m"]) for r in report["rows"]}
        assert all((a, m) in covered for a in grid for m in (2, 4, 5, 7))

    def test_m2_bounds_meet_sqrt2_plus_1(self):
        # both value branches peak exactly at sqrt(2)+1 at the split point
        report = verify_small_m_cases([3.0], samples=0)
        m2 = [r for r in report["rows"] if r["m"] == 2]
        assert all(math.isclose(r["bound"], SQRT2_PLUS_1, abs_tol=1e-9) for r in m2)

    def test_rejects_alpha_below_guarantee(self):
        with pytest.raises(ModelError):
            verify_small_m_cases([2.3])


class TestAlpha2Cases:
    def test_gamma_between_delta_m_and_delta_m_plus_1(self):
        for m in range(2, 60):
            g = gamma_root(m)
            assert DELTA * m < g < DELTA * m + 1.0

    def test_closed_form_values(self):
        report = verify_alpha2_lcr_cases([3, 4])
        bounds = {r["m"]: r["bound"] for r in report["rows"]}
        assert math.isclose(bounds[3], 7.0 / 3.0, abs_tol=1e-9)
        assert math.isclose(bounds[4], 2.5, abs_tol=1e-9)

    def test_m1_bound_two(self):
        report = verify_alpha2_lcr_cases([1])
        assert report["rows"][0]["bound"] == 2.0

    def test_full_grid(self):
        report = verify_alpha2_lcr_cases(range(1, 61))
        assert all(r["bound"] <= PHI_PLUS_1 + 1e-9 for r in report["rows"])

    def test_psi_endpoint_anomaly_at_m5(self):
        # the real-point value dips above phi+1 at m=5 even though the integer
        # candidate is fine; the verifier reports it instead of failing
        assert psi(5, DELTA * 5 + 1.0) > PHI_PLUS_1
        report = verify_alpha2_lcr_cases([5])
        row = report["rows"][0]
        assert row["psi_end_above"] and row["bound"] <= PHI_PLUS_1

    def test_psi_endpoint_fine_from_m6(self):
        for m in range(6, 40):
            assert psi(m, DELTA * m + 1.0) <= PHI_PLUS_1 + 1e-9


class TestOracleSuites:
    def test_oracle_equivalence_sample(self):
        report = verify_oracle_equivalence(samples=120, seed=3)
        assert report["worst_diff"] <= 1e-6

    def test_subadditivity_sample(self):
        report = verify_subadditivity(samples=120, seed=3)
        assert report["worst_slack"] <= 1e-6


class TestSweep:
    """Worst ratios over the random, heavy-tail and adversarial instance families."""

    def test_adversarial_family_ratio_capped(self):
        cost = PowerLaw(2.0)
        for z in (10, 100, 1000):
            report = run_adversarial_game("min-lcr", gen_alpha2_lb_instance(z), cost)
            assert report.ratio <= PHI_PLUS_1 + 1e-6, (z, report.ratio)

    def test_greedy_random_family_capped_by_three(self):
        for alpha in (2.0, 3.0, 4.0):
            cost = PowerLaw(alpha)
            rng = np.random.default_rng(7)
            ratios = [competitive_report(random_instance(rng, cost), "greedy", cost).ratio
                      for _ in range(25)]
            finite = [r for r in ratios if math.isfinite(r)]
            assert finite and max(finite) <= 3.0 + 1e-6, (alpha, ratios)

    def test_heavy_tail_family_runs(self):
        cost = PowerLaw(2.5)
        rng = np.random.default_rng(1)
        for _ in range(10):
            rep = competitive_report(random_instance(rng, cost, heavy_tail=True), "sim-lcr", cost)
            if rep.has_lcr and math.isfinite(rep.ratio):
                assert rep.ratio <= rep.max_lcr + 1e-9


class TestGenerators:
    def test_random_instance_shapes(self, alpha2, rng):
        for _ in range(20):
            inst = random_instance(rng, alpha2, n_max=30)
            assert 1 <= len(inst) <= 30
            arrivals = [j.arrival for j in inst.jobs]
            assert arrivals == sorted(arrivals)

    def test_heavy_tail_values_positive(self, alpha2, rng):
        inst = random_instance(rng, alpha2, n_max=20, heavy_tail=True)
        assert all(j.value > 0 for j in inst.jobs)
