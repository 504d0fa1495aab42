"""Online speed scaling with hidden job deadlines.

Library layout:

* ``model``     - jobs, instances, convex cost models, traces, instance files
* ``policies``  - deadline-blind online policies (min-lcr, sim-lcr, greedy,
  fixed:K)
* ``offline``   - exact clairvoyant solver (flow) plus a brute-force oracle
* ``adversary`` - lower-bound constructions, the adaptive deadline game, and
  the numeric lower-bound curve
* ``analysis``  - ``competitive_report``, random instance families, and
  numeric verifiers for every analytic bound
* ``reports``   - ratio reports: offline vs online profit with the per-slot
  LCR ledger
* ``cli``       - the ``speedscale`` command
"""
from .adversary import (DELTA, PHI, PHI_PLUS_1, SQRT2_PLUS_1, InstanceTemplate,
                        adversary_finalize, alpha2_game_ratio, lower_bound_ratio,
                        eval_lower_bound, gen_alpha2_lb_instance,
                        gen_sqrt2_lb_instance, run_adversarial_game,
                        sqrt2_job_value)
from .analysis import (VerificationError, competitive_report, gamma_root,
                       mincran_ratio, psi, random_instance, theta,
                       verify_alpha2_lcr_cases, verify_h_bound,
                       verify_mincran, verify_oracle_equivalence,
                       verify_small_m_cases, verify_subadditivity)
from .model import (INFINITE, CostModel, InfeasibleTraceError, Instance,
                    InstanceFormatError, Job, ModelError, PowerLaw,
                    SlotDecision, TabulatedConvex, Trace, dumps_instance,
                    evaluate_trace, job_to_obj, loads_instance, read_instance,
                    trace_to_obj, union, write_instance)
from .offline import (OfflineSizeError, offline_profit, solve_offline_bruteforce,
                      solve_offline_flow)
from .policies import (Decision, FixedCountPolicy, LcrBreakdown, Policy, POLICIES,
                       PolicyView, SlotLedger, UnsupportedCostError, beta_root,
                       compute_m, get_policy, inner_greedy_profit, lcr_breakdown,
                       run_policy)
from .reports import RatioReport, SlotLcr, build_report

__version__ = "0.1.0"
