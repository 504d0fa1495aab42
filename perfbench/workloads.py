"""Workload inputs and operations for the speedscale benchmark.

Inputs are drawn here from the run's seed with the benchmark's own generator
code; the program receives only finished `Job`/`Instance` objects (battery,
bursty) or a fixed command line (game, lowerbound). A later change to the
program's own generators therefore cannot change a workload.

This module imports only the standard library at load time: `setup` is what
imports speedscale, so that its import is part of the measured set-up time.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BATTERY_INSTANCES = 2000
BATTERY_ALPHAS = (2.0, 2.5, 3.0)
BATTERY_POLICIES = ("min-lcr", "sim-lcr", "greedy")
BURSTY_COMBOS = tuple((a, p) for a in (2.0, 3.0) for p in ("min-lcr", "greedy"))
BURSTY_PER_COMBO = 2
BURSTS, BURST_JOBS, BURST_SPACING = 4, 40, 5000
GAME_ZS = (500, 1000, 2000)
GAME_POLICIES = ("min-lcr", "sim-lcr", "greedy")
LOWERBOUND_ALPHAS = (2.1, 2.7, 3.4, 4.0)

WORKLOADS = ("battery", "bursty", "game", "lowerbound")


class SetupError(RuntimeError):
    """The checkout does not hold the program, or the inputs came out malformed."""


@dataclass(frozen=True)
class RatioItem:
    """One competitive_report call: an instance, its cost exponent and a policy.

    `rows` is the benchmark's own record of the jobs, (id, arrival, value,
    deadline) with deadline math.inf for a job that never expires; the checks
    read it instead of the program's `Instance`.
    """

    instance: object
    rows: tuple
    alpha: float
    cost: object
    policy: str


@dataclass(frozen=True)
class CliItem:
    """One in-process CLI call; `key` names the distinct input it runs on."""

    key: tuple
    argv: tuple[str, ...]


def import_program():
    """Import speedscale from this checkout's `src`, never from anywhere else."""
    if not (SRC / "speedscale" / "__init__.py").is_file():
        raise SetupError(f"no speedscale package under {SRC}")
    import sys
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import speedscale
    import speedscale.cli  # noqa: F401  (the game and lowerbound entry point)
    if Path(speedscale.__file__).resolve().parent != SRC / "speedscale":
        raise SetupError(f"speedscale was imported from {speedscale.__file__}, not {SRC}")
    return speedscale


def _draw_jobs(rng, n, first_arrival, mean_gap, value_scale, heavy, start_id=0, exact=False):
    """(id, arrival, value, deadline) rows: Poisson gaps, 15% never expire, else 1..6.

    With `exact`, exactly round(0.15 n) jobs never expire, at random positions,
    so that every seed gives the flow solver the same number of long windows.
    """
    gaps = rng.poisson(mean_gap, size=n)
    gaps[0] = 0
    arrivals = first_arrival + gaps.cumsum()
    if exact:
        never = rng.permutation(n) < round(0.15 * n)
    else:
        never = rng.random(n) < 0.15
    deadlines = rng.integers(1, 7, size=n)
    if heavy:
        values = value_scale * (rng.pareto(2.0, size=n) + 0.5)
    else:
        values = rng.uniform(0.0, 4.0 * value_scale, size=n)
    return [(start_id + i, int(arrivals[i]), float(values[i]),
             math.inf if never[i] else int(deadlines[i])) for i in range(n)]


def _build_instance(rows, label, job_ctor, instance_ctor):
    jobs = tuple(job_ctor(jid, a, v, d) for jid, a, v, d in rows)
    instance = instance_ctor(jobs, label)
    if len(instance.jobs) != len(rows):
        raise SetupError(f"{label}: instance holds {len(instance.jobs)} of {len(rows)} jobs")
    return instance


def _c2(alpha: float) -> float:
    return 2.0 ** alpha - 1.0


def build_battery(ss, seed, job_ctor, instance_ctor):
    """2,000 small instances; instance i runs one of the 18 (alpha, policy, values) mixes."""
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    items = []
    for i in range(BATTERY_INSTANCES):
        alpha = BATTERY_ALPHAS[i % 3]
        policy = BATTERY_POLICIES[(i // 3) % 3]
        heavy = (i // 9) % 2 == 1
        n = int(rng.integers(1, 31))
        rows = _draw_jobs(rng, n, 1, 0.8, _c2(alpha), heavy)
        inst = _build_instance(rows, f"battery:seed={seed}:i={i}", job_ctor, instance_ctor)
        items.append(RatioItem(inst, tuple(rows), alpha, ss.PowerLaw(alpha), policy))
    return items


def build_bursty(ss, seed, job_ctor, instance_ctor):
    """Two 160-job instances per (alpha, policy): 4 bursts of 40, 5,000 idle slots apart.

    The flow's time varies up to 3x between instances of the same make-up,
    so a round holds eight of them to keep one seed's total near another's.
    """
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    items = []
    for idx, (alpha, policy) in enumerate(BURSTY_COMBOS * BURSTY_PER_COMBO):
        rows = []
        start = 1
        for _ in range(BURSTS):
            rows += _draw_jobs(rng, BURST_JOBS, start, 0.3, _c2(alpha), False, len(rows), exact=True)
            start = rows[-1][1] + BURST_SPACING
        inst = _build_instance(rows, f"bursty:seed={seed}:i={idx}", job_ctor, instance_ctor)
        items.append(RatioItem(inst, tuple(rows), alpha, ss.PowerLaw(alpha), policy))
    return items


def _rotate(seq, seed):
    k = seed % len(seq)
    return list(seq[k:]) + list(seq[:k])


def build_game(seed):
    combos = _rotate([(z, p) for z in GAME_ZS for p in GAME_POLICIES], seed)
    return [CliItem((z, p), ("game", "--alpha", "2", "--z", str(z), "--policy", p))
            for z, p in combos]


def build_lowerbound(seed):
    """Four alphas spread over criterion 3's grid, in an order the seed rotates.

    The whole grid takes about 20 s per pass and the alphas differ in cost by
    up to 1.8x, so a seed-chosen subset would make runs differ by which alphas
    they drew; a fixed subset repeats each alpha about five times a run.
    """
    return [CliItem((a,), ("lowerbound", "--alpha", str(a), "--z-max", "200",
                           "--x-grid", "64", "--no-header"))
            for a in _rotate(LOWERBOUND_ALPHAS, seed)]


def _validate_ratio_items(items, n_range, horizon_min=0):
    for item in items:
        jobs = item.instance.jobs
        if not n_range[0] <= len(jobs) <= n_range[1]:
            raise SetupError(f"{item.instance.label}: {len(jobs)} jobs")
        for j in jobs:
            if not (math.isfinite(j.value) and j.value >= 0.0):
                raise SetupError(f"{item.instance.label}: job {j.id} value {j.value}")
        if jobs[-1].arrival < horizon_min:
            raise SetupError(f"{item.instance.label}: last arrival {jobs[-1].arrival}")


def setup(workload, seed, recorder=None):
    """Import the program and build the workload's inputs.

    Returns (seconds taken, speedscale module, list of round items). With a
    recorder, the time spent in the `Job` and `Instance` constructors is
    recorded as spans.
    """
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}")
    t0 = time.perf_counter()
    ss = import_program()
    job_ctor, instance_ctor = ss.Job, ss.Instance
    if recorder is not None:
        job_ctor = recorder.wrap("model.Job", job_ctor)
        instance_ctor = recorder.wrap("model.Instance", instance_ctor)
    if workload == "battery":
        items = build_battery(ss, seed, job_ctor, instance_ctor)
        _validate_ratio_items(items, (1, 30))
    elif workload == "bursty":
        items = build_bursty(ss, seed, job_ctor, instance_ctor)
        _validate_ratio_items(items, (BURSTS * BURST_JOBS,) * 2,
                              horizon_min=(BURSTS - 1) * BURST_SPACING)
    elif workload == "game":
        items = build_game(seed)
    else:
        items = build_lowerbound(seed)
    return time.perf_counter() - t0, ss, items


def run_op(ss, workload, item, out_path):
    """One operation through a public entry point, looked up at call time."""
    if workload in ("battery", "bursty"):
        return ss.analysis.competitive_report(item.instance, item.policy, item.cost)
    return ss.cli.main(list(item.argv) + ["--out", out_path])

