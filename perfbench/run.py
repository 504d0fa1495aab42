"""Benchmark of speedscale, end to end (--trace 0) or by module (--trace 1).

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from the
checkout's `src` and nowhere else. One process, one caller, closed loop: the
workload's inputs are built from the seed, a short warm-up runs, then whole
rounds over the inputs run, each op timed alone, until --seconds have passed.
The outputs are checked against the benchmark's own computations after the
timed phase, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation that raises or whose output fails a check counts as failed.
`correct` is true when no operation failed and every negative control (a
deliberately wrong output) was rejected by its check. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as wl
from probe import SpeedProbe

SETUP_SAMPLES = 7       # set-ups per untraced run: this process plus fresh interpreters
WARMUP_SECONDS = 1.0
HARD_STOP_FACTOR = 3    # a timed phase never runs past this many times --seconds
BATTERY_LP_STRIDE = 10  # battery solves the LP on every 10th instance
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="only set up, print the seconds it took, and exit")
    return p.parse_args(argv)


def median_setup(args, first: float) -> float:
    """Median set-up time: this process's, plus fresh interpreters doing the same."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise wl.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def warm_up(ss, workload, items, tmp):
    end = time.perf_counter() + WARMUP_SECONDS
    for item in items:
        try:
            wl.run_op(ss, workload, item, str(tmp / "warmup.out"))
        except Exception:  # the timed phase records the same failure
            pass
        if time.perf_counter() > end:
            return


class Phase:
    """What the timed phase saw: latencies, first outputs, and failed ops."""

    def __init__(self, n_items):
        self.timings: list[list[tuple[float, float]]] = [[] for _ in range(n_items)]  # (start, s)
        self.first: dict[int, object] = {}    # item index -> its first output
        self.repeat_key: dict[int, object] = {}
        self.errors: list[tuple[int, int, str]] = []  # (op, item index, message)
        self.ops = 0
        self.elapsed = 0.0


def timed_phase(ss, workload, items, seconds, tmp, recorder):
    """Whole rounds over `items` until --seconds have passed.

    Each op is timed alone. Between ops, outside any timed interval, its
    output is compared with the first output of the same input: a program that
    gives two answers to one input fails the op. The first outputs are checked
    in full after the phase.
    """
    phase = Phase(len(items))
    cli = workload in ("game", "lowerbound")
    clock = time.perf_counter
    start = clock()
    hard_stop = start + HARD_STOP_FACTOR * seconds
    while clock() - start < seconds:
        for idx, item in enumerate(items):
            path = tmp / f"input{idx}.out"
            if recorder is not None:
                recorder.op = phase.ops
            t0 = clock()
            try:
                out = wl.run_op(ss, workload, item, str(path))
            except Exception:  # counted as a failed op; the run goes on
                phase.errors.append((phase.ops, idx, traceback.format_exc()))
                out = None
            phase.timings[idx].append((t0, clock() - t0))
            phase.ops += 1
            if out is not None:
                if cli:
                    out = (out, path.read_bytes() if path.exists() else b"")
                    if recorder is not None:
                        recorder.count("cli.out_bytes", len(out[1]))
                key = out if cli else repr(out)
                if idx not in phase.first:
                    phase.first[idx], phase.repeat_key[idx] = out, key
                elif key != phase.repeat_key[idx]:
                    phase.errors.append((phase.ops - 1, idx,
                                         "output differs from an earlier op on the same input"))
            if clock() > hard_stop:
                break
        if clock() > hard_stop:
            break
    phase.elapsed = clock() - start
    return phase


# ---------------------------------------------------------------------------
# checks, after the timed phase
# ---------------------------------------------------------------------------

def verify_ratio_reports(workload, items, phase):
    """Check each input's report; returns {item index: errors} and the controls."""
    import checks
    verdict, largest = {}, None
    for idx, report in phase.first.items():
        item = items[idx]
        errors = checks.check_ratio_report(item.rows, item.alpha, item.policy, report)
        if workload == "bursty" or idx % BATTERY_LP_STRIDE == 0:
            lp = checks.lp_optimum(item.rows, item.alpha)
            errors += checks.check_optimum(report.off_profit, lp)
            if largest is None or lp > largest[0]:
                largest = (lp, report.off_profit)
        verdict[idx] = errors
    controls = []
    if largest is not None:
        controls.append(("flow optimum x (1 + 1e-6)",
                         checks.control_optimum(largest[1], largest[0])))
    return verdict, controls


def verify_cli(ss, workload, items, phase, tmp):
    """Check each input's output file; a rerun must write the same bytes."""
    import checks
    verdict = {}
    for idx, (code, data) in phase.first.items():
        key = items[idx].key
        if workload == "game":
            verdict[idx] = checks.check_game(*key, code, data.decode("utf-8"))
        else:
            verdict[idx] = checks.check_lowerbound(key[0], code, data)
    controls = []
    if 0 in phase.first:
        data = phase.first[0][1]
        if workload == "game":
            controls.append(("wrong slot1_count",
                             checks.control_game(*items[0].key, data.decode("utf-8"))))
        else:
            controls.append(("one changed digit in a CSV row",
                             checks.control_lowerbound(items[0].key[0], data)))
            again = tmp / "rerun.out"
            try:
                same = wl.run_op(ss, workload, items[0], str(again)) == 0 and again.read_bytes() == data
            except Exception:  # a rerun that raises fails the input like one that differs
                same = False
            if not same:
                verdict[0].append("a rerun after the timed phase wrote different bytes")
    return verdict, controls


def count_failed(items, phase, verdict, log) -> int:
    """Ops that raised, disagreed with an earlier op, or ran on an input that failed a check."""
    failed = {op: msg for op, _, msg in phase.errors}
    for op in range(phase.ops):  # rounds run in order, so op k ran input k % len(items)
        errors = verdict.get(op % len(items))
        if errors:
            failed.setdefault(op, "; ".join(errors))
    for op, msg in sorted(failed.items())[:20]:
        log(f"op {op} (input {op % len(items)}): {msg[:500]}")
    return len(failed)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        elapsed, _, _ = wl.setup(args.workload, args.seed)
        print(f"{elapsed:.9f}")
        return 0

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr)

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
    setup_s, ss, items = wl.setup(args.workload, args.seed, recorder)
    if not args.trace:
        setup_s = median_setup(args, setup_s)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    probe = SpeedProbe()
    try:
        warm_up(ss, args.workload, items, tmp)
        if recorder is not None:
            tracing.install(recorder, ss)
        probe.start()
        try:
            phase = timed_phase(ss, args.workload, items, args.seconds, tmp, recorder)
        finally:
            probe.stop()
            if recorder is not None:
                recorder.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload in ("battery", "bursty"):
            verdict, controls = verify_ratio_reports(args.workload, items, phase)
        else:
            verdict, controls = verify_cli(ss, args.workload, items, phase, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = count_failed(items, phase, verdict, log)
    for name, rejected in controls:
        log(f"negative control '{name}': {'rejected' if rejected else 'NOT rejected'}")

    # Each input's median cost in probe loops: wall-clock times on this host
    # drift by tens of percent with its speed state (see probe.py, README.md).
    costs = [statistics.median(probe.cost(t0, s) for t0, s in runs)
             for runs in phase.timings if runs]
    round_cost = sum(costs)
    if recorder is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_cost": (round_cost, "probe"),
            "op_cost_geomean": (math.exp(statistics.fmean(map(math.log, costs))), "probe"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(recorder, phase.ops, round_cost)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                    "ops": phase.ops, "elapsed_s": phase.elapsed})
        log(f"spans written to {trace_path}")
    busy = sum(s for runs in phase.timings for _, s in runs)
    best = sum(min(s for _, s in runs) for runs in phase.timings if runs)
    log(f"{phase.ops} ops ({len(items)} inputs) in {phase.elapsed:.3f} s, {failed} failed; "
        f"wall clock {phase.ops / busy:.6g} ops/s over all ops, {len(costs) / best:.6g} "
        f"at each input's fastest; {len(probe.times)} probe samples")
    result = {
        "correct": failed == 0 and bool(controls) and all(r for _, r in controls),
        "attempted": phase.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
