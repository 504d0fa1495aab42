"""Span recorder for the traced benchmark run.

The recorder replaces public names of speedscale where the program looks them
up (for example `speedscale.analysis.run_policy`, which `competitive_report`
calls, and `speedscale.policies.available_jobs`, which `run_policy` calls) with
wrappers that time each call as a span: name, start, end, parent, and the
benchmark operation it belongs to. Spans stay in memory and are written out
when the run ends. A name the program no longer has is listed as missing and
reports zero calls; it never stops the run. Nothing here is installed in an
untraced run.
"""
from __future__ import annotations

import functools
import json
import time

_ABSENT = object()


class Recorder:
    """Keeps spans in memory and sums calls, total and self time per span name."""

    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.op = -1  # index of the benchmark operation in progress, -1 during set-up
        self._stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """`fn` timed as span `name`; `after(recorder, args, result)` adds counts."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [self._next_id, name, clock(), 0.0]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _close(self, frame, end):
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start - self._t0, end - self._t0,
                               parent[0] if parent is not None else -1, self.op))
        else:
            self.dropped += 1

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installing wrappers --------------------------------------------------

    def patch(self, owner, attr, name, after=None):
        """Replace `owner.attr` with a timed wrapper; record it as missing if absent."""
        own = vars(owner).get(attr, _ABSENT)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(own, staticmethod):
            wrapped = staticmethod(self.wrap(name, own.__func__, after))
        else:
            wrapped = self.wrap(name, fn, after)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, own))

    def uninstall(self):
        while self._installed:
            owner, attr, own = self._installed.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output --------------------------------------------------------------

    def write(self, path, meta):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        obj = {
            **meta,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[s[0], index[s[1]], round(s[2], 7), round(s[3], 7), s[4], s[5]]
                      for s in self.spans],
            "dropped_spans": self.dropped,
            "missing_names": self.missing,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))


def _count_decision(rec, args, result):
    rec.count("policies.view_jobs", len(getattr(args[1], "candidates", ())))
    rec.count("policies.ledger_entries", len(getattr(result, "breakdowns", ())))


def _count_flow(rec, args, result):
    rec.count("offline.horizon_slots", getattr(args[0], "horizon", 0))
    trace = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    rec.count("offline.jobs_placed",
              sum(len(d.processed) for d in getattr(trace, "decisions", ())))


def _count_curve(rec, args, result):
    curve = result[0] if isinstance(result, tuple) and result else ()
    rec.count("adversary.curve_points", len(curve))


def install(rec: Recorder, ss) -> None:
    """Wrap every public name the per-layer metrics are taken around."""
    analysis, adversary, policies, offline, cli = (
        ss.analysis, ss.adversary, ss.policies, ss.offline, ss.cli)
    rec.patch(analysis, "competitive_report", "analysis.competitive_report")
    for module in (analysis, adversary):
        rec.patch(module, "run_policy", "policies.run_policy")
        rec.patch(module, "solve_offline_flow", "offline.solve_offline_flow", _count_flow)
        rec.patch(module, "build_report", "reports.build_report")
    rec.patch(policies, "available_jobs", "model.available_jobs")
    for policy_cls in {type(p) for p in getattr(policies, "POLICIES", {}).values()}:
        rec.patch(policy_cls, "decide", "policies.decide", _count_decision)
    problem_cls = getattr(offline, "OfflineProblem", None)
    if problem_cls is None:
        rec.missing.append("offline.OfflineProblem")
    else:
        rec.patch(problem_cls, "from_instance", "offline.from_instance")
    rec.patch(cli, "run_adversarial_game", "adversary.run_adversarial_game")
    rec.patch(cli, "eval_lower_bound", "adversary.eval_lower_bound", _count_curve)
    rec.patch(cli, "main", "cli.main")


def layer_metrics(rec: Recorder, ops: int, traced_round_cost: float) -> dict:
    """Per-operation figures for every per-layer metric (zero where never called)."""
    def per_op(table, name):
        return table.get(name, 0) / ops

    return {
        "offline.solve_offline_flow.s": (per_op(rec.total, "offline.solve_offline_flow"), "s"),
        "offline.from_instance.s": (per_op(rec.total, "offline.from_instance"), "s"),
        "offline.horizon_slots": (per_op(rec.counts, "offline.horizon_slots"), "slots"),
        "offline.jobs_placed": (per_op(rec.counts, "offline.jobs_placed"), "count"),
        "policies.run_policy.self_s": (per_op(rec.self_time, "policies.run_policy"), "s"),
        "model.available_jobs.calls": (per_op(rec.calls, "model.available_jobs"), "count"),
        "model.available_jobs.s": (per_op(rec.total, "model.available_jobs"), "s"),
        "policies.decide.s": (per_op(rec.total, "policies.decide"), "s"),
        "policies.decide.calls": (per_op(rec.calls, "policies.decide"), "count"),
        "policies.view_jobs": (per_op(rec.counts, "policies.view_jobs"), "count"),
        "policies.ledger_entries": (per_op(rec.counts, "policies.ledger_entries"), "count"),
        "analysis.competitive_report.s": (per_op(rec.total, "analysis.competitive_report"), "s"),
        "reports.build_report.s": (per_op(rec.total, "reports.build_report"), "s"),
        "adversary.run_adversarial_game.self_s":
            (per_op(rec.self_time, "adversary.run_adversarial_game"), "s"),
        "adversary.eval_lower_bound.s": (per_op(rec.total, "adversary.eval_lower_bound"), "s"),
        "adversary.curve_points": (per_op(rec.counts, "adversary.curve_points"), "count"),
        "cli.main.self_s": (per_op(rec.self_time, "cli.main"), "s"),
        "cli.out_bytes": (per_op(rec.counts, "cli.out_bytes"), "bytes"),
        "model.inputs_s": (rec.total.get("model.Job", 0.0)
                           + rec.total.get("model.Instance", 0.0), "s"),
        "trace.round_cost": (traced_round_cost, "probe"),
    }
