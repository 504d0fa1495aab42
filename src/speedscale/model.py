"""Domain model for slotted speed scaling: jobs, instances, convex energy costs, traces.

Time is divided into unit slots. A job arrives at an integer slot, carries a
payoff value, and must be processed within its deadline window (a count of
slots from arrival, possibly infinite). Processing k jobs in one slot costs
g(k) for a convex g with g(0) = 0; the profit of a slot is the payoff sum of
the processed jobs minus that energy cost.

All types here are immutable after construction and safe to share across
threads; every operation is a pure function.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

INFINITE = math.inf
"""Deadline sentinel: the job never expires."""

PROFIT_TOL = 1e-9
"""Absolute tolerance used for all profit comparisons."""


class ModelError(ValueError):
    """Invalid domain object or operation argument."""


class InfeasibleTraceError(ModelError):
    """A trace processes a job outside its window or more than once."""

    def __init__(self, message: str, job_id: int, slot: int):
        super().__init__(message)
        self.job_id = job_id
        self.slot = slot


class InstanceFormatError(ModelError):
    """A line of an instance file could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_int(x) -> bool:
    """True for ints and integer types such as numpy's; 2.0 and True are not coerced."""
    if isinstance(x, bool):
        return False
    try:
        operator.index(x)
    except TypeError:
        return False
    return True


@dataclass(frozen=True, order=True)
class Job:
    """One unit-length task: identity, arrival slot, payoff, deadline in slots."""

    id: int
    arrival: int
    value: float
    deadline: float = INFINITE

    def __post_init__(self):
        if not (_is_int(self.id) and self.id >= 0):
            raise ModelError(f"job id must be a non-negative integer, got {self.id}")
        if not (_is_int(self.arrival) and self.arrival >= 1):
            raise ModelError(f"arrival must be an integer slot >= 1, got {self.arrival}")
        if type(self.id) is not int or type(self.arrival) is not int:
            # other integer types (numpy's) have fixed widths that wrap around in slot sums
            object.__setattr__(self, "id", operator.index(self.id))
            object.__setattr__(self, "arrival", operator.index(self.arrival))
        if isinstance(self.value, bool) or not (0.0 <= self.value < INFINITE):
            raise ModelError(f"value must be non-negative and finite, got {self.value}")
        if self.deadline != INFINITE and not (
                (_is_int(self.deadline)
                 or isinstance(self.deadline, float) and self.deadline.is_integer())
                and self.deadline >= 1):
            raise ModelError(
                f"deadline must be a positive integer or INFINITE, got {self.deadline}")

    @property
    def expires(self) -> bool:
        return self.deadline != INFINITE

    @property
    def expiry(self) -> float:
        """Last slot at which the job may be processed (inf when never expiring)."""
        if not self.expires:
            return INFINITE
        return self.arrival + int(self.deadline) - 1

    def available_at(self, slot: int) -> bool:
        return self.arrival <= slot <= self.expiry


class CostModel:
    """Convex per-slot energy cost g(k) with g(0) = 0."""

    def g(self, k: int) -> float:
        raise NotImplementedError

    def effective_cost(self, k: int) -> float:
        """Marginal cost g(k) - g(k-1) of the k-th simultaneous job; k >= 1."""
        if k < 1:
            raise ModelError(f"effective cost is defined for k >= 1, got {k}")
        return self.g(k) - self.g(k - 1)


@dataclass(frozen=True)
class PowerLaw(CostModel):
    """g(k) = k ** alpha with finite alpha >= 1 (convex, strictly increasing marginals for alpha > 1)."""

    alpha: float

    def __post_init__(self):
        if not (1.0 <= self.alpha < math.inf):
            raise ModelError(f"power-law exponent must be finite and >= 1, got {self.alpha}")

    def g(self, k: int) -> float:
        if k < 0:
            raise ModelError(f"g is defined for k >= 0, got {k}")
        try:
            return float(k) ** self.alpha
        except OverflowError:
            raise ModelError(f"g(k) = k ** alpha overflows a float at k={k}, "
                             f"alpha={self.alpha}") from None


@dataclass(frozen=True)
class TabulatedConvex(CostModel):
    """Cost given as a table g(0), g(1), ..., g(K); checked for convexity on construction."""

    table: tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(x) for x in self.table)
        object.__setattr__(self, "table", t)
        if len(t) < 2:
            raise ModelError("cost table needs at least g(0) and g(1)")
        if t[0] != 0.0:
            raise ModelError(f"g(0) must be 0, got {t[0]}")
        if any(x < 0 for x in t):
            raise ModelError("cost table must be non-negative")
        diffs = [b - a for a, b in zip(t, t[1:])]
        if diffs[0] <= 0:
            raise ModelError("effective cost g(1)-g(0) must be strictly positive")
        for k in range(1, len(diffs)):
            if diffs[k] < diffs[k - 1]:
                raise ModelError(f"cost table is not convex at k={k + 1}")

    def g(self, k: int) -> float:
        if k < 0:
            raise ModelError(f"g is defined for k >= 0, got {k}")
        if k >= len(self.table):
            raise ModelError(f"cost table covers k <= {len(self.table) - 1}, got {k}")
        return self.table[k]


def _job_sort_key(job: Job):
    return (job.arrival, job.id)


def _value_order_key(job: Job):
    # Non-increasing value; ties broken by earlier arrival, then smaller id.
    return (-job.value, job.arrival, job.id)


@dataclass(frozen=True)
class Instance:
    """A full arrival sequence: jobs sorted by (arrival, id), ids unique."""

    jobs: tuple[Job, ...]
    label: str = ""

    def __post_init__(self):
        jobs = tuple(sorted(self.jobs, key=_job_sort_key))
        object.__setattr__(self, "jobs", jobs)
        seen = set()
        for j in jobs:
            if j.id in seen:
                raise ModelError(f"duplicate job id {j.id}")
            seen.add(j.id)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def last_arrival(self) -> int:
        return self.jobs[-1].arrival if self.jobs else 0


def union(a: Instance, b: Instance) -> Instance:
    """Per-slot multiset union of two instances.

    Ids are re-assigned densely, in (arrival, a before b, original id) order.
    """
    tagged = sorted((j.arrival, side, j.id, j) for side, part in enumerate((a, b)) for j in part.jobs)
    jobs = tuple(Job(new_id, j.arrival, j.value, j.deadline) for new_id, (*_, j) in enumerate(tagged))
    label = "|".join(l for l in (a.label, b.label) if l)
    return Instance(jobs, label=label)


@dataclass(frozen=True)
class SlotDecision:
    """The jobs processed in one slot, their payoff sum and the slot's energy cost."""

    slot: int
    processed: frozenset[int]
    payoff_sum: float
    energy: float

    @property
    def profit(self) -> float:
        return self.payoff_sum - self.energy

    @staticmethod
    def build(slot: int, jobs: Sequence[Job], cost: CostModel) -> "SlotDecision":
        return SlotDecision(slot, frozenset(j.id for j in jobs),
                            float(sum(j.value for j in jobs)), cost.g(len(jobs)))


@dataclass(frozen=True)
class Trace:
    """An algorithm run: per-slot decisions plus optional per-slot audit ledgers."""

    decisions: tuple[SlotDecision, ...]
    total_profit: float = field(init=False)
    ledgers: tuple = ()

    def __post_init__(self):
        decisions = tuple(self.decisions)
        slots = [d.slot for d in decisions]
        if slots != sorted(set(slots)):
            raise ModelError("trace decisions must be strictly ordered by slot")
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "ledgers", tuple(self.ledgers))
        object.__setattr__(self, "total_profit", float(sum([d.profit for d in decisions])))


EMPTY_TRACE = Trace(())


def evaluate_trace(instance: Instance, trace: Trace, cost: CostModel) -> float:
    """Recompute a trace's total profit from scratch, validating feasibility.

    Stored payoff and energy fields are not trusted. Raises
    InfeasibleTraceError naming the offending job and slot if any job is
    processed outside its availability window or more than once.
    """
    by_id = {j.id: j for j in instance.jobs}
    seen: set[int] = set()
    total = 0.0
    for d in trace.decisions:
        payoff = 0.0
        for jid in d.processed:
            job = by_id.get(jid)
            if job is None:
                raise InfeasibleTraceError(f"job {jid} not in instance (slot {d.slot})", jid, d.slot)
            if jid in seen:
                raise InfeasibleTraceError(f"job {jid} processed twice (slot {d.slot})", jid, d.slot)
            if not job.available_at(d.slot):
                raise InfeasibleTraceError(
                    f"job {jid} processed at slot {d.slot} outside its window "
                    f"[{job.arrival}, {job.expiry}]", jid, d.slot)
            seen.add(jid)
            payoff += job.value
        total += payoff - cost.g(len(d.processed))
    return total


# ---------------------------------------------------------------------------
# Instance file format: line-delimited JSON, one object per job with fields
# `id` (int), `arrival` (int), `value` (number), `deadline` (int or "inf").
# ---------------------------------------------------------------------------

def job_to_obj(job: Job) -> dict:
    deadline = "inf" if not job.expires else int(job.deadline)
    return {"id": job.id, "arrival": job.arrival, "value": float(job.value), "deadline": deadline}


def _is_json_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _json_int(obj: Mapping, name: str, line: int) -> int:
    raw = obj[name]
    if not _is_json_int(raw):
        raise InstanceFormatError(f"{name} must be an integer, got {raw!r}", line)
    return raw


def _json_finite_number(obj: Mapping, name: str, line: int) -> float:
    raw = obj[name]
    if isinstance(raw, float) or _is_json_int(raw):
        try:
            number = float(raw)
        except OverflowError:  # an integer literal beyond the float range
            number = INFINITE
        if math.isfinite(number):
            return number
    raise InstanceFormatError(f"{name} must be a finite number, got {raw!r}", line)


def _job_from_obj(obj: Mapping, line: int) -> Job:
    if not isinstance(obj, Mapping):
        raise InstanceFormatError("expected a JSON object", line)
    missing = {"id", "arrival", "value", "deadline"} - set(obj)
    if missing:
        raise InstanceFormatError(f"missing fields: {sorted(missing)}", line)
    raw_deadline = obj["deadline"]
    if raw_deadline == "inf":
        deadline: float = INFINITE
    elif _is_json_int(raw_deadline):
        deadline = raw_deadline
    else:
        raise InstanceFormatError(f'deadline must be an integer or "inf", got {raw_deadline!r}', line)
    job_id = _json_int(obj, "id", line)
    arrival = _json_int(obj, "arrival", line)
    value = _json_finite_number(obj, "value", line)
    try:
        return Job(id=job_id, arrival=arrival, value=value, deadline=deadline)
    except ModelError as exc:
        raise InstanceFormatError(str(exc), line) from exc


def loads_instance(text: str, label: str = "") -> Instance:
    jobs = []
    # only "\n" ends a line: str.splitlines also splits at \x0c, U+2028 and
    # others, which may stand unescaped inside a JSON string
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON ({exc.msg})", line_no) from exc
        jobs.append(_job_from_obj(obj, line_no))
    return Instance(tuple(jobs), label=label)


def dumps_instance(instance: Instance) -> str:
    return "".join(json.dumps(job_to_obj(j)) + "\n" for j in instance.jobs)


def read_instance(path, label: str | None = None) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_instance(text, label=label if label is not None else str(path))


def write_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(instance))


def trace_to_obj(trace: Trace) -> dict:
    """JSON-ready view of a trace, including any per-slot audit ledger."""
    obj = {
        "total_profit": trace.total_profit,
        "decisions": [
            {
                "slot": d.slot,
                "processed": sorted(d.processed),
                "payoff_sum": d.payoff_sum,
                "energy": d.energy,
                "profit": d.profit,
            }
            for d in trace.decisions
        ],
    }
    if trace.ledgers:
        obj["lcr_ledger"] = [entry.to_obj() for entry in trace.ledgers]
    return obj
