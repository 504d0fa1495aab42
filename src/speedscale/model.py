"""Domain model for slotted speed scaling: jobs, instances, convex energy costs, traces.

Time is divided into unit slots. A job arrives at an integer slot, carries a
payoff value, and must be processed within its deadline window (a count of
slots from arrival, possibly infinite). Processing k jobs in one slot costs
g(k) for a convex g with g(0) = 0; the profit of a slot is the payoff sum of
the processed jobs minus that energy cost.

Payoffs and g carry no units, and no comparison has an absolute tolerance:
a payoff v beats a marginal cost when v - (g(k) - g(k-1)) > 0.0, exactly, in
`policies.Policy.decide` and the flow alike, and a profit is zero only when
it is 0.0. So scaling the values and g by c scales every profit by c and
changes no decision; for a power of two c, not one bit of either.

Every type here but ``CostTable``, one run's table of g, is immutable and
safe to share across threads. Input is checked where it enters
(``_instance_from_checked`` lists where). Traces the program builds itself
(the simulator's, the game's, the offline witnesses) skip ``Trace``'s order
check through ``_trace_from_checked``.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

INFINITE = math.inf
"""Deadline sentinel: the job never expires."""


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


@dataclass(frozen=True, order=True, slots=True, init=False)
class Job:
    """One unit-length task: identity, arrival slot, payoff, deadline in slots.

    ``__init__`` checks the arguments and computes ``expiry``;
    ``dataclasses.replace`` goes through it too.
    """

    id: int
    arrival: int
    value: float
    deadline: float = INFINITE
    expiry: float = field(init=False, repr=False, compare=False)  # last slot it may run in

    def __init__(self, id: int, arrival: int, value: float, deadline: float = INFINITE):
        if not ((type(id) is int or _is_int(id)) and id >= 0):
            raise ModelError(f"job id must be a non-negative integer, got {id}")
        if not ((type(arrival) is int or _is_int(arrival)) and arrival >= 1):
            raise ModelError(f"arrival must be an integer slot >= 1, got {arrival}")
        if type(id) is not int or type(arrival) is not int:
            # other integer types (numpy's) have fixed widths that wrap around in slot sums
            id, arrival = operator.index(id), operator.index(arrival)
        if isinstance(value, bool) or not (0.0 <= value < INFINITE):
            raise ModelError(f"value must be non-negative and finite, got {value}")
        if deadline == INFINITE:
            expiry = INFINITE
        elif ((type(deadline) is int or _is_int(deadline)
               or isinstance(deadline, float) and deadline.is_integer()) and deadline >= 1):
            expiry = arrival + int(deadline) - 1
        else:
            raise ModelError(
                f"deadline must be a positive integer or INFINITE, got {deadline}")
        _set_id(self, id)
        _set_arrival(self, arrival)
        _set_value(self, value)
        _set_deadline(self, deadline)
        _set_expiry(self, expiry)

    @property
    def expires(self) -> bool:
        return self.deadline != INFINITE


# Job.__init__ and _instance_from_checked fill the slots through their
# descriptors, which the frozen class's __setattr__ does not guard
_set_id, _set_arrival, _set_value, _set_deadline, _set_expiry = (
    Job.__dict__[name].__set__ for name in ("id", "arrival", "value", "deadline", "expiry"))


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
        for k, x in enumerate(t):
            if not 0.0 <= x < math.inf:  # NaN too, which every comparison below lets pass
                raise ModelError(f"cost table entry g({k}) must be non-negative and finite, "
                                 f"got {x}")
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


class CostTable(CostModel):
    """One run's table g(0), g(1), ... of `model`: each g(k) is evaluated at
    most once, and only when first read.

    A run is a `run_policy`, an `offline_profit` or `solve_offline_flow`, a
    `competitive_report` (its policy run and its flow share one table) or a
    `run_adversarial_game` (its slot step and its flow share one table). The
    run makes the table and passes it where a cost model goes; a policy's
    `decide` given a plain model makes one for that call. The policy step
    and LCR ledger (`policies.Policy.decide`), the slots' energy
    (`policies._play_slot`) and the flow's prices all read `values`, and
    grow it in place or call `g` only past its end, so a reader may hold the
    list. A g(k) that no part reads is never evaluated (it may overflow, or
    lie past a cost table).

    The table lives in its run, never on the cost model or in a module: a
    cost model is shared across runs and threads, two threads growing one
    list could store g(k) at the wrong index, and a table that outlived its
    run would move the run's own work out of it.
    """

    def __init__(self, model: CostModel):
        self.model = model
        self.values: list[float] = []

    def g(self, k: int) -> float:
        values = self.values
        if k < 0:  # the model's own refusal
            return self.model.g(k)
        while len(values) <= k:
            values.append(self.model.g(len(values)))
        return values[k]

    @property
    def alpha(self) -> float:
        """A power law's exponent, for a policy that reads it from the cost it is given.

        A property, not a `__getattr__` that forwards every name: that hook
        would slow each attribute read on the table, several per policy step.
        """
        return self.model.alpha


def cost_table(cost: CostModel) -> CostTable:
    """The run's table: `cost` itself when it is a CostTable, else a new one of it."""
    return cost if type(cost) is CostTable else CostTable(cost)


@dataclass(frozen=True)
class Instance:
    """A full arrival sequence: jobs sorted by (arrival, id), ids unique."""

    jobs: tuple[Job, ...]
    label: str = ""

    def __post_init__(self):
        jobs = tuple(sorted(self.jobs, key=operator.attrgetter("arrival", "id")))
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
    # every field comes from a valid job, and dense ids in (arrival, side, id)
    # order leave the jobs in (arrival, id) order with unique ids
    label = "|".join(l for l in (a.label, b.label) if l)
    return _instance_from_checked(((new_id, j.arrival, j.value, j.deadline, j.expiry)
                                   for new_id, (*_, j) in enumerate(tagged)), label)


def _instance_from_checked(rows, label: str) -> Instance:
    """An Instance of jobs built from fields the program has already checked.

    Input from outside is checked once, where it enters: ``Job(...)``,
    ``Instance(...)`` (which sorts its jobs by (arrival, id) and refuses
    duplicate ids), ``loads_instance``/``read_instance`` and
    ``adversary.InstanceTemplate``; ``adversary.adversary_finalize`` checks a
    caller's choice of ids, while the game scores its own choice unchecked.
    What the program derives from checked objects is built here, with no
    check, sort or scan: each row is ``(id, arrival, value, deadline,
    expiry)`` as ``Job.__init__`` would store it, the rows come in (arrival,
    id) order with unique ids, and each caller (``union``,
    ``adversary_finalize``) states why its rows hold.
    """
    new = object.__new__
    jobs = []
    for job_id, arrival, value, deadline, expiry in rows:
        job = new(Job)
        _set_id(job, job_id)
        _set_arrival(job, arrival)
        _set_value(job, value)
        _set_deadline(job, deadline)
        _set_expiry(job, expiry)
        jobs.append(job)
    instance = new(Instance)
    object.__setattr__(instance, "jobs", tuple(jobs))
    object.__setattr__(instance, "label", label)
    return instance


def _ltr_sum(values) -> float:
    """The float sum of `values`, added left to right from 0.0: the records'
    sums have the same bits on every Python version, while the builtin `sum`
    adds floats with compensation from 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


class SlotDecision(NamedTuple):
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
        return SlotDecision(slot, frozenset([j.id for j in jobs]),
                            float(_ltr_sum([j.value for j in jobs])), cost.g(len(jobs)))


@dataclass(frozen=True)
class Trace:
    """An algorithm run: per-slot decisions plus optional per-slot audit ledgers."""

    decisions: tuple[SlotDecision, ...]
    total_profit: float = field(init=False)
    ledgers: tuple = ()

    def __post_init__(self):
        decisions = tuple(self.decisions)
        slots = [d.slot for d in decisions]
        if not all(map(operator.lt, slots, slots[1:])):
            raise ModelError("trace decisions must be strictly ordered by slot")
        _fill_trace(self, decisions, self.ledgers)


def _fill_trace(trace: Trace, decisions, ledgers) -> Trace:
    object.__setattr__(trace, "decisions", tuple(decisions))
    object.__setattr__(trace, "ledgers", tuple(ledgers))
    object.__setattr__(trace, "total_profit",
                       float(_ltr_sum([d.payoff_sum - d.energy for d in trace.decisions])))
    return trace


def _trace_from_checked(decisions, ledgers=()) -> Trace:
    """``Trace(decisions, ledgers)``, fields and ``total_profit`` bits alike, for
    decisions the program made itself in increasing slot order: no order check.
    """
    return _fill_trace(object.__new__(Trace), decisions, ledgers)


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
            if not job.arrival <= d.slot <= job.expiry:
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
    lines: dict[int, int] = {}  # job id -> the line it is first on
    # only "\n" ends a line: str.splitlines also splits at \x0c, U+2028 and
    # others, which may stand unescaped inside a JSON string
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON ({exc.msg})", line_no) from exc
        job = _job_from_obj(obj, line_no)
        first = lines.setdefault(job.id, line_no)
        if first != line_no:
            raise InstanceFormatError(f"duplicate job id {job.id} (first on line {first})", line_no)
        jobs.append(job)
    return Instance(tuple(jobs), label=label)


def dumps_instance(instance: Instance) -> str:
    return "".join(json.dumps(job_to_obj(j)) + "\n" for j in instance.jobs)


def read_instance(path, label: str | None = None) -> Instance:
    with open(path, "rb") as fh:
        # the newlines a file opened in text mode reads: "\r\n" and "\r" end a
        # line too (neither byte occurs inside a UTF-8 multi-byte sequence)
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"not UTF-8 (byte 0x{data[exc.start]:02x}: {exc.reason})",
                                  data.count(b"\n", 0, exc.start) + 1) from None
    return loads_instance(text, label=label if label is not None else str(path))
