import math

import numpy as np
import pytest
from hypothesis import strategies as st

from speedscale.adversary import lower_bound_ratio
from speedscale.model import Instance, Job, ModelError, PowerLaw


def mk_instance(*specs, label=""):
    """Build an instance from (arrival, value, deadline) triples; ids follow order."""
    jobs = tuple(Job(i, a, float(v), d) for i, (a, v, d) in enumerate(specs))
    return Instance(jobs, label=label)


JOB_FIELDS = ("id", "arrival", "value", "deadline", "expiry")

# job values as Job accepts them: floats with 0.0 and -0.0, ints, numpy floats
job_values = st.one_of(st.sampled_from([0.0, -0.0, 2.0]), st.floats(0.0, 1e9),
                       st.integers(0, 100), st.floats(0.0, 1e9).map(np.float64))


def assert_same_instance(got, want):
    """Equal field for field, types included: the jobs, their order and expiry, the label."""
    assert type(got) is Instance and type(got.jobs) is tuple
    assert type(got.label) is type(want.label) and got.label == want.label
    assert len(got.jobs) == len(want.jobs)
    for g, w in zip(got.jobs, want.jobs):
        assert type(g) is Job
        for name in JOB_FIELDS:
            a, b = getattr(g, name), getattr(w, name)
            assert type(a) is type(b) and repr(a) == repr(b), (name, a, b)


def count_checked_constructions(monkeypatch):
    """Count calls of Job.__init__ and Instance.__post_init__ from here on."""
    calls = []
    job_init, post_init = Job.__init__, Instance.__post_init__

    def counting_job_init(self, *args, **kwargs):
        calls.append("Job.__init__")
        job_init(self, *args, **kwargs)

    def counting_post_init(self):
        calls.append("Instance.__post_init__")
        post_init(self)

    monkeypatch.setattr(Job, "__init__", counting_job_init)
    monkeypatch.setattr(Instance, "__post_init__", counting_post_init)
    return calls


class CountingPowerLaw(PowerLaw):
    """PowerLaw(alpha) that records the k of every g(k) it evaluates, in call order."""

    def __init__(self, alpha):
        super().__init__(alpha)
        object.__setattr__(self, "calls", [])

    def g(self, k):
        self.calls.append(k)
        return super().g(k)


def assert_each_g_once(calls):
    """g(0), g(1), ... each evaluated exactly once, with no k skipped."""
    assert sorted(calls) == list(range(len(calls)))


def k_scan(alpha, z, x):
    """The min over k = 1..z of lower_bound_ratio at a positive denominator,
    by direct enumeration."""
    v = (float(z) ** alpha - float(z - 1) ** alpha) + x
    best = math.inf
    for k in range(1, z + 1):
        if k * v - float(k) ** alpha > 0:
            ratio = lower_bound_ratio(alpha, z, x, k)
            if ratio < best:  # a nan, from an overflow, is never taken
                best = ratio
    return best


def available_jobs(instance, slot, already_processed=()):
    """Jobs available at `slot` (arrived, not expired, not yet processed), best value
    first: non-increasing value, ties by earlier arrival, then smaller id."""
    if slot < 1:
        raise ModelError(f"slot index must be >= 1, got {slot}")
    done = set(already_processed)
    live = [j for j in instance.jobs if j.id not in done and j.arrival <= slot <= j.expiry]
    live.sort(key=lambda j: (-j.value, j.arrival, j.id))
    return live


@pytest.fixture
def alpha2():
    return PowerLaw(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
