import numpy as np
import pytest

from speedscale.model import Instance, Job, ModelError, PowerLaw


def mk_instance(*specs, label=""):
    """Build an instance from (arrival, value, deadline) triples; ids follow order."""
    jobs = tuple(Job(i, a, float(v), d) for i, (a, v, d) in enumerate(specs))
    return Instance(jobs, label=label)


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
