import numpy as np
import pytest

from speedscale.model import Instance, Job, PowerLaw


def mk_instance(*specs, label=""):
    """Build an instance from (arrival, value, deadline) triples; ids follow order."""
    jobs = tuple(Job(i, a, float(v), d) for i, (a, v, d) in enumerate(specs))
    return Instance(jobs, label=label)


@pytest.fixture
def alpha2():
    return PowerLaw(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
