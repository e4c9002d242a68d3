from __future__ import annotations

import pytest

from jointweibull.bayes import PriorSpec, ShapeHyper
from jointweibull.gof import CompleteSample
from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    JpcObservation,
    JpcSample,
    shift_sample,
)
from jointweibull.rng import BetaGammaHyper, RngStream

from _oracles import carbon_fiber_10mm, carbon_fiber_20mm, fiber_jpc_sample, simulate_jpc_walk


@pytest.fixture(scope="session")
def fiber():
    """The bundled joint sample with 0.75 subtracted from every time."""
    return shift_sample(fiber_jpc_sample(), 0.75)


@pytest.fixture(scope="session")
def ds1():
    return CompleteSample.from_raw(carbon_fiber_20mm(), 0.75)


@pytest.fixture(scope="session")
def ds2():
    return CompleteSample.from_raw(carbon_fiber_10mm(), 0.75)


@pytest.fixture(scope="session")
def tiny_k2():
    """k=2 hand sample: U(1)=2, V(1)=4, one failure per group."""
    scheme = CensoringScheme(2, 2, 2, (1, 1))
    return JpcSample(scheme, (JpcObservation(1.0, 1, 1), JpcObservation(2.0, 0, 0)))


@pytest.fixture(scope="session")
def single_k1():
    """k=1 sample with U(1)=V(1)=1 for hand-checking the log-likelihood."""
    scheme = CensoringScheme(1, 1, 1, (1,))
    return JpcSample(scheme, (JpcObservation(1.0, 1, 0),))


@pytest.fixture(scope="session")
def symmetric_uv():
    """Sample engineered so the two power sums coincide for every shape:
    both coefficient vectors equal (2, 1) over the same failure times."""
    scheme = CensoringScheme(3, 3, 2, (3, 1))
    return JpcSample(scheme, (JpcObservation(0.8, 1, 1), JpcObservation(1.3, 0, 1)))


@pytest.fixture(scope="session")
def improper_jpc():
    """One unit per group, both failing: U(a) = 2^a and V(a) = 3^a.  With an
    all-flat prior the shape marginal is a^(k-1) 6^a / (U V) = a, which grows
    without bound, so sampling must be refused."""
    scheme = CensoringScheme(1, 1, 2, (0, 0))
    return JpcSample(scheme, (JpcObservation(2.0, 1, 0), JpcObservation(3.0, 0, 0)))


@pytest.fixture(scope="session")
def slow_decay_jpc():
    """All times above 1 and heavily censored: with an all-flat prior the
    shape marginal a^2 30^a / (5^a + 6^a)^2 decays only as (30/36)^a, so the
    posterior is proper but puts its shape mean near 18."""
    scheme = CensoringScheme(2, 1, 3, (0, 0, 0))
    return JpcSample(
        scheme,
        (JpcObservation(5.0, 1, 0), JpcObservation(6.0, 1, 0), JpcObservation(100.0, 0, 0)),
    )


@pytest.fixture(scope="session")
def tiny_k4():
    """Simulated 4-failure sample, two failures per group."""
    scheme = CensoringScheme(5, 4, 4, (1, 1, 2, 1))
    sample = simulate_jpc_walk(scheme, JointParams(1.5, 0.6, 1.1), RngStream(7, 0))
    assert sample.k1 == 2 and sample.k2 == 2
    return sample


@pytest.fixture(scope="session")
def tiny_k4_lopsided():
    """Simulated 4-failure sample with a 3/1 split between the groups."""
    scheme = CensoringScheme(5, 4, 4, (1, 1, 2, 1))
    sample = simulate_jpc_walk(scheme, JointParams(1.5, 0.9, 0.7), RngStream(2, 0))
    assert sample.k1 == 3 and sample.k2 == 1
    return sample


@pytest.fixture(scope="session")
def ip_prior():
    return PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0))


@pytest.fixture(scope="session")
def flat_rate4():
    return PriorSpec.flat(shape_rate=4.0)
