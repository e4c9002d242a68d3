"""Scalar inputs of the public entry points: a bool, a non-finite real, a
string or a non-integer count is refused with a ``ValueError`` that names
the argument, rather than converted, truncated or left to numpy."""

from __future__ import annotations

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from jointweibull.bayes import draw_posterior, posterior_predictive_pvalue
from jointweibull.gof import CompleteSample, ks_distance, ks_pvalue
from jointweibull.jpc import JointParams, JpcObservation, shift_sample, simulate_jpc_batch
from jointweibull.mle import IntervalEstimate, bootstrap_ci
from jointweibull.rng import BetaGammaHyper, RngStream

from _oracles import lambda_hats, profile_loglik, sample_beta_gamma

_RNG = RngStream(24, 0)

_CASES = {
    "JointParams-bool-alpha": ("alpha", lambda fib, ds, pr: JointParams(True, 0.5, 1.0)),
    "JointParams-bool-lambda2": ("lambda2", lambda fib, ds, pr: JointParams(1.0, 0.5, True)),
    "JpcObservation-bool-t": ("t", lambda fib, ds, pr: JpcObservation(True, 1, 0)),
    "CompleteSample-bool": ("values[0]", lambda fib, ds, pr: CompleteSample((True, 2.0))),
    "CompleteSample-str": ("values[0]", lambda fib, ds, pr: CompleteSample(("1.5", 2.0))),
    "ks_distance-inf-alpha": ("alpha", lambda fib, ds, pr: ks_distance(ds, math.inf, 1.0)),
    "ks_distance-inf-lam": ("lam", lambda fib, ds, pr: ks_distance(ds, 2.0, math.inf)),
    "ks_distance-bool-alpha": ("alpha", lambda fib, ds, pr: ks_distance(ds, True, 1.0)),
    "ks_pvalue-bool-distance": ("distance", lambda fib, ds, pr: ks_pvalue(True, 10)),
    "ks_pvalue-bool-n": ("n", lambda fib, ds, pr: ks_pvalue(0.1, True)),
    "ks_pvalue-fractional-n": ("n", lambda fib, ds, pr: ks_pvalue(0.1, 10.5, n_mc=10, rng=_RNG)),
    "ks_pvalue-fractional-n_mc": ("n_mc", lambda fib, ds, pr: ks_pvalue(0.1, 10, n_mc=2.5, rng=_RNG)),
    "bootstrap_ci-fractional": ("n_boot", lambda fib, ds, pr: bootstrap_ci(fib, n_boot=2.5, rng=_RNG)),
    "bootstrap_ci-bool": ("n_boot", lambda fib, ds, pr: bootstrap_ci(fib, n_boot=True, rng=_RNG)),
    "draw_posterior-fractional": ("n_draws", lambda fib, ds, pr: draw_posterior(fib, pr, 2.5, _RNG)),
    "predictive-fractional-n_rep": (
        "n_rep",
        lambda fib, ds, pr: posterior_predictive_pvalue(fib, pr, n_rep=2.5, rng=_RNG),
    ),
    "simulate_jpc_batch-fractional": (
        "size",
        lambda fib, ds, pr: simulate_jpc_batch(fib.scheme, (1.0, 0.5, 1.0), _RNG, 2.5),
    ),
    "RngStream-float-seed": ("seed", lambda fib, ds, pr: RngStream(1.5)),
    "RngStream-bool-seed": ("seed", lambda fib, ds, pr: RngStream(True)),
    "RngStream-str-seed": ("seed", lambda fib, ds, pr: RngStream("5")),
    "RngStream-float-counter": ("counter", lambda fib, ds, pr: RngStream(1, 1.5)),
    "RngStream-bool-counter": ("counter", lambda fib, ds, pr: RngStream(1, True)),
    "substream-float-offset": ("counter", lambda fib, ds, pr: RngStream(1).substream(1.5)),
    "lambda_hats-bool": ("alpha", lambda fib, ds, pr: lambda_hats(fib, True)),
    "profile_loglik-bool": ("alpha", lambda fib, ds, pr: profile_loglik(fib, True)),
    "IntervalEstimate-str-level": ("level", lambda fib, ds, pr: IntervalEstimate(0.0, 1.0, "0.9")),
    "sample_beta_gamma-zero-a2": (
        "a2",
        lambda fib, ds, pr: sample_beta_gamma(BetaGammaHyper(1.0, 1.0, 1.0, 0.0), _RNG),
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_bad_scalar_is_refused_by_name(case, fiber, ds1, ip_prior) -> None:
    name, call = _CASES[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
        call(fiber, ds1, ip_prior)


@pytest.mark.parametrize("shift", [True, math.nan, math.inf, -0.5])
def test_shift_is_a_finite_real_at_least_zero(shift, fiber) -> None:
    """A threshold shift of a joint or a complete sample is a finite real >=
    0: a bool is not taken as 1, and NaN, inf and negative values are
    refused by name."""
    for call in (lambda: shift_sample(fiber, shift), lambda: CompleteSample.from_raw([2.0, 3.0], shift)):
        with pytest.raises(ValueError, match=r"^shift must "):
            call()


def test_valid_scalars_of_every_kind_are_accepted(fiber) -> None:
    """Integers pass as reals, numpy scalars of the right kind pass, zero
    passes where it is allowed, and a counter wraps modulo 2^64."""
    assert astuple(JointParams(1, np.float64(0.5), 1.0)) == (1, 0.5, 1.0)
    assert shift_sample(fiber, 0) is fiber
    assert RngStream(np.uint64(7), -1).counter == 2**64 - 1
    assert RngStream(7, 2**64 + 3).counter == 3
    assert ks_pvalue(0.0, np.int64(10)) == 1.0
    assert IntervalEstimate(0.0, 1.0, np.float64(0.9)).level == 0.9
