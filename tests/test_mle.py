from __future__ import annotations

import math
from dataclasses import astuple
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from jointweibull.errors import NoMleError, UnstableBootstrapError
from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    JpcObservation,
    JpcSample,
    _groups,
    sample_of_row,
    simulate_jpc_batch,
)
from jointweibull.mle import (
    BootstrapResult,
    IntervalEstimate,
    _fit_design,
    _percentiles,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    fit_mle_ordered,
)
from jointweibull.rng import PowerSum, RngStream, _ConcaveTerm

from _oracles import (
    fd_hessian,
    fiber_jpc_sample,
    fisher_info,
    lambda_hats,
    log_likelihood,
    log_u_stat,
    log_v_stat,
    profile_loglik,
    random_jpc_sample,
    swap_groups,
    u_stat,
    v_stat,
)


def _profile_grid(sample: JpcSample, grid: np.ndarray) -> np.ndarray:
    # same criterion as profile_loglik, written independently and vectorized
    return (
        sample.scheme.k * np.log(grid)
        + (grid - 1.0) * sample.sum_log_t
        - sample.k1 * log_u_stat(sample, grid)
        - sample.k2 * log_v_stat(sample, grid)
    )


def test_rate_maximizers_hand_value(tiny_k2) -> None:
    assert lambda_hats(tiny_k2, 1.0) == pytest.approx((0.5, 0.25))


def test_profile_hand_value(tiny_k2) -> None:
    assert profile_loglik(tiny_k2, 1.0) == pytest.approx(-math.log(8.0))


def test_profile_differs_from_loglik_by_count_constant(fiber) -> None:
    """Substituting the closed-form rates shifts the criterion by exactly
    k1*ln(k1) + k2*ln(k2) - k, independent of the shape."""
    const = (
        fiber.k1 * math.log(fiber.k1) + fiber.k2 * math.log(fiber.k2) - fiber.scheme.k
    )
    for a in (0.5, 1.0, 2.0, 4.495):
        l1, l2 = lambda_hats(fiber, a)
        full = log_likelihood(fiber, JointParams(a, l1, l2))
        assert full - profile_loglik(fiber, a) == pytest.approx(const, rel=1e-10)


def test_closed_form_rates_maximize_at_fixed_shape(fiber) -> None:
    a = 2.0
    l1, l2 = lambda_hats(fiber, a)
    best = log_likelihood(fiber, JointParams(a, l1, l2))
    for f1, f2 in [(1.05, 1.0), (0.95, 1.0), (1.0, 1.05), (1.0, 0.95)]:
        assert log_likelihood(fiber, JointParams(a, l1 * f1, l2 * f2)) < best


def test_fit_golden_values(fiber) -> None:
    fit = fit_mle(fiber)
    assert fit.converged and not fit.ordered and not fit.boundary
    assert fit.params.alpha == pytest.approx(4.495, abs=5e-4)
    assert fit.params.lambda1 == pytest.approx(0.071, abs=5e-4)
    # the exact maximizer's second rate is 0.01678, i.e. 0.017 at the
    # printed precision; keep a tolerance that admits the true value
    assert fit.params.lambda2 == pytest.approx(0.016, abs=1e-3)


def test_fit_agrees_with_dense_grid_search(fiber) -> None:
    """A million-point sweep of the profiled criterion brackets the same
    maximizer as the profile score's root search."""
    fit = fit_mle(fiber)
    grid = np.linspace(3.5, 5.5, 1_000_001)
    vals = _profile_grid(fiber, grid)
    top = int(np.argmax(vals))
    assert abs(grid[top] - fit.params.alpha) <= 2e-6 + 1e-9
    assert profile_loglik(fiber, fit.params.alpha) >= vals[top] - 1e-8


def test_profile_is_unimodal_on_random_samples() -> None:
    rng = RngStream(202, 0)
    grid = np.geomspace(0.05, 20.0, 2000)
    checked = 0
    while checked < 25:
        sample = random_jpc_sample(rng)
        if sample is None:
            continue
        vals = _profile_grid(sample, grid)
        d = np.diff(vals)
        dec = np.flatnonzero(d < 0.0)
        if dec.size:
            first = dec[0]
            scale = 1.0 + np.abs(vals).max()
            assert np.all(d[first:] <= 1e-9 * scale)
            assert np.all(d[:first] >= -1e-9 * scale)
        checked += 1


def test_fit_needs_failures_in_both_groups() -> None:
    scheme = CensoringScheme(3, 1, 3, (0, 1, 0))
    one_sided = JpcSample(
        scheme,
        (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 1, 0), JpcObservation(3.0, 1, 0)),
    )
    with pytest.raises(NoMleError):
        fit_mle(one_sided)
    with pytest.raises(NoMleError):
        fit_mle_ordered(one_sided)
    with pytest.raises(NoMleError):
        lambda_hats(one_sided, 1.0)


def test_ordered_fit_boundary_pooling(fiber) -> None:
    """The fitted rates of the joint sample come out in the wrong order, so
    the restricted fit must pool them at k / (U+V)."""
    free = fit_mle(fiber)
    assert free.params.lambda1 > free.params.lambda2
    fit = fit_mle_ordered(fiber)
    assert fit.ordered and fit.boundary
    assert fit.params.lambda1 == fit.params.lambda2
    a = fit.params.alpha
    pooled = fiber.scheme.k / (u_stat(fiber, a) + v_stat(fiber, a))
    assert fit.params.lambda1 == pytest.approx(pooled, rel=1e-9)
    assert fit.loglik <= free.loglik + 1e-9
    # the pooled shape maximizes the constrained criterion on a dense grid
    grid = np.linspace(0.5 * a, 1.5 * a, 200_001)
    lam = fiber.scheme.k / (
        np.exp(log_u_stat(fiber, grid)) + np.exp(log_v_stat(fiber, grid))
    )
    vals = np.array(
        [
            log_likelihood(fiber, JointParams(float(g), float(l), float(l)))
            for g, l in zip(grid[::2000], lam[::2000])
        ]
    )
    assert fit.loglik >= vals.max() - 1e-8


def test_ordered_fit_interior_case(fiber) -> None:
    """After relabeling the groups the order holds, and the restricted fit
    coincides with the unrestricted one."""
    flipped = swap_groups(fiber)
    free = fit_mle(flipped)
    assert free.params.lambda1 < free.params.lambda2
    fit = fit_mle_ordered(flipped)
    assert fit.ordered and not fit.boundary
    assert fit.params.alpha == pytest.approx(free.params.alpha, rel=1e-9)
    assert fit.params.lambda1 == pytest.approx(free.params.lambda1, rel=1e-9)
    assert fit.params.lambda2 == pytest.approx(free.params.lambda2, rel=1e-9)


def test_ordered_fit_never_beats_unrestricted(fiber) -> None:
    """On 20 random samples, boundary fits among them, the ordered fit
    respects the order and never beats the free fit, and every fit's
    log-likelihood, formed from its log rates, is the oracle's joint
    log-likelihood at its parameters to 1e-12 of max(1, |l|); so is that of
    the bundled sample's free fit and boundary ordered fit."""

    def check_loglik(sample: JpcSample, fit) -> None:
        want = log_likelihood(sample, fit.params)
        assert abs(fit.loglik - want) <= 1e-12 * max(1.0, abs(want))

    rng = RngStream(203, 0)
    checked = boundary = 0
    while checked < 20:
        sample = random_jpc_sample(rng)
        if sample is None:
            continue
        free = fit_mle(sample)
        restricted = fit_mle_ordered(sample)
        assert restricted.params.lambda1 <= restricted.params.lambda2 + 1e-12
        assert restricted.loglik <= free.loglik + 1e-9
        if not restricted.boundary:
            assert restricted.params.alpha == pytest.approx(free.params.alpha, rel=1e-8)
        check_loglik(sample, free)
        check_loglik(sample, restricted)
        boundary += restricted.boundary
        checked += 1
    assert boundary > 0
    assert fit_mle_ordered(fiber).boundary
    check_loglik(fiber, fit_mle(fiber))
    check_loglik(fiber, fit_mle_ordered(fiber))


def test_information_matches_numeric_hessian(fiber) -> None:
    fit = fit_mle(fiber)
    p = fit.params
    info = fisher_info(fiber, p).entries

    def fun(theta: np.ndarray) -> float:
        return log_likelihood(fiber, JointParams(*theta))

    theta = np.array([p.alpha, p.lambda1, p.lambda2])
    numeric = -fd_hessian(fun, theta)
    # The (lambda1, lambda2) entry is 0 by structure.  Its difference
    # quotient resolves nothing there: four log-likelihoods of size |l|,
    # each rounded, over 4*h1*h2 leave noise up to eps*|l|/(h1*h2), where
    # one ulp of |l| alone reads 1.8e-5.  The resolved entries keep their
    # bound.
    h = 1e-5 * np.maximum(np.abs(theta), 1.0)
    floor = np.finfo(float).eps * abs(fun(theta)) / (h[1] * h[2])
    assert info[1, 2] == 0.0 and info[2, 1] == 0.0
    assert abs(numeric[1, 2]) <= floor and abs(numeric[2, 1]) <= floor
    resolved = np.ones((3, 3), dtype=bool)
    resolved[1, 2] = resolved[2, 1] = False
    assert info[resolved] == pytest.approx(numeric[resolved], rel=1e-5, abs=1e-8)


def test_information_matches_numeric_hessian_randomized() -> None:
    rng = RngStream(204, 0)
    checked = 0
    while checked < 15:
        sample = random_jpc_sample(rng)
        if sample is None:
            continue
        a = 0.5 + 2.0 * rng.uniform()
        l1 = 0.3 + 1.5 * rng.uniform()
        l2 = 0.3 + 1.5 * rng.uniform()
        info = fisher_info(sample, JointParams(a, l1, l2)).entries

        def fun(theta: np.ndarray) -> float:
            return log_likelihood(sample, JointParams(*theta))

        numeric = -fd_hessian(fun, np.array([a, l1, l2]))
        scale = np.abs(numeric).max()
        assert np.max(np.abs(info - numeric)) <= 1e-5 * scale + 1e-8
        checked += 1


def test_information_diagonal_structure(tiny_k2) -> None:
    info = fisher_info(tiny_k2, JointParams(1.0, 1.0, 1.0)).entries
    assert info[1, 1] == pytest.approx(1.0)  # k1 / lambda1^2
    assert info[2, 2] == pytest.approx(1.0)  # k2 / lambda2^2
    assert info[1, 2] == 0.0 and info[2, 1] == 0.0
    assert np.array_equal(info, info.T)


def test_asymptotic_intervals_center_and_nest(fiber) -> None:
    fit = fit_mle(fiber)
    ci90 = asymptotic_ci(fiber, fit.params, level=0.9)
    ci95 = asymptotic_ci(fiber, fit.params, level=0.95)
    est = (fit.params.alpha, fit.params.lambda1, fit.params.lambda2)
    for lo_wide, narrow, e in zip(ci95, ci90, est):
        assert narrow.contains(e)
        assert lo_wide.lower < narrow.lower and narrow.upper < lo_wide.upper
        mid = 0.5 * (narrow.lower + narrow.upper)
        assert mid == pytest.approx(e, rel=1e-9)
    with pytest.raises(ValueError):
        asymptotic_ci(fiber, fit.params, level=1.0)


_Z90 = NormalDist().inv_cdf(0.95)


def _half_widths(cis) -> np.ndarray:
    return np.array([0.5 * (ci.upper - ci.lower) for ci in cis])


def test_asymptotic_intervals_of_free_fits_invert_the_information(fiber) -> None:
    """The closed form of a free fit gives the intervals of the inverted
    3x3 observed information."""
    samples = [fiber, *_reference_samples(600, 2026)]
    assert len(samples) > 500
    for sample in samples:
        fit = fit_mle(sample)
        inv = np.linalg.inv(fisher_info(sample, fit.params).entries)
        expected = _Z90 * np.sqrt(np.diag(inv))
        assert _half_widths(asymptotic_ci(sample, fit.params)) == pytest.approx(expected, rel=1e-12)


def test_asymptotic_intervals_of_boundary_fits_are_the_common_rate_model(fiber) -> None:
    """A boundary fit's intervals invert a central-difference Hessian of the
    common-rate log-likelihood l(a, l, l), not the free model's information
    at that point; both rates get the same interval.  The oracle's rate is
    scaled by the fitted one so that its step is relative."""
    fits = [(x, fit_mle_ordered(x)) for x in [fiber, *_reference_samples(400, 81)]]
    fits = [(x, fit) for x, fit in fits if fit.boundary]
    assert len(fits) > 20
    for sample, fit in fits:
        a, lam = fit.params.alpha, fit.params.lambda1
        assert fit.boundary and fit.params.lambda2 == lam

        def fun(p: np.ndarray) -> float:
            return log_likelihood(sample, JointParams(p[0], lam * p[1], lam * p[1]))

        cov = np.linalg.inv(-fd_hessian(fun, np.array([a, 1.0]), rel_step=1e-4))
        expected = _Z90 * np.sqrt(np.diag(cov)) * np.array([1.0, lam])
        cis = asymptotic_ci(sample, fit.params, fit.boundary)
        assert cis[1] == cis[2]
        assert _half_widths(cis)[:2] == pytest.approx(expected, rel=1e-5)
        assert all(ci.contains(e) for ci, e in zip(cis, (a, lam, lam)))


def test_interval_estimate_contract() -> None:
    ci = IntervalEstimate(1.0, 3.0, 0.9)
    assert ci.width == pytest.approx(2.0)
    assert ci.contains(1.0) and ci.contains(3.0) and not ci.contains(3.01)
    with pytest.raises(ValueError):
        IntervalEstimate(3.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        IntervalEstimate(1.0, 3.0, 0.0)


def test_bootstrap_pinned_endpoints(fiber) -> None:
    res = bootstrap_ci(fiber, level=0.9, n_boot=500, rng=RngStream(52, 0))
    assert isinstance(res, BootstrapResult)
    assert res.alpha.lower == pytest.approx(3.5988, abs=2e-3)
    assert res.alpha.upper == pytest.approx(6.7308, abs=2e-3)
    assert res.skipped < 10
    for ci in (res.alpha, res.lambda1, res.lambda2):
        assert ci.lower < ci.upper
        assert math.isfinite(ci.lower) and ci.lower > 0.0


def test_bootstrap_is_deterministic(fiber) -> None:
    a = bootstrap_ci(fiber, level=0.9, n_boot=120, rng=RngStream(99, 0))
    b = bootstrap_ci(fiber, level=0.9, n_boot=120, rng=RngStream(99, 0))
    assert a == b


def test_bootstrap_single_replicate_collapses(fiber) -> None:
    res = bootstrap_ci(fiber, level=0.9, n_boot=1, rng=RngStream(3, 0))
    assert res.alpha.lower == res.alpha.upper
    assert res.lambda1.lower == res.lambda1.upper


def test_bootstrap_ordered_keeps_rate_quantiles_ordered(fiber) -> None:
    res = bootstrap_ci(fiber, level=0.9, n_boot=200, ordered=True, rng=RngStream(51, 0))
    assert res.lambda1.lower <= res.lambda2.lower + 1e-12
    assert res.lambda1.upper <= res.lambda2.upper + 1e-12


def test_bootstrap_gives_up_when_resamples_degenerate() -> None:
    # rates this lopsided put nearly every resample's failures in group 1
    scheme = CensoringScheme(2, 2, 2, (1, 1))
    lop = JpcSample(scheme, (JpcObservation(0.01, 1, 0), JpcObservation(5.0, 0, 1)))
    with pytest.raises(UnstableBootstrapError):
        bootstrap_ci(lop, level=0.9, n_boot=30, rng=RngStream(6, 0))


def test_bootstrap_argument_validation(fiber) -> None:
    with pytest.raises(ValueError):
        bootstrap_ci(fiber, level=0.9, n_boot=10, rng=None)
    with pytest.raises(ValueError):
        bootstrap_ci(fiber, level=1.5, n_boot=10, rng=RngStream(1, 0))
    with pytest.raises(ValueError):
        bootstrap_ci(fiber, level=0.9, n_boot=0, rng=RngStream(1, 0))


def test_stacked_rows_fit_as_they_fit_alone() -> None:
    """Every row of a bootstrap-like stack of reference-design samples gets,
    byte for byte, the shape, the rates, the log-likelihood and the boundary
    flag that fit_mle and fit_mle_ordered give the same sample alone: a
    scalar fit is a stack of one, and the lockstep sweeps leave each row's
    bracket sequence to that row, in the free search and in the common-rate
    refit alike.  Some rows of the order-restricted stack are refitted."""
    samples = _reference_samples(400, 81)
    assert len(samples) > 350
    for fit, ordered in ((fit_mle, False), (fit_mle_ordered, True)):
        alpha, rates, loglik, boundary, ok, _ = _fit_outcomes(REFERENCE, *_design_rows(samples), ordered)[-1]
        assert ok.all()
        alone = [fit(x) for x in samples]
        assert list(alpha) == [f.params.alpha for f in alone]
        assert list(rates[0]) == [f.params.lambda1 for f in alone]
        assert list(rates[1]) == [f.params.lambda2 for f in alone]
        assert list(loglik) == [f.loglik for f in alone]
        assert list(boundary) == [f.boundary for f in alone]
    assert 10 < boundary.sum() < len(samples) - 10


REFERENCE = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))


def _reference_samples(n: int, seed: int) -> list[JpcSample]:
    """The two-group samples among ``n`` reference-design experiments."""
    log_t, delta, s = simulate_jpc_batch(REFERENCE, (1.0, 0.5, 1.0), RngStream(seed, 0), n)
    samples = []
    for lt, d, sj in zip(log_t, delta, s):
        if 0 < d.sum() < REFERENCE.k:
            obs = (JpcObservation(float(t), int(g), int(w)) for t, g, w in zip(np.exp(lt), d, sj))
            samples.append(JpcSample(REFERENCE, tuple(obs)))
    return samples


def _weights(sample: JpcSample) -> tuple[np.ndarray, np.ndarray]:
    """The weights of t_j^a inside U and V, written out: s_j + delta_j and
    w_j + 1 - delta_j."""
    return sample.s + sample.delta, np.asarray(sample.scheme.R) - sample.s + 1 - sample.delta


def _stack(samples: list[JpcSample]) -> tuple:
    return (
        np.stack([x.log_t for x in samples]),
        np.stack([_weights(x)[0] for x in samples]),
        np.array([x.k1 for x in samples], dtype=float),
        np.stack([_weights(x)[1] for x in samples]),
        np.array([x.k2 for x in samples], dtype=float),
    )


def _design_rows(samples: list[JpcSample]) -> tuple:
    return tuple(np.stack([getattr(x, n) for x in samples]) for n in ("log_t", "delta", "s"))


def _fit_outcomes(scheme: CensoringScheme, lnt, delta, s, ordered: bool, start=1.0) -> list[tuple]:
    """``_fit_design`` on stacked outcomes, from their two groups."""
    return _fit_design(scheme, _groups(scheme, lnt, delta, s), lnt, ordered, start)


def _pooled(sample: JpcSample, alpha: float) -> bool:
    """Whether the unrestricted rates k1/U, k2/V break the order at alpha."""
    return sample.k1 * v_stat(sample, alpha) >= sample.k2 * u_stat(sample, alpha)


def _longhand_score(sample: JpcSample, alpha: float, ordered: bool = False) -> float:
    """The profile score written out with plain power sums, no log-sum-exp."""
    t, lnt = sample.t, sample.log_t
    ta = t**alpha
    base = sample.scheme.k / alpha + lnt.sum()
    if ordered and _pooled(sample, alpha):
        c = sum(_weights(sample))
        return base - sample.scheme.k * (c * ta * lnt).sum() / (c * ta).sum()
    c1, c2 = _weights(sample)
    return (
        base
        - sample.k1 * (c1 * ta * lnt).sum() / (c1 * ta).sum()
        - sample.k2 * (c2 * ta * lnt).sum() / (c2 * ta).sum()
    )


def _brentq_root(sample: JpcSample, ordered: bool = False) -> float:
    return brentq(lambda a: _longhand_score(sample, a, ordered), 0.01, 100.0, xtol=1e-15, rtol=1e-15)


def test_profile_score_slope_matches_central_differences(fiber) -> None:
    """The analytic slope of the profile score equals central differences
    of the score to 1e-7 relative, for the two-group score and for the
    common-rate score as a one-group score with weights R + 1: on the fiber
    sample and 20 reference-design samples."""
    samples = [fiber] + _reference_samples(24, 83)[:20]
    assert len(samples) == 21
    grid = np.geomspace(0.1, 12.0, 30)
    h = 1e-5 * grid
    for sample in samples:
        common = np.asarray(sample.scheme.R, dtype=float) + 1.0
        lnt, c1, k1, c2, k2 = _stack([sample])
        slt, k = lnt.sum(axis=1), sample.scheme.k
        for score in (
            _ConcaveTerm(k1 + k2, -slt, [(PowerSum(c1, lnt), k1), (PowerSum(c2, lnt), k2)]).deriv,
            _ConcaveTerm(k, -slt, [(PowerSum(common, lnt), k)]).deriv,
        ):
            for a, step in zip(grid, h):
                _, slope = score(np.array([a]))
                ahead, _ = score(np.array([a + step]))
                behind, _ = score(np.array([a - step]))
                numeric = (ahead[0] - behind[0]) / (2.0 * step)
                assert slope[0] < 0.0
                assert slope[0] == pytest.approx(numeric, rel=1e-7)


@pytest.mark.parametrize("func", [profile_loglik, lambda_hats, u_stat, v_stat])
@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_shape_must_be_finite(fiber, func, alpha) -> None:
    """The profile, the rate maximizers and the power sums U and V refuse a
    shape that is not finite with a ValueError instead of returning nan."""
    with pytest.raises(ValueError, match="alpha must be"):
        func(fiber, alpha)


def test_root_finder_meets_brentq_within_15_sweeps() -> None:
    """On a 400-experiment reference stack every row, unrestricted or
    order-restricted, ends each search within 15 sweeps, and its root
    equals scipy's brentq on the longhand profile score to 1e-11 relative;
    the order-restricted root is that of the piecewise score, which takes
    the common-rate branch wherever the free rates break the order."""
    samples = _reference_samples(400, 81)
    assert len(samples) > 350
    rows = _design_rows(samples)
    for ordered in (False, True):
        roots, _, _, _, ok, sweeps = _fit_outcomes(REFERENCE, *rows, ordered)[-1]
        assert ok.all()
        assert len(sweeps) == 1 + ordered and max(sweeps) <= 15
        want = [_brentq_root(x, ordered) for x in samples]
        np.testing.assert_allclose(roots, want, rtol=1e-11, atol=0.0)


def test_warm_started_searches_meet_brentq_from_any_start(fiber) -> None:
    """From starts 1e-6, 1, the fitted shape and 1e6, every shape search
    lands within 1e-10 relative of scipy's brentq on the longhand profile
    score, unrestricted and order-restricted (a boundary row refits the
    common rate from its free shape): on the fiber sample shifted by 0.75
    and as given, on a 400-experiment reference stack (each row started at
    its own fit) and on 2,000 bootstrap resamples of the fiber design
    (started at the fiber sample's fit, as the bootstrap starts them)."""
    fitted = fit_mle(fiber).params
    resamples = simulate_jpc_batch(fiber.scheme, astuple(fitted), RngStream(91, 0), 2_000)
    boot = [x for x in (sample_of_row(fiber.scheme, *row) for row in zip(*resamples)) if x.k1 and x.k2]
    reference = _reference_samples(400, 81)
    cases = [
        ([fiber], fitted.alpha),
        ([fiber_jpc_sample()], fit_mle(fiber_jpc_sample()).params.alpha),
        (reference, _fit_outcomes(REFERENCE, *_design_rows(reference), False)[0][0]),
        (boot, fitted.alpha),
    ]
    assert len(boot) > 1_900
    for samples, own in cases:
        rows = _design_rows(samples)
        for ordered in (False, True):
            want = [_brentq_root(x, ordered) for x in samples]
            for start in (1e-6, 1.0, own, 1e6):
                alpha, _, _, _, ok, sweeps = _fit_outcomes(samples[0].scheme, *rows, ordered, start=start)[-1]
                assert ok.all() and max(sweeps) < 200
                np.testing.assert_allclose(alpha, want, rtol=1e-10, atol=0.0)


def test_reference_bootstrap_stacks_take_at_most_7_sweeps() -> None:
    """The bootstrap starts every refit at the shape of the fit it resamples:
    on 500 resamples of each of ten reference samples, the unrestricted
    search and, in the order-restricted refit, both searches end within 7
    sweeps (from 1, such stacks took 9)."""
    for i, sample in enumerate(_reference_samples(12, 87)[:10]):
        for fit, ordered in ((fit_mle, False), (fit_mle_ordered, True)):
            params = fit(sample).params
            lnt, delta, s = simulate_jpc_batch(REFERENCE, astuple(params), RngStream(88, i), 500)
            k1 = delta.sum(axis=1)
            both = (k1 > 0) & (k1 < REFERENCE.k)
            rows = (lnt[both], delta[both], s[both])
            *_, ok, sweeps = _fit_outcomes(REFERENCE, *rows, ordered, start=params.alpha)[-1]
            assert ok.all() and max(sweeps) <= 7


def test_ordered_fit_meets_a_constrained_optimizer() -> None:
    """On samples whose free fit breaks the order, SLSQP maximizing the
    log-likelihood over (alpha, ln l1, ln l2) under ln l1 <= ln l2, from
    several starts, never beats fit_mle_ordered by more than 1e-8 and comes
    within 1e-6 of it: the restricted maximum lies on the boundary."""
    samples = _reference_samples(400, 85)
    broken = [x for x in samples if (p := fit_mle(x).params).lambda1 >= p.lambda2]
    assert len(broken) >= 20
    for sample in broken[:20]:
        fit = fit_mle_ordered(sample)
        assert fit.boundary and fit.converged

        def negative(theta: np.ndarray) -> float:
            a, ln1, ln2 = theta
            return -log_likelihood(sample, JointParams(a, math.exp(ln1), math.exp(ln2)))

        best = -math.inf
        for start in ((1.0, 0.0, 0.0), (0.5, -1.0, 0.5), (2.0, -2.0, -1.0), (1.5, 0.5, 1.0)):
            res = minimize(
                negative,
                np.array(start),
                method="SLSQP",
                bounds=((0.05, 20.0), (-15.0, 5.0), (-15.0, 5.0)),
                constraints=({"type": "ineq", "fun": lambda th: th[2] - th[1]},),
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert res.x[1] <= res.x[2] + 1e-9
            best = max(best, -negative(res.x))
        assert best <= fit.loglik + 1e-8
        assert best >= fit.loglik - 1e-6


def test_percentiles_are_numpy_quantile_bit_for_bit() -> None:
    """The bootstrap's percentile pairs, from one sort of a stack of rows,
    equal np.quantile's default (linear) quantiles of each row bit for bit:
    for rows of 1, 2, 3, 7 and 500 estimates, with ties and without, at
    levels 0.5, 0.9, 0.95 and 0.999."""
    gen = np.random.default_rng(93)
    for n in (1, 2, 3, 7, 500):
        est = gen.lognormal(0.0, 1.0, (3, n))
        tied = np.round(gen.lognormal(0.0, 1.0, (3, n)), 1)
        tied[:, : n // 2] = tied[:, :1]
        for rows in (est, tied):
            for level in (0.5, 0.9, 0.95, 0.999):
                want = [np.quantile(r, [0.5 * (1.0 - level), 0.5 * (1.0 + level)]) for r in rows]
                assert _percentiles(rows, level).tobytes() == np.array(want).tobytes()
