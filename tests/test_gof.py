from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from jointweibull.gof import (
    CompleteSample,
    _fit_complete_rows,
    _kolmogorov_sf,
    _ks_rows,
    fit_common_shape,
    fit_weibull_complete,
    ks_distance,
    ks_pvalue,
    lr_test_common_shape,
)
from jointweibull.jpc import CensoringScheme, JpcObservation, JpcSample, break_ties
from jointweibull.mle import fit_mle
from jointweibull.rng import RngStream

from _oracles import sample_weibull


def test_complete_sample_contract() -> None:
    cs = CompleteSample.from_raw((2.0, 1.5, 3.0), shift=0.5)
    assert cs.n == 3
    assert cs.values == (1.5, 1.0, 2.5)
    assert cs.shift == 0.5
    assert np.array_equal(cs.sorted, [1.0, 1.5, 2.5])
    assert cs.sum_log == pytest.approx(math.log(1.5) + math.log(2.5))
    with pytest.raises(ValueError):
        CompleteSample(values=())
    with pytest.raises(ValueError):
        CompleteSample.from_raw((2.0, 0.4), shift=0.5)


def test_complete_fit_golden_values(ds1, ds2) -> None:
    f1 = fit_weibull_complete(ds1)
    assert f1.alpha == pytest.approx(3.843, abs=5e-3)
    assert f1.lam == pytest.approx(0.088, abs=5e-3)
    f2 = fit_weibull_complete(ds2)
    assert f2.alpha == pytest.approx(3.909, abs=5e-3)
    assert f2.lam == pytest.approx(0.025, abs=5e-3)


def test_common_shape_fit_golden_values(ds1, ds2) -> None:
    fit = fit_common_shape(ds1, ds2)
    assert fit.alpha == pytest.approx(3.876, abs=5e-3)
    assert fit.lam1 == pytest.approx(0.0861, abs=5e-3)
    assert fit.lam2 == pytest.approx(0.026, abs=5e-3)
    # the common shape lands between the two separate shapes
    a1 = fit_weibull_complete(ds1).alpha
    a2 = fit_weibull_complete(ds2).alpha
    assert min(a1, a2) < fit.alpha < max(a1, a2)


def test_complete_fit_solves_score_equation(ds1) -> None:
    """The fitted shape is the root of the score written out longhand."""
    t = ds1.array
    n = ds1.n

    def score(a: float) -> float:
        ta = t**a
        return n / a + float(np.log(t).sum()) - n * float((ta * np.log(t)).sum() / ta.sum())

    root = optimize.brentq(score, 0.5, 20.0, xtol=1e-12)
    fit = fit_weibull_complete(ds1)
    assert fit.alpha == pytest.approx(root, rel=1e-8)
    assert fit.lam == pytest.approx(n / float((t**root).sum()), rel=1e-8)


def test_complete_fit_matches_reference_fitter(ds2) -> None:
    shape, loc, scale = stats.weibull_min.fit(ds2.array, floc=0.0)
    fit = fit_weibull_complete(ds2)
    assert loc == 0.0
    assert fit.alpha == pytest.approx(shape, rel=1e-4)
    assert fit.lam == pytest.approx(scale**-shape, rel=1e-3)


def test_common_shape_agrees_with_joint_model_fit() -> None:
    """Two complete samples are a joint experiment with no withdrawals, so
    the common-shape fit must coincide with the joint-model MLE."""
    rng = RngStream(404, 0)
    x1 = np.atleast_1d(sample_weibull(1.8, 0.9, rng, size=12))
    x2 = np.atleast_1d(sample_weibull(1.8, 0.4, rng, size=9))
    d1 = CompleteSample(values=tuple(x1))
    d2 = CompleteSample(values=tuple(x2))
    merged = np.concatenate([x1, x2])
    order = np.argsort(merged)
    scheme = CensoringScheme(12, 9, 21, (0,) * 21)
    obs = tuple(
        JpcObservation(t=float(merged[i]), delta=1 if i < 12 else 0, s=0) for i in order
    )
    joint = fit_mle(JpcSample(scheme, obs))
    common = fit_common_shape(d1, d2)
    assert joint.params.alpha == pytest.approx(common.alpha, rel=1e-9)
    assert joint.params.lambda1 == pytest.approx(common.lam1, rel=1e-9)
    assert joint.params.lambda2 == pytest.approx(common.lam2, rel=1e-9)


def test_ks_distance_golden_values(ds1, ds2) -> None:
    f1 = fit_weibull_complete(ds1)
    f2 = fit_weibull_complete(ds2)
    assert ks_distance(ds1, f1.alpha, f1.lam) == pytest.approx(0.046, abs=2e-3)
    assert ks_distance(ds2, f2.alpha, f2.lam) == pytest.approx(0.079, abs=2e-3)


def test_ks_distance_matches_reference(ds1) -> None:
    fit = fit_weibull_complete(ds1)

    def cdf(x):
        return -np.expm1(-fit.lam * np.asarray(x) ** fit.alpha)

    ref = stats.kstest(ds1.array, cdf).statistic
    assert ks_distance(ds1, fit.alpha, fit.lam) == pytest.approx(ref, rel=1e-10)
    with pytest.raises(ValueError):
        ks_distance(ds1, -1.0, 1.0)


def test_ks_rows_on_complete_samples_match_scipy(ds1, ds2) -> None:
    """A complete sample is one group of the row-wise KS routine: over 200
    shapes and rates spread about each fit, the bundled strengths (ties
    included) give scipy's KS statistic at every row's law, to 1e-12."""
    rng = RngStream(76, 0)
    for ds in (ds1, ds2):
        assert np.unique(ds.array).size < ds.n
        fit = fit_weibull_complete(ds)
        alpha = fit.alpha * np.exp(0.4 * (rng.uniform(200) - 0.5))
        lam = fit.lam * np.exp(rng.uniform(200) - 0.5)
        rows = _ks_rows(np.log(ds.sorted), np.ones(ds.n), alpha, np.log(lam), np.log(lam))
        want = [
            stats.kstest(ds.array, lambda x, a=a, l=l: -np.expm1(-l * np.asarray(x) ** a)).statistic
            for a, l in zip(alpha, lam)
        ]
        np.testing.assert_allclose(rows, want, rtol=0.0, atol=1e-12)


def test_ks_pvalue_asymptotic_matches_limit_law() -> None:
    for d, n in [(0.046, 69), (0.079, 63), (0.2, 25)]:
        expect = float(stats.kstwobign.sf(math.sqrt(n) * d))
        assert ks_pvalue(d, n) == pytest.approx(expect, rel=1e-6)


def test_asymptotic_tails_match_scipy_special(ds1, ds2) -> None:
    """The two tails ``analyze`` needs, written without ``scipy.special``,
    against scipy's: the Kolmogorov series against ``kolmogorov`` on
    x in [1e-3, 8], both regimes and their switch at 1, and ``erfc(sqrt(x /
    2))`` against ``chdtrc(1, x)`` on [0, 700]; each to 1e-13 relative.  The
    package's p-values are these tails at their statistics."""
    xs = np.concatenate([np.geomspace(1e-3, 8.0, 4001), np.linspace(0.99, 1.01, 201)])
    got = np.array([_kolmogorov_sf(x) for x in xs])
    np.testing.assert_allclose(got, special.kolmogorov(xs), rtol=1e-13, atol=0.0)
    stats_ = np.concatenate([[0.0], np.geomspace(1e-12, 700.0, 4001), np.linspace(0.0, 700.0, 4001)])
    got = np.array([math.erfc(math.sqrt(x / 2.0)) for x in stats_])
    np.testing.assert_allclose(got, special.chdtrc(1, stats_), rtol=1e-13, atol=0.0)
    assert ks_pvalue(0.0, 10) == 1.0
    for d, n in [(0.046, 69), (0.079, 63), (0.2, 25), (0.9, 40)]:
        assert ks_pvalue(d, n) == pytest.approx(special.kolmogorov(math.sqrt(n) * d), rel=1e-13)
    for pair in ((ds1, ds2), (ds2, ds1), (ds1, CompleteSample(ds1.values[::2]))):
        stat, p = lr_test_common_shape(*pair)
        assert p == pytest.approx(special.chdtrc(1, stat), rel=1e-13)


def test_ks_pvalue_mc_agrees_with_limit_for_simple_null() -> None:
    d, n = 0.10, 69
    mc = ks_pvalue(d, n, estimated=False, n_mc=3000, rng=RngStream(71, 0))
    assert abs(mc - ks_pvalue(d, n)) < 0.1


def test_ks_pvalue_monte_carlo_needs_a_stream() -> None:
    with pytest.raises(ValueError):
        ks_pvalue(0.1, 69, estimated=True, n_mc=200, rng=None)


def test_ks_pvalue_estimation_shrinks_the_null(ds1) -> None:
    """Refitting inside the Monte Carlo makes null distances smaller, so the
    estimated-parameters p-value must come out below the simple-null one."""
    d, n = 0.08, 69
    simple = ks_pvalue(d, n, estimated=False, n_mc=1500, rng=RngStream(72, 0))
    fitted = ks_pvalue(d, n, estimated=True, n_mc=1500, rng=RngStream(72, 0))
    assert fitted < simple


def test_ks_pvalue_monte_carlo_counts_match_the_direct_formula(ds1, ds2) -> None:
    """With refits, the Monte Carlo p-value counts exactly the null
    distances at least the observed one, each written out directly as the
    largest of i/n - F_i and F_i - (i - 1)/n over a row's sorted refitted
    CDF values F, each from its hazard exp(alpha ln x + ln lambda);
    observed distances on the null's own values test ties."""
    for ds, seed in ((ds1, 77), (ds2, 78)):
        n = ds.n
        log_x = np.log(np.sort(RngStream(seed, 0).exponential((200, n)), axis=1))
        alpha, log_rates, _ = _fit_complete_rows(log_x)
        f = -np.expm1(-np.exp(alpha[:, None] * log_x + log_rates[0][:, None]))
        null = np.maximum((np.arange(1, n + 1) / n - f).max(axis=1), (f - np.arange(n) / n).max(axis=1))
        fit = fit_weibull_complete(ds)
        for d in [ks_distance(ds, fit.alpha, fit.lam), *null[:10]]:
            got = ks_pvalue(d, n, estimated=True, n_mc=200, rng=RngStream(seed, 0))
            assert got == np.count_nonzero(null >= d) / 200


def test_ks_pvalue_validation() -> None:
    with pytest.raises(ValueError):
        ks_pvalue(1.2, 10)
    with pytest.raises(ValueError):
        ks_pvalue(0.1, 0)
    # one value cannot be refitted, as fit_weibull_complete refuses it
    with pytest.raises(ValueError):
        ks_pvalue(0.1, 1, estimated=True, n_mc=50, rng=RngStream(73, 0))
    assert 0.0 <= ks_pvalue(0.1, 1, estimated=False, n_mc=50, rng=RngStream(73, 0)) <= 1.0


def _longhand_complete_fit(x: np.ndarray) -> tuple[float, float]:
    """Shape and rate MLEs of one complete sample: Brent's method on the
    profile score n/a + sum ln x - n sum(x^a ln x) / sum(x^a)."""
    n, lx = x.size, np.log(x)

    def score(a: float) -> float:
        p = x**a
        return n / a + lx.sum() - n * float(np.sum(p * lx)) / float(np.sum(p))

    alpha = optimize.brentq(score, 1e-2, 100.0, xtol=1e-14, rtol=1e-13)
    return alpha, n / float(np.sum(x**alpha))


def test_batched_complete_refits_match_scalar_fits() -> None:
    """The lockstep refits inside the Monte Carlo KS test against an
    independent root of the longhand profile score, row by row, over
    samples of several shapes, scales and sizes."""
    rng = RngStream(74, 0)
    for n, alpha, lam in ((5, 0.4, 3.0), (12, 1.0, 1.0), (69, 3.8, 0.09), (40, 9.0, 1e-4)):
        x = np.sort(np.atleast_1d(sample_weibull(alpha, lam, rng, size=(150, n))).reshape(150, n), axis=1)
        got_alpha, log_rates, _ = _fit_complete_rows(np.log(x))
        got_lam = np.exp(log_rates[0])
        for row, a, l in zip(x, got_alpha, got_lam):
            want_alpha, want_lam = _longhand_complete_fit(row)
            assert a == pytest.approx(want_alpha, rel=1e-8)
            assert l == pytest.approx(want_lam, rel=1e-8)


def test_stacked_complete_rows_fit_as_they_fit_alone() -> None:
    """Each row of a stack of complete samples gets, byte for byte, the
    shape and rate fit_weibull_complete gives it alone (600 rows in all)."""
    rng = RngStream(75, 0)
    for n, alpha, lam in ((5, 0.4, 3.0), (30, 2.0, 1.0), (69, 3.8, 0.09)):
        x = np.sort(np.atleast_1d(sample_weibull(alpha, lam, rng, size=(200, n))).reshape(200, n), axis=1)
        datas = [CompleteSample(values=tuple(row)) for row in x]
        got_alpha, log_rates, _ = _fit_complete_rows(np.stack([d.log_values for d in datas]))
        got_lam = np.exp(log_rates[0])
        fits = [fit_weibull_complete(d) for d in datas]
        assert list(got_alpha) == [f.alpha for f in fits]
        assert list(got_lam) == [f.lam for f in fits]


def test_lr_test_golden_value(ds1, ds2) -> None:
    stat, p = lr_test_common_shape(ds1, ds2)
    assert stat >= 0.0
    assert p == pytest.approx(0.895, abs=0.05)
    assert p == pytest.approx(float(stats.chi2.sf(stat, df=1)), rel=1e-12)


def test_lr_test_recomputed_from_fits(ds1, ds2) -> None:
    sep = fit_weibull_complete(ds1).loglik + fit_weibull_complete(ds2).loglik
    joint = fit_common_shape(ds1, ds2).loglik
    stat, _ = lr_test_common_shape(ds1, ds2)
    assert stat == pytest.approx(-2.0 * (joint - sep), abs=1e-10)
    assert joint <= sep + 1e-9


def test_lr_test_equal_shapes_is_null() -> None:
    rng = RngStream(73, 0)
    x = np.atleast_1d(sample_weibull(2.0, 1.0, rng, size=40))
    d = CompleteSample(values=tuple(x))
    stat, p = lr_test_common_shape(d, d)
    assert stat == pytest.approx(0.0, abs=1e-8)
    assert p > 0.999


def test_complete_fits_at_an_underflowing_rate() -> None:
    """On 30 strengths 20000 (-ln(1 - u))^(1/116), u = (i + 0.5)/30, the
    fitted rate underflows to 0, and the fits form their log-likelihoods
    from the fitted log rates: finite, and each sample's term equal to the
    longhand n (ln a + ln n - ln sum x^a - 1) + (a - 1) sum ln x, with
    ln sum x^a by logsumexp.  The same strengths scaled by 0.9 share their
    shape, so the equal-shape statistic is about 0."""
    u = (np.arange(30) + 0.5) / 30
    x = 20000.0 * (-np.log1p(-u)) ** (1.0 / 116.0)
    d, scaled = CompleteSample(values=tuple(x)), CompleteSample(values=tuple(0.9 * x))

    def loglik(a, samples):
        return sum(
            s.n * (math.log(a) + math.log(s.n) - special.logsumexp(a * s.log_values) - 1.0) + (a - 1.0) * s.sum_log
            for s in samples
        )

    fit = fit_weibull_complete(d)
    assert fit.alpha == pytest.approx(118.687, rel=1e-5)
    assert fit.lam == 0.0
    assert fit.loglik == pytest.approx(-201.02, abs=5e-3)
    assert fit.loglik == pytest.approx(loglik(fit.alpha, [d]), rel=1e-12)
    common = fit_common_shape(d, scaled)
    assert math.isfinite(common.loglik)
    assert common.loglik == pytest.approx(loglik(common.alpha, [d, scaled]), rel=1e-12)
    stat, p = lr_test_common_shape(d, scaled)
    assert stat == pytest.approx(0.0, abs=1e-8)
    assert p > 0.999


def test_fit_needs_two_distinct_values() -> None:
    with pytest.raises(ValueError):
        fit_weibull_complete(CompleteSample(values=(1.0,)))
    with pytest.raises(ValueError):
        fit_weibull_complete(CompleteSample(values=(2.0, 2.0, 2.0)))
    with pytest.raises(ValueError):
        fit_common_shape(
            CompleteSample(values=(1.0, 2.0)), CompleteSample(values=(3.0, 3.0))
        )


def test_tie_breaking_feeds_the_joint_model(ds1, ds2) -> None:
    """The recorded strengths contain duplicates at the printed precision;
    after deterministic perturbation they form a valid joint sample."""
    merged = np.concatenate([ds1.array, ds2.array])
    assert np.unique(merged).size < merged.size  # ties really are present
    fixed = break_ties(np.sort(merged))
    assert np.all(np.diff(np.sort(fixed)) > 0.0)
