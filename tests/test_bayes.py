from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from jointweibull.bayes import (
    PriorSpec,
    _PosteriorCore,
    _jpc_discrepancy_rows,
    _resample_indices,
    ShapeHyper,
    WeightedPosterior,
    bayes_estimate,
    draw_posterior,
    draw_posterior_two_complete,
    hpd_interval,
    log_marginal_shape,
    posterior_predictive_pvalue,
    weibull_posterior_complete,
    weighted_hpd,
)
from jointweibull.errors import (
    DegenerateWeightsError,
    EstimationError,
    ImproperPosteriorError,
)
from jointweibull.gof import CompleteSample
from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    JpcObservation,
    JpcSample,
    log_u_stat,
    log_v_stat,
    simulate_jpc,
    simulate_jpc_batch,
)
from jointweibull.rng import (
    BetaGammaHyper,
    LogConcaveTarget,
    RngStream,
    build_static_envelope,
    sample_weibull,
)
from jointweibull.study import POINT_METHODS, StudyConfig

from _oracles import (
    complete_posterior_oracle,
    gamma_hpd,
    jpc_posterior_oracle,
    jpc_discrepancy_oracle,
    jpc_posterior_oracle_3d,
    static_envelope_pointwise,
    swap_groups,
)

_MEAN_A = lambda a, l1, l2: a  # noqa: E731
_MEAN_L1 = lambda a, l1, l2: l1  # noqa: E731
_MEAN_L2 = lambda a, l1, l2: l2  # noqa: E731


def _means(post: WeightedPosterior) -> tuple[float, float, float]:
    return (
        bayes_estimate(post, _MEAN_A),
        bayes_estimate(post, _MEAN_L1),
        bayes_estimate(post, _MEAN_L2),
    )


def test_hyper_validation() -> None:
    with pytest.raises(ValueError):
        ShapeHyper(-1.0, 0.0)
    with pytest.raises(ValueError):
        ShapeHyper(1.0, math.inf)
    flat = PriorSpec.flat(shape_rate=4.0)
    assert flat.bg == BetaGammaHyper(0.0, 0.0, 0.0, 0.0)
    assert flat.shape == ShapeHyper(0.0, 4.0)
    assert not flat.ordered


def test_shape_marginal_matches_handwritten_branches(fiber, flat_rate4) -> None:
    """The sampling marginal is the pointwise larger of two concave branches;
    rebuild both from the power sums and compare."""
    k = fiber.scheme.k
    grid = np.linspace(0.5, 8.0, 60)
    c0 = k + flat_rate4.shape.a - 1.0
    c1 = flat_rate4.shape.b - fiber.sum_log_t
    c2 = flat_rate4.bg.a0 + k
    bu = c0 * np.log(grid) - c1 * grid - c2 * log_u_stat(fiber, grid)
    bv = c0 * np.log(grid) - c1 * grid - c2 * log_v_stat(fiber, grid)
    expect = np.maximum(bu, bv)
    got = log_marginal_shape(fiber, flat_rate4, grid)
    assert got == pytest.approx(expect, rel=1e-10)
    # scalar call agrees with the vectorized one
    assert log_marginal_shape(fiber, flat_rate4, 3.0) == pytest.approx(
        float(log_marginal_shape(fiber, flat_rate4, np.array([3.0]))[0])
    )


def test_array_tangents_build_the_pointwise_hull(fiber) -> None:
    """Branch values and slopes on a point array equal per-point scalar
    calls, and the hull built from array calls has the tangent points,
    heights and slopes of one built point by point: on the fiber sample and
    20 reference-design samples, for the four study presets."""
    scheme = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
    truth = JointParams(1.0, 0.5, 1.0)
    config = StudyConfig(scheme, truth, 1, POINT_METHODS)
    samples = [fiber] + [simulate_jpc(scheme, truth, RngStream(90, i)) for i in range(20)]
    grid = np.geomspace(0.05, 20.0, 40)
    hulls = 0
    for sample in samples:
        for method in ("bayes-ip", "bayes-nip", "bayes-ordered-ip", "bayes-ordered-nip"):
            try:
                core = _PosteriorCore.from_jpc(sample, config.prior_for(method))
            except ImproperPosteriorError:
                continue
            for br in core.branches:
                pointwise = [(br.value(float(a)), br.derivative(float(a))) for a in grid]
                np.testing.assert_allclose(br.value(grid), [v for v, _ in pointwise], rtol=1e-13)
                np.testing.assert_allclose(br.derivative(grid), [d for _, d in pointwise], rtol=1e-13)
                target = LogConcaveTarget(br.value, br.derivative)
                got = build_static_envelope(target, 0.0)
                want = static_envelope_pointwise(target, 0.0)
                np.testing.assert_allclose(got._x, want._x, rtol=1e-13)
                np.testing.assert_allclose(got._h, want._h, rtol=1e-13)
                np.testing.assert_allclose(got._dh, want._dh, rtol=1e-13)
                hulls += 1
    assert hulls >= 140


def test_small_sample_posterior_matches_quadrature(tiny_k4, ip_prior) -> None:
    post = draw_posterior(tiny_k4, ip_prior, 40_000, RngStream(601, 0))
    assert post.ess > 10_000
    oracle = jpc_posterior_oracle(tiny_k4, ip_prior.bg, ip_prior.shape)
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.02)


def test_small_sample_posterior_matches_brute_force_grid(tiny_k4, ip_prior) -> None:
    """Same check against a full 3-D tensor quadrature that never uses the
    factorized form of the posterior."""
    post = draw_posterior(tiny_k4, ip_prior, 40_000, RngStream(602, 0))
    oracle = jpc_posterior_oracle_3d(tiny_k4, ip_prior.bg, ip_prior.shape)
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.03)


def test_ordered_posterior_equal_counts(tiny_k4) -> None:
    prior = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0), ordered=True)
    post = draw_posterior(tiny_k4, prior, 60_000, RngStream(603, 0))
    assert np.all(post.lambda1 < post.lambda2)
    oracle = jpc_posterior_oracle(tiny_k4, prior.bg, prior.shape, ordered=True)
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.02)


def test_ordered_posterior_lopsided_counts(tiny_k4_lopsided) -> None:
    """With unequal failure counts the restricted posterior needs rate power
    factors in the importance weight; check them against quadrature."""
    prior = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0), ordered=True)
    post = draw_posterior(tiny_k4_lopsided, prior, 80_000, RngStream(604, 0))
    assert np.all(post.lambda1 < post.lambda2)
    oracle = jpc_posterior_oracle(tiny_k4_lopsided, prior.bg, prior.shape, ordered=True)
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.05)


def test_ordered_posterior_lopsided_brute_force(tiny_k4_lopsided) -> None:
    prior = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0), ordered=True)
    post = draw_posterior(tiny_k4_lopsided, prior, 80_000, RngStream(605, 0))
    oracle = jpc_posterior_oracle_3d(
        tiny_k4_lopsided, prior.bg, prior.shape, ordered=True
    )
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.05)


def test_ordered_flat_prior_against_the_data_order(fiber) -> None:
    """On the fiber sample as given the data put lambda1 above lambda2, so
    the restricted posterior crowds the line lambda1 = lambda2 and the
    weights of the per-group proposal spread out.  The draws still agree
    with quadrature of the restricted posterior."""
    prior = PriorSpec.flat(shape_rate=4.0, ordered=True)
    post = draw_posterior(fiber, prior, 200_000, RngStream(626, 0))
    assert np.all(post.lambda1 < post.lambda2)
    assert np.all((post.weights >= 0.0) & (post.weights <= 1.0))
    assert post.ess > 2000
    oracle = jpc_posterior_oracle(fiber, prior.bg, prior.shape, ordered=True)
    for g, o in zip(_means(post), oracle):
        assert g == pytest.approx(o, rel=0.02)


def test_ordered_flat_prior_with_the_data_order(fiber) -> None:
    """With the groups swapped the data agree with the order, the cut
    removes almost no proposal mass, and the weights stay near one."""
    n = 5000
    post = draw_posterior(
        swap_groups(fiber), PriorSpec.flat(shape_rate=4.0, ordered=True), n, RngStream(627, 0)
    )
    assert np.all(post.lambda1 < post.lambda2)
    assert post.ess > 0.95 * n


def test_matching_power_sums_give_unit_weights(symmetric_uv, flat_rate4) -> None:
    """When both weighted power sums coincide the leftover likelihood factor
    is identically one, so the draws are exact and the ESS is full."""
    n = 5000
    post = draw_posterior(symmetric_uv, flat_rate4, n, RngStream(608, 0))
    assert np.all(post.weights == 1.0)
    assert post.normalized == pytest.approx(np.full(n, 1.0 / n))
    assert post.ess == pytest.approx(n)
    assert not post.low_ess


def test_joint_sample_posterior_agrees_with_quadrature(fiber, flat_rate4) -> None:
    """Document the actual posterior for the joint strength data under the
    flat prior with shape rate 4: quadrature gives the reference means."""
    oracle = jpc_posterior_oracle(fiber, flat_rate4.bg, flat_rate4.shape)
    post = draw_posterior(fiber, flat_rate4, 20_000, RngStream(609, 0))
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.02)
    # the same reference pins down the HPD window for the shape
    hpd = hpd_interval(post, _MEAN_A, 0.9)
    assert hpd.lower < oracle[0] < hpd.upper


def test_complete_sample_posterior_matches_quadrature(ds1) -> None:
    alphas, lams = weibull_posterior_complete(
        ds1, 0.0, 0.0, ShapeHyper(0.0, 4.0), 30_000, RngStream(610, 0)
    )
    oa, ol = complete_posterior_oracle(ds1, 0.0, 0.0, 0.0, 4.0)
    assert alphas.mean() == pytest.approx(oa, rel=0.02)
    assert lams.mean() == pytest.approx(ol, rel=0.02)


def test_complete_sample_posterior_proper_prior(ds2) -> None:
    alphas, lams = weibull_posterior_complete(
        ds2, 2.0, 3.0, ShapeHyper(3.0, 1.0), 30_000, RngStream(611, 0)
    )
    oa, ol = complete_posterior_oracle(ds2, 2.0, 3.0, 3.0, 1.0)
    assert alphas.mean() == pytest.approx(oa, rel=0.02)
    assert lams.mean() == pytest.approx(ol, rel=0.02)


def test_two_complete_shared_shape_matches_quadrature() -> None:
    """Two complete samples modelled with one shape, cross-checked through
    the equivalent no-withdrawal joint sample."""
    rng = RngStream(612, 0)
    x = np.sort(np.atleast_1d(sample_weibull(1.6, 0.8, rng, size=7)))
    d1 = CompleteSample(values=tuple(x))
    d2 = CompleteSample(values=tuple(x * 1.05))
    merged = np.concatenate([x, x * 1.05])
    order = np.argsort(merged)
    assert np.unique(merged).size == merged.size
    equiv = JpcSample(
        CensoringScheme(7, 7, 14, (0,) * 14),
        tuple(
            JpcObservation(t=float(merged[i]), delta=1 if i < 7 else 0, s=0)
            for i in order
        ),
    )
    prior = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0))
    oracle = jpc_posterior_oracle(equiv, prior.bg, prior.shape)
    post = draw_posterior_two_complete(d1, d2, prior, 40_000, RngStream(613, 0))
    assert post.ess > 2000
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.03)


def test_two_complete_disparate_samples_flag_low_ess(ds1, ds2) -> None:
    """The two strength datasets have very different power sums, which this
    importance scheme is known to handle poorly: the ESS collapses and the
    posterior flags itself as unreliable."""
    post = draw_posterior_two_complete(
        ds1, ds2, PriorSpec.flat(shape_rate=4.0), 4000, RngStream(614, 0)
    )
    assert post.low_ess
    assert post.ess < 40.0
    # estimates remain computable, just untrustworthy
    assert math.isfinite(bayes_estimate(post, _MEAN_A))


def test_hpd_window_semantics_by_hand() -> None:
    vals = [1.0, 2.0, 3.0]
    w = [1 / 3, 1 / 3, 1 / 3]
    got = weighted_hpd(vals, w, 0.7)
    assert (got.lower, got.upper) == (1.0, 2.0)
    # a window must leave room for the extension draw, so at level 0.5 the
    # zero-width window at the first atom qualifies
    tight = weighted_hpd(vals, w, 0.5)
    assert (tight.lower, tight.upper) == (1.0, 1.0)


def test_hpd_degenerate_cases() -> None:
    single = weighted_hpd([2.5], [1.0], 0.9)
    assert (single.lower, single.upper) == (2.5, 2.5)
    heavy = weighted_hpd([1.0, 2.0, 3.0], [0.9, 0.05, 0.05], 0.5)
    assert (heavy.lower, heavy.upper) == (1.0, 1.0)
    with pytest.raises(ValueError):
        weighted_hpd([1.0, 2.0], [0.5, 0.5], 1.0)


def test_hpd_matches_analytic_gamma_interval() -> None:
    """Equal-weight draws from gamma(3, 2): the windowed interval lands
    within one percent of the equal-density analytic one."""
    n = 200_000
    draws = RngStream(615, 0).gamma(3.0, rate=2.0, size=n)
    got = weighted_hpd(draws, np.full(n, 1.0 / n), 0.9)
    lo, hi = gamma_hpd(3.0, 2.0, 0.9)
    width = hi - lo
    assert abs(got.lower - lo) < 0.01 * width
    assert abs(got.upper - hi) < 0.01 * width


def test_hpd_matches_analytic_gamma_with_importance_weights() -> None:
    """Draw from gamma(3.5, 2) and reweight to gamma(3, 2); the weighted
    window must still match the analytic interval."""
    n = 200_000
    draws = RngStream(616, 0).gamma(3.5, rate=2.0, size=n)
    logw = -0.5 * np.log(draws)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    got = weighted_hpd(draws, w, 0.9)
    lo, hi = gamma_hpd(3.0, 2.0, 0.9)
    width = hi - lo
    assert abs(got.lower - lo) < 0.01 * width
    assert abs(got.upper - hi) < 0.01 * width


def test_hpd_levels_nest() -> None:
    n = 20_000
    draws = RngStream(617, 0).gamma(3.0, rate=2.0, size=n)
    w = np.full(n, 1.0 / n)
    inner = weighted_hpd(draws, w, 0.5)
    mid = weighted_hpd(draws, w, 0.9)
    outer = weighted_hpd(draws, w, 0.95)
    assert outer.lower <= mid.lower <= inner.lower
    assert inner.upper <= mid.upper <= outer.upper


def test_bayes_estimate_weighted_mean() -> None:
    post = WeightedPosterior(
        alpha=np.array([1.0, 2.0]),
        lambda1=np.array([0.5, 0.25]),
        lambda2=np.array([4.0, 8.0]),
        weights=np.array([1.0, 4.0]),
        normalized=np.array([0.2, 0.8]),
    )
    assert bayes_estimate(post, _MEAN_A) == pytest.approx(1.8)
    assert bayes_estimate(post, _MEAN_L1) == pytest.approx(0.3)
    assert bayes_estimate(post, lambda a, l1, l2: a * l2) == pytest.approx(
        0.2 * 4.0 + 0.8 * 16.0
    )


def test_posterior_container_validation() -> None:
    with pytest.raises(ValueError):
        WeightedPosterior(
            alpha=np.ones(3),
            lambda1=np.ones(2),
            lambda2=np.ones(3),
            weights=np.ones(3),
            normalized=np.full(3, 1 / 3),
        )
    with pytest.raises(ValueError):
        WeightedPosterior(
            alpha=np.ones(2),
            lambda1=np.ones(2),
            lambda2=np.ones(2),
            weights=np.ones(2),
            normalized=np.array([0.9, 0.3]),
        )


def test_improper_posterior_is_refused(improper_jpc) -> None:
    with pytest.raises(ImproperPosteriorError):
        draw_posterior(improper_jpc, PriorSpec.flat(), 100, RngStream(618, 0))


def test_flat_prior_with_one_sided_failures_is_refused() -> None:
    scheme = CensoringScheme(3, 1, 3, (0, 1, 0))
    one_sided = JpcSample(
        scheme,
        (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 1, 0), JpcObservation(3.0, 1, 0)),
    )
    with pytest.raises(ImproperPosteriorError):
        draw_posterior(one_sided, PriorSpec.flat(shape_rate=4.0), 100, RngStream(619, 0))


def test_draw_count_validation(fiber, flat_rate4) -> None:
    with pytest.raises(ValueError):
        draw_posterior(fiber, flat_rate4, 0, RngStream(620, 0))
    with pytest.raises(ValueError):
        weibull_posterior_complete(
            CompleteSample(values=(1.0, 2.0)), 0.0, 0.0, ShapeHyper(0.0, 1.0), 0, RngStream(62, 0)
        )


def test_error_hierarchy() -> None:
    assert issubclass(ImproperPosteriorError, EstimationError)
    assert issubclass(DegenerateWeightsError, EstimationError)


def test_posterior_draws_are_deterministic(fiber, flat_rate4) -> None:
    a = draw_posterior(fiber, flat_rate4, 2000, RngStream(621, 0))
    b = draw_posterior(fiber, flat_rate4, 2000, RngStream(621, 0))
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.lambda1, b.lambda1)
    assert np.array_equal(a.normalized, b.normalized)
    assert a.n_draws == 2000


def test_predictive_pvalue_complete_sample(ds1, flat_rate4) -> None:
    p, mean_d = posterior_predictive_pvalue(
        ds1, flat_rate4, n_rep=2000, rng=RngStream(622, 0)
    )
    assert 0.0 <= p <= 1.0
    assert 0.0 < mean_d < 0.5
    again, _ = posterior_predictive_pvalue(
        ds1, flat_rate4, n_rep=2000, rng=RngStream(622, 0)
    )
    assert p == again


def test_predictive_pvalue_flags_gross_misfit() -> None:
    """A sample with a far outlier should predict worse than a clean one."""
    rng = RngStream(623, 0)
    base = np.atleast_1d(sample_weibull(2.0, 1.0, rng, size=30))
    clean = CompleteSample(values=tuple(base))
    spiked = CompleteSample(values=tuple(np.concatenate([base[:-1], [base.max() * 6]])))
    prior = PriorSpec.flat(shape_rate=1.0)
    p_clean, _ = posterior_predictive_pvalue(clean, prior, n_rep=1500, rng=RngStream(624, 0))
    p_spiked, _ = posterior_predictive_pvalue(spiked, prior, n_rep=1500, rng=RngStream(624, 0))
    assert p_spiked < p_clean
    assert p_spiked < 0.2


def test_predictive_pvalue_joint_sample(fiber, flat_rate4) -> None:
    p, mean_d = posterior_predictive_pvalue(
        fiber, flat_rate4, n_rep=400, rng=RngStream(625, 0)
    )
    assert 0.0 <= p <= 1.0
    assert mean_d > 0.0
    with pytest.raises(ValueError):
        posterior_predictive_pvalue(fiber, flat_rate4, n_rep=400, rng=None)
    with pytest.raises(TypeError):
        posterior_predictive_pvalue([1.0, 2.0], flat_rate4, n_rep=10, rng=RngStream(1, 0))


def _replayed(scheme, log_t, delta, s) -> JpcSample:
    obs = tuple(JpcObservation(float(t), int(d), int(w)) for t, d, w in zip(np.exp(log_t), delta, s))
    return JpcSample(scheme, obs)


def test_jpc_discrepancy_rows_match_scalar_oracle(fiber, flat_rate4) -> None:
    """The row-wise discrepancy against the scalar sort-per-group oracle: on
    the fiber sample at 1000 posterior draws, on every replicate of a batch
    (each row replayed as a JpcSample), and on a sample whose failures all
    come from group 1."""
    post = draw_posterior(fiber, flat_rate4, 1000, RngStream(626, 0))
    a, l1, l2 = post.alpha, post.lambda1, post.lambda2
    rows = _jpc_discrepancy_rows(fiber.log_t, fiber.delta, a, l1, l2)
    want = [jpc_discrepancy_oracle(fiber, JointParams(*p)) for p in zip(a, l1, l2)]
    assert np.max(np.abs(rows - want)) <= 1e-12
    n = 300
    a, l1, l2 = a[:n], l1[:n], l2[:n]
    log_t, delta, s = simulate_jpc_batch(fiber.scheme, (a, l1, l2), RngStream(627, 0), n)
    rows = _jpc_discrepancy_rows(log_t, delta, a, l1, l2)
    for i in range(n):
        rep = _replayed(fiber.scheme, log_t[i], delta[i], s[i])
        assert abs(rows[i] - jpc_discrepancy_oracle(rep, JointParams(a[i], l1[i], l2[i]))) <= 1e-12
    one_group = JpcSample(
        CensoringScheme(2, 2, 2, (0, 2)), (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 1, 0))
    )
    par = JointParams(1.3, 0.6, 0.9)
    got = _jpc_discrepancy_rows(one_group.log_t, one_group.delta, *(np.array([v]) for v in (1.3, 0.6, 0.9)))
    assert abs(got[0] - jpc_discrepancy_oracle(one_group, par)) <= 1e-12


def test_predictive_pvalue_joint_sample_batch_matches_scalar_loop(fiber, flat_rate4) -> None:
    """The batched joint check replays as posterior, resampling indices, one
    per-row-parameter batch; its replicate discrepancies agree in law with a
    loop of ``simulate_jpc`` at the same resampled parameters."""
    n_rep = 800
    post = draw_posterior(fiber, flat_rate4, n_rep, RngStream(628, 0))
    p, mean_d = posterior_predictive_pvalue(
        fiber, flat_rate4, n_rep=n_rep, rng=RngStream(629, 0), posterior=post
    )
    d_obs = np.array(
        [jpc_discrepancy_oracle(fiber, JointParams(*v)) for v in zip(post.alpha, post.lambda1, post.lambda2)]
    )
    assert mean_d == pytest.approx(float((post.normalized * d_obs).sum()), rel=1e-12)
    rng = RngStream(629, 0)
    idx = _resample_indices(post.normalized, n_rep, rng)
    a, l1, l2 = post.alpha[idx], post.lambda1[idx], post.lambda2[idx]
    log_t, delta, _ = simulate_jpc_batch(fiber.scheme, (a, l1, l2), rng, n_rep)
    d_batch = _jpc_discrepancy_rows(log_t, delta, a, l1, l2)
    d_obs_rows = _jpc_discrepancy_rows(fiber.log_t, fiber.delta, post.alpha, post.lambda1, post.lambda2)
    assert p == float(np.mean(d_batch >= d_obs_rows[idx]))
    loop_rng = RngStream(630, 0)
    d_loop = np.array(
        [
            jpc_discrepancy_oracle(simulate_jpc(fiber.scheme, par, loop_rng), par)
            for par in (JointParams(*v) for v in zip(a, l1, l2))
        ]
    )
    assert stats.ks_2samp(d_batch, d_loop).pvalue > 1e-3
    p_loop = float(np.mean(d_loop >= d_obs[idx]))
    assert abs(p - p_loop) <= 4.5 * math.sqrt(2.0 * p_loop * (1.0 - p_loop) / n_rep) + 1e-12


def test_predictive_pvalue_complete_sample_takes_given_draws(ds1, flat_rate4) -> None:
    """Draws passed in as ``(alpha, lam, normalized)`` give the same check as
    draws the function makes itself from the same stream."""
    n_rep = 600
    rng = RngStream(631, 0)
    alphas, lams = weibull_posterior_complete(
        ds1, flat_rate4.bg.a0, flat_rate4.bg.b0, flat_rate4.shape, n_rep, rng
    )
    given = posterior_predictive_pvalue(
        ds1, flat_rate4, n_rep=n_rep, rng=rng, posterior=(alphas, lams, np.full(n_rep, 1.0 / n_rep))
    )
    assert given == posterior_predictive_pvalue(ds1, flat_rate4, n_rep=n_rep, rng=RngStream(631, 0))
