from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid
from scipy.special import betainc, betaincinv, digamma, expit, polygamma

from jointweibull.bayes import (
    _CUT_FLOOR,
    PriorSpec,
    _DrawStack,
    _PosteriorCore,
    _merge,
    _rates,
    _resample_indices,
    _sample_marginal,
    _stack,
    ShapeHyper,
    WeightedPosterior,
    bayes_estimate,
    draw_posterior,
    hpd_interval,
    posterior_predictive_pvalue,
    shape_modes,
    weighted_hpd,
)
from jointweibull.errors import (
    DegenerateWeightsError,
    EstimationError,
    ImproperPosteriorError,
    NonIntegrableTargetError,
)
from jointweibull.gof import CompleteSample, _ks_rows
from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    JpcObservation,
    JpcSample,
    break_ties,
    simulate_jpc,
    simulate_jpc_batch,
)
from jointweibull.mle import fit_mle
from jointweibull.rng import (
    BetaGammaHyper,
    PowerSum,
    RngStream,
    _ConcaveTerm,
    _locate_modes,
    build_static_envelope,
)
from jointweibull.study import POINT_METHODS, StudyConfig

from _oracles import (
    complete_posterior_oracle,
    fiber_jpc_sample,
    gamma_hpd,
    jpc_posterior_oracle,
    jpc_discrepancy_oracle,
    jpc_posterior_oracle_3d,
    log_marginal_shape,
    log_u_stat,
    log_v_stat,
    profile_loglik,
    sample_weibull,
    simulate_jpc_walk,
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


def test_shape_marginal_matches_handwritten_branches(fiber, flat_rate4, ip_prior) -> None:
    """For every rate prior the sampling marginal is one concave branch: the
    logs of the two power sums weighted by the total-rate shape a0 + k,
    split in the ratio of the group shapes (a1 + k1, a2 + k2).  For the flat
    prior the weights are the failure counts.  Rebuild both from the power
    sums and compare."""
    k, k1, k2 = fiber.scheme.k, fiber.k1, fiber.k2
    grid = np.linspace(0.5, 8.0, 60)
    ln_u = log_u_stat(fiber, grid)
    ln_v = log_v_stat(fiber, grid)
    c0 = k + ip_prior.shape.a - 1.0
    c1 = ip_prior.shape.b - fiber.sum_log_t
    c2 = ip_prior.bg.a0 + k
    s1, s2 = ip_prior.bg.a1 + k1, ip_prior.bg.a2 + k2
    b0 = ip_prior.bg.b0
    expect = (
        c0 * np.log(grid)
        - c1 * grid
        - c2 * s1 / (s1 + s2) * np.log(b0 + np.exp(ln_u))
        - c2 * s2 / (s1 + s2) * np.log(b0 + np.exp(ln_v))
    )
    got = log_marginal_shape(fiber, ip_prior, grid)
    assert got == pytest.approx(expect, rel=1e-10)
    c0 = k + flat_rate4.shape.a - 1.0
    c1 = flat_rate4.shape.b - fiber.sum_log_t
    expect = c0 * np.log(grid) - c1 * grid - k1 * ln_u - k2 * ln_v
    got = log_marginal_shape(fiber, flat_rate4, grid)
    assert got == pytest.approx(expect, rel=1e-10)
    # scalar call agrees with the vectorized one
    assert log_marginal_shape(fiber, flat_rate4, 3.0) == pytest.approx(
        float(log_marginal_shape(fiber, flat_rate4, np.array([3.0]))[0])
    )


def test_array_tangents_build_the_pointwise_hull(fiber) -> None:
    """Branch values and slopes on a row of points equal per-point calls
    (the branch is a stack of one), and the hull built from array calls has the tangent points,
    heights and slopes of one built point by point: on the fiber sample and
    20 reference-design samples, for the four study presets, each with its
    one sampled branch.  The hulls are compared on the tangents they keep,
    which come first in both."""
    scheme = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
    truth = JointParams(1.0, 0.5, 1.0)
    config = StudyConfig(scheme, truth, 1, POINT_METHODS)
    samples = [fiber] + [simulate_jpc(scheme, truth, RngStream(90, i)) for i in range(20)]
    grid = np.geomspace(0.05, 20.0, 40)
    hulls = 0
    for sample in samples:
        for method in ("bayes-ip", "bayes-nip", "bayes-ordered-ip", "bayes-ordered-nip"):
            try:
                core = _PosteriorCore.of(sample, config.prior_for(method))
            except ImproperPosteriorError:
                continue
            br = core.branch
            pointwise = [[x[0] for x in br.local(np.array([a]))[:2]] for a in grid]
            value, slope, _ = (x[0] for x in br.local(grid[None]))
            np.testing.assert_allclose(value, [v for v, _ in pointwise], rtol=1e-13)
            np.testing.assert_allclose(slope, [d for _, d in pointwise], rtol=1e-13)
            got = build_static_envelope(br.local, _locate_modes(br.local, 1))
            want = static_envelope_pointwise(br.local)
            assert got.tangents[0] == want.tangents[0]
            for attr in ("_bx", "_bh", "_bdh"):
                kept = getattr(want, attr)[0, : want.tangents[0]]
                np.testing.assert_allclose(getattr(got, attr)[0, : got.tangents[0]], kept, rtol=1e-13)
            hulls += 1
    # one hull per preset and sample: 4 presets x 21 samples
    assert hulls >= 84


_PRESETS = ("bayes-ip", "bayes-nip", "bayes-ordered-ip", "bayes-ordered-nip")


def _preset_samples(fiber):
    """The fiber sample and 20 reference-design samples, with the study's
    priors for the four Bayes presets."""
    scheme = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
    truth = JointParams(1.0, 0.5, 1.0)
    config = StudyConfig(scheme, truth, 1, POINT_METHODS)
    samples = [fiber] + [simulate_jpc(scheme, truth, RngStream(90, i)) for i in range(20)]
    return samples, [config.prior_for(m) for m in _PRESETS]


def test_stacked_mode_search_matches_lone_searches(fiber) -> None:
    """One lockstep mode search over the 84 preset cores of the fiber
    sample and 20 reference-design samples, one row per (sample, prior)
    pair, gives each core the mode of its own one-row search byte for byte,
    so the hulls built from the stack are the lone hulls."""
    samples, priors = _preset_samples(fiber)
    cores = [_PosteriorCore.of(sample, prior) for sample in samples for prior in priors]
    assert len(cores) == 84
    shape_modes(cores)
    for core in cores:
        branch = core.branch
        lone = _locate_modes(branch.local, 1)
        assert lone[0].tobytes() == core.mode.tobytes()
        got = build_static_envelope(branch.local, [core.mode])
        want = build_static_envelope(branch.local, lone)
        for attr in ("_bx", "_bh", "_bdh", "_bz", "_cum"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))


def test_stacked_draws_match_lone_draws(fiber) -> None:
    """The 84 preset cores of the fiber sample and 20 reference-design
    samples drawn as one stack, each from its own stream, give every core
    its lone draws byte for byte: shapes, rates, weights, normalized
    weights, sampler counts and the low-ESS flag.  A rigged row, whose mode
    is set to inf after the stack's search, as if its marginal still rose
    at 1e10, raises its lone error from its own draw (the stack draws
    lazily), and the other rows are unchanged."""
    samples, priors = _preset_samples(fiber)
    n, rigged = 1000, 37
    pairs = [(sample, prior) for sample in samples for prior in priors]
    lone = [draw_posterior(sample, prior, n, RngStream(643, i)) for i, (sample, prior) in enumerate(pairs)]
    cores = [_PosteriorCore.of(sample, prior) for sample, prior in pairs]
    alone, alone_rng = _PosteriorCore.of(*pairs[rigged]), RngStream(643, rigged)
    _DrawStack(n, {alone: alone_rng})
    alone.mode = math.inf
    with pytest.raises(NonIntegrableTargetError) as want:
        draw_posterior(alone, alone.prior, n, alone_rng)
    rngs = [RngStream(643, i) for i in range(len(cores))]
    _DrawStack(n, dict(zip(cores, rngs)))
    cores[rigged].mode = math.inf
    for i, (core, rng, post) in enumerate(zip(cores, rngs, lone)):
        if i == rigged:
            with pytest.raises(NonIntegrableTargetError) as got:
                draw_posterior(core, core.prior, n, rng)
            assert str(got.value) == str(want.value)
            continue
        got = draw_posterior(core, core.prior, n, rng)
        for attr in ("alpha", "lambda1", "lambda2", "weights", "normalized"):
            assert getattr(got, attr).tobytes() == getattr(post, attr).tobytes(), (i, attr)
        for attr in ("proposed", "accepted", "tangents", "low_ess"):
            assert getattr(got, attr) == getattr(post, attr), (i, attr)
        assert core.stack is None


def test_groups_share_exponentials_only_on_rows_whose_kernels_agree() -> None:
    """A stacked shape marginal forms one exponential per (row, shape,
    column) for both groups on the rows where their kernels have one top
    and the same offsets on every column both weigh, and the others form
    their own.  Cases: one design, m=2 n=5 k=4 R=(0,0,0,3), with t=(1,2,3,4)
    and delta (1,1,0,0), whose group 1 runs out early (top_U = ln 2, top_V =
    ln 4), and delta (0,1,0,1), where both tops are ln 4 and each kernel
    weighs columns the other does not; and two complete samples with one
    largest value and other values apart, which must not share.  Under a
    b0 = 0 and a b0 = 1 prior, stacked together, each row's ln(b0 + S_g) is
    np.logaddexp(ln b0, its lone log_sum) byte for byte, and each core's
    draws in a stack are its lone draws."""
    scheme = CensoringScheme(2, 5, 4, (0, 0, 0, 3))
    t = (1.0, 2.0, 3.0, 4.0)
    jpc = [JpcSample(scheme, zip(t, delta, (0, 0, 0, 0))) for delta in ((1, 1, 0, 0), (0, 1, 0, 1))]
    assert [[g.top[0] for g, _ in s.groups] for s in jpc] == [[math.log(2.0), math.log(4.0)], [math.log(4.0)] * 2]
    pair = (CompleteSample((0.5, 1.0, 3.0)), CompleteSample((0.7, 2.0, 3.0)))
    informative = PriorSpec(BetaGammaHyper(1.5, 1.0, 2.0, 4.0), ShapeHyper(2.0, 2.0))
    n = 800
    for samples, shared in ((jpc, (True, [0, 2])), ([pair], (False, []))):
        pairs = [(sample, prior) for prior in (PriorSpec.flat(shape_rate=1.0), informative) for sample in samples]
        cores = [_PosteriorCore.of(sample, prior) for sample, prior in pairs]
        term = _stack(cores)
        alpha = np.geomspace(0.05, 20.0, 7) * np.ones((len(cores), 1))
        _, sums = term(alpha)
        merged, own, _ = term._shared  # own: the rows of the flat and the informative core of delta (1,1,0,0)
        assert (merged is not None, list(own)) == shared
        for r, (core, (_, prior)) in enumerate(zip(cores, pairs)):
            log_b0 = math.log(prior.bg.b0) if prior.bg.b0 > 0.0 else -math.inf
            for g, (kernel, _) in enumerate(core.branch.groups):
                lone = np.logaddexp(log_b0, kernel.log_sum(alpha[r : r + 1])[0])
                assert sums[g, r].tobytes() == lone.tobytes(), (r, g)
        lone = [draw_posterior(sample, prior, n, RngStream(652, i)) for i, (sample, prior) in enumerate(pairs)]
        rngs = [RngStream(652, i) for i in range(len(cores))]
        _DrawStack(n, dict(zip(cores, rngs)))
        for i, (core, rng, post) in enumerate(zip(cores, rngs, lone)):
            got = draw_posterior(core, core.prior, n, rng)
            for attr in ("alpha", "lambda1", "lambda2", "weights", "normalized"):
                assert getattr(got, attr).tobytes() == getattr(post, attr).tobytes(), (i, attr)


def test_a_core_of_the_prior_is_its_own_sample(fiber) -> None:
    """draw_posterior takes a core as its sample with the core's prior: a
    core registered on a stack with that n and stream gets that stack's row
    (the stack draws its group at the first take), byte for byte the lone
    draw.  A core passed with another prior is refused by name."""
    samples, priors = _preset_samples(fiber)
    n = 500
    cores = [_PosteriorCore.of(samples[1], prior) for prior in priors]
    rngs = [RngStream(644, i) for i in range(len(cores))]
    stack = _DrawStack(n, dict(zip(cores, rngs)))
    for i, (core, rng, prior) in enumerate(zip(cores, rngs, priors)):
        lone = draw_posterior(samples[1], prior, n, RngStream(644, i))
        assert core.stack is stack
        got = draw_posterior(core, core.prior, n, rng)
        assert set(stack.made) == set(cores[i + 1 :]) and core.stack is None
        for attr in ("alpha", "lambda1", "lambda2", "weights", "normalized"):
            assert getattr(got, attr).tobytes() == getattr(lone, attr).tobytes(), (i, attr)
    with pytest.raises(ValueError, match="^prior"):
        draw_posterior(cores[0], priors[1], n, rngs[0])


def test_improper_preset_in_a_stack_raises_as_alone(improper_jpc, ip_prior) -> None:
    """A preset whose posterior is improper raises from its core, as a study
    chunk builds it, the error type and message it raises alone: a rate
    posterior with a flat weight on an empty group, and a shape marginal
    that does not decay.  A core whose marginal decays only past 1e10
    (shape rate 1e-11 on a marginal a e^(-a b)) sits in a stacked search
    without moving the other rows, and its draws fail as they fail alone."""
    one_sided = JpcSample(
        CensoringScheme(3, 1, 3, (0, 1, 0)),
        (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 1, 0), JpcObservation(3.0, 1, 0)),
    )
    cases = ((one_sided, PriorSpec.flat(shape_rate=4.0)), (improper_jpc, PriorSpec.flat()))
    for sample, bad in cases:
        with pytest.raises(ImproperPosteriorError) as alone:
            draw_posterior(sample, bad, 100, RngStream(640, 0))
        with pytest.raises(ImproperPosteriorError) as chunk:
            _PosteriorCore.of(sample, bad)
        assert type(chunk.value) is type(alone.value)
        assert str(chunk.value) == str(alone.value)
    other = JpcSample(improper_jpc.scheme, (JpcObservation(1.5, 0, 0), JpcObservation(4.0, 1, 0)))
    slow = PriorSpec.flat(shape_rate=1e-11)
    pairs = [(improper_jpc, ip_prior), (improper_jpc, slow), (other, ip_prior), (other, slow)]
    cores = [_PosteriorCore.of(sample, prior) for sample, prior in pairs]
    shape_modes(cores)
    for (sample, prior), core in zip(pairs, cores):
        if prior is ip_prior:
            assert core.mode.tobytes() == _locate_modes(core.branch.local, 1)[0].tobytes()
            continue
        assert core.mode == math.inf
        with pytest.raises(NonIntegrableTargetError) as alone:
            draw_posterior(sample, prior, 100, RngStream(640, 0))
        with pytest.raises(NonIntegrableTargetError) as stacked:
            draw_posterior(core, prior, 100, RngStream(640, 0))
        assert str(stacked.value) == str(alone.value)


def test_decay_is_read_from_the_slope_limit() -> None:
    """Flat rates with shape rate b on two times 1 and 1 + 1e-9, one per
    group, leave the shape marginal a e^(-a b), a gamma(2, b) law, whose
    slope tends to -b.  At b = 5e-9 the slope at 1e8 is still +5e-9, yet
    the posterior is proper: its shape draws, exact under this prior, follow
    the gamma law; at b = 0 it is refused."""
    sample = JpcSample(
        CensoringScheme(1, 1, 2, (0, 0)), (JpcObservation(1.0, 1, 0), JpcObservation(1.0 + 1e-9, 0, 0))
    )
    b = 5e-9
    core = _PosteriorCore.of(sample, PriorSpec.flat(shape_rate=b))
    assert core.branch.local(1e8)[1] > 0.0
    post = draw_posterior(sample, PriorSpec.flat(shape_rate=b), 4000, RngStream(642, 0))
    assert np.all(post.weights == 1.0)
    assert stats.kstest(post.alpha, stats.gamma(2.0, scale=1.0 / b).cdf).pvalue > 1e-3
    with pytest.raises(ImproperPosteriorError):
        _PosteriorCore.of(sample, PriorSpec.flat())


def test_sampler_proposes_few_more_shapes_than_it_keeps(fiber) -> None:
    """The first batch is sized for the acceptance the hulls get, so over
    the fiber sample and 20 reference-design samples under the four study
    presets the sampler proposes at most 1.1 shapes per draw; it reports
    its counts with the draws."""
    samples, priors = _preset_samples(fiber)
    n = 1000
    proposed = draws = 0
    for i, sample in enumerate(samples):
        for prior in priors:
            post = draw_posterior(sample, prior, n, RngStream(641, i))
            assert n <= post.accepted <= post.proposed
            assert 3 <= post.tangents <= 19
            proposed += post.proposed
            draws += post.n_draws
    assert draws == 84 * n
    assert proposed / draws <= 1.1


def test_flat_rate_marginal_is_the_profile_likelihood(fiber) -> None:
    """Under a flat rate prior and a gamma(1, 0) shape prior the shape
    marginal and the profile log-likelihood are one concave term (c0 = k,
    c1 = -sum ln t, c2_g = k_g), so on the fiber sample and 20
    reference-design samples the marginal minus sum ln t equals
    ``profile_loglik`` to 1e-13 relative over a shape grid, and the stacked
    mode search of their cores lands on ``fit_mle``'s shape to 1e-12
    relative."""
    samples, _ = _preset_samples(fiber)
    prior = PriorSpec(BetaGammaHyper(0.0, 0.0, 0.0, 0.0), ShapeHyper(1.0, 0.0))
    grid = np.geomspace(0.05, 20.0, 40)
    for sample in samples:
        got = log_marginal_shape(sample, prior, grid) - sample.sum_log_t
        want = [profile_loglik(sample, a) for a in grid]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    cores = [_PosteriorCore.of(sample, prior) for sample in samples]
    shape_modes(cores)
    want = [fit_mle(sample).params.alpha for sample in samples]
    np.testing.assert_allclose([core.mode for core in cores], want, rtol=1e-12, atol=0.0)


def test_branch_curvature_matches_central_differences(fiber) -> None:
    """The analytic curvature of every concave branch, and of their sum,
    equals central differences of the branch slope to 1e-7 relative: on
    the fiber sample and 20 reference-design samples, for the four study
    presets, on the branch the sampler draws from and on both of its
    one-group terms."""
    scheme = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
    truth = JointParams(1.0, 0.5, 1.0)
    config = StudyConfig(scheme, truth, 1, POINT_METHODS)
    samples = [fiber] + [simulate_jpc(scheme, truth, RngStream(90, i)) for i in range(20)]
    grid = np.geomspace(0.05, 20.0, 40)
    step = 1e-5 * grid
    sums = checked = 0
    for sample in samples:
        for method in ("bayes-ip", "bayes-nip", "bayes-ordered-ip", "bayes-ordered-nip"):
            try:
                core = _PosteriorCore.of(sample, config.prior_for(method))
            except ImproperPosteriorError:
                continue
            branch = core.branch
            ones = tuple(_ConcaveTerm(branch.c0, branch.c1, [g], branch.log_b0) for g in branch.groups)
            for br in (branch,) + ones:
                numeric = (br.local(grid + step)[1] - br.local(grid - step)[1]) / (2.0 * step)
                curvature = br.local(grid)[2]
                assert np.all(curvature < 0.0)
                np.testing.assert_allclose(curvature, numeric, rtol=1e-7, atol=0.0)
                sums += len(br.groups) > 1
                checked += 1
    assert checked >= 200 and sums >= 20


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
    the restricted posterior crowds the line lambda1 = lambda2.  The weight
    of the flat ordered prior is the probability of the cut given the shape
    alone, so the ESS stays near the draw count, and the draws agree with
    quadrature of the restricted posterior, with and without the 0.75 shift
    (unshifted, only the sampled branch needs to decay)."""
    prior = PriorSpec.flat(shape_rate=4.0, ordered=True)
    n = 20_000
    for sample in (fiber, fiber_jpc_sample()):
        post = draw_posterior(sample, prior, n, RngStream(626, 0))
        assert np.all(post.lambda1 < post.lambda2)
        assert np.all((post.weights >= 0.0) & (post.weights <= 1.0))
        assert post.ess > 0.9 * n
        oracle = jpc_posterior_oracle(sample, prior.bg, prior.shape, ordered=True)
        for g, o in zip(_means(post), oracle):
            assert g == pytest.approx(o, rel=0.02)


def test_ordered_coupled_prior_against_the_data_order() -> None:
    """An ordered prior whose rates do not factor (a0 - a1 - a2 = +4) and
    whose folded sum has two distinct terms (a1 != a2), on the fiber sample
    as given, where the data put lambda1 above lambda2: the draws keep the
    order, the weights stay near flat, and the means agree with quadrature
    of the restricted posterior."""
    sample = fiber_jpc_sample()
    prior = PriorSpec(BetaGammaHyper(6.5, 2.0, 0.5, 2.0), ShapeHyper(2.0, 1.0), ordered=True)
    n = 20_000
    post = draw_posterior(sample, prior, n, RngStream(633, 0))
    assert np.all(post.lambda1 < post.lambda2)
    assert post.ess > 0.9 * n
    oracle = jpc_posterior_oracle(sample, prior.bg, prior.shape, ordered=True)
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


class _CountingStream(RngStream):
    """A stream that records how many beta and uniform values it hands out."""

    def __init__(self, seed: int, counter: int = 0):
        super().__init__(seed, counter)
        self.counts = {"beta": 0, "uniform": 0}

    def beta(self, a, b, size=None):
        self.counts["beta"] += size
        return super().beta(a, b, size)

    def uniform(self, size=None):
        self.counts["uniform"] += size
        return super().uniform(size)


def _reference_design():
    scheme = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
    truth = JointParams(1.0, 0.5, 1.0)
    return scheme, truth, StudyConfig(scheme, truth, 1, POINT_METHODS)


def test_ordered_rate_fraction_follows_the_cut_beta(fiber) -> None:
    """An ordered core's rate fraction B, on rows whose cut masses I_x0 run
    from 0.05 to 0.95 across the rejection floor, follows the beta cut to
    (0, x0): I_B/I_x0 passes a KS test against U(0, 1).  Rows below the
    floor take the inversion, the others beta draws, and the uniforms left
    over count the rows that rejection handed to the inversion."""
    core = _PosteriorCore.of(fiber, PriorSpec.flat(shape_rate=4.0, ordered=True))
    s1, s2 = core.group_shapes
    n = 6000
    x0 = betaincinv(s1, s2, np.linspace(0.05, 0.95, n))
    # flat rates: R1 = U = 1 and R2 = V = (1 - x0)/x0 put the cut at x0
    log_sums = np.stack([np.zeros(n), np.log1p(-x0) - np.log(x0)])
    x0 = expit(-log_sums[1])
    cut = betainc(s1, s2, x0)
    rng = _CountingStream(650, 0)
    (l1,), (l2,), *_ = _rates([core], log_sums[:, None], [rng])
    assert np.all(l1 < l2)
    frac = l1 / (l1 + l2 * np.exp(log_sums[1]))
    assert np.all(frac < x0)
    assert stats.kstest(betainc(s1, s2, frac) / cut, "uniform").pvalue > 1e-3
    below = int(np.sum(cut < _CUT_FLOOR))
    assert 0 < below < n
    assert rng.counts["beta"] >= n - below
    assert rng.counts["uniform"] > below + 100


def test_ordered_fiber_draws_take_the_inversion_path(fiber) -> None:
    """On the fiber sample as given, with or without the shift, every cut
    mass lies below the rejection floor, so an ordered draw inverts the
    incomplete beta for every rate fraction: its rates equal those of the
    inversion recomputed by hand from the same stream, value for value."""
    n = 2000
    ip = _reference_design()[2].prior_for("bayes-ordered-ip")
    for sample in (fiber_jpc_sample(), fiber):
        for prior in (PriorSpec.flat(shape_rate=4.0, ordered=True), ip):
            post = draw_posterior(sample, prior, n, RngStream(651, 0))
            core = _PosteriorCore.of(sample, prior)
            s1, s2 = core.group_shapes
            rng = RngStream(651, 0)
            shape_modes([core])
            _, sums, *_ = _sample_marginal([core], n, [rng])
            ln_r1, ln_r2 = sums[:, 0]  # ln(b0 + U) and ln(b0 + V), as the sampler formed them
            total = rng.gamma(core.gamma_shape, size=n)
            x0 = expit(ln_r1 - ln_r2)
            cut = betainc(s1, s2, x0)
            assert cut.max() < _CUT_FLOOR
            u = 1.0 - rng.uniform(n)
            frac = betaincinv(s1, s2, u * cut)
            frac = np.minimum(np.where(frac > 0.0, frac, x0 * u ** (1.0 / s1)), np.nextafter(x0, 0.0))
            l2 = np.exp(np.log1p(-frac) + np.log(total) - ln_r2)
            l1 = np.minimum(np.exp(np.log(frac) + np.log(total) - ln_r1), np.nextafter(l2, 0.0))
            np.testing.assert_array_equal(post.lambda1, l1)
            np.testing.assert_array_equal(post.lambda2, l2)


def test_ordered_presets_keep_their_ess_on_reference_samples() -> None:
    """Over 60 reference-design samples, 1,000 draws each, the two ordered
    study presets keep an ESS of at least 85% of the draws on every sample
    and 95% on average.  The worst sample's ESS is near 88.7% under the
    informative preset and its read over 30 posterior streams spans
    0.87-0.90, so a floor of 89% on every sample would test the stream,
    not the sampler."""
    scheme, truth, config = _reference_design()
    samples = [simulate_jpc(scheme, truth, RngStream(2026, i)) for i in range(60)]
    n = 1000
    for method in ("bayes-ordered-ip", "bayes-ordered-nip"):
        prior = config.prior_for(method)
        ess = [draw_posterior(s, prior, n, RngStream(652, i)).ess / n for i, s in enumerate(samples)]
        assert min(ess) >= 0.85 and np.mean(ess) >= 0.95, method


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


def _gamma_rates(a0: float, b0: float, shape: ShapeHyper) -> PriorSpec:
    """A complete sample's prior: gamma(a0, b0) on its rate."""
    return PriorSpec(BetaGammaHyper(a0, b0, 0.0, 0.0), shape)


def test_complete_sample_posterior_matches_quadrature(ds1) -> None:
    post = draw_posterior(ds1, _gamma_rates(0.0, 0.0, ShapeHyper(0.0, 4.0)), 30_000, RngStream(610, 0))
    oa, ol = complete_posterior_oracle(ds1, 0.0, 0.0, 0.0, 4.0)
    assert post.alpha.mean() == pytest.approx(oa, rel=0.02)
    assert post.lambda1.mean() == pytest.approx(ol, rel=0.02)


def test_complete_sample_posterior_proper_prior(ds2) -> None:
    post = draw_posterior(ds2, _gamma_rates(2.0, 3.0, ShapeHyper(3.0, 1.0)), 30_000, RngStream(611, 0))
    oa, ol = complete_posterior_oracle(ds2, 2.0, 3.0, 3.0, 1.0)
    assert post.alpha.mean() == pytest.approx(oa, rel=0.02)
    assert post.lambda1.mean() == pytest.approx(ol, rel=0.02)


def test_complete_posterior_rates_at_overflowing_power_sums() -> None:
    """30 strengths s (-ln(1 - u))^(1/116) at u = (i + 0.5)/30.  Near
    s = 20,000 under a flat prior with shape rate 0, alpha ln t passes
    1,100 and S = sum t^alpha overflows; the draws raise no warning and
    every rate is finite (most underflow to 0, as lambda near 20,000^-116
    must in double precision).  At s = 445, with the shape pinned at 116
    by its prior, ln S lies past exp's limit of 709.78 while every alpha ln
    t stays below it, and every rate is positive: ln lambda + ln S(alpha)
    is ln of a gamma(30) draw, whose mean is digamma(30), and the
    predictive check is finite."""
    u = (np.arange(30) + 0.5) / 30.0

    def strengths(scale: float) -> CompleteSample:
        return CompleteSample.from_raw(tuple(scale * (-np.log1p(-u)) ** (1.0 / 116.0)))

    pinned = ShapeHyper(116.0 * 290_000.0, 290_000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        post = draw_posterior(strengths(20_000.0), PriorSpec.flat(), 2_000, RngStream(612, 0))
        alphas, lams = post.alpha, post.lambda1
        assert np.all(np.isfinite(lams) & (lams >= 0.0))
        assert np.median(alphas) > 100.0
        data = strengths(445.0)
        post = draw_posterior(data, _gamma_rates(0.0, 0.0, pinned), 4_000, RngStream(613, 0))
        alphas, lams = post.alpha, post.lambda1
        log_t = np.log(data.sorted)
        ln_sum = PowerSum(1.0, log_t[None]).log_sum(alphas[None])[0]
        assert ln_sum.min() > 709.8 and alphas.max() * log_t[-1] < 709.7
        assert np.all(np.isfinite(lams) & (lams > 0.0))
        ln_g = np.log(lams) + ln_sum
        assert abs(ln_g.mean() - digamma(30.0)) < 4.0 * math.sqrt(polygamma(1, 30.0) / ln_g.size)
        p, expected = posterior_predictive_pvalue(data, _gamma_rates(0.0, 0.0, pinned), n_rep=500, rng=RngStream(614, 0))
    assert 0.0 < p <= 1.0 and 0.0 < expected < 1.0


@pytest.mark.parametrize(
    "name, bg_a, bg_b",
    [("bg_b", 0.0, -1.0), ("bg_a", math.nan, 0.0), ("bg_b", 0.0, math.inf), ("bg_a", True, 0.0)],
)
def test_complete_posterior_refuses_bad_rate_hyperparameters(ds1, name, bg_a, bg_b) -> None:
    """A negative, nan, infinite or boolean rate hyperparameter of a
    complete sample's gamma(a0, b0) rate prior (``bg_a``, ``bg_b``) is
    refused by name, not run as the flat prior or failed later in the
    sampler."""
    with pytest.raises(ValueError, match=f"^{dict(bg_a='a0', bg_b='b0')[name]} must be a finite real >= 0"):
        draw_posterior(ds1, _gamma_rates(bg_a, bg_b, ShapeHyper(0.0, 4.0)), 100, RngStream(615, 0))


def test_complete_sample_core_reads_only_the_gamma_rate_prior(ds1) -> None:
    """A one-group core's rate prior is gamma(a0, b0): its draws carry unit
    weights and one rate array, and the complete-data predictive check
    gives the same result whatever the prior's a1, a2 and order flag."""
    shape = ShapeHyper(2.0, 1.0)
    split = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), shape, ordered=True)
    post = draw_posterior(ds1, split, 1000, RngStream(616, 0))
    assert np.all(post.weights == 1.0)
    assert post.lambda1 is post.lambda2
    gamma_only = PriorSpec(BetaGammaHyper(3.0, 1.0, 0.0, 0.0), shape)
    got = [posterior_predictive_pvalue(ds1, p, n_rep=500, rng=RngStream(617, 0)) for p in (gamma_only, split)]
    assert got[0] == got[1]


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
    post = draw_posterior((d1, d2), prior, 40_000, RngStream(613, 0))
    assert post.ess > 2000
    got = _means(post)
    for g, o in zip(got, oracle):
        assert g == pytest.approx(o, rel=0.03)


def test_two_complete_flat_rates_are_exact_on_the_strength_data(ds1, ds2, flat_rate4) -> None:
    """The two strength datasets have very different power sums.  With flat
    rates the posterior factors over the two samples, so the per-group
    proposal is exact: every weight is one and the ESS is the draw count.
    The means agree with quadrature of the equivalent no-withdrawal joint
    sample, whose 4 tied times ``break_ties`` moves apart."""
    n = 20_000
    post = draw_posterior((ds1, ds2), flat_rate4, n, RngStream(614, 0))
    assert np.all(post.weights == 1.0)
    assert post.ess == pytest.approx(n, rel=1e-12)
    merged = np.concatenate([ds1.array, ds2.array])
    order = np.argsort(merged, kind="stable")
    times = break_ties(merged[order])
    assert np.unique(merged).size == merged.size - 4
    assert np.all(np.diff(times) > 0.0)
    equiv = JpcSample(
        CensoringScheme(ds1.n, ds2.n, merged.size, (0,) * merged.size),
        tuple(
            JpcObservation(t=float(t), delta=1 if i < ds1.n else 0, s=0)
            for t, i in zip(times, order)
        ),
    )
    oracle = jpc_posterior_oracle(equiv, flat_rate4.bg, flat_rate4.shape)
    for g, o in zip(_means(post), oracle):
        assert g == pytest.approx(o, rel=0.02)


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
        log_lambda1=np.log([0.5, 0.25]),
        log_lambda2=np.log([4.0, 8.0]),
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
            log_lambda1=np.zeros(3),
            log_lambda2=np.zeros(3),
            weights=np.ones(3),
            normalized=np.full(3, 1 / 3),
        )
    for short in ("log_lambda1", "log_lambda2"):
        arrays = {"log_lambda1": np.zeros(3), "log_lambda2": np.zeros(3), short: np.zeros(2)}
        arrays.update(alpha=np.ones(3), lambda1=np.ones(3), lambda2=np.ones(3), weights=np.ones(3))
        with pytest.raises(ValueError, match="one shape"):
            WeightedPosterior(**arrays, normalized=np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        WeightedPosterior(
            alpha=np.ones(2),
            lambda1=np.ones(2),
            lambda2=np.ones(2),
            log_lambda1=np.zeros(2),
            log_lambda2=np.zeros(2),
            weights=np.ones(2),
            normalized=np.array([0.9, 0.3]),
        )


def test_improper_posterior_is_refused(improper_jpc) -> None:
    with pytest.raises(ImproperPosteriorError):
        draw_posterior(improper_jpc, PriorSpec.flat(), 100, RngStream(618, 0))


def test_rates_at_large_shapes_come_from_their_logs(improper_jpc) -> None:
    """With shape rate 1e-6 the flat-prior marginal of the ``improper_jpc``
    sample (times 2 and 3, one per group) is gamma(2, 1e-6), mode 1e6,
    where U = 2^a and V = 3^a overflow a double; with shape rate 1 it is
    gamma(2, 1).  The draws raise no RuntimeWarning.  Replayed from the
    same stream, each rate is exp of ln B + ln T - ln U (of ln(1 - B) + ln T
    - ln V): finite, >= 0, and 0 only where that log is below -745."""
    n = 2000
    for rate, mean in ((1e-6, 2e6), (1.0, 2.0)):
        prior = PriorSpec.flat(shape_rate=rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            post = draw_posterior(improper_jpc, prior, n, RngStream(611, 0))
        rng = RngStream(611, 0)
        core = _PosteriorCore.of(improper_jpc, prior)
        shape_modes([core])
        (alpha,), ((ln_u,), (ln_v,)), *_ = _sample_marginal([core], n, [rng])
        assert alpha.tobytes() == post.alpha.tobytes()
        assert np.mean(alpha) == pytest.approx(mean, rel=0.1)
        ln_total, frac = np.log(rng.gamma(2.0, size=n)), rng.beta(1.0, 1.0, size=n)
        for lam, ln_lam in (
            (post.lambda1, np.log(frac) + ln_total - ln_u),
            (post.lambda2, np.log1p(-frac) + ln_total - ln_v),
        ):
            assert np.all(np.isfinite(lam) & (lam >= 0.0))
            assert np.all((lam > 0.0) | (ln_lam < -745.0))
            assert np.all(lam > 0.0) == (rate == 1.0)
            np.testing.assert_allclose(lam, np.exp(ln_lam), rtol=1e-12, atol=0.0)


def test_slowly_decaying_flat_posterior_matches_quadrature(slow_decay_jpc) -> None:
    """All-flat prior on a heavily censored sample whose shape marginal
    a^2 30^a / (5^a + 6^a)^2 decays only as (30/36)^a.  The flat rates
    factor over the groups, so the draws are exact: the shape draws follow
    1-D quadrature of that marginal (mean near 18.04), and given the shape
    the rates scaled by U(a) = 5^a + 6^a and V(a) = 100^a are gamma(2) and
    gamma(1).  (The rate means themselves have coefficients of variation
    above 20 under this posterior, too wide for a Monte Carlo check.)"""
    n = 40_000
    post = draw_posterior(slow_decay_jpc, PriorSpec.flat(), n, RngStream(632, 0))
    assert np.all(post.weights == 1.0)
    grid = np.linspace(1e-6, 400.0, 400_001)
    log_u = np.logaddexp(grid * math.log(5.0), grid * math.log(6.0))
    log_f = 2.0 * np.log(grid) + grid * math.log(30.0) - 2.0 * log_u
    f = np.exp(log_f - log_f.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))])
    mean = trapezoid(grid * f, grid) / cdf[-1]
    assert mean == pytest.approx(18.04, abs=0.01)
    assert post.alpha.mean() == pytest.approx(mean, rel=0.02)
    assert stats.kstest(post.alpha, lambda a: np.interp(a, grid, cdf / cdf[-1])).pvalue > 1e-3
    a = post.alpha
    scaled1 = post.lambda1 * np.exp(np.logaddexp(a * math.log(5.0), a * math.log(6.0)))
    scaled2 = post.lambda2 * np.exp(a * math.log(100.0))
    assert stats.kstest(scaled1, stats.gamma(2.0).cdf).pvalue > 1e-3
    assert stats.kstest(scaled2, stats.gamma(1.0).cdf).pvalue > 1e-3


def test_flat_prior_with_one_sided_failures_is_refused() -> None:
    scheme = CensoringScheme(3, 1, 3, (0, 1, 0))
    one_sided = JpcSample(
        scheme,
        (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 1, 0), JpcObservation(3.0, 1, 0)),
    )
    with pytest.raises(ImproperPosteriorError):
        draw_posterior(one_sided, PriorSpec.flat(shape_rate=4.0), 100, RngStream(619, 0))


def test_draw_count_validation(fiber, ds1, ds2, flat_rate4) -> None:
    with pytest.raises(ValueError):
        draw_posterior(fiber, flat_rate4, 0, RngStream(620, 0))
    with pytest.raises(ValueError):
        draw_posterior((ds1, ds2), flat_rate4, 0, RngStream(620, 0))
    with pytest.raises(ValueError):
        draw_posterior(CompleteSample(values=(1.0, 2.0)), PriorSpec.flat(1.0), 0, RngStream(62, 0))


def test_draw_posterior_takes_a_complete_sample(ds2) -> None:
    """One complete sample draws exactly from its gamma(a0, b0) rate law,
    the one the quadrature tests check: unit weights, ``normalized`` exactly
    1/n, one rate array, and the bytes of the gamma-only prior whatever a1
    and a2 are."""
    shape = ShapeHyper(3.0, 1.0)
    n = 3_000
    post = draw_posterior(ds2, PriorSpec(BetaGammaHyper(2.0, 3.0, 1.5, 4.0), shape), n, RngStream(621, 0))
    assert np.all(post.weights == 1.0) and post.lambda1 is post.lambda2
    assert post.normalized.tobytes() == np.full(n, 1.0 / n).tobytes()
    alone = draw_posterior(ds2, _gamma_rates(2.0, 3.0, shape), n, RngStream(621, 0))
    assert post.alpha.tobytes() == alone.alpha.tobytes()
    assert post.lambda1.tobytes() == alone.lambda1.tobytes()


@pytest.mark.parametrize("kind", ["list-of-floats", "complete-and-joint", "three-complete"])
def test_draw_posterior_refuses_other_samples_by_type(fiber, ds1, ds2, flat_rate4, kind) -> None:
    """Anything but a joint sample, a complete sample or a pair (a 2-tuple)
    of complete samples raises TypeError, not an AttributeError from deep
    inside the core."""
    sample = {
        "list-of-floats": list(ds1.values),
        "complete-and-joint": (ds1, fiber),
        "three-complete": (ds1, ds2, ds1),
    }[kind]
    with pytest.raises(TypeError, match="JpcSample, a CompleteSample or a pair of CompleteSamples"):
        draw_posterior(sample, flat_rate4, 100, RngStream(623, 0))


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
    """The row-wise KS routine on joint samples against the scalar
    sort-per-group oracle: on the fiber sample at 1000 posterior draws, on
    every replicate of a batch (each row replayed as a JpcSample), and on a
    sample whose failures all come from group 1."""
    post = draw_posterior(fiber, flat_rate4, 1000, RngStream(626, 0))
    a, l1, l2 = post.alpha, post.lambda1, post.lambda2
    rows = _ks_rows(fiber.log_t, fiber.delta, a, post.log_lambda1, post.log_lambda2)
    want = [jpc_discrepancy_oracle(fiber, JointParams(*p)) for p in zip(a, l1, l2)]
    assert np.max(np.abs(rows - want)) <= 1e-12
    n = 300
    a, l1, l2 = a[:n], l1[:n], l2[:n]
    log_t, delta, s = simulate_jpc_batch(fiber.scheme, (a, l1, l2), RngStream(627, 0), n)
    rows = _ks_rows(log_t, delta, a, np.log(l1), np.log(l2))
    for i in range(n):
        rep = _replayed(fiber.scheme, log_t[i], delta[i], s[i])
        assert abs(rows[i] - jpc_discrepancy_oracle(rep, JointParams(a[i], l1[i], l2[i]))) <= 1e-12
    one_group = JpcSample(
        CensoringScheme(2, 2, 2, (0, 2)), (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 1, 0))
    )
    par = JointParams(1.3, 0.6, 0.9)
    got = _ks_rows(one_group.log_t, one_group.delta, np.array([1.3]), np.log([0.6]), np.log([0.9]))
    assert abs(got[0] - jpc_discrepancy_oracle(one_group, par)) <= 1e-12


def test_predictive_pvalue_joint_sample_batch_matches_scalar_loop(fiber, flat_rate4) -> None:
    """The batched joint check replays as posterior, resampling indices, one
    per-row-parameter batch; its replicate discrepancies agree in law with a
    loop of the unit-by-unit walk at the same resampled parameters."""
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
    d_batch = _ks_rows(log_t, delta, a, post.log_lambda1[idx], post.log_lambda2[idx])
    d_obs_rows = _ks_rows(fiber.log_t, fiber.delta, post.alpha, post.log_lambda1, post.log_lambda2)
    assert p == float(np.mean(d_batch >= d_obs_rows[idx]))
    loop_rng = RngStream(630, 0)
    d_loop = np.array(
        [
            jpc_discrepancy_oracle(simulate_jpc_walk(fiber.scheme, par, loop_rng), par)
            for par in (JointParams(*v) for v in zip(a, l1, l2))
        ]
    )
    assert stats.ks_2samp(d_batch, d_loop).pvalue > 1e-3
    p_loop = float(np.mean(d_loop >= d_obs[idx]))
    assert abs(p - p_loop) <= 4.5 * math.sqrt(2.0 * p_loop * (1.0 - p_loop) / n_rep) + 1e-12


def test_predictive_pvalue_complete_sample_takes_given_draws(ds1, flat_rate4) -> None:
    """Draws passed in as a :class:`WeightedPosterior` give the same check as
    draws the function makes itself from the same stream, on the strengths
    and under the flat prior on 30 strengths 20000 (-ln(1 - u))^(1/116),
    whose drawn rates nearly all underflow to 0: the check reads their
    drawn log rates, not the logs of the rates, which would put every such
    draw at distance 1 and the p-value at 0.  Any other ``posterior``, such
    as a ``(alpha, lam, normalized)`` triple, is refused by type."""
    u = (np.arange(30) + 0.5) / 30
    big = CompleteSample(values=tuple(20000.0 * (-np.log1p(-u)) ** (1.0 / 116.0)))
    n_rep = 600
    for data, prior in ((ds1, flat_rate4), (big, PriorSpec.flat())):
        rng = RngStream(631, 0)
        post = draw_posterior(data, prior, n_rep, rng)
        given = posterior_predictive_pvalue(data, prior, n_rep=n_rep, rng=rng, posterior=post)
        assert given == posterior_predictive_pvalue(data, prior, n_rep=n_rep, rng=RngStream(631, 0))
    assert np.mean(post.lambda1 == 0.0) > 0.9
    assert given[0] > 0.5 and given[1] < 0.2
    triple = (post.alpha, post.lambda1, post.normalized)
    with pytest.raises(TypeError, match="posterior"):
        posterior_predictive_pvalue(big, PriorSpec.flat(), n_rep=n_rep, rng=RngStream(631, 1), posterior=triple)


def test_complete_sample_replicates_are_sorted_uniforms(ds1, flat_rate4) -> None:
    """A complete sample's check replays as posterior draws, resampling
    indices, then one (n_rep, n) array of uniforms: its p-value counts the
    replicates whose distance, written longhand from each sorted row u as
    the largest of i/n - u_(i) and u_(i) - (i - 1)/n, is at least the
    observed one at the same draw.  Those distances are within 2 ulp of the
    uniforms' scale, 2 ulp of a double in [0.5, 1), of the inversion round
    trip (standard exponentials -log1p(-u), sorted, their logs through
    _ks_rows at unit shape and rate)."""
    n_rep, n = 700, ds1.n
    p, mean_d = posterior_predictive_pvalue(ds1, flat_rate4, n_rep=n_rep, rng=RngStream(632, 0))
    rng = RngStream(632, 0)
    post = draw_posterior(ds1, flat_rate4, n_rep, rng)
    d_obs = _ks_rows(np.log(ds1.sorted), np.ones(n), post.alpha, post.log_lambda1, post.log_lambda1)
    idx = _resample_indices(post.normalized, n_rep, rng)
    raw = rng.uniform((n_rep, n))
    d_rep = np.array(
        [max(max((i + 1) / n - v, v - i / n) for i, v in enumerate(row)) for row in np.sort(raw, axis=1).tolist()]
    )
    assert p == float(np.mean(d_rep >= d_obs[idx]))
    assert mean_d == float((post.normalized * d_obs).sum())
    unit, zero = np.ones(n_rep), np.zeros(n_rep)
    inverted = _ks_rows(np.log(np.sort(-np.log1p(-raw), axis=1)), np.ones(n), unit, zero, zero)
    assert np.max(np.abs(d_rep - inverted)) <= 2.0 * np.spacing(0.5)


def test_predictive_check_reads_rates_below_the_range_of_exp() -> None:
    """30 strengths 20000 (-ln(1 - u))^(1/116) under a flat prior with shape
    rate 0 draw shapes near 118 and rates near e^-1150, which underflow to
    0: the check forms each hazard from the drawn log rate, so p and the
    expected KS distance are finite, with no RuntimeWarning, and they are
    those of the same strengths divided by 20000 (the discrepancy and this
    prior are scale-free)."""
    x = 20000.0 * (-np.log1p(-(np.arange(30) + 0.5) / 30)) ** (1.0 / 116.0)
    got = []
    for scale in (1.0, 20000.0):
        data = CompleteSample(tuple(x / scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got.append(posterior_predictive_pvalue(data, PriorSpec.flat(), 1000, RngStream(633, 0)))
    (p, expected), (p_scaled, expected_scaled) = got
    assert 0.0 <= p <= 1.0 and 0.0 < expected < 1.0
    assert p == p_scaled and expected == pytest.approx(expected_scaled, rel=1e-9)


def test_merge_is_union1d_bit_for_bit() -> None:
    """The ordered cut's merge of the rows it inverts, where the cut is
    deep and those that rejection left, equals np.union1d of the two sorted
    index arrays bit for bit, in values and dtype: disjoint and overlapping
    indices, empty either side, and all of them."""
    gen = np.random.default_rng(94)
    for size in (0, 1, 2, 9, 1000):
        for p in (0.0, 0.3, 1.0):
            mask = gen.uniform(size=size) < p
            for q in (0.0, 0.5, 1.0):
                idx = np.flatnonzero(gen.uniform(size=size) < q)
                for rest in (idx, idx[~mask[idx]]):
                    want = np.union1d(np.flatnonzero(mask), rest)
                    got = _merge(mask, rest)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
