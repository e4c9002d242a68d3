from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from jointweibull.errors import NonIntegrableTargetError
from jointweibull.rng import (
    BetaGammaHyper,
    PiecewiseExpEnvelope,
    PowerSum,
    RngStream,
    _locate_modes,
    _solve_rows,
    build_static_envelope,
    splitmix64,
)

from _oracles import (
    beta_gamma_mean,
    beta_gamma_variance,
    log_beta_gamma_pdf,
    log_sum_exp,
    sample_beta_gamma,
    sample_hypergeometric,
    sample_weibull,
    weibull_inverse_cdf,
)


def test_equal_addresses_replay() -> None:
    a = RngStream(11, 5).uniform(100)
    b = RngStream(11, 5).uniform(100)
    assert np.array_equal(a, b)


def test_distinct_counters_disagree() -> None:
    a = RngStream(11, 5).uniform(100)
    b = RngStream(11, 6).uniform(100)
    assert not np.array_equal(a, b)


def test_substream_equals_fresh_stream_at_shifted_counter() -> None:
    derived = RngStream(11, 3).substream(4).uniform(50)
    direct = RngStream(11, 7).uniform(50)
    assert np.array_equal(derived, direct)


def test_uniform_scalar_and_batch() -> None:
    s = RngStream(0, 0)
    u = s.uniform()
    assert isinstance(u, float) and 0.0 <= u < 1.0
    arr = s.uniform(7)
    assert arr.shape == (7,)


def test_splitmix64_is_a_stable_64_bit_mix() -> None:
    outs = [splitmix64(i) for i in range(1000)]
    assert len(set(outs)) == 1000
    assert all(0 <= o < 2**64 for o in outs)
    assert splitmix64(42) == splitmix64(42)
    # consecutive inputs land far apart
    gaps = [bin(outs[i] ^ outs[i + 1]).count("1") for i in range(999)]
    assert min(gaps) > 10


def test_weibull_quantile_roundtrip() -> None:
    u = np.linspace(0.01, 0.99, 50)
    for alpha, lam in [(0.7, 2.0), (1.0, 1.0), (3.4, 0.25)]:
        x = weibull_inverse_cdf(u, alpha, lam)
        cdf = -np.expm1(-lam * x**alpha)
        assert cdf == pytest.approx(u, abs=1e-12)


def test_weibull_sampler_matches_reference_law() -> None:
    """Inversion draws should follow weibull_min with scale lam**(-1/alpha)."""
    alpha, lam = 2.5, 0.8
    x = sample_weibull(alpha, lam, RngStream(314, 0), size=4000)
    assert np.all(x > 0.0)
    res = stats.kstest(x, stats.weibull_min(alpha, scale=lam ** (-1.0 / alpha)).cdf)
    assert res.pvalue > 1e-3


def test_gamma_rate_parameterization() -> None:
    draws = RngStream(9, 0).gamma(5.0, rate=2.0, size=200_000)
    se = math.sqrt(5.0 / 4.0 / draws.size)
    assert abs(draws.mean() - 2.5) < 4.0 * se


def _bg_grid_moments(hyper: BetaGammaHyper, hi: float = 40.0, n: int = 1200):
    """Quadrature moments of the rate-pair law, independent of the sampler."""
    grid = np.linspace(1e-6, hi, n)
    l1, l2 = np.meshgrid(grid, grid, indexing="ij")
    dens = np.exp(log_beta_gamma_pdf(l1, l2, hyper))
    mass = trapezoid(trapezoid(dens, grid, axis=1), grid)
    m1 = trapezoid(trapezoid(dens * l1, grid, axis=1), grid)
    m2 = trapezoid(trapezoid(dens * l2, grid, axis=1), grid)
    v1 = trapezoid(trapezoid(dens * l1**2, grid, axis=1), grid)
    v2 = trapezoid(trapezoid(dens * l2**2, grid, axis=1), grid)
    return mass, m1, m2, v1 - m1**2, v2 - m2**2


def test_density_normalizes_and_matches_moment_formulas() -> None:
    hyper = BetaGammaHyper(3.0, 1.0, 2.0, 4.0)
    mass, m1, m2, v1, v2 = _bg_grid_moments(hyper)
    mean = beta_gamma_mean(hyper)
    var = beta_gamma_variance(hyper)
    assert mass == pytest.approx(1.0, abs=2e-3)
    assert m1 == pytest.approx(mean[0], rel=3e-3)
    assert m2 == pytest.approx(mean[1], rel=3e-3)
    assert v1 == pytest.approx(var[0], rel=1e-2)
    assert v2 == pytest.approx(var[1], rel=1e-2)


_BG_SETTINGS = [
    BetaGammaHyper(1.0, 1.0, 1.0, 1.0),
    BetaGammaHyper(3.0, 1.0, 2.0, 4.0),
    BetaGammaHyper(0.5, 2.0, 1.5, 0.5),
    BetaGammaHyper(10.0, 5.0, 3.0, 3.0),
    BetaGammaHyper(2.0, 0.5, 0.8, 1.2),
]


@pytest.mark.parametrize("hyper", _BG_SETTINGS, ids=lambda h: f"a0={h.a0},b0={h.b0}")
def test_rate_pair_sampler_moments(hyper: BetaGammaHyper) -> None:
    n = 100_000
    l1, l2 = sample_beta_gamma(hyper, RngStream(77, 0), size=n)
    mean = beta_gamma_mean(hyper)
    var = beta_gamma_variance(hyper)
    for draws, m, v in ((l1, mean[0], var[0]), (l2, mean[1], var[1])):
        assert abs(draws.mean() - m) < 4.0 * math.sqrt(v / n)


def test_sampler_requires_positive_hyperparameters() -> None:
    with pytest.raises(ValueError):
        sample_beta_gamma(BetaGammaHyper(0.0, 1.0, 1.0, 1.0), RngStream(1, 0), size=4)


def test_hypergeometric_matches_reference_frequencies() -> None:
    pop1, pop2, draws = 7, 5, 6
    rng = RngStream(21, 0)
    n = 20_000
    counts = np.bincount(
        [sample_hypergeometric(pop1, pop2, draws, rng) for _ in range(n)],
        minlength=pop1 + 1,
    )
    pmf = stats.hypergeom(pop1 + pop2, pop1, draws).pmf(np.arange(pop1 + 1))
    chi2 = ((counts - n * pmf) ** 2 / np.maximum(n * pmf, 1e-12))[pmf > 1e-9].sum()
    dof = int((pmf > 1e-9).sum()) - 1
    assert stats.chi2(dof).sf(chi2) > 1e-3


def test_hypergeometric_edge_cases() -> None:
    rng = RngStream(22, 0)
    assert sample_hypergeometric(4, 3, 0, rng) == 0
    assert sample_hypergeometric(4, 3, 7, rng) == 4
    assert sample_hypergeometric(4, 0, 3, rng) == 3
    assert sample_hypergeometric(0, 4, 3, rng) == 0


def test_hypergeometric_wrapper_edge_cases() -> None:
    rng = RngStream(23, 0)
    good = np.array([0, 4, 4, 0])
    bad = np.array([4, 0, 3, 0])
    assert np.array_equal(rng.hypergeometric(good, bad, np.array([3, 3, 0, 0])), [0, 3, 0, 0])
    assert np.array_equal(rng.hypergeometric(good[:3], bad[:3], 0), [0, 0, 0])
    assert rng.hypergeometric(0, 4, 4) == 0
    assert rng.hypergeometric(4, 0, 4) == 4
    with pytest.raises(ValueError):
        rng.hypergeometric(2, 1, 4)
    # the scalar sampler draws through the wrapper: same stream, same value
    a, b = RngStream(24, 0), RngStream(24, 0)
    assert [sample_hypergeometric(7, 5, 6, a) for _ in range(50)] == [
        int(b.hypergeometric(7, 5, 6)) for _ in range(50)
    ]


def test_exponential_wrapper_is_unit_rate() -> None:
    draws = RngStream(25, 0).exponential((4000,))
    assert draws.shape == (4000,) and np.all(draws >= 0.0)
    assert stats.kstest(draws, stats.expon().cdf).pvalue > 1e-3


def _gamma_target(shape: float, rate: float):
    """Gamma(shape, rate) log-density as ``x -> (value, slope, curvature)``."""
    return lambda x: (
        (shape - 1.0) * np.log(x) - rate * x,
        (shape - 1.0) / x - rate,
        -(shape - 1.0) / x**2,
    )


def _linear_target(slope: float):
    """The log-density ``slope * x`` as ``x -> (value, slope, curvature)``."""

    def local(x):
        x = np.asarray(x, dtype=float)
        return slope * x, np.full_like(x, slope), np.zeros_like(x)

    return local


def _hull(local):
    """The static hull of one log-density, a stack of one around its mode."""
    return build_static_envelope(local, _locate_modes(local, 1))


def _refused(env, match: str = "") -> bool:
    """Whether the hull of a stack of one recorded a
    :class:`NonIntegrableTargetError` whose message matches ``match``."""
    err = env.errors[0]
    return isinstance(err, NonIntegrableTargetError) and re.search(match, str(err)) is not None


def test_static_envelope_dominates_target() -> None:
    """Tangent hulls of concave log-densities must sit above them everywhere."""
    rng = RngStream(31, 0)
    grid = np.linspace(1e-4, 30.0, 4000)
    for _ in range(30):
        shape = 1.0 + 4.0 * rng.uniform()
        rate = 0.2 + 3.0 * rng.uniform()
        env = _hull(_gamma_target(shape, rate))
        target_log = (shape - 1.0) * np.log(grid) - rate * grid
        seg = np.clip(np.searchsorted(env._bz[0], grid, side="right") - 1, 0, env.tangents[0] - 1)
        assert np.all(env.log_value(grid, seg) >= target_log - 1e-9)


def test_envelope_mass_bounds_target_mass() -> None:
    shape, rate = 3.0, 2.0
    env = _hull(_gamma_target(shape, rate))
    # unnormalized target mass: Gamma(shape) / rate**shape
    true_log_mass = math.lgamma(shape) - shape * math.log(rate)
    assert env._log_total[0] >= true_log_mass
    assert env._log_total[0] < true_log_mass + 0.5


def _hull_draws(env, n, rng):
    """``n`` draws from a stack of one hull: uniforms that pick the
    segments, then uniforms that place the draws in them."""
    return env.sample(rng.uniform(n)[None], rng.uniform(n)[None], [0])[0][0]


def test_single_tangent_envelope_samples_exponential() -> None:
    env = PiecewiseExpEnvelope([[1.0]], [[0.0]], [[-2.0]])
    draws = _hull_draws(env, 4000, RngStream(32, 0))
    res = stats.kstest(draws, stats.expon(scale=0.5).cdf)
    assert res.pvalue > 1e-3


def test_hull_draws_follow_its_piecewise_exponential_law() -> None:
    """A hull with rising segments, a near-flat one (|a| d < 1e-12), falling
    ones and the infinite last one samples its own normalized density: the
    draws pass a KS test against the exact piecewise-exponential CDF and all
    lie in [0, inf)."""
    # tangents to -(q - 3)^2 / 2 meet at the midpoints of their abscissae
    x = np.array([0.5, 1.5, 2.5, 3.0 - 1e-13, 4.0, 5.0])
    h, a = -0.5 * (x - 3.0) ** 2, 3.0 - x
    env = PiecewiseExpEnvelope(x[None], h[None], a[None])
    np.testing.assert_array_equal(env._bx[0], x)
    z = np.concatenate(([0.0], 0.5 * (x[:-1] + x[1:]), [math.inf]))
    assert np.all(a[:3] > 0.0) and 0.0 < a[3] * (z[4] - z[3]) < 1e-12 and np.all(a[4:] < 0.0)

    def mass_below(q):
        """Unnormalized hull mass on [0, q] for an array ``q``."""
        q = np.asarray(q, dtype=float)[:, None]
        u, v = z[:-1], np.minimum(z[1:], np.maximum(q, z[:-1]))
        seg = np.exp(h + a * (u - x)) * np.expm1(a * (v - u)) / a
        return seg.sum(axis=1)

    total = mass_below([math.inf])[0]
    assert env._log_total[0] == pytest.approx(math.log(total), rel=1e-12)
    draws = _hull_draws(env, 20_000, RngStream(36, 0))
    assert np.all(np.isfinite(draws) & (draws >= 0.0))
    assert stats.kstest(draws, lambda q: mass_below(q) / total).pvalue > 1e-3


def test_flat_hull_segment_is_measured_from_its_left_end() -> None:
    """The sign of a flat segment's slope is round-off: a mode tangent of
    slope +1e-16 or -1e-16 gives the same draws from one stream.  The
    tangents to -50 (q - 3)^2 are steep enough that the breakpoints 2 and 4
    come out exact either way, so only the orientation could differ; most
    draws land in the flat segment between them."""
    x = np.array([1.0, 3.0, 5.0])
    h = -50.0 * (x - 3.0) ** 2
    envs = [PiecewiseExpEnvelope(x[None], h[None], [[200.0, a, -200.0]]) for a in (1e-16, -1e-16)]
    assert list(envs[0]._bz[0]) == list(envs[1]._bz[0]) == [0.0, 2.0, 4.0, math.inf]
    draws = [_hull_draws(env, 5000, RngStream(39, 0)) for env in envs]
    np.testing.assert_array_equal(draws[0], draws[1])
    assert np.count_nonzero((draws[0] > 2.0) & (draws[0] < 4.0)) > 4000


def test_locate_mode_matches_the_analytic_gamma_mode() -> None:
    """The root finder's mode of a gamma log-density is (shape - 1) / rate,
    searched alone or with the 29 others stacked one per row; the stack
    gives each row its lone mode byte for byte."""
    rng = RngStream(38, 0)
    shapes = 1.05 + 40.0 * rng.uniform(30)
    rates = 10.0 ** (4.0 * rng.uniform(30) - 2.0)
    alone = []
    for shape, rate in zip(shapes, rates):
        (mode,) = _locate_modes(_gamma_target(shape, rate), 1)
        assert mode == pytest.approx((shape - 1.0) / rate, rel=1e-9)
        alone.append(mode)
    assert min(alone) > 1e-8
    stacked = _locate_modes(_gamma_target(shapes, rates), 30)
    np.testing.assert_array_equal(stacked, alone)


def test_adaptive_sampler_boundary_mode() -> None:
    """A log-density decreasing from the support edge (exponential law)
    puts the mode at the edge; the static hull built there samples the law
    exactly under rejection."""
    target = _linear_target(-1.0)
    assert list(_locate_modes(target, 1)) == [1e-8]
    env = _hull(target)
    rng = RngStream(35, 0)
    q, seg = env.sample(rng.uniform(30_000)[None], rng.uniform(30_000)[None], [0])
    accept = np.log(rng.uniform(q.size)) <= target(q)[0] - env.log_value(q, seg)
    draws = q[accept]
    assert draws.size > 10_000
    res = stats.kstest(draws, stats.expon.cdf)
    assert res.pvalue > 1e-3


def test_sampler_refuses_growing_log_density() -> None:
    assert _refused(_hull(_linear_target(1.0)))


def test_array_built_hull_keeps_only_usable_tangents() -> None:
    """The hull keeps the finite tangents at or above its support edge 0, in
    abscissa order and ahead of its masked slots, which add no mass, and
    refuses tangent sets that leave no usable tangent or whose rightmost
    slope, before or after the concavity clean-up, is not negative."""
    x = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    h, dh, _ = _gamma_target(3.0, 2.0)(np.maximum(x, 1e-12))
    want = PiecewiseExpEnvelope(x[None], h[None], dh[None])
    got = PiecewiseExpEnvelope(
        [[4.0, -0.1, 1.0, 3.0, 0.5, 2.0, 0.0, 5.0, math.nan]],
        [[h[4], -1.0, h[2], math.inf, h[1], h[3], h[0], 0.0, 0.0]],
        [[dh[4], 5.0, dh[2], -1.0, dh[1], dh[3], dh[0], -math.inf, -1.0]],
    )
    assert got.tangents[0] == want.tangents[0] == 5
    for attr in ("_bx", "_bh", "_bdh", "_bz", "_cum"):
        kept = getattr(want, attr)[0]
        np.testing.assert_array_equal(getattr(got, attr)[0, : kept.size], kept)
    np.testing.assert_array_equal(got._cum[0, 5:], 1.0)
    assert got._log_total[0] == want._log_total[0]
    assert _refused(PiecewiseExpEnvelope([[1.0, 2.0]], [[0.0, -1.0]], [[-1.0, 0.0]]), "rightmost")
    assert _refused(PiecewiseExpEnvelope([[1.0, 2.0]], [[0.0, 0.0]], [[1e-14, -1e-14]]), "rightmost")
    assert _refused(PiecewiseExpEnvelope([[-0.5, 2.0]], [[0.0, math.nan]], [[-1.0, -1.0]]), "no usable")


def test_root_finder_flags_rows_it_never_brackets() -> None:
    """A row whose value keeps its sign over [1e-10, 1e10] is not ok and
    reads inf (always positive) or 0 (always negative), from the default
    start of 1 and from warm starts on either side of the roots; the rows
    beside it still land on their roots, the ones they get alone from the
    same start."""

    def rows(x):
        d = np.array([1.0 / x[0], -1.0 - x[1], 3.0 - x[2], np.log(0.25 / x[3])])
        slope = np.array([-1.0 / x[0] ** 2, -1.0, -1.0, -1.0 / x[3]])
        return d, slope

    for start in (1.0, np.array([1e9, 1e-9, 2.9, 0.3]), np.array([1e-6, 1e6, 1e6, 1e-6])):
        root, ok, sweeps = _solve_rows(rows, 4, start)
        assert list(ok) == [False, False, True, True]
        assert root[0] == math.inf and root[1] == 0.0
        assert root[2:] == pytest.approx([3.0, 0.25], rel=1e-12)
        assert sweeps < 200
        alone, _, _ = _solve_rows(lambda x: (3.0 - x, -np.ones_like(x)), 1, np.broadcast_to(start, 4)[2])
        assert alone[0] == root[2]


def test_newton_step_leaving_the_bracket_bisects() -> None:
    """atan(6.5 - x) is decreasing but concave left of its root.  From 1
    the Newton steps overshoot and are clipped to doublings up to 8, where
    the value turns negative; the step from 8 lands inside the bracket [4,
    8] at 8 + atan(-1.5) (1 + 1.5^2), and the step from there leaves the
    bracket, so the search bisects [4.806, 8] instead, then steps to the
    root with every later step inside the bracket."""
    seen = []

    def row(x):
        d = np.arctan(6.5 - x)
        seen.append((float(x[0]), float(d[0])))
        return d, -1.0 / (1.0 + (6.5 - x) ** 2)

    root, ok, sweeps = _solve_rows(row, 1)
    probes = [x for x, _ in seen]
    assert probes[:4] == [1.0, 2.0, 4.0, 8.0]
    assert probes[4] == pytest.approx(8.0 + math.atan(-1.5) * (1.0 + 1.5**2), rel=1e-15)
    x4, d4 = seen[4]
    assert x4 + d4 * (1.0 + (6.5 - x4) ** 2) > 8.0
    assert probes[5] == 0.5 * (x4 + 8.0)
    assert all(probes[5] < x < 8.0 for x in probes[6:])
    assert ok[0] and sweeps == len(seen) < 15
    assert root[0] == pytest.approx(6.5, rel=1e-12)


def test_log_sum_exp_matches_scipy() -> None:
    """The package's one log-sum-exp against scipy's along the last axis,
    with -inf coefficients, overflowing entries and results near zero."""
    gen = np.random.default_rng(41)
    cases = [
        gen.normal(3.0, 2.0, 17),
        gen.normal(3.0, 2.0, (50, 20)),
        gen.normal(3.0, 2.0, (6, 9, 4)),
        gen.normal(700.0, 1.0, (30, 20)),
        gen.normal(-700.0, 1.0, (30, 20)),
        gen.normal(1e5, 10.0, (30, 20)),
    ]
    # -inf coefficients, as log(R - s + 1 - delta) has for zero counts
    logc = np.where(gen.uniform(size=(40, 20)) < 0.4, -np.inf, np.log(gen.integers(1, 9, (40, 20))))
    logc[:, 0] = 0.0
    cases.append(logc + gen.uniform(0.5, 3.0, (40, 1)) * gen.normal(1.0, 1.0, (40, 20)))
    for x in cases:
        got = log_sum_exp(x)
        want = logsumexp(x, axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.min(np.abs(want)) > 1.0  # keeps the relative comparison meaningful
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # sums near 1, where ln U and ln V sit near 0: one dominant term at 0
    # plus tiny ones, and log probability vectors; a few ulp of 1 absolute
    tiny = np.full((30, 12), -np.inf)
    tiny[:, 0] = 0.0
    tiny[:, 1:] = gen.uniform(-60.0, -20.0, (30, 11))
    probs = gen.dirichlet(np.ones(15), size=30)
    for x in (tiny, np.log(probs)):
        got = log_sum_exp(x)
        want = logsumexp(x, axis=-1)
        assert np.max(np.abs(want)) < 1e-8
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4 * np.finfo(float).eps)
    rows = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_sum_exp(rows)
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(float(logsumexp(rows[1])), rel=1e-15)


_SHAPES = (1e-10, 1e-3, 1.0, 50.0, 1e6)


def _log_weights(w: np.ndarray) -> np.ndarray:
    """The oracle's ln c: ln of positive weights, -inf for zero ones."""
    return np.where(w > 0, np.log(np.maximum(w, 1)), -np.inf)


def _power_sum_groups() -> list[tuple[np.ndarray, np.ndarray]]:
    """(c, ln t) of one-group cases: integer weights with zero-weight
    columns above the top log time of positive weight, and a group whose
    only positive column (weight 3) sits below two zero-weight ones."""
    log_t = np.linspace(-1.5, 1.5, 12)
    wide = np.array([2, 0, 1, 4, 0, 3, 1, 0, 2, 0, 0, 0], dtype=float)
    lone = np.zeros(12)
    lone[8] = 3.0
    return [(wide, log_t), (lone, log_t)]


def _check_moments(sums: PowerSum, log_s, alpha: np.ndarray) -> None:
    """Mean and variance of ln t against central differences of ``log_s``,
    an oracle ln S: steps 1e-5 and 2e-4 of max(alpha, 1)."""
    mean, var, ln_s = sums.moments(alpha)
    np.testing.assert_allclose(ln_s, log_s(alpha), rtol=1e-14, atol=0.0)
    h = 1e-5 * np.maximum(alpha, 1.0)
    numeric = (log_s(alpha + h) - log_s(alpha - h)) / (2.0 * h)
    np.testing.assert_allclose(mean, numeric, rtol=1e-6, atol=1e-8)
    h = 2e-4 * np.maximum(alpha, 1.0)
    numeric = (log_s(alpha + h) - 2.0 * log_s(alpha) + log_s(alpha - h)) / h**2
    np.testing.assert_allclose(var, numeric, rtol=1e-5, atol=1e-7)
    assert np.all(var >= 0.0)


def test_power_sum_matches_max_shift_log_sum_exp() -> None:
    """The power-sum kernel's ln S against the max-shift log-sum-exp of the
    raw logits ln c + a ln t to 1e-14 relative, and its moments of ln t
    against central differences of that ln S, at shapes 1e-10, 1e-3, 1, 50
    and 1e6: on a group with zero-weight columns above its top log time, on
    a group with one positive column, on stacked rows with different tops
    and zero patterns, and on the scalar-coefficient stack of complete
    samples; with RuntimeWarning as an error throughout.  A stack's moments
    are its rows' lone moments byte for byte."""
    gen = np.random.default_rng(47)
    alpha = np.array(_SHAPES)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c, log_t in _power_sum_groups():
            sums = PowerSum(c, log_t)
            assert sums.top == log_t[c > 0].max()
            log_c = _log_weights(c)
            oracle = lambda a: log_sum_exp(log_c + np.asarray(a)[..., None] * log_t)
            np.testing.assert_allclose(sums.log_sum(alpha), oracle(alpha), rtol=1e-14, atol=0.0)
            assert sums.log_sum(2.0).shape == () and sums.log_sum(alpha[None]).shape == (1, 5)
            _check_moments(sums, oracle, alpha)
        # stacked rows: tops from about -2 to 3, zero-weight columns anywhere
        rows = 40
        log_t = np.sort(gen.normal(0.0, 1.0, (rows, 10)), axis=1) + gen.uniform(-2.5, 1.5, (rows, 1))
        weights = gen.integers(0, 4, (rows, 10)).astype(float)
        weights[np.arange(rows), gen.integers(0, 10, rows)] = 2.0
        stacks = [(PowerSum(weights, log_t), _log_weights(weights)), (PowerSum(1.0, log_t), 0.0)]
        for sums, log_c in stacks:
            assert np.ptp(sums.top) > 3.0
            oracle = lambda a: log_sum_exp(log_c + a[:, None] * log_t)
            for a in _SHAPES:
                shape = np.full(rows, a)
                np.testing.assert_allclose(sums.log_sum(shape), oracle(shape), rtol=1e-14, atol=0.0)
                _check_moments(sums, oracle, shape)
            shape = np.array(_SHAPES * (rows // 5))
            stacked = sums.moments(shape)
            for i in range(rows):
                lone = PowerSum(np.broadcast_to(sums.wgt, log_t.shape)[i], log_t[i]).moments(shape[i])
                assert [x[i] for x in stacked] == [x for x in lone]


def test_power_sums_from_counts_match_log_sum_exp_row_by_row() -> None:
    """Stacked kernels of integer counts against the log-sum-exp of ln c +
    a ln t, 1e-14 relative, at shapes 1e-10 to 1e6: zero-weight columns
    anywhere, and rows whose group runs out before the last epoch, so
    their top is an earlier column than the row's last one and the
    columns after it hold offset 0 and weight 0.  Rows taken from a stack
    and rows gathered from two stacks are the stacks' rows byte for
    byte."""
    gen = np.random.default_rng(48)
    rows, k = 30, 20
    log_t = np.sort(gen.normal(0.0, 1.5, (rows, k)), axis=1)
    counts = gen.integers(0, 3, (rows, k))
    counts[:, 0] = 1
    ends = gen.integers(1, k - 1, rows)
    counts[np.arange(k) >= ends[:, None]] = 0  # row i's group runs out after epoch ends[i]
    sums = PowerSum(counts, log_t)
    last = np.array([np.flatnonzero(c)[-1] for c in counts])
    assert np.all(last < k - 1)
    assert sums.top.tolist() == log_t[np.arange(rows), last].tolist()
    after = np.arange(k) > last[:, None]
    assert np.all(sums.off[after] == 0.0) and np.all(sums.wgt[after] == 0.0)
    assert sums.wgt.tolist() == counts.tolist()
    log_c = _log_weights(counts.astype(float))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a in _SHAPES:
            shape = np.full(rows, a)
            want = log_sum_exp(log_c + shape[:, None] * log_t)
            np.testing.assert_allclose(sums.log_sum(shape), want, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(sums.moments(shape)[2], want, rtol=1e-14, atol=0.0)
    other = PowerSum(1.0, log_t[:4])
    picks = [(sums, 7), (other, 2), (sums, 0), (sums, 7), (other, 0)]
    gathered = PowerSum.gather(picks)
    for i, (stack, r) in enumerate(picks):
        row = stack.take(r)
        for name in ("top", "off", "wgt"):
            assert getattr(gathered, name)[i].tobytes() == getattr(row, name).tobytes()
            assert getattr(row, name).tobytes() == getattr(stack, name)[r].tobytes()
