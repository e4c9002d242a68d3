from __future__ import annotations

import math
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
    RngStream,
    beta_gamma_mean,
    beta_gamma_variance,
    _locate_mode,
    _solve_rows,
    build_static_envelope,
    log_beta_gamma_pdf,
    log_sum_exp,
    sample_beta_gamma,
    splitmix64,
)

from _oracles import sample_hypergeometric, sample_weibull, weibull_inverse_cdf


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


def test_static_envelope_dominates_target() -> None:
    """Tangent hulls of concave log-densities must sit above them everywhere."""
    rng = RngStream(31, 0)
    grid = np.linspace(1e-4, 30.0, 4000)
    for _ in range(30):
        shape = 1.0 + 4.0 * rng.uniform()
        rate = 0.2 + 3.0 * rng.uniform()
        env = build_static_envelope(_gamma_target(shape, rate))
        target_log = (shape - 1.0) * np.log(grid) - rate * grid
        assert np.all(env.log_value(grid) >= target_log - 1e-9)


def test_envelope_mass_bounds_target_mass() -> None:
    shape, rate = 3.0, 2.0
    env = build_static_envelope(_gamma_target(shape, rate))
    # unnormalized target mass: Gamma(shape) / rate**shape
    true_log_mass = math.lgamma(shape) - shape * math.log(rate)
    assert env.log_total_mass() >= true_log_mass
    assert env.log_total_mass() < true_log_mass + 0.5


def test_single_tangent_envelope_samples_exponential() -> None:
    env = PiecewiseExpEnvelope([1.0], [0.0], [-2.0])
    draws = env.sample(4000, RngStream(32, 0))
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
    env = PiecewiseExpEnvelope(x, h, a)
    np.testing.assert_array_equal(env._bx, x)
    z = np.concatenate(([0.0], 0.5 * (x[:-1] + x[1:]), [math.inf]))
    assert np.all(a[:3] > 0.0) and 0.0 < a[3] * (z[4] - z[3]) < 1e-12 and np.all(a[4:] < 0.0)

    def mass_below(q):
        """Unnormalized hull mass on [0, q] for an array ``q``."""
        q = np.asarray(q, dtype=float)[:, None]
        u, v = z[:-1], np.minimum(z[1:], np.maximum(q, z[:-1]))
        seg = np.exp(h + a * (u - x)) * np.expm1(a * (v - u)) / a
        return seg.sum(axis=1)

    total = mass_below([math.inf])[0]
    assert env.log_total_mass() == pytest.approx(math.log(total), rel=1e-12)
    draws = env.sample(20_000, RngStream(36, 0))
    assert np.all(np.isfinite(draws) & (draws >= 0.0))
    assert stats.kstest(draws, lambda q: mass_below(q) / total).pvalue > 1e-3


def test_locate_mode_matches_the_analytic_gamma_mode() -> None:
    """The root finder's mode of a gamma log-density is (shape - 1) / rate."""
    rng = RngStream(38, 0)
    for _ in range(30):
        shape = 1.05 + 40.0 * rng.uniform()
        rate = 10.0 ** (4.0 * rng.uniform() - 2.0)
        mode, at_edge = _locate_mode(_gamma_target(shape, rate))
        assert not at_edge
        assert mode == pytest.approx((shape - 1.0) / rate, rel=1e-9)


def test_adaptive_sampler_boundary_mode() -> None:
    """A log-density decreasing from the support edge (exponential law)
    puts the mode at the edge; the static hull built there samples the law
    exactly under rejection."""
    target = _linear_target(-1.0)
    assert _locate_mode(target) == (1e-8, True)
    env = build_static_envelope(target)
    rng = RngStream(35, 0)
    q = env.sample(30_000, rng)
    accept = np.log(rng.uniform(q.size)) <= target(q)[0] - env.log_value(q)
    draws = q[accept]
    assert draws.size > 10_000
    res = stats.kstest(draws, stats.expon.cdf)
    assert res.pvalue > 1e-3


def test_sampler_refuses_growing_log_density() -> None:
    with pytest.raises(NonIntegrableTargetError):
        build_static_envelope(_linear_target(1.0))


def test_array_built_hull_keeps_only_usable_tangents() -> None:
    """The hull keeps the finite tangents at or above its support edge 0, in
    abscissa order, and refuses tangent sets whose rightmost slope is not
    negative or that leave no usable tangent."""
    x = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    h, dh, _ = _gamma_target(3.0, 2.0)(np.maximum(x, 1e-12))
    want = PiecewiseExpEnvelope(x, h, dh)
    got = PiecewiseExpEnvelope(
        [4.0, -0.1, 1.0, 3.0, 0.5, 2.0, 0.0, 5.0, math.nan],
        [h[4], -1.0, h[2], math.inf, h[1], h[3], h[0], 0.0, 0.0],
        [dh[4], 5.0, dh[2], -1.0, dh[1], dh[3], dh[0], -math.inf, -1.0],
    )
    for attr in ("_bx", "_bh", "_bdh", "_bz", "_cum"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    assert got.log_total_mass() == want.log_total_mass()
    with pytest.raises(NonIntegrableTargetError, match="rightmost"):
        PiecewiseExpEnvelope([1.0, 2.0], [0.0, -1.0], [-1.0, 0.0])
    with pytest.raises(NonIntegrableTargetError, match="no usable"):
        PiecewiseExpEnvelope([-0.5, 2.0], [0.0, math.nan], [-1.0, -1.0])


def test_root_finder_flags_rows_it_never_brackets() -> None:
    """A row whose value keeps its sign over [1e-10, 1e10] is not ok and
    reads inf (always positive) or 0 (always negative); the rows beside it
    still land on their roots, the ones they get alone."""

    def rows(x):
        d = np.array([1.0 / x[0], -1.0 - x[1], 3.0 - x[2], np.log(0.25 / x[3])])
        slope = np.array([-1.0 / x[0] ** 2, -1.0, -1.0, -1.0 / x[3]])
        return d, slope

    root, ok, sweeps = _solve_rows(rows, 4)
    assert list(ok) == [False, False, True, True]
    assert root[0] == math.inf and root[1] == 0.0
    assert root[2:] == pytest.approx([3.0, 0.25], rel=1e-12)
    assert sweeps < 200
    alone, _, _ = _solve_rows(lambda x: (3.0 - x, -np.ones_like(x)), 1)
    assert alone[0] == root[2]


def test_newton_step_leaving_the_bracket_bisects() -> None:
    """atan(6.5 - x) is decreasing but concave left of its root, so from the
    bracket [4, 8] its positive end 4 sends the Newton step to 12.6, past
    the bracket: the search bisects to 6 instead, then steps to the root
    from there, with every later step inside the bracket."""
    seen = []

    def row(x):
        d = np.arctan(6.5 - x)
        seen.append((float(x[0]), float(d[0])))
        return d, -1.0 / (1.0 + (6.5 - x) ** 2)

    root, ok, sweeps = _solve_rows(row, 1)
    assert [x for x, _ in seen[:5]] == [1.0, 2.0, 4.0, 8.0, 6.0]
    start_d = seen[2][1]
    assert 4.0 + start_d * (1.0 + 2.5**2) > 8.0
    assert all(6.0 < x < 8.0 for x, _ in seen[5:])
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
