"""Acceptance gate: one test per release criterion.

Each function checks one headline behaviour of the package at its stated
tolerance and fails with a message listing every violated bound, so a single
``pytest tests/test_acceptance.py -v`` run gives one pass/fail line per
criterion.  The two simulation-study checks (criteria 5 and 6) dominate the
runtime; everything else finishes in seconds.
"""

from __future__ import annotations

import time

import numpy as np

from _oracles import (
    beta_gamma_mean,
    beta_gamma_variance,
    fd_hessian,
    fisher_info,
    gamma_hpd,
    jpc_alpha_hpd_oracle,
    jpc_posterior_oracle,
    jpc_posterior_oracle_3d,
    lambda_hats,
    log_likelihood,
    log_marginal_shape,
    log_u_stat,
    log_v_stat,
    profile_loglik,
    random_jpc_sample,
    sample_beta_gamma,
    swap_groups,
    u_stat,
    v_stat,
)
from jointweibull.bayes import (
    PriorSpec,
    ShapeHyper,
    bayes_estimate,
    draw_posterior,
    hpd_interval,
    weighted_hpd,
)
from jointweibull.gof import (
    fit_common_shape,
    fit_weibull_complete,
    ks_distance,
    lr_test_common_shape,
)
from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    simulate_jpc,
)
from jointweibull.mle import fit_mle
from jointweibull.rng import BetaGammaHyper, RngStream
from jointweibull.study import StudyConfig, run_interval_study, run_point_study

_MEAN_A = lambda a, l1, l2: a  # noqa: E731
_MEAN_L1 = lambda a, l1, l2: l1  # noqa: E731
_MEAN_L2 = lambda a, l1, l2: l2  # noqa: E731

_STUDY_SCHEME = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
_STUDY_TRUTH = JointParams(1.0, 0.5, 1.0)


def _close(failures: list[str], label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        failures.append(f"{label}: got {got:.6g}, want {want:g} +/- {tol:g}")


def _within_rel(failures: list[str], label: str, got: float, want: float, rel: float) -> None:
    if not abs(got - want) <= rel * abs(want):
        failures.append(f"{label}: got {got:.6g}, want {want:g} +/- {rel:.0%}")


def _in_band(failures: list[str], label: str, got: float, lo: float, hi: float) -> None:
    if not lo <= got <= hi:
        failures.append(f"{label}: got {got:.6g}, want within [{lo:g}, {hi:g}]")


def _under(failures: list[str], label: str, seconds: float, limit: float) -> None:
    if seconds >= limit:
        failures.append(f"{label}: took {seconds:.1f}s, limit {limit:g}s")


def test_criterion_1_deterministic_golden_fits(ds1, ds2, fiber) -> None:
    failures: list[str] = []

    t0 = time.perf_counter()
    f1 = fit_weibull_complete(ds1)
    _under(failures, "data-set-1 fit", time.perf_counter() - t0, 1.0)
    _close(failures, "data-set-1 alpha", f1.alpha, 3.843, 5e-3)
    _close(failures, "data-set-1 lambda", f1.lam, 0.088, 5e-3)

    t0 = time.perf_counter()
    f2 = fit_weibull_complete(ds2)
    _under(failures, "data-set-2 fit", time.perf_counter() - t0, 1.0)
    _close(failures, "data-set-2 alpha", f2.alpha, 3.909, 5e-3)
    _close(failures, "data-set-2 lambda", f2.lam, 0.025, 5e-3)

    t0 = time.perf_counter()
    common = fit_common_shape(ds1, ds2)
    _under(failures, "common-shape fit", time.perf_counter() - t0, 1.0)
    _close(failures, "common alpha", common.alpha, 3.876, 5e-3)
    _close(failures, "common lambda1", common.lam1, 0.0861, 5e-3)
    _close(failures, "common lambda2", common.lam2, 0.026, 5e-3)

    t0 = time.perf_counter()
    joint = fit_mle(fiber)
    _under(failures, "joint-sample fit", time.perf_counter() - t0, 1.0)
    _close(failures, "joint alpha", joint.params.alpha, 4.495, 5e-3)
    _close(failures, "joint lambda1", joint.params.lambda1, 0.071, 5e-3)
    _close(failures, "joint lambda2", joint.params.lambda2, 0.016, 5e-3)

    assert not failures, "; ".join(failures)


def test_criterion_2_fit_distances_and_likelihood_ratio(ds1, ds2) -> None:
    failures: list[str] = []
    f1 = fit_weibull_complete(ds1)
    f2 = fit_weibull_complete(ds2)
    _close(failures, "data-set-1 KS distance", ks_distance(ds1, f1.alpha, f1.lam), 0.046, 2e-3)
    _close(failures, "data-set-2 KS distance", ks_distance(ds2, f2.alpha, f2.lam), 0.079, 2e-3)
    _, pvalue = lr_test_common_shape(ds1, ds2)
    _close(failures, "equal-shape LR p-value", pvalue, 0.895, 0.05)
    assert not failures, "; ".join(failures)


def test_criterion_3_joint_sample_bayes_noninformative(fiber) -> None:
    """Five seeded 10k-draw runs against the quadrature means and alpha HPD.

    The targets come from direct numerical integration of the stated
    posterior (``tests/_oracles.py``): means near (2.5714, 0.12820,
    0.032259) and a 90% alpha HPD near (1.6956, 3.4259).  The paper reports
    (3.896, 0.098, 0.028) with an alpha HPD of (3.472, 4.338) for this
    sample; no prior of this family gives that triple.  For gamma shape
    priors with flat rates and shape a in {0, 1, 2, 4, 8, 16}, the rate b
    that matches the alpha mean 3.896 leaves lambda1 10.4-11.2% and
    lambda2 24.1-24.9% low.  The paper's abstract does not say which prior
    or data produced its numbers.
    """
    prior = PriorSpec(BetaGammaHyper(0.0, 0.0, 0.0, 0.0), ShapeHyper(0.0, 4.0))
    target = jpc_posterior_oracle(fiber, prior.bg, prior.shape)
    band_lo, band_hi = jpc_alpha_hpd_oracle(fiber, prior.bg, prior.shape, 0.9)
    failures: list[str] = []
    t0 = time.perf_counter()
    for seed in range(1, 6):
        post = draw_posterior(fiber, prior, 10_000, RngStream(seed))
        means = tuple(bayes_estimate(post, h) for h in (_MEAN_A, _MEAN_L1, _MEAN_L2))
        for name, got, want in zip(("alpha", "lambda1", "lambda2"), means, target):
            _within_rel(failures, f"seed {seed} mean {name}", got, want, 0.02)
        hpd = hpd_interval(post, _MEAN_A, 0.9)
        if hpd.upper < band_lo or hpd.lower > band_hi:
            failures.append(
                f"seed {seed} alpha HPD ({hpd.lower:.4f}, {hpd.upper:.4f}) "
                f"does not overlap ({band_lo:.4f}, {band_hi:.4f})"
            )
        for side, got, want in (("lower", hpd.lower, band_lo), ("upper", hpd.upper, band_hi)):
            _close(failures, f"seed {seed} alpha HPD {side} endpoint", got, want, 0.1)
    _under(failures, "five-seed posterior run", time.perf_counter() - t0, 30.0)
    assert not failures, "; ".join(failures)


def test_criterion_4_joint_sample_bayes_order_restricted(fiber) -> None:
    """Order-restricted posterior when one population is known to live
    longer: the 10 mm fibres (group 2 of the bundled sample) are taken to
    fail at the lower rate.

    The package restricts lambda1 < lambda2, so the groups are swapped to
    state that order.  The targets come from quadrature of the restricted
    posterior.  The paper's triple (3.728, 0.088, 0.022) puts the 20 mm
    fibres at the higher rate too, but no gamma shape prior with flat rates
    reproduces it: for shape a in {0, 1, 2, 4, 8, 16}, once the alpha mean
    matches 3.728 the 20 mm rate sits 4.1-5.0% above 0.088.
    """
    prior = PriorSpec(BetaGammaHyper(0.0, 0.0, 0.0, 0.0), ShapeHyper(0.0, 4.0), ordered=True)
    swapped = swap_groups(fiber)
    target = jpc_posterior_oracle(swapped, prior.bg, prior.shape, ordered=True)
    post = draw_posterior(swapped, prior, 10_000, RngStream(1))
    means = tuple(bayes_estimate(post, h) for h in (_MEAN_A, _MEAN_L1, _MEAN_L2))
    failures: list[str] = []
    for name, got, want in zip(("alpha", "lambda1", "lambda2"), means, target):
        _within_rel(failures, f"restricted mean {name}", got, want, 0.02)
    if post.low_ess:
        failures.append(f"effective sample size {post.ess:.1f} of {post.n_draws}")
    assert not failures, "; ".join(failures)


def test_criterion_5_point_study_bands() -> None:
    t0 = time.perf_counter()
    config = StudyConfig(_STUDY_SCHEME, _STUDY_TRUTH, 2000, ("mle", "bayes-ip"))
    report = run_point_study(config)
    elapsed = time.perf_counter() - t0
    failures: list[str] = []
    alpha_mle = report.cell("alpha", "mle")
    _in_band(failures, "MLE AE(alpha)", alpha_mle.ae, 1.08, 1.12)
    _in_band(failures, "MLE MSE(alpha)", alpha_mle.mse, 0.05, 0.08)
    mse_mle = report.cell("lambda1", "mle").mse
    mse_ip = report.cell("lambda1", "bayes-ip").mse
    if not mse_ip < mse_mle:
        failures.append(
            f"informative-prior MSE(lambda1) {mse_ip:.6g} not below MLE {mse_mle:.6g}"
        )
    _under(failures, "2000-replication point study", elapsed, 300.0)
    assert not failures, "; ".join(failures)


def test_criterion_6_interval_coverage_bands() -> None:
    t0 = time.perf_counter()
    config = StudyConfig(_STUDY_SCHEME, _STUDY_TRUTH, 500, ("bayes-ip", "bootstrap"))
    report = run_interval_study(config)
    elapsed = time.perf_counter() - t0
    failures: list[str] = []
    _in_band(failures, "90% HPD coverage of lambda1", report.cell("lambda1", "bayes-ip").cp, 0.86, 0.94)
    _in_band(failures, "bootstrap coverage of alpha", report.cell("alpha", "bootstrap").cp, 0.78, 0.87)
    _under(failures, "500-replication interval study", elapsed, 1200.0)
    assert not failures, "; ".join(failures)


def _restricted_profile(sample, alpha: float) -> float:
    l1, l2 = lambda_hats(sample, alpha)
    if l1 > l2:
        l1 = l2 = sample.scheme.k / (u_stat(sample, alpha) + v_stat(sample, alpha))
    return log_likelihood(sample, JointParams(alpha, l1, l2))


def test_criterion_7_property_suites(fiber) -> None:
    failures: list[str] = []

    def timed(label: str, item) -> None:
        t0 = time.perf_counter()
        item()
        _under(failures, label, time.perf_counter() - t0, 60.0)

    def profiles_unimodal() -> None:
        rng = RngStream(2024)
        grid = np.geomspace(0.05, 40.0, 240)
        checked = 0
        while checked < 100:
            sample = random_jpc_sample(rng)
            if sample is None:
                continue
            checked += 1
            for tag, prof in (
                ("free", lambda a: profile_loglik(sample, a)),
                ("restricted", lambda a: _restricted_profile(sample, a)),
            ):
                vals = np.array([prof(a) for a in grid])
                tol = 1e-9 * max(1.0, np.max(np.abs(vals)))
                decreased = False
                for step in np.diff(vals):
                    if step < -tol:
                        decreased = True
                    elif decreased and step > tol:
                        failures.append(f"{tag} profile of sample {checked} rises after falling")
                        break

    def proposal_branches_log_concave() -> None:
        # every rate prior gets a proposal marginal that is one branch: the
        # logs of both power sums weighted by a0 + k, split in the ratio of
        # the group shapes (for the flat prior the weights are the failure
        # counts).  The branch gets one tangent envelope, so it has to be
        # concave
        informative = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0))
        flat = PriorSpec(BetaGammaHyper(0.0, 0.0, 0.0, 0.0), ShapeHyper(0.0, 4.0))
        grid = np.linspace(1.5, 6.0, 901)
        k, k1, k2 = fiber.scheme.k, fiber.k1, fiber.k2
        ln_u = log_u_stat(fiber, grid)
        ln_v = log_v_stat(fiber, grid)

        def lead(prior):
            shape = prior.shape
            return (k + shape.a - 1.0) * np.log(grid) - (shape.b - fiber.sum_log_t) * grid

        bg = informative.bg
        s1, s2 = bg.a1 + k1, bg.a2 + k2
        total = bg.a0 + k
        branches = {
            "informative": lead(informative)
            - total * s1 / (s1 + s2) * np.log(bg.b0 + np.exp(ln_u))
            - total * s2 / (s1 + s2) * np.log(bg.b0 + np.exp(ln_v)),
            "flat": lead(flat) - k1 * ln_u - k2 * ln_v,
        }
        for name, vals in branches.items():
            second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
            tol = 1e-8 * np.max(np.abs(vals))
            if np.any(second > tol):
                i = int(np.argmax(second))
                failures.append(
                    f"log shape-proposal branch {name} is not concave on the joint sample: "
                    f"second difference +{second[i]:.2e} at alpha={grid[i + 1]:.3f}"
                )
        for name, prior in (("informative", informative), ("flat", flat)):
            marginal = np.array([log_marginal_shape(fiber, prior, a) for a in grid])
            if not np.allclose(marginal, branches[name], rtol=1e-10, atol=0.0):
                failures.append(f"{name}-prior log shape-proposal marginal is not its one branch")

    def information_matches_finite_differences() -> None:
        rng = RngStream(77)
        checked = 0
        while checked < 100:
            sample = random_jpc_sample(rng)
            if sample is None:
                continue
            checked += 1
            params = JointParams(
                0.8 + 1.5 * rng.uniform(), 0.3 + rng.uniform(), 0.3 + rng.uniform()
            )
            analytic = np.asarray(fisher_info(sample, params).entries)
            point = np.array([params.alpha, params.lambda1, params.lambda2])
            numeric = -fd_hessian(lambda p: log_likelihood(sample, JointParams(*p)), point)
            rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
            if rel > 1e-5:
                failures.append(f"information matrix off by {rel:.2e} relative on sample {checked}")

    def beta_gamma_moments() -> None:
        for hyper in (BetaGammaHyper(3.0, 1.0, 2.0, 4.0), BetaGammaHyper(1.5, 1.0, 2.0, 4.0)):
            draws = sample_beta_gamma(hyper, RngStream(5), size=100_000)
            means = beta_gamma_mean(hyper)
            variances = beta_gamma_variance(hyper)
            for which, got, want, var in zip(("l1", "l2"), draws, means, variances):
                dev = abs(got.mean() - want) / np.sqrt(var / got.size)
                if dev > 4.0:
                    failures.append(f"{hyper} {which} sample mean off by {dev:.1f} s.e.")

    def importance_sampling_vs_quadrature() -> None:
        scheme = CensoringScheme(5, 4, 4, (1, 1, 2, 1))
        sample = simulate_jpc(scheme, JointParams(1.5, 0.6, 1.1), RngStream(7))
        prior = PriorSpec(BetaGammaHyper(3.0, 1.0, 2.0, 4.0), ShapeHyper(2.0, 1.0))
        oracle = jpc_posterior_oracle_3d(sample, prior.bg, prior.shape)
        post = draw_posterior(sample, prior, 200_000, RngStream(43))
        means = tuple(bayes_estimate(post, h) for h in (_MEAN_A, _MEAN_L1, _MEAN_L2))
        for name, got, want in zip(("alpha", "lambda1", "lambda2"), means, oracle):
            _within_rel(failures, f"weighted mean {name} vs quadrature", got, want, 0.01)

    def hpd_vs_analytic_gamma() -> None:
        shape, rate = 3.0, 2.0
        draws = RngStream(31).gamma(shape, rate, size=200_000)
        est = weighted_hpd(draws, np.full(draws.size, 1.0 / draws.size), 0.9)
        lo, hi = gamma_hpd(shape, rate, 0.9)
        for side, got, want in (("lower", est.lower, lo), ("upper", est.upper, hi)):
            if abs(got - want) > 0.01 * (hi - lo):
                failures.append(f"gamma HPD {side} endpoint off: {got:.4f} vs {want:.4f}")

    def accounting_identity() -> None:
        rng = RngStream(9001)
        scheme = CensoringScheme(6, 5, 5, (2, 0, 1, 0, 3))
        params = JointParams(1.2, 0.7, 1.0)
        for i in range(10_000):
            sample = simulate_jpc(scheme, params, rng.substream(i))
            if abs(u_stat(sample, 0.0) - scheme.m) > 1e-9 or abs(v_stat(sample, 0.0) - scheme.n) > 1e-9:
                failures.append(f"power-sum accounting broken on replication {i}")
                break

    timed("profile unimodality sweep", profiles_unimodal)
    timed("proposal log-concavity probe", proposal_branches_log_concave)
    timed("information-matrix sweep", information_matches_finite_differences)
    timed("rate-prior moment check", beta_gamma_moments)
    timed("importance sampling vs quadrature", importance_sampling_vs_quadrature)
    timed("HPD vs analytic gamma", hpd_vs_analytic_gamma)
    timed("accounting identity sweep", accounting_identity)
    assert not failures, "; ".join(failures)


def test_criterion_8_full_scale_runs_stay_configurable() -> None:
    # Full 10,000-replication reproductions are deliberately not executed
    # here; the scaled studies in criteria 5 and 6 stand in for them.  The
    # configuration itself must construct cleanly at that scale.
    config = StudyConfig(_STUDY_SCHEME, _STUDY_TRUTH, 10_000, ("mle", "bayes-nip", "bayes-ip"))
    assert config.replications == 10_000
