"""Maximum likelihood fits, observed information, asymptotic and resampling
intervals.

The rates maximize in closed form at ``l1 = k1/U(a)`` and ``l2 = k2/V(a)``,
so the shape is the root of the derivative of the profiled log-likelihood

    p(a) = k ln a - k1 ln U(a) - k2 ln V(a) + (a - 1) sum ln t_j ,

which is unimodal.  The order-restricted fit (``l1 <= l2``) is the free fit
if its rates respect the order, and otherwise the common-rate fit: one rate
``k / (U(a) + V(a))``, its shape maximizing the one-group profile with
weights ``R_j + 1``.  The log-likelihood is jointly concave in
``(a, ln l1, ln l2)`` (power sums are sums of exponentials of linear terms)
and the order is a half-space, so a restricted maximum inside it would be
the free one: a free fit that breaks the order puts it on ``l1 = l2``.

Every maximum likelihood fit in the package is a stack of samples, one per
row, fitted by :func:`_fit_rows`.  Its profile is the package's one concave
power-sum term (``rng._ConcaveTerm``) with ``c0 = k``, ``c1 = -sum ln t``
and ``c2_g = k_g``: the shape marginal of a posterior under a flat rate
prior and a gamma(1, 0) shape prior, plus ``sum ln t``.  Its slope and
curvature go to the package's one root finder (``rng._solve_rows``), whose
rows take safeguarded Newton steps in lockstep from a start, which also
bracket them, until each step or bracket is within 1e-10 relative, so each
row's shape is the one it would get alone from that start; each group's log
rate is then read from its power-sum kernel, and the maximized
log-likelihood ``k ln a + sum_g k_g ln l_g + (a - 1) sum ln t_j - k`` is
formed from the log rates, exact at the returned shape, where each rate term
``l_g S_g(a)`` is ``k_g``: no power sum is evaluated after the search.  Only
:func:`_fit_design` knows the order; its common-rate refits start at each
row's free shape.  A single fit is a stack of one, started at 1.  The
bootstrap refits all its resamples, drawn by the batched tau = t^alpha
simulator (``jpc.simulate_jpc_batch``), in one stack started at the fitted
shape, where a reference-design stack needs 7 sweeps rather than 9 from 1: a
500-resample percentile interval takes 4.5-5.1 ms on a reference-design
sample and 6.3-7.8 ms on the bundled fiber sample (timeit minimum, Python
3.11 and numpy 2.4 on one core of a shared 2-core machine).  ``gof``'s
complete-sample fits, the Monte Carlo KS refits among them, are one-group
stacks.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from statistics import NormalDist
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, NoMleError, UnstableBootstrapError
from .errors import _check_count, _check_level
from .jpc import (
    CensoringScheme,
    JointParams,
    JpcSample,
    _groups,
    simulate_jpc_batch,
)
from .rng import _MAX_SWEEPS, PowerSum, RngStream, _ConcaveTerm, _solve_rows


@dataclass(frozen=True)
class MleFit:
    """A fitted parameter triple with diagnostics of how it was obtained.

    ``boundary`` marks an ordered fit refitted with the common rate.
    ``iterations`` counts the profile-score sweeps of the shape search, on a
    boundary fit those of the free and the common-rate search together.
    ``converged`` means each search's Newton step or bracket fell below
    1e-10 relative before the 200-sweep cap.
    """

    params: JointParams
    loglik: float
    ordered: bool
    boundary: bool
    iterations: int
    converged: bool


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        _check_level(self.level)
        if not self.lower <= self.upper:
            raise ValueError("interval endpoints out of order")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


_NO_SHAPE = "profile derivative keeps its sign; no shape maximizer in [1e-10, 1e10]"


def _require_both_groups(sample: JpcSample) -> None:
    if sample.k1 == 0 or sample.k2 == 0:
        raise NoMleError(
            "all observed failures come from one group; the other rate has no MLE"
        )


def _fit_rows(groups, sum_log_t, start=1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Maximum likelihood fits of stacked samples, one per row: ``groups``
    lists (power-sum kernel, failure count) pairs, a count per row or one
    for all, and ``sum_log_t`` holds each row's sum of log times.  The
    shape searches start at ``start``.

    Returns ``(alpha, log_rates, loglik, ok, sweeps)``: the
    profile-maximizing shapes; the log rates ``lr_g = ln(k_g /
    S_g(alpha))``, one row per group; the maximized log-likelihoods ``k ln
    alpha + sum_g k_g lr_g + (alpha - 1) sum ln t - k``, exact as each
    ``l_g S_g(alpha)`` is ``k_g`` there; the rows with a shape in [1e-10,
    1e10] (the other rows' values mean nothing); and the sweep count.
    """
    k = sum(kg for _, kg in groups)
    profile = _ConcaveTerm(k, -sum_log_t, groups)
    alpha, ok, sweeps = _solve_rows(profile.deriv, len(sum_log_t), start)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows without a shape hold alpha = inf or 0
        log_rates = np.stack([np.log(kg) - sums.moments(alpha)[2] for sums, kg in groups])
        loglik = k * np.log(alpha) + sum(kg * lr for (_, kg), lr in zip(groups, log_rates))
        loglik += (alpha - 1.0) * sum_log_t - k
    return alpha, log_rates, loglik, ok, sweeps


def _pooled(scheme: CensoringScheme, log_t) -> tuple[PowerSum, int]:
    """The common-rate model's one group: the kernel of ``U + V``, whose
    weights of ``t_j^a`` are ``R_j + 1``, and its failure count ``k``."""
    return PowerSum(np.asarray(scheme.R, dtype=float) + 1.0, log_t), scheme.k


def _fit_design(scheme: CensoringScheme, groups, lnt, ordered: bool, start=1.0) -> list[tuple]:
    """:func:`_fit_rows` on stacked outcomes of one design, one per row of
    ``lnt``, with their two ``groups`` (``jpc._groups``), the free search
    started at ``start``.  Returns the free fit and, with ``ordered``, the
    ordered fit after it, each ``(alpha, rates, loglik, boundary, ok, sweeps)``: the
    ordered fit refits its ``boundary`` rows, which broke l1 <= l2, with the
    common rate from their free shapes; ``sweeps`` lists each search's count."""
    alpha, log_rates, loglik, ok, sweeps = _fit_rows(groups, lnt.sum(axis=1), start)
    sweeps = [sweeps]
    fits = [(alpha, np.exp(log_rates), loglik, np.zeros_like(ok), ok, sweeps)]
    if ordered:
        boundary = ok & (log_rates[0] >= log_rates[1])
        alpha, log_rates, loglik, ok, sweeps = (x.copy() for x in (alpha, log_rates, loglik, ok, sweeps))
        if boundary.any():
            rows = lnt[boundary]
            fit = _fit_rows([_pooled(scheme, rows)], rows.sum(axis=1), alpha[boundary])
            alpha[boundary], log_common, loglik[boundary], ok[boundary], more = fit
            log_rates[:, boundary] = log_common[0]
            sweeps.append(more)
        fits.append((alpha, np.exp(log_rates), loglik, boundary, ok, sweeps))
    return fits


def _fit(sample: JpcSample, ordered: bool) -> MleFit:
    """Fit of one sample as a stack of one."""
    _require_both_groups(sample)
    fits = _fit_design(sample.scheme, sample.groups, sample.log_t[None, :], ordered)
    alpha, rates, loglik, boundary, ok, sweeps = fits[-1]
    if not ok[0]:
        raise ConvergenceError(_NO_SHAPE)
    params = JointParams(float(alpha[0]), float(rates[0, 0]), float(rates[1, 0]))
    converged = max(sweeps) < _MAX_SWEEPS
    return MleFit(params, float(loglik[0]), ordered, bool(boundary[0]), sum(sweeps), converged)


def fit_mle(sample: JpcSample) -> MleFit:
    """Unrestricted maximum likelihood fit of (alpha, lambda1, lambda2)."""
    return _fit(sample, ordered=False)


def fit_mle_ordered(sample: JpcSample) -> MleFit:
    """Maximum likelihood under the restriction lambda1 <= lambda2: the
    unrestricted fit if its rates respect the order, otherwise the
    common-rate fit (see the module docstring for why)."""
    return _fit(sample, ordered=True)


def asymptotic_ci(
    sample: JpcSample, params: JointParams, boundary: bool = False, level: float = 0.9
) -> tuple[IntervalEstimate, IntervalEstimate, IntervalEstimate]:
    """Normal-theory intervals of the model that was fitted (the common-rate
    one on a ``boundary`` fit, whose rate is the interval of both
    ``lambda1`` and ``lambda2``); ``params`` and ``boundary`` are those of a
    fit by :func:`fit_mle` or :func:`fit_mle_ordered`.  Group g (free:
    weights ``c1``, ``c2``, counts ``k1``, ``k2``; common rate: weights ``R
    + 1``, count ``k``) adds ``k_g ln l_g - l_g S_g(a)``, ``S_g = sum c_g
    t^a``, to the log-likelihood.  At the fit ``l_g = k_g/S_g``, so with
    ``E_g``, ``Var_g`` the mean and variance of ``ln t`` under the weights
    ``c_g t^a``, inverting the information by the Schur complement of its
    rate block gives ``var(a) = 1/(k/a^2 + sum k_g Var_g)``, the inverse
    curvature of the profile, and ``var(l_g) = l_g^2 (1/k_g + E_g^2
    var(a))``, positive and finite for every shape in [1e-10, 1e10]
    (``fisher_info`` in ``tests/_oracles.py`` is the reference).  The
    sample is a stack of one of :func:`_asymptotic`, which a study calls
    once per chunk and maximum likelihood method.
    """
    _check_level(level)
    fit, at_boundary = np.array(astuple(params))[:, None], np.array([bool(boundary)])
    ends = _asymptotic(sample.scheme, sample.groups, sample.log_t[None], fit, at_boundary, level)
    return tuple(IntervalEstimate(float(lo), float(hi), level) for lo, hi in ends[..., 0])


def _asymptotic(scheme: CensoringScheme, groups, log_t, fits, boundary, level: float) -> np.ndarray:
    """:func:`asymptotic_ci` of a stack's rows, as ``(3, 2, rows)`` interval
    ends: its (kernel, counts) ``groups``, the rows' log times (read only on
    ``boundary`` rows) and their fitted ``(alpha, lambda1, lambda2)``."""
    var_a, rel = np.empty_like(fits[0]), np.empty((2, len(boundary)))
    for rows, pooled in ((~boundary, False), (boundary, True)):
        if rows.any():
            grp = [_pooled(scheme, log_t[rows])] if pooled else [(g.take(rows), n[rows]) for g, n in groups]
            moments = [(kg, *sums.moments(fits[0, rows])[:2]) for sums, kg in grp]
            var_a[rows] = 1.0 / (scheme.k / fits[0, rows] ** 2 + sum(kg * v for kg, _, v in moments))
            rel[:, rows] = [np.sqrt(1.0 / kg + m * m * var_a[rows]) for kg, m, _ in (moments[0], moments[-1])]
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = np.vstack((z * np.sqrt(var_a), z * fits[1:] * rel))
    return np.stack((fits - half, fits + half), axis=1)


class BootstrapResult(NamedTuple):
    """Percentile intervals plus the number of discarded resamples."""

    alpha: IntervalEstimate
    lambda1: IntervalEstimate
    lambda2: IntervalEstimate
    skipped: int


def bootstrap_ci(
    sample: JpcSample,
    level: float = 0.9,
    n_boot: int = 500,
    ordered: bool = False,
    rng: Optional[RngStream] = None,
) -> BootstrapResult:
    """Parametric bootstrap percentile intervals.

    All ``n_boot`` resamples are simulated under the fitted parameters in one
    call of the batched tau-scale simulator (``simulate_jpc_batch``) and
    refitted in one vectorized pass, each shape search started at the fitted
    shape.  Resamples whose failures all come from a single group admit no
    fit and are dropped; more than ``n_boot // 2`` such drops is treated as
    a failure of the procedure rather than silently reported.
    """
    if rng is None:
        raise ValueError("an explicit RngStream is required")
    _check_level(level)
    _check_count("n_boot", n_boot, 1)
    return _bootstrap(sample.scheme, _fit(sample, ordered).params, level, n_boot, ordered, rng)


def _bootstrap(
    scheme: CensoringScheme, params: JointParams, level: float, n_boot: int, ordered: bool, rng: RngStream
) -> BootstrapResult:
    """:func:`bootstrap_ci` given the fit ``params`` of a sample of design
    ``scheme``, as a study has it from its stacked fit."""
    lnt, delta, s = simulate_jpc_batch(scheme, astuple(params), rng, n_boot)
    k1 = delta.sum(axis=1)
    both = (k1 > 0) & (k1 < scheme.k)
    skipped = n_boot - int(both.sum())
    if skipped > n_boot // 2:
        raise UnstableBootstrapError(f"{skipped} of {n_boot} resamples had all failures in one group")
    lnt = lnt[both]
    groups = _groups(scheme, lnt, delta[both], s[both])
    alpha, rates, _, _, ok, _ = _fit_design(scheme, groups, lnt, ordered, start=params.alpha)[-1]
    skipped += int((~ok).sum())
    if skipped > n_boot // 2:
        raise UnstableBootstrapError(f"{skipped} of {n_boot} resamples failed to produce a fit")
    ends = _percentiles(np.vstack((alpha, rates))[:, ok], level)
    return BootstrapResult(*(IntervalEstimate(float(lo), float(hi), level) for lo, hi in ends), skipped)


def _percentiles(est: np.ndarray, level: float) -> np.ndarray:
    """Each row's ``(1 -+ level)/2`` quantiles, np.quantile's bit for bit."""
    est = np.sort(est, axis=1)
    pos = (est.shape[1] - 1) * np.array([0.5 * (1.0 - level), 0.5 * (1.0 + level)])
    i = np.floor(pos).astype(np.intp)
    t, a, b = pos - i, est[:, i], est[:, np.minimum(i + 1, est.shape[1] - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t)
