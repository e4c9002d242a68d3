"""Maximum likelihood fits, observed information, and resampling intervals.

The rates maximize in closed form at ``l1 = k1/U(a)`` and ``l2 = k2/V(a)``,
so the shape is the root of the derivative of the profiled log-likelihood

    p(a) = k ln a - k1 ln U(a) - k2 ln V(a) + (a - 1) sum ln t_j ,

which is unimodal.  The order-restricted fit (``l1 <= l2``) keeps the
unrestricted rates wherever they already respect the order and otherwise
pools both groups onto the common rate ``k / (U(a) + V(a))``.

Every shape fit is a stack of samples, one per row, handed to the
package's one root finder (``rng._bisect_rows``): the rows are bracketed
and bisected in lockstep until each bracket is within 1e-10 relative, and
each row's root is the one it would get alone.  A single fit is a stack of
one; the bootstrap refits all its resamples, drawn by the batched
tau = t^alpha simulator (``jpc.simulate_jpc_batch``), in one stack, which
keeps a 500-resample percentile interval at a few tens of milliseconds for
typical designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    NoMleError,
    SingularInformationError,
    UnstableBootstrapError,
)
from .jpc import (
    JointParams,
    JpcSample,
    log_likelihood,
    log_u_stat,
    log_v_stat,
    simulate_jpc_batch,
)
from .rng import _MAX_SWEEPS, RngStream, _bisect_rows, _softmax_mean, log_sum_exp


@dataclass(frozen=True)
class MleFit:
    """A fitted parameter triple with diagnostics of how it was obtained."""

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
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly between 0 and 1")
        if not self.lower <= self.upper:
            raise ValueError("interval endpoints out of order")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class InfoMatrix:
    """Observed information in the order (alpha, lambda1, lambda2)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (3, 3):
            raise ValueError("information matrix must be 3x3")
        object.__setattr__(self, "entries", e)


def _require_both_groups(sample: JpcSample) -> None:
    if sample.k1 == 0 or sample.k2 == 0:
        raise NoMleError(
            "all observed failures come from one group; the other rate has no MLE"
        )


def lambda_hats(sample: JpcSample, alpha: float) -> tuple[float, float]:
    """Closed-form rate maximizers k1/U(alpha), k2/V(alpha)."""
    _require_both_groups(sample)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    l1 = math.exp(math.log(sample.k1) - float(log_u_stat(sample, alpha)))
    l2 = math.exp(math.log(sample.k2) - float(log_v_stat(sample, alpha)))
    return l1, l2


def profile_loglik(sample: JpcSample, alpha: float) -> float:
    """Profiled shape criterion p(alpha) (rates maximized out, constants
    dropped)."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    k = sample.scheme.k
    val = k * math.log(alpha) + (alpha - 1.0) * sample.sum_log_t
    val -= sample.k1 * float(log_u_stat(sample, alpha))
    val -= sample.k2 * float(log_v_stat(sample, alpha))
    return float(val)


def _order_respected(sample: JpcSample, alpha: float) -> bool:
    # k1/U < k2/V, compared in the log domain
    lhs = math.log(sample.k1) - float(log_u_stat(sample, alpha))
    rhs = math.log(sample.k2) - float(log_v_stat(sample, alpha))
    return lhs < rhs


def _fit_alpha_batch(
    lnt: np.ndarray,
    logc1: np.ndarray,
    k1,
    logc2: Optional[np.ndarray] = None,
    k2=0.0,
    log_pooled: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Profile-maximizing shapes of stacked samples; returns the shapes, the
    rows that have one in [1e-10, 1e10], and the sweep count.

    Row i holds log times ``lnt[i]`` and log power-sum coefficients
    ``logc1[i]``, ``logc2[i]`` (``-inf`` for a zero coefficient) with failure
    counts ``k1``, ``k2`` (per-row arrays or scalars).  Without ``logc2`` the
    stack is of one group only, as complete samples are (``logc1 = 0``,
    ``k1 = n``).  With ``log_pooled`` the fit is order-restricted: rows whose
    rates k1/U, k2/V break the order take the derivative of the pooled
    profile instead.
    """
    k = k1 + k2
    slt = lnt.sum(axis=1)
    if log_pooled is not None:
        log_k1 = np.log(k1)
        log_k2 = np.log(k2)

    def deriv(alpha: np.ndarray) -> np.ndarray:
        a = alpha[:, None]
        m1, ln_u = _softmax_mean(logc1 + a * lnt, lnt)
        d = k / alpha + slt - k1 * m1
        if logc2 is None:
            return d
        m2, ln_v = _softmax_mean(logc2 + a * lnt, lnt)
        d = d - k2 * m2
        if log_pooled is not None:
            violated = (log_k1 - ln_u) >= (log_k2 - ln_v)
            if violated.any():
                mp, _ = _softmax_mean(log_pooled + a * lnt, lnt)
                d = np.where(violated, k / alpha + slt - k * mp, d)
        return d

    return _bisect_rows(deriv, lnt.shape[0])


def _fit_one(sample: JpcSample, log_pooled: Optional[np.ndarray] = None) -> tuple[float, int, bool]:
    """Shape fit of one sample as a stack of one: (alpha, sweeps, converged)."""
    alpha, ok, sweeps = _fit_alpha_batch(
        sample.log_t[None, :],
        sample.log_coef1[None, :],
        sample.k1,
        sample.log_coef2[None, :],
        sample.k2,
        log_pooled,
    )
    if not ok[0]:
        raise ConvergenceError("profile derivative keeps its sign; no shape maximizer in [1e-10, 1e10]")
    return float(alpha[0]), sweeps, sweeps < _MAX_SWEEPS


def fit_mle(sample: JpcSample) -> MleFit:
    """Unrestricted maximum likelihood fit of (alpha, lambda1, lambda2)."""
    _require_both_groups(sample)
    alpha, iters, conv = _fit_one(sample)
    l1, l2 = lambda_hats(sample, alpha)
    params = JointParams(alpha, l1, l2)
    return MleFit(
        params=params,
        loglik=log_likelihood(sample, params),
        ordered=False,
        boundary=False,
        iterations=iters,
        converged=conv,
    )


def fit_mle_ordered(sample: JpcSample) -> MleFit:
    """Maximum likelihood under the restriction lambda1 <= lambda2.

    Where the unrestricted rates already satisfy the order the profile is
    unchanged; elsewhere both rates collapse to the pooled value
    k/(U+V).  The profiled criterion stays unimodal with a continuous
    derivative, so the same root finder applies.
    """
    _require_both_groups(sample)
    k = sample.scheme.k
    log_pooled_coef = np.log(np.asarray(sample.scheme.R, dtype=float) + 1.0)
    alpha, iters, conv = _fit_one(sample, log_pooled_coef)
    if _order_respected(sample, alpha):
        l1, l2 = lambda_hats(sample, alpha)
        boundary = False
    else:
        pooled = math.exp(
            math.log(k) - float(log_sum_exp(log_pooled_coef + alpha * sample.log_t))
        )
        l1 = l2 = pooled
        boundary = True
    params = JointParams(alpha, l1, l2)
    return MleFit(
        params=params,
        loglik=log_likelihood(sample, params),
        ordered=True,
        boundary=boundary,
        iterations=iters,
        converged=conv,
    )


def fisher_info(sample: JpcSample, params: JointParams) -> InfoMatrix:
    """Observed information at ``params``.

    The rate/rate block is diagonal (the cross derivative vanishes), the
    shape/rate entries are the ln-t-weighted power sums, and the shape
    entry adds the curvature of the power sums to k/alpha^2.
    """
    t = sample.t
    lnt = sample.log_t
    ta = t**params.alpha
    c1 = sample.coef1
    c2 = sample.coef2
    k = sample.scheme.k
    a11 = k / params.alpha**2
    a11 += params.lambda1 * float((c1 * ta * lnt**2).sum())
    a11 += params.lambda2 * float((c2 * ta * lnt**2).sum())
    a12 = float((c1 * ta * lnt).sum())
    a13 = float((c2 * ta * lnt).sum())
    a22 = sample.k1 / params.lambda1**2
    a33 = sample.k2 / params.lambda2**2
    entries = np.array(
        [
            [a11, a12, a13],
            [a12, a22, 0.0],
            [a13, 0.0, a33],
        ]
    )
    return InfoMatrix(entries=entries)


def asymptotic_ci(
    sample: JpcSample, fit: MleFit, level: float = 0.9
) -> tuple[IntervalEstimate, IntervalEstimate, IntervalEstimate]:
    """Normal-theory intervals from the inverse observed information."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    info = fisher_info(sample, fit.params).entries
    try:
        inv = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(str(exc)) from exc
    var = np.diag(inv)
    if not np.all(var > 0.0):
        raise SingularInformationError("information matrix is not positive definite")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    est = (fit.params.alpha, fit.params.lambda1, fit.params.lambda2)
    return tuple(
        IntervalEstimate(e - z * math.sqrt(v), e + z * math.sqrt(v), level)
        for e, v in zip(est, var)
    )


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
    refitted in one vectorized pass.  Resamples whose failures all come from
    a single group admit no fit and are dropped; more than ``n_boot // 2``
    such drops is treated as a failure of the procedure rather than silently
    reported.
    """
    if rng is None:
        raise ValueError("an explicit RngStream is required")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if n_boot < 1:
        raise ValueError("n_boot must be at least 1")
    fit0 = fit_mle_ordered(sample) if ordered else fit_mle(sample)
    scheme = sample.scheme
    p0 = fit0.params
    lnt, delta, s = simulate_jpc_batch(scheme, (p0.alpha, p0.lambda1, p0.lambda2), rng, n_boot)
    k1 = delta.sum(axis=1)
    k2 = scheme.k - k1
    both = (k1 > 0) & (k2 > 0)
    skipped = n_boot - int(both.sum())
    if skipped > n_boot // 2:
        raise UnstableBootstrapError(
            f"{skipped} of {n_boot} resamples had all failures in one group"
        )
    lnt, delta, s = lnt[both], delta[both], s[both]
    k1 = k1[both].astype(float)
    k2 = k2[both].astype(float)
    with np.errstate(divide="ignore"):
        logc1 = np.log(s + delta)
        logc2 = np.log(np.asarray(scheme.R) - s + 1 - delta)
    log_pooled = np.log(np.asarray(scheme.R, dtype=float) + 1.0) if ordered else None
    alpha, ok, _ = _fit_alpha_batch(lnt, logc1, k1, logc2, k2, log_pooled)
    skipped += int((~ok).sum())
    if skipped > n_boot // 2:
        raise UnstableBootstrapError(
            f"{skipped} of {n_boot} resamples failed to produce a fit"
        )
    alpha = alpha[ok]
    lnt, logc1, logc2, k1, k2 = (
        lnt[ok],
        logc1[ok],
        logc2[ok],
        k1[ok],
        k2[ok],
    )
    ln_u = log_sum_exp(logc1 + alpha[:, None] * lnt)
    ln_v = log_sum_exp(logc2 + alpha[:, None] * lnt)
    l1 = np.exp(np.log(k1) - ln_u)
    l2 = np.exp(np.log(k2) - ln_v)
    if ordered:
        viol = l1 >= l2
        if viol.any():
            ln_uv = log_sum_exp(log_pooled + alpha[:, None] * lnt)
            pooled = np.exp(np.log(k1 + k2) - ln_uv)
            l1 = np.where(viol, pooled, l1)
            l2 = np.where(viol, pooled, l2)
    lo_q, hi_q = 0.5 * (1.0 - level), 0.5 * (1.0 + level)
    out = []
    for est in (alpha, l1, l2):
        qs = np.quantile(est, [lo_q, hi_q])
        out.append(IntervalEstimate(float(qs[0]), float(qs[1]), level))
    return BootstrapResult(out[0], out[1], out[2], skipped)
