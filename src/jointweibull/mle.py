"""Maximum likelihood fits, observed information, and resampling intervals.

The rates maximize in closed form at ``l1 = k1/U(a)`` and ``l2 = k2/V(a)``,
so the shape is found by a derivative bisection on the profiled
log-likelihood

    p(a) = k ln a - k1 ln U(a) - k2 ln V(a) + (a - 1) sum ln t_j ,

which is unimodal.  The order-restricted fit (``l1 <= l2``) keeps the
unrestricted rates wherever they already respect the order and otherwise
pools both groups onto the common rate ``k / (U(a) + V(a))``.

The bootstrap draws all its resamples from the batched tau = t^alpha
simulator (``jpc.simulate_jpc_batch``: k array steps for every resample at
once) and refits them together: bracketing and bisection run in lockstep
across the stacked array of samples, which keeps a 500-resample percentile
interval at a few tens of milliseconds for typical designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import logsumexp, ndtri

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
from .rng import RngStream

_REL_TOL = 1e-10
_MAX_ITER = 200
_ALPHA_FLOOR = 1e-10
_ALPHA_CEIL = 1e10


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


def _log_mean_power(log_coef: np.ndarray, log_t: np.ndarray, alpha: float) -> float:
    # d/da ln(sum coef * t^a): softmax-weighted mean of ln t
    logits = log_coef + alpha * log_t
    logits = logits - logits.max()
    wgt = np.exp(logits)
    return float((wgt * log_t).sum() / wgt.sum())


def _profile_derivative(sample: JpcSample, alpha: float) -> float:
    k = sample.scheme.k
    d = k / alpha + sample.sum_log_t
    d -= sample.k1 * _log_mean_power(sample.log_coef1, sample.log_t, alpha)
    d -= sample.k2 * _log_mean_power(sample.log_coef2, sample.log_t, alpha)
    return d


def _order_respected(sample: JpcSample, alpha: float) -> bool:
    # k1/U < k2/V, compared in the log domain
    lhs = math.log(sample.k1) - float(log_u_stat(sample, alpha))
    rhs = math.log(sample.k2) - float(log_v_stat(sample, alpha))
    return lhs < rhs


def _bisect_on_derivative(deriv: Callable[[float], float]) -> tuple[float, int, bool]:
    """Root of a decreasing-through-zero derivative, bracketed from 1."""
    calls = 0

    def d(x: float) -> float:
        nonlocal calls
        calls += 1
        return deriv(x)

    d1 = d(1.0)
    if d1 > 0.0:
        lo, hi = 1.0, 2.0
        while d(hi) > 0.0:
            lo = hi
            hi *= 2.0
            if hi > _ALPHA_CEIL:
                raise ConvergenceError("profile derivative stays positive; no maximizer below 1e10")
    elif d1 < 0.0:
        lo, hi = 0.5, 1.0
        while d(lo) < 0.0:
            hi = lo
            lo *= 0.5
            if lo < _ALPHA_FLOOR:
                raise ConvergenceError("profile derivative stays negative; no maximizer above 1e-10")
    else:
        return 1.0, calls, True
    while hi - lo > _REL_TOL * hi and calls < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if d(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), calls, (hi - lo) <= _REL_TOL * hi


def fit_mle(sample: JpcSample) -> MleFit:
    """Unrestricted maximum likelihood fit of (alpha, lambda1, lambda2)."""
    _require_both_groups(sample)
    alpha, iters, conv = _bisect_on_derivative(lambda a: _profile_derivative(sample, a))
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
    derivative, so the same bisection applies.
    """
    _require_both_groups(sample)
    k = sample.scheme.k
    log_pooled_coef = np.log(np.asarray(sample.scheme.R, dtype=float) + 1.0)

    def deriv(a: float) -> float:
        if _order_respected(sample, a):
            return _profile_derivative(sample, a)
        d = k / a + sample.sum_log_t
        d -= k * _log_mean_power(log_pooled_coef, sample.log_t, a)
        return d

    alpha, iters, conv = _bisect_on_derivative(deriv)
    if _order_respected(sample, alpha):
        l1, l2 = lambda_hats(sample, alpha)
        boundary = False
    else:
        pooled = math.exp(
            math.log(k) - float(logsumexp(log_pooled_coef + alpha * sample.log_t))
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
    z = float(ndtri(0.5 * (1.0 + level)))
    est = (fit.params.alpha, fit.params.lambda1, fit.params.lambda2)
    return tuple(
        IntervalEstimate(e - z * math.sqrt(v), e + z * math.sqrt(v), level)
        for e, v in zip(est, var)
    )


# --------------------------------------------------------------------------
# lockstep refits for the bootstrap


def _batch_log_mean(logits: np.ndarray, lnt: np.ndarray) -> np.ndarray:
    logits = logits - logits.max(axis=1, keepdims=True)
    wgt = np.exp(logits)
    return (wgt * lnt).sum(axis=1) / wgt.sum(axis=1)


def _fit_alpha_batch(
    lnt: np.ndarray,
    logc1: np.ndarray,
    logc2: np.ndarray,
    k1: np.ndarray,
    k2: np.ndarray,
    ordered: bool = False,
    log_pooled: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Profile-maximizing shapes for B stacked samples; returns (alpha, ok).

    ``k1`` and ``k2`` are per-row arrays or scalars; a stack of complete
    samples is ``logc1 = 0``, ``k1 = n``, ``k2 = 0``.  Bisection stops at the
    first sweep that moves no bracket in any row (every later sweep would
    repeat it), so most calls stop well short of the 80-sweep cap.
    """
    n_rows = lnt.shape[0]
    k = k1 + k2
    slt = lnt.sum(axis=1)
    if ordered:
        log_k1 = np.log(k1)
        log_k2 = np.log(k2)

    def deriv(alpha: np.ndarray) -> np.ndarray:
        z1 = logc1 + alpha[:, None] * lnt
        z2 = logc2 + alpha[:, None] * lnt
        d = k / alpha + slt - k1 * _batch_log_mean(z1, lnt) - k2 * _batch_log_mean(z2, lnt)
        if ordered:
            violated = (log_k1 - logsumexp(z1, axis=1)) >= (log_k2 - logsumexp(z2, axis=1))
            if violated.any():
                zp = log_pooled + alpha[:, None] * lnt
                dp = k / alpha + slt - k * _batch_log_mean(zp, lnt)
                d = np.where(violated, dp, d)
        return d

    lo = np.ones(n_rows)
    hi = np.ones(n_rows)
    ok = np.ones(n_rows, dtype=bool)
    d1 = deriv(lo)
    up = d1 > 0.0
    down = d1 < 0.0
    hi[up] = 2.0
    lo[down] = 0.5
    for _ in range(64):
        d = deriv(hi)
        grow = up & (d > 0.0) & ok
        if not grow.any():
            break
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        ok &= hi <= _ALPHA_CEIL
    for _ in range(64):
        d = deriv(lo)
        shrink = down & (d < 0.0) & ok
        if not shrink.any():
            break
        hi[shrink] = lo[shrink]
        lo[shrink] *= 0.5
        ok &= lo >= _ALPHA_FLOOR
    lo = np.where(ok, lo, 1.0)
    hi = np.where(ok, hi, 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        pos = deriv(mid) > 0.0
        new_lo = np.where(pos, mid, lo)
        new_hi = np.where(pos, hi, mid)
        # a sweep that moves no bracket would repeat itself forever
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    alpha = 0.5 * (lo + hi)
    return alpha, ok


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
    log_pooled = None
    if ordered:
        base = np.log(np.asarray(scheme.R, dtype=float) + 1.0)
        log_pooled = np.broadcast_to(base, lnt.shape)
    alpha, ok = _fit_alpha_batch(lnt, logc1, logc2, k1, k2, ordered, log_pooled)
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
    ln_u = logsumexp(logc1 + alpha[:, None] * lnt, axis=1)
    ln_v = logsumexp(logc2 + alpha[:, None] * lnt, axis=1)
    l1 = np.exp(np.log(k1) - ln_u)
    l2 = np.exp(np.log(k2) - ln_v)
    if ordered:
        viol = l1 >= l2
        if viol.any():
            ln_uv = logsumexp(
                log_pooled[ok] + alpha[:, None] * lnt, axis=1
            )
            pooled = np.exp(np.log(k1 + k2) - ln_uv)
            l1 = np.where(viol, pooled, l1)
            l2 = np.where(viol, pooled, l2)
    lo_q, hi_q = 0.5 * (1.0 - level), 0.5 * (1.0 + level)
    out = []
    for est in (alpha, l1, l2):
        qs = np.quantile(est, [lo_q, hi_q])
        out.append(IntervalEstimate(float(qs[0]), float(qs[1]), level))
    return BootstrapResult(out[0], out[1], out[2], skipped)
