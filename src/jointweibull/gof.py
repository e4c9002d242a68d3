"""Complete-sample Weibull fitting, Kolmogorov-Smirnov checks, and the
likelihood-ratio test for a shared shape across two samples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .mle import _fit_alpha_batch
from .rng import _MAX_SWEEPS, RngStream, log_sum_exp


@dataclass(frozen=True)
class CompleteSample:
    """A fully observed sample of positive lifetimes.

    ``shift`` records a threshold already subtracted from the raw readings,
    purely as bookkeeping so reports can state what was analyzed.  Ties are
    allowed here; nothing in the complete-sample theory needs strict order.
    """

    values: tuple[float, ...]
    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("sample must be non-empty")
        if any(not (math.isfinite(v) and v > 0.0) for v in self.values):
            raise ValueError("all values must be positive finite reals")

    @classmethod
    def from_raw(cls, raw, shift: float = 0.0) -> "CompleteSample":
        return cls(values=tuple(float(v) - shift for v in raw), shift=shift)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def array(self) -> np.ndarray:
        return np.asarray(self.values)

    @cached_property
    def sorted(self) -> np.ndarray:
        return np.sort(self.array)

    @cached_property
    def log_values(self) -> np.ndarray:
        return np.log(self.array)

    @cached_property
    def sum_log(self) -> float:
        return float(self.log_values.sum())


@dataclass(frozen=True)
class WeibullFit:
    alpha: float
    lam: float
    loglik: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CommonShapeFit:
    alpha: float
    lam1: float
    lam2: float
    loglik: float
    iterations: int
    converged: bool


def _complete_loglik(data: CompleteSample, alpha: float, lam: float) -> float:
    n = data.n
    return (
        n * math.log(alpha)
        + n * math.log(lam)
        + (alpha - 1.0) * data.sum_log
        - lam * float(np.sum(data.array**alpha))
    )


def _solve(*stack) -> tuple[np.ndarray, int]:
    """Shapes of a stack of complete samples (see ``mle._fit_alpha_batch``);
    a row without a maximizer raises."""
    alpha, ok, sweeps = _fit_alpha_batch(*stack)
    if not ok.all():
        raise ConvergenceError("profile derivative keeps its sign; no shape maximizer in [1e-10, 1e10]")
    return alpha, sweeps


def fit_weibull_complete(data: CompleteSample) -> WeibullFit:
    """Shape/rate MLE of a complete sample by profile bisection."""
    if data.n < 2 or data.sorted[0] == data.sorted[-1]:
        raise ValueError("need at least two distinct values to fit a shape")
    n = data.n
    alpha, sweeps = _solve(data.log_values[None, :], np.zeros(n), n)
    alpha = float(alpha[0])
    lam = n / float(np.sum(data.array**alpha))
    return WeibullFit(alpha, lam, _complete_loglik(data, alpha, lam), sweeps, sweeps < _MAX_SWEEPS)


def _fit_complete_rows(log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape/rate MLEs of stacked complete samples, one per row of
    ``log_x``, fitted in lockstep."""
    n = log_x.shape[1]
    alpha, _ = _solve(log_x, np.zeros(n), n)
    lam = np.exp(math.log(n) - log_sum_exp(alpha[:, None] * log_x))
    return alpha, lam


def fit_common_shape(data1: CompleteSample, data2: CompleteSample) -> CommonShapeFit:
    """Joint MLE of two complete samples sharing one shape parameter.

    This is the joint experiment with no withdrawals: every value of sample
    1 is a group-1 failure and every value of sample 2 a group-2 one, so the
    profile is fitted as that one-row stack.
    """
    for d in (data1, data2):
        if d.n < 2 or d.sorted[0] == d.sorted[-1]:
            raise ValueError("need at least two distinct values in each sample")
    n1, n2 = data1.n, data2.n
    lnt = np.concatenate([data1.log_values, data2.log_values])[None, :]
    in1 = np.arange(n1 + n2) < n1
    logc1 = np.where(in1, 0.0, -np.inf)
    logc2 = np.where(in1, -np.inf, 0.0)
    alpha, sweeps = _solve(lnt, logc1, n1, logc2, n2)
    alpha = float(alpha[0])
    lam1 = n1 / float(np.sum(data1.array**alpha))
    lam2 = n2 / float(np.sum(data2.array**alpha))
    loglik = _complete_loglik(data1, alpha, lam1) + _complete_loglik(data2, alpha, lam2)
    return CommonShapeFit(alpha, lam1, lam2, loglik, sweeps, sweeps < _MAX_SWEEPS)


def _ks_rowwise(cdf_rows: np.ndarray) -> np.ndarray:
    """KS distance for each row of fitted-CDF values at the sorted sample."""
    n = cdf_rows.shape[-1]
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    d_plus = (grid_hi - cdf_rows).max(axis=-1)
    d_minus = (cdf_rows - grid_lo).max(axis=-1)
    return np.maximum(d_plus, d_minus)


def ks_distance(data: CompleteSample, alpha: float, lam: float) -> float:
    """Sup distance between the empirical CDF and a Weibull CDF."""
    if not (alpha > 0.0 and lam > 0.0):
        raise ValueError("alpha and lambda must be positive")
    f = -np.expm1(-lam * data.sorted**alpha)
    return float(_ks_rowwise(f))


def ks_pvalue(
    distance: float,
    n: int,
    estimated: bool = False,
    n_mc: int = 0,
    rng: Optional[RngStream] = None,
) -> float:
    """P-value for an observed KS distance.

    Without Monte Carlo arguments the limiting Kolmogorov law is used (this
    ignores the optimism introduced by fitting, which is the conventional
    reading of the headline p-values for these data).  With ``n_mc > 0`` the
    null is simulated instead, which needs an explicit stream.  The Weibull
    family is closed under the power and scale maps that connect it to the
    standard exponential, and the MLE commutes with those maps, so the
    simulated null never needs the fitted parameters: draw an
    ``(n_mc, n)`` array of standard exponentials, sort each row, refit all
    rows in lockstep when ``estimated`` is set (which needs ``n >= 2``; a
    row without a maximizer raises :class:`ConvergenceError`), and take
    every row's distance in one pass.
    """
    if not 0.0 <= distance <= 1.0:
        raise ValueError("a KS distance lies in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    if n_mc > 0:
        if rng is None:
            raise ValueError("a Monte Carlo p-value needs an explicit RngStream")
        if estimated and n < 2:
            raise ValueError("need at least two values to refit a shape")
        x = np.sort(rng.exponential((n_mc, n)), axis=1)
        if estimated:
            log_x = np.log(x)
            alpha, lam = _fit_complete_rows(log_x)
            x = lam[:, None] * np.exp(alpha[:, None] * log_x)  # fitted cumulative hazards
        d = _ks_rowwise(-np.expm1(-x))
        return int(np.count_nonzero(d >= distance)) / n_mc
    from scipy.special import kolmogorov

    return float(kolmogorov(math.sqrt(n) * distance))


def lr_test_common_shape(data1: CompleteSample, data2: CompleteSample) -> tuple[float, float]:
    """Likelihood-ratio test of equal shapes; returns (statistic, p-value).

    The statistic is -2 times the log-likelihood drop from restricting both
    samples to one shape, referred to a chi-square with one degree of
    freedom.
    """
    sep = fit_weibull_complete(data1).loglik + fit_weibull_complete(data2).loglik
    joint = fit_common_shape(data1, data2).loglik
    stat = max(0.0, -2.0 * (joint - sep))
    from scipy.special import chdtrc

    return stat, float(chdtrc(1, stat))
