"""Complete-sample Weibull fitting, Kolmogorov-Smirnov checks, and the
likelihood-ratio test for a shared shape across two samples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConvergenceError, _check_count, _check_real
from .mle import _NO_SHAPE, _fit_rows
from .rng import PowerSum, RngStream


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
        values = tuple(self.values)
        for j, v in enumerate(values):
            _check_real(f"values[{j}]", v)
        object.__setattr__(self, "values", tuple(map(float, values)))
        if not self.values:
            raise ValueError("sample must be non-empty")

    @classmethod
    def from_raw(cls, raw, shift: float = 0.0) -> "CompleteSample":
        _check_real("shift", shift, positive=False)
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


@dataclass(frozen=True)
class CommonShapeFit:
    alpha: float
    lam1: float
    lam2: float
    loglik: float
    iterations: int


def _log_moment_start(*log_x) -> np.ndarray:
    """Each row's shape start pi/(sqrt 6 s), s the pooled within-sample sd
    of its log values in ``log_x`` (one array per sample), clipped to
    [1e-10, 1e10]: ln X of a Weibull variable is Gumbel, sd pi/(alpha sqrt 6)."""
    ss = sum(((x - x.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1) for x in log_x)
    with np.errstate(divide="ignore"):
        return np.clip(math.pi / np.sqrt(6.0 * ss / sum(x.shape[-1] for x in log_x)), 1e-10, 1e10)


def _fit_complete_rows(*log_x) -> tuple[np.ndarray, np.ndarray, int]:
    """Shape and log rate MLEs of stacked complete samples, one fit per
    row, from one ``(rows, n)`` array of log values per sample in ``log_x``
    (one sample, or two sharing the shape).  This is the joint experiment
    with no withdrawals, every value of a sample a failure of its group: a
    ``mle._fit_rows`` stack, one kernel per sample, each search started at
    its row's pooled log-moment shape.  Returns ``(alpha, log_rates,
    sweeps)``, one row of log rates per sample; a row without a shape
    maximizer raises."""
    groups = [(PowerSum(1.0, x), x.shape[1]) for x in log_x]
    alpha, log_rates, ok, sweeps = _fit_rows(groups, sum(x.sum(axis=1) for x in log_x), _log_moment_start(*log_x))
    if not ok.all():
        raise ConvergenceError(_NO_SHAPE)
    return alpha, log_rates, sweeps


def _fit_samples(*samples: CompleteSample) -> tuple:
    """``(alpha, *rates, loglik, sweeps)`` of complete ``samples`` sharing
    one shape: :func:`_fit_complete_rows` on a stack of one, the
    log-likelihood formed from the fitted log rates, where each sample's
    rate term lam * sum x^alpha is its n, so a rate below exp's range counts."""
    for d in samples:
        if d.n < 2 or d.sorted[0] == d.sorted[-1]:
            raise ValueError("need at least two distinct values to fit a shape")
    alpha, log_rates, sweeps = _fit_complete_rows(*(d.log_values[None] for d in samples))
    alpha, log_rates = float(alpha[0]), log_rates[:, 0]
    terms = zip(samples, log_rates.tolist())
    loglik = sum(d.n * (math.log(alpha) + lr - 1.0) + (alpha - 1.0) * d.sum_log for d, lr in terms)
    return (alpha, *np.exp(log_rates).tolist(), loglik, sweeps)


def fit_weibull_complete(data: CompleteSample) -> WeibullFit:
    """Shape/rate MLE of a complete sample."""
    return WeibullFit(*_fit_samples(data))


def fit_common_shape(data1: CompleteSample, data2: CompleteSample) -> CommonShapeFit:
    """Joint MLE of two complete samples sharing one shape parameter."""
    return CommonShapeFit(*_fit_samples(data1, data2))


def _ks_rows(log_t, delta, alpha, log_lam1, log_lam2) -> np.ndarray:
    """Largest group-wise KS distance of each row's times against that row's
    Weibull laws: shape ``alpha``, log rate ``log_lam1`` for group 1
    (``delta`` 1) and ``log_lam2`` for group 2, each hazard exp(alpha ln t
    + ln lambda), so rates below exp's range count.  ``log_t`` is ``(rows,
    k)``, or one ``(k,)`` sample shared by all rows, increasing along each
    row; ``delta`` is ``(k,)`` or ``(rows, k)``.  A time of rank r among the
    n_g of its group is compared with r/n_g and (r - 1)/n_g, so a complete
    sample is one group (``delta`` all 1) and a group without times adds nothing."""
    in1 = delta == 1
    r1, r2 = np.cumsum(in1, axis=-1), np.cumsum(~in1, axis=-1)
    rank = np.where(in1, r1, r2)
    n_g = np.where(in1, r1[..., -1:], r2[..., -1:])
    g = alpha[:, None] * log_t
    g += np.where(in1, log_lam1[:, None], log_lam2[:, None])
    np.exp(g, out=g)
    np.expm1(np.negative(g, out=g), out=g)  # minus the CDF at every time
    return np.maximum((rank / n_g + g).max(axis=-1), -(g + (rank - 1) / n_g).min(axis=-1))


def ks_distance(data: CompleteSample, alpha: float, lam: float) -> float:
    """Sup distance between the empirical CDF and a Weibull CDF."""
    _check_real("alpha", alpha)
    _check_real("lam", lam)
    a, log_lam = np.array([alpha]), np.log([lam])
    return float(_ks_rows(np.log(data.sorted), np.ones(data.n), a, log_lam, log_lam)[0])


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
    _check_real("distance", distance, positive=False)
    if distance > 1.0:
        raise ValueError(f"distance must lie in [0, 1], not {distance!r}")
    _check_count("n", n, 1)
    _check_count("n_mc", n_mc)
    if n_mc > 0:
        if rng is None:
            raise ValueError("a Monte Carlo p-value needs an explicit RngStream")
        if estimated and n < 2:
            raise ValueError("need at least two values to refit a shape")
        log_x = np.log(np.sort(rng.exponential((n_mc, n)), axis=1))
        alpha, log_rates, _ = _fit_complete_rows(log_x) if estimated else (np.ones(n_mc), np.zeros((1, n_mc)), 0)
        d = _ks_rows(log_x, np.ones(n), alpha, log_rates[0], log_rates[0])
        return int(np.count_nonzero(d >= distance)) / n_mc
    return _kolmogorov_sf(math.sqrt(n) * distance)


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) of the Kolmogorov law by the series of Marsaglia, Tsang and
    Wang (J. Stat. Softw. 8(18), 2003), eight terms each: ``1 - sqrt(2 pi)/x
    sum exp(-(2j-1)^2 pi^2/(8x^2))`` below 1, ``2 sum (-1)^(j-1) exp(-2 j^2 x^2)``."""
    if x < 1.0:
        terms = (math.exp(-((2 * j - 1) * math.pi / x) ** 2 / 8.0) for j in range(1, 9))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(terms) if x > 0.0 else 1.0
    return 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * (j * x) ** 2) for j in range(1, 9))


def lr_test_common_shape(data1: CompleteSample, data2: CompleteSample) -> tuple[float, float]:
    """Likelihood-ratio test of equal shapes; returns (statistic, p-value).

    The statistic is -2 times the log-likelihood drop from restricting both
    samples to one shape, referred to a chi-square with one degree of
    freedom.
    """
    sep = fit_weibull_complete(data1).loglik + fit_weibull_complete(data2).loglik
    joint = fit_common_shape(data1, data2).loglik
    stat = max(0.0, -2.0 * (joint - sep))
    return stat, math.erfc(math.sqrt(stat / 2.0))
