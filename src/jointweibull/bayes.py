"""Importance-sampled posterior inference for the joint censoring model.

Priors
------
The rate pair carries a beta-gamma law, with density proportional to
``l1^(a1-1) l2^(a2-1) (l1+l2)^(a0-a1-a2) exp(-b0 (l1+l2))`` (l = lambda),
optionally restricted to ``lambda1 < lambda2``; the shape carries an
independent gamma.  All hyperparameters may be zero, which yields the usual
flat limits; properness of the resulting posterior is then a property of
the data and is checked, not assumed.

Sampling strategy
-----------------
The shape is drawn exactly from ``s(a)``, the shape marginal of a rate
proposal that integrates out in closed form; the rates are then drawn from
that proposal and the importance weight ``g`` corrects the rest.  The
prior's structure picks the proposal.

Per-group proposal, for every ordered prior and every prior with
``a0 = a1 + a2`` (the flat one among them).  It drops the one factor that
couples the rates, ``(l1+l2)^(a0-a1-a2)``, so the rates are independent
gammas ``Gamma(s1, b0 + U)`` and ``Gamma(s2, b0 + V)`` with
``(s1, s2) = (a1 + k1, a2 + k2)``.  The folded ordered prior is a sum of two
terms whose larger one on ``lambda1 < lambda2`` puts ``min(a1, a2)`` with
``lambda1``; ordered priors keep that term, ``(s1, s2) = (min(a1, a2) + k1,
max(a1, a2) + k2)``, and cut ``lambda1`` to ``(0, lambda2)``.  The marginal

    s(a) = (k + a0s - 1) ln a - a (b0s - sum ln t)
           - s1 ln(b0 + U(a)) - s2 ln(b0 + V(a))

is one concave branch with one tangent envelope, and

    ln g = [ordered] ln P(uncut lambda1 < lambda2) + (a0 - a1 - a2) ln(l1 + l2)
           + [ordered] ln((1 + (l1/l2)^|a2 - a1|) / 2).

The first term lies in (-inf, 0], the last in [-ln 2, 0] (0 when a1 = a2),
and the middle one is 0 when ``a0 = a1 + a2`` and unbounded otherwise; so
unordered priors with ``a0 = a1 + a2`` draw exactly, with ``g = 1``.

Beta-gamma proposal on ``W = min(U, V)``, for unordered priors that do not
factor: a gamma(a0 + k) total rate split by a beta(a1 + k1, a2 + k2), with

    s(a) = (k + a0s - 1) ln a - a (b0s - sum ln t) - (a0 + k) ln(b0 + W(a)),

and the leftover likelihood factor ``exp(-l1 (U - W) - l2 (V - W))`` in
(0, 1] as the weight.  Replacing W by U or V gives two genuinely
log-concave "branch" functions (each is a negative log-sum-exp of affine
functions plus concave terms) and ``s = max(branch_U, branch_V)``
pointwise.  The max of two concave functions is not concave: where U and V
cross, s has a convex kink, so a single adaptive-rejection pass cannot be
trusted.  Instead each branch gets its own static tangent envelope;
proposals come from the mass-weighted mixture of the two envelopes and are
accepted with probability

    exp(s(a)) / (exp(E_U(a)) + exp(E_V(a))) <= 1 ,

which is exact rejection because the mixture density is proportional to
``exp(E_U) + exp(E_V)``, which dominates ``exp(max(branch_U, branch_V))``.
No quadrature enters, so shape draws are exact up to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateWeightsError, ImproperPosteriorError
from .gof import CompleteSample, _ks_rowwise
from .jpc import JpcSample, simulate_jpc_batch
from .mle import IntervalEstimate
from .rng import (
    BetaGammaHyper,
    RngStream,
    _max_shift,
    _softmax_moments,
    build_static_envelope,
    log_sum_exp,
)

_TAIL_PROBE = 1e8
_TAIL_SLOPE_TOL = -1e-12


@dataclass(frozen=True)
class ShapeHyper:
    """Gamma hyperparameters (shape ``a``, rate ``b``) for the Weibull shape."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class PriorSpec:
    """Complete prior: beta-gamma on the rates, gamma on the shape, and a
    flag selecting the order-restricted variant."""

    bg: BetaGammaHyper
    shape: ShapeHyper
    ordered: bool = False

    @classmethod
    def flat(cls, shape_rate: float = 0.0, ordered: bool = False) -> "PriorSpec":
        """All hyperparameters zero except an optional rate on the shape."""
        return cls(
            bg=BetaGammaHyper(0.0, 0.0, 0.0, 0.0),
            shape=ShapeHyper(0.0, shape_rate),
            ordered=ordered,
        )


@dataclass
class WeightedPosterior:
    """Importance-weighted posterior draws of (alpha, lambda1, lambda2).

    ``weights`` holds the raw importance factors g (unit weights mean the
    draws are exact): exactly 1 for an unordered prior with a0 = a1 + a2,
    in (0, 1] for the other unordered priors and in [0, 1] for an ordered
    prior with a0 = a1 + a2; other ordered priors carry the unbounded
    factor (lambda1 + lambda2)^(a0 - a1 - a2).  ``normalized`` always sums
    to one.  ``low_ess`` is set when the effective sample size
    1/sum(normalized^2) falls below one percent of the number of draws.
    """

    alpha: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    weights: np.ndarray
    normalized: np.ndarray
    low_ess: bool = False

    def __post_init__(self):
        sizes = {
            np.asarray(a).shape
            for a in (self.alpha, self.lambda1, self.lambda2, self.weights, self.normalized)
        }
        if len(sizes) != 1:
            raise ValueError("all draw arrays must share one shape")
        if np.any(self.normalized < 0.0) or abs(float(self.normalized.sum()) - 1.0) > 1e-9:
            raise ValueError("normalized weights must be a probability vector")

    @property
    def n_draws(self) -> int:
        return int(np.asarray(self.alpha).size)

    @property
    def ess(self) -> float:
        return float(1.0 / np.sum(self.normalized**2))


@dataclass
class _Branch:
    """One concave branch of the shape marginal, U- or V-flavored:
    ``c0 ln a - c1 a - c2 ln(b0 + sum c t^a)``, vectorized over shapes.
    ``row`` is the row of the sampler's stacked log power sums that holds
    ``ln(sum c t^a)``.  With D = S/(b0 + S) for S = sum c t^a, and E, Var
    the mean and variance of ``ln t`` under the weights ``c t^a``, its slope
    is ``c0/a - c1 - c2 D E`` and its curvature
    ``-c0/a^2 - c2 D (Var + (1 - D) E^2)``."""

    log_coef: np.ndarray
    log_t: np.ndarray
    c0: float
    c1: float
    c2: float
    log_b0: float
    row: int = 0

    def _logits(self, alpha) -> np.ndarray:
        logits = np.multiply.outer(alpha, self.log_t)
        logits += self.log_coef
        return logits

    def log_sum(self, alpha):
        return log_sum_exp(self._logits(alpha))

    def at(self, alpha, sums):
        """The branch at shapes ``alpha``, reading ``sums[row]``."""
        with np.errstate(divide="ignore"):
            lead = self.c0 * np.log(alpha) if self.c0 != 0.0 else 0.0
        return lead - self.c1 * alpha - self.c2 * np.logaddexp(self.log_b0, sums[self.row])

    def local(self, alpha):
        """Value, slope and curvature at shapes ``alpha``, all from one pass
        of the softmax moments of ``ln t``, whose log-sum is ``ln S``."""
        mean_lnt, var_lnt, ln_sum = _softmax_moments(self._logits(alpha), self.log_t)
        damp = np.exp(ln_sum - np.logaddexp(self.log_b0, ln_sum))
        return (
            self.at(alpha, {self.row: ln_sum}),
            self.c0 / alpha - self.c1 - self.c2 * damp * mean_lnt,
            -self.c0 / alpha**2 - self.c2 * damp * (var_lnt + (1.0 - damp) * mean_lnt**2),
        )


class _BranchSum:
    """Sum of concave branches, itself concave."""

    def __init__(self, *parts: _Branch):
        self.parts = parts

    def at(self, alpha, sums):
        return sum(p.at(alpha, sums) for p in self.parts)

    def local(self, alpha):
        return tuple(sum(terms) for terms in zip(*(p.local(alpha) for p in self.parts)))


def _check_decay(branches: Sequence) -> None:
    if any(br.local(_TAIL_PROBE)[1] >= _TAIL_SLOPE_TOL for br in branches):
        raise ImproperPosteriorError("shape marginal does not decay at the upper probe point")


def _marginal(branches: Sequence, sum_rows: Sequence[_Branch], alpha):
    """s(alpha), the pointwise max of the concave ``branches``, and the
    stacked log power sums of ``sum_rows`` that the branches read."""
    sums = np.stack([r.log_sum(alpha) for r in sum_rows])
    s = branches[0].at(alpha, sums)
    for br in branches[1:]:
        s = np.maximum(s, br.at(alpha, sums))
    return s, sums


def _sample_marginal(
    branches: Sequence, sum_rows: Sequence[_Branch], n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Exact shape draws from exp(s), s the pointwise max of the concave
    ``branches`` (see :func:`_marginal`); the log power sums of the
    accepted shapes come back with the draws, one column per shape.

    Each branch gets a static tangent hull, built from the branch's own
    value and slope: the hulls are only compared in the log domain, so they
    need no common shift.  Proposals come from the mass-weighted mixture of
    the hulls and are accepted with probability exp(s) / sum(exp(hull)) <= 1.
    """
    envelopes = [build_static_envelope(br.local) for br in branches]
    log_masses = np.array([env.log_total_mass() for env in envelopes])
    cum = np.cumsum(np.exp(log_masses - log_sum_exp(log_masses)))
    out = np.empty(n)
    kept = np.empty((len(sum_rows), n))
    have = proposed = accepted = guard = 0
    rate = 0.45
    while have < n:
        guard += 1
        if guard > 10000:
            raise ImproperPosteriorError("shape sampler stalled; acceptance is vanishing")
        chunk = int((n - have) / rate) + 8
        if len(envelopes) == 1:
            q = envelopes[0].sample(chunk, rng)
        else:
            q = np.empty(chunk)
            pick = np.searchsorted(cum, rng.uniform(chunk), side="left")
            pick = np.clip(pick, 0, len(envelopes) - 1)
            for b, env in enumerate(envelopes):
                idx = np.flatnonzero(pick == b)
                if idx.size:
                    q[idx] = env.sample(idx.size, rng)
        log_env = envelopes[0].log_value(q)
        for env in envelopes[1:]:
            log_env = np.logaddexp(log_env, env.log_value(q))
        log_f, sums = _marginal(branches, sum_rows, q)
        accept = np.log(np.clip(rng.uniform(chunk), 1e-300, None)) <= log_f - log_env
        taken = np.flatnonzero(accept)[: n - have]
        out[have : have + taken.size] = q[taken]
        kept[:, have : have + taken.size] = sums[:, taken]
        have += taken.size
        proposed += chunk
        accepted += int(accept.sum())
        rate = max(0.05, accepted / proposed)
    return out, kept


class _PosteriorCore:
    """Shared machinery behind every posterior in this module.

    A core is defined by the two weighted power sums (as log-coefficient /
    log-time arrays), the failure counts, and the prior.  It picks the rate
    proposal from the prior's structure (see the module docstring), owns
    the shape marginal and its properness checks, hands them to the
    envelope sampler ``_sample_marginal``, and draws the rates.
    """

    def __init__(
        self,
        log_coef_u: np.ndarray,
        log_t_u: np.ndarray,
        log_coef_v: np.ndarray,
        log_t_v: np.ndarray,
        k1: int,
        k2: int,
        sum_log_t: float,
        prior: PriorSpec,
    ):
        self.prior = prior
        k = k1 + k2
        bg = prior.bg
        # an ordered prior keeps the larger term of its folded sum on
        # lambda1 < lambda2, which puts the smaller of a1, a2 with lambda1
        low, high = sorted((bg.a1, bg.a2)) if prior.ordered else (bg.a1, bg.a2)
        self.group_shapes = (low + k1, high + k2)
        self.gamma_shape = bg.a0 + k
        if min(self.gamma_shape, *self.group_shapes) <= 0.0:
            raise ImproperPosteriorError(
                "rate posterior is improper: a flat hyperparameter meets a zero count"
            )
        c0 = k + prior.shape.a - 1.0
        c1 = prior.shape.b - sum_log_t
        c2 = self.gamma_shape
        log_b0 = math.log(bg.b0) if bg.b0 > 0.0 else -math.inf
        self.log_b0 = log_b0
        self.branch_u = _Branch(log_coef_u, log_t_u, c0, c1, c2, log_b0, row=0)
        self.branch_v = _Branch(log_coef_v, log_t_v, c0, c1, c2, log_b0, row=1)
        # the rows (ln U, ln V) every branch below reads
        self.sum_rows = (self.branch_u, self.branch_v)
        self.per_group = prior.ordered or bg.a0 == bg.a1 + bg.a2
        # the concave pieces whose pointwise max is the proposal marginal
        if self.per_group:
            s1, s2 = self.group_shapes
            self.branches = (
                _BranchSum(
                    _Branch(log_coef_u, log_t_u, c0, c1, s1, log_b0, row=0),
                    _Branch(log_coef_v, log_t_v, 0.0, 0.0, s2, log_b0, row=1),
                ),
            )
        else:
            self.branches = (self.branch_u, self.branch_v)
        _check_decay(self.branches)

    @classmethod
    def from_jpc(cls, sample: JpcSample, prior: PriorSpec) -> "_PosteriorCore":
        return cls(
            sample.log_coef1,
            sample.log_t,
            sample.log_coef2,
            sample.log_t,
            sample.k1,
            sample.k2,
            sample.sum_log_t,
            prior,
        )

    @classmethod
    def from_two_complete(
        cls, data1: CompleteSample, data2: CompleteSample, prior: PriorSpec
    ) -> "_PosteriorCore":
        return cls(
            np.zeros(data1.n),
            data1.log_values,
            np.zeros(data2.n),
            data2.log_values,
            data1.n,
            data2.n,
            data1.sum_log + data2.sum_log,
            prior,
        )

    def _group_rates(self, ln_u, ln_v, rng: RngStream):
        """Per-group proposal: each rate from its gamma given the shape.  For
        the order-restricted model lambda2 is drawn first and lambda1 from
        its gamma cut to (0, lambda2), and the log weight gains the log of
        the probability that the uncut lambda1 falls below lambda2, plus the
        folded prior's second term relative to its first."""
        bg = self.prior.bg
        s1, s2 = self.group_shapes
        rate1 = np.exp(np.logaddexp(self.log_b0, ln_u))
        rate2 = np.exp(np.logaddexp(self.log_b0, ln_v))
        if self.prior.ordered:
            from scipy.special import gammainc, gammaincinv

            l2 = rng.gamma(s2, rate=rate2)
            cut = gammainc(s1, rate1 * l2)
            u = 1.0 - rng.uniform(l2.size)
            with np.errstate(divide="ignore"):
                l1 = gammaincinv(s1, u * cut) / rate1
                ln_g = np.log(cut)
            # where the inverse underflows the cut is deep in the left tail,
            # and there the cut gamma tends to lambda2 * Beta(s1, 1)
            l1 = np.where(l1 > 0.0, l1, l2 * u ** (1.0 / s1))
            l1 = np.minimum(l1, np.nextafter(l2, 0.0))
            if bg.a1 != bg.a2:
                ln_g += np.log1p((l1 / l2) ** abs(bg.a2 - bg.a1)) - math.log(2.0)
        else:
            l1 = rng.gamma(s1, rate=rate1)
            l2 = rng.gamma(s2, rate=rate2)
            ln_g = np.zeros(l1.size)
        if bg.a0 != bg.a1 + bg.a2:
            ln_g += (bg.a0 - bg.a1 - bg.a2) * np.log(l1 + l2)
        return l1, l2, ln_g

    def _beta_gamma_rates(self, ln_u, ln_v, rng: RngStream):
        """Beta-gamma proposal on the smaller power sum W = min(U, V): total
        rate gamma, split beta."""
        ln_w = np.minimum(ln_u, ln_v)
        rate = np.exp(np.minimum(np.logaddexp(self.log_b0, ln_u), np.logaddexp(self.log_b0, ln_v)))
        total = rng.gamma(self.gamma_shape, rate=rate)
        frac = rng.beta(*self.group_shapes, size=ln_u.size)
        l1 = frac * total
        l2 = (1.0 - frac) * total
        # leftover likelihood factor: exp(-l1 (U - W) - l2 (V - W)), computed
        # as W expm1(ln U - ln W) to dodge cancellation between huge sums
        du = ln_u - ln_w
        dv = ln_v - ln_w
        with np.errstate(over="ignore", invalid="ignore"):
            w_val = np.exp(ln_w)
            ln_g = -np.where(du > 0.0, l1 * w_val * np.expm1(du), 0.0)
            ln_g -= np.where(dv > 0.0, l2 * w_val * np.expm1(dv), 0.0)
        return l1, l2, ln_g

    def draw(self, n: int, rng: RngStream) -> WeightedPosterior:
        alpha, (ln_u, ln_v) = _sample_marginal(self.branches, self.sum_rows, n, rng)
        if self.per_group:
            l1, l2, ln_g = self._group_rates(ln_u, ln_v, rng)
        else:
            l1, l2, ln_g = self._beta_gamma_rates(ln_u, ln_v, rng)
        if not np.any(ln_g > -math.inf):
            raise DegenerateWeightsError("every importance weight underflowed to zero")
        normalized, _ = _max_shift(ln_g)
        normalized /= normalized.sum()
        with np.errstate(over="ignore"):
            weights = np.exp(ln_g)
        post = WeightedPosterior(
            alpha=alpha,
            lambda1=l1,
            lambda2=l2,
            weights=weights,
            normalized=normalized,
        )
        post.low_ess = post.ess < 0.01 * n
        return post


def log_marginal_shape(sample: JpcSample, prior: PriorSpec, alpha):
    """Unnormalized log of the proposal's shape marginal ``s(a)``, the
    density the shape draws come from; vectorized over ``alpha``.

    This is the shape marginal of the rate proposal (see the module
    docstring), not of the posterior: the importance weights carry the
    difference.  For an ordered prior, or one with ``a0 = a1 + a2``, it is
    the one concave per-group branch, and for an unordered prior with
    ``a0 = a1 + a2`` it is the posterior's own shape marginal.  For the
    other unordered priors it is the pointwise max of two concave branches,
    with a convex kink where they cross.
    """
    core = _PosteriorCore.from_jpc(sample, prior)
    return _marginal(core.branches, core.sum_rows, np.asarray(alpha, dtype=float))[0]


def draw_posterior(
    sample: JpcSample, prior: PriorSpec, n_draws: int, rng: RngStream
) -> WeightedPosterior:
    """Importance-weighted posterior draws for a censoring outcome.

    Raises :class:`ImproperPosteriorError` when either the rate update or
    the shape marginal fails its integrability check, which happens for
    flat priors when one group never fails.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    core = _PosteriorCore.from_jpc(sample, prior)
    return core.draw(n_draws, rng)


def draw_posterior_two_complete(
    data1: CompleteSample,
    data2: CompleteSample,
    prior: PriorSpec,
    n_draws: int,
    rng: RngStream,
) -> WeightedPosterior:
    """Posterior draws for two complete samples sharing one shape."""
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    core = _PosteriorCore.from_two_complete(data1, data2, prior)
    return core.draw(n_draws, rng)


def weibull_posterior_complete(
    data: CompleteSample,
    bg_a: float,
    bg_b: float,
    shape: ShapeHyper,
    n_draws: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (unit-weight) posterior draws for one complete Weibull sample.

    The rate prior is gamma(bg_a, bg_b); zeros give the flat limit.  With a
    single population there is one power sum, hence one concave branch and
    no importance correction at all.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    n = data.n
    c0 = n + shape.a - 1.0
    c1 = shape.b - data.sum_log
    c2 = bg_a + n
    log_b0 = math.log(bg_b) if bg_b > 0.0 else -math.inf
    branch = _Branch(np.zeros(n), data.log_values, c0, c1, c2, log_b0)
    _check_decay((branch,))
    alpha, (ln_sum,) = _sample_marginal((branch,), (branch,), n_draws, rng)
    lam = rng.gamma(c2, rate=np.exp(np.logaddexp(log_b0, ln_sum)))
    return alpha, lam


def bayes_estimate(post: WeightedPosterior, h: Callable) -> float:
    """Posterior mean of ``h(alpha, lambda1, lambda2)`` under the weights."""
    if post.normalized.sum() <= 0.0:
        raise DegenerateWeightsError("all importance weights are zero")
    vals = np.asarray(h(post.alpha, post.lambda1, post.lambda2), dtype=float)
    return float((post.normalized * vals).sum())


def weighted_hpd(values, normalized, level: float) -> IntervalEstimate:
    """Narrowest window of sorted draws straddling ``level`` mass.

    Windows are scanned over order statistics: a window [j1, j2] qualifies
    when its mass does not exceed ``level`` while extending it by one more
    draw would; windows ending at the last draw have no extension and never
    qualify.  Among qualifying windows the narrowest wins; ties go to the
    leftmost.  When no window qualifies (a single draw, or one atom heavier
    than ``level``) the interval degenerates to the heaviest draw.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    values = np.asarray(values, dtype=float)
    v = np.asarray(normalized, dtype=float)
    order = np.argsort(values, kind="stable")
    h = values[order]
    v = v[order]
    n = h.size
    c = np.concatenate([[0.0], np.cumsum(v)])
    # index e(i1) = last prefix index with mass(window) <= level; the
    # extension draw is then the atom at index e, which must exist
    e = np.searchsorted(c, c[:n] + level * (1.0 + 1e-12), side="right") - 1
    j2 = e - 1
    i1 = np.arange(n)
    valid = (j2 >= i1) & (e < n)
    if not valid.any():
        at = int(np.argmax(v))
        return IntervalEstimate(float(h[at]), float(h[at]), level)
    widths = np.where(valid, h[np.clip(j2, 0, n - 1)] - h[i1], math.inf)
    best = int(np.argmin(widths))
    return IntervalEstimate(float(h[best]), float(h[j2[best]]), level)


def hpd_interval(post: WeightedPosterior, h: Callable, level: float) -> IntervalEstimate:
    """HPD-style interval for ``h(alpha, lambda1, lambda2)``."""
    vals = np.asarray(h(post.alpha, post.lambda1, post.lambda2), dtype=float)
    return weighted_hpd(vals, post.normalized, level)


def _jpc_discrepancy_rows(log_t, delta, alpha, lam1, lam2) -> np.ndarray:
    """Largest group-wise KS distance of each row's failure times against
    that row's fitted lifetime laws; groups without failures score 0.

    ``log_t`` and ``delta`` are ``(rows, k)`` (or one ``(k,)`` sample shared
    by all rows) with log times increasing along each row, so a failure's
    rank inside its group is the running count of the group's failures.
    """
    worst = 0.0
    for grp, lam in ((1, lam1), (0, lam2)):
        mask = delta == grp
        rank = np.cumsum(mask, axis=-1)
        n_g = np.maximum(rank[..., -1:], 1)
        f = -np.expm1(-lam[:, None] * np.exp(alpha[:, None] * log_t))
        gap = np.maximum(rank / n_g - f, f - (rank - 1) / n_g)
        worst = np.maximum(worst, np.where(mask, gap, 0.0).max(axis=-1))
    return worst


def posterior_predictive_pvalue(
    data,
    prior: PriorSpec,
    n_rep: int = 1000,
    rng: Optional[RngStream] = None,
    posterior=None,
):
    """Posterior predictive check; returns ``(p_value, expected_observed)``.

    For each posterior draw the observed discrepancy is computed at that
    draw's parameters; ``n_rep`` replicate datasets of the same design are
    simulated at parameters resampled proportionally to the importance
    weights, and the p-value is the fraction of replicates whose discrepancy
    is at least the observed one at the same draw (ties count toward the
    fraction).  The second return value is the weighted posterior mean of
    the observed discrepancy.  The stream is used in this order: posterior
    draws (unless given), resampling indices, replicates.

    ``data`` may be a :class:`CompleteSample` (one population; discrepancy:
    KS distance against the drawn parameters) or a :class:`JpcSample`
    (discrepancy: the larger of the two group-wise KS distances of observed
    failure times).  Both run as array steps over all draws and replicates:
    complete replicates by inversion, joint ones in one
    :func:`simulate_jpc_batch` call with per-row parameters.

    ``posterior`` supplies draws the caller already has instead of drawing
    them from ``prior``: for a :class:`JpcSample` a :class:`WeightedPosterior`
    of that sample, for a :class:`CompleteSample` a triple
    ``(alpha, lam, normalized)`` of shape draws, rate draws and normalized
    weights (for instance one group's margin of a common-shape posterior).
    """
    if rng is None:
        raise ValueError("an explicit RngStream is required")
    if n_rep < 1:
        raise ValueError("n_rep must be positive")
    if isinstance(data, CompleteSample):
        if posterior is None:
            alphas, lams = weibull_posterior_complete(
                data, prior.bg.a0, prior.bg.b0, prior.shape, n_rep, rng
            )
            norm = np.full(n_rep, 1.0 / n_rep)
        else:
            alphas, lams, norm = (np.asarray(v) for v in posterior)
        f_obs = -np.expm1(-lams[:, None] * data.sorted**alphas[:, None])
        d_obs = _ks_rowwise(f_obs)
        idx = _resample_indices(norm, n_rep, rng)
        u = rng.uniform((n_rep, data.n))
        reps = np.sort(
            (-np.log1p(-u) / lams[idx, None]) ** (1.0 / alphas[idx, None]), axis=1
        )
        f_rep = -np.expm1(-lams[idx, None] * reps ** alphas[idx, None])
        d_rep = _ks_rowwise(f_rep)
        p = float(np.mean(d_rep >= d_obs[idx]))
        return p, float((norm * d_obs).sum())
    if isinstance(data, JpcSample):
        post = posterior or draw_posterior(data, prior, n_rep, rng)
        a, l1, l2 = post.alpha, post.lambda1, post.lambda2
        d_obs = _jpc_discrepancy_rows(data.log_t, data.delta, a, l1, l2)
        idx = _resample_indices(post.normalized, n_rep, rng)
        a, l1, l2 = a[idx], l1[idx], l2[idx]
        log_t, delta, _ = simulate_jpc_batch(data.scheme, (a, l1, l2), rng, n_rep)
        d_rep = _jpc_discrepancy_rows(log_t, delta, a, l1, l2)
        p = float(np.mean(d_rep >= d_obs[idx]))
        return p, float((post.normalized * d_obs).sum())
    raise TypeError("data must be a CompleteSample or a JpcSample")


def _resample_indices(normalized: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    c = np.cumsum(normalized)
    c[-1] = 1.0
    return np.searchsorted(c, rng.uniform(n), side="left")
