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
One rate proposal serves every prior.  Given the shape ``a``, let
``R1 = b0 + U(a)``, ``R2 = b0 + V(a)``, ``(s1, s2) = (a1 + k1, a2 + k2)``,
``G = a0 + k``, ``c = a0 - a1 - a2`` and ``w = s1/(s1 + s2)``.  The folded
ordered prior is a sum of two terms whose larger one on ``lambda1 <
lambda2`` puts ``min(a1, a2)`` with ``lambda1``; ordered priors keep that
term, ``(s1, s2) = (min(a1, a2) + k1, max(a1, a2) + k2)``.

The substitution ``X = R1 l1``, ``Y = R2 l2``, ``T = X + Y``, ``B = X/T``
factors the rate posterior given ``a``: T is gamma(G), independent of B,
and B has density proportional to

    B^(s1-1) (1-B)^(s2-1) h(B),   h(B) = (B rho^(1-w) + (1-B) rho^(-w))^c,

with ``rho = R2/R1``.  The order ``lambda1 < lambda2`` is exactly the cut
``B < x0 = R1/(R1 + R2)``.  The factor left in ``a`` is the shape marginal

    s(a) = (k + as - 1) ln a - a (bs - sum ln t)
           - G w ln(b0 + U(a)) - G (1 - w) ln(b0 + V(a)),

with ``(as, bs)`` the shape prior's hyperparameters: one concave term
(``rng._ConcaveTerm``, as a fit's profile is), since both weights are
non-negative and the log of each power sum is a log-sum-exp of functions
affine in ``a``.  The shape is drawn exactly from ``exp(s)`` by rejection
from one static tangent hull; then
``T ~ Gamma(G)`` and ``B ~ Beta(s1, s2)``, cut to ``(0, x0)`` for an ordered
prior (by rejection where the cut keeps enough mass, else by inversion),
give ``l1 = B T/R1`` and ``l2 = (1-B) T/R2``.  The importance weight is

    ln g = c ln h(B) + [ordered] ln I_x0(s1, s2)
           + [ordered] ln((1 + (l1/l2)^|a2 - a1|) / 2),

with ``I`` the regularized incomplete beta function.  ``ln h(B)`` lies
between ``-w ln rho`` and ``(1-w) ln rho``, the second term in (-inf, 0]
and the last in [-ln 2, 0] (0 when a1 = a2).  So an unordered prior with
c = 0, the flat one among them, draws exactly, with g = 1.  No quadrature
enters, so shape draws are exact up to floating point.

A posterior core holds one group or two.  One complete sample is one
group with a gamma(a0, b0) rate prior: G = s1 = a0 + n, so w = 1, c = 0,
the rate is ``T/R1`` with no split, and g = 1.

Cores draw as a stack, one row each (a lone draw is a stack of one): one
tangent call builds every hull, and the proposals, the marginal at them,
the rejection test and the rates are array steps over the rows.  Each row
draws from its own stream exactly the variates, in the order and counts,
that it would draw alone, so its draws are its lone draws byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateWeightsError, ImproperPosteriorError, _check_count, _check_level, _check_real
from .gof import CompleteSample, _ks_rows
from .jpc import JpcSample, simulate_jpc_batch
from .mle import IntervalEstimate
from .rng import (
    BetaGammaHyper,
    PowerSum,
    RngStream,
    _ConcaveTerm,
    _locate_modes,
    _max_shift,
    build_static_envelope,
)

_CUT_FLOOR = 0.25
_CUT_ROUNDS = 3


@dataclass(frozen=True)
class ShapeHyper:
    """Gamma hyperparameters (shape ``a``, rate ``b``) for the Weibull shape."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            _check_real(name, getattr(self, name), positive=False)


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
    draws are exact): exactly 1 for one complete sample and for an
    unordered prior with a0 = a1 + a2, and in [0, 1] for an ordered one
    with a0 = a1 + a2 (the flat ordered prior among them).  The other
    priors carry the factor h(B)^c of the module docstring, which lies
    between rho^(-c w) and rho^(c (1 - w)) for rho = (b0 + V)/(b0 + U).
    ``normalized`` always sums to one.  ``log_lambda1`` and ``log_lambda2``
    are the rates' logs as drawn, exact where a rate underflows to 0.
    ``low_ess`` is set when the effective sample size 1/sum(normalized^2)
    falls below one percent of the number of draws.  ``proposed``, ``accepted``
    and ``tangents`` count the shapes drawn from the hull, those that rejection
    kept (a last batch may overshoot the draws) and the hull's lines.
    """

    alpha: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    log_lambda1: np.ndarray
    log_lambda2: np.ndarray
    weights: np.ndarray
    normalized: np.ndarray
    low_ess: bool = False
    proposed: int = 0
    accepted: int = 0
    tangents: int = 0

    def __post_init__(self):
        arrays = (self.alpha, self.lambda1, self.lambda2, self.log_lambda1, self.log_lambda2, self.weights)
        if len({np.asarray(a).shape for a in arrays + (self.normalized,)}) != 1:
            raise ValueError("all draw arrays must share one shape")
        if np.any(self.normalized < 0.0) or abs(float(self.normalized.sum()) - 1.0) > 1e-9:
            raise ValueError("normalized weights must be a probability vector")

    @property
    def n_draws(self) -> int:
        return int(np.asarray(self.alpha).size)

    @property
    def ess(self) -> float:
        return float(1.0 / np.sum(self.normalized**2))


def _check_decay(branch: _ConcaveTerm) -> None:
    """Refuse a concave shape marginal unless its slope's limit, ``-c1 -
    sum c2 L`` with L the ``top`` of a group's kernel, its largest log time
    of positive weight (0 if below 0 and b0 > 0), is negative beyond 1e-12
    of its terms' size (rounding)."""
    floor = 0.0 if branch.log_b0 > -math.inf else -math.inf
    terms = [branch.c1] + [c2 * max(float(g.top), floor) for g, c2 in branch.groups]
    if not -sum(terms) < -1e-12 * sum(map(abs, terms)):
        raise ImproperPosteriorError("shape marginal does not decay")


def _sample_marginal(cores, n: int, rngs) -> tuple:
    """Exact shape draws, ``n`` per core (of samples with equal k), from
    exp(s), s its shape marginal, by rejection from its tangent hull around
    its mode (searched where not set), every hull from one tangent call.
    Returns the draws, the log power sums of the kept shapes (one row per
    group, then per core), the sampler counts and each core's error (None
    for none).  Core ``i`` draws from ``rngs[i]`` alone, ``3c`` uniforms per
    round of ``c`` proposals (segments, places, tests); the first round is
    sized for 95% acceptance (the study presets get about 99%), later ones
    for the acceptance seen, and rejection is exact whatever the sizes."""
    shape_modes([c for c in cores if c.mode is None])
    term = _stack(cores)
    env = build_static_envelope(term.local, np.array([c.mode for c in cores]))
    rows = len(cores)
    out, kept = np.zeros((rows, n)), np.zeros((len(term.groups), rows, n))
    have, proposed, accepted = (np.zeros(rows, dtype=np.int64) for _ in range(3))
    rate, errors = np.full(rows, 0.95), list(env.errors)
    live = np.flatnonzero([e is None for e in errors])
    for _ in range(10000):
        if not live.size:
            break
        need = n - have[live]
        chunk = (need / rate[live]).astype(np.int64) + 8
        u = np.full((3, live.size, chunk.max()), 0.5)
        for i, r in enumerate(live):
            u[:, i, : chunk[i]] = rngs[r].uniform(3 * chunk[i]).reshape(3, -1)
        q, seg = env.sample(u[0], u[1], live)
        log_f, sums = (term if live.size == rows else _stack([cores[r] for r in live]))(q)
        accept = np.log(np.clip(u[2], 1e-300, None)) <= log_f - env.log_value(q, seg)
        accept &= np.arange(q.shape[1]) < chunk[:, None]
        rank = np.cumsum(accept, axis=1)
        src = np.flatnonzero(accept & (rank <= need[:, None]))
        dst = (live * n + have[live])[src // q.shape[1]] + rank.ravel()[src] - 1
        out.ravel()[dst] = q.ravel()[src]
        kept.reshape(len(kept), -1)[:, dst] = sums.reshape(len(sums), -1)[:, src]
        have[live] += np.minimum(rank[:, -1], need)
        proposed[live] += chunk
        accepted[live] += rank[:, -1]
        rate[live] = np.maximum(0.05, accepted[live] / proposed[live])
        live = live[have[live] < n]
    for r in live:
        errors[r] = ImproperPosteriorError("shape sampler stalled; acceptance is vanishing")
    return out, kept, dict(proposed=proposed, accepted=accepted, tangents=env.tangents), errors


def _stack(cores) -> _ConcaveTerm:
    """The shape marginals of ``cores`` (of samples with equal k) stacked:
    their kernels' rows gathered, the coefficients as a column."""
    terms = [c.branch for c in cores]
    c0, c1, log_b0 = (np.array([[getattr(t, a)] for t in terms]) for a in ("c0", "c1", "log_b0"))
    sums = (PowerSum.gather([(c.sums[g], c.row) for c in cores]) for g in range(len(cores[0].sums)))
    c2 = (np.array([[c2] for _, c2 in col]) for col in zip(*(t.groups for t in terms)))
    return _ConcaveTerm(c0, c1, list(zip(sums, c2)), log_b0)


def _rates(cores, sums: np.ndarray, rngs):
    """Rates, their logs and their log weights given the shapes' log power
    sums (one row per group, then per core), one row per core, each drawn
    from its own stream in ``rngs``: a gamma total first, then the split.
    One group's rate is its gamma(G) total over R_1; two groups split the
    total by a beta(s1, s2) fraction of the rescaled rates, cut below x0 for
    an ordered prior.  Where the cut keeps ``_CUT_FLOOR`` of the mass or
    more, beta draws below x0 are kept over ``_CUT_ROUNDS`` rounds; the rest
    invert ``I``.  Each rate is ``exp(ln fraction + ln total - ln R_g)``,
    which never divides by an overflowed ``R_g``: a rate is 0 only where
    its log, also returned, is below -745 and infinite only above 709.78."""
    col = lambda v: np.array(v, dtype=float)[:, None]  # noqa: E731
    ln_r = np.logaddexp(col([c.log_b0 for c in cores]), sums)
    rows, size = sums.shape[1:]
    total = np.array([rng.gamma(c.gamma_shape, size=size) for c, rng in zip(cores, rngs)])
    with np.errstate(divide="ignore"):
        ln_total = np.log(total)
    ln_g = np.zeros((rows, size))
    if len(ln_r) == 1:
        lam = np.exp(ln_l := ln_total - ln_r[0])
        return lam, lam, ln_l, ln_l, ln_g
    bgs, (s1, s2) = [c.prior.bg for c in cores], zip(*(c.group_shapes for c in cores))
    ordered = np.flatnonzero([c.prior.ordered for c in cores])
    ln_r1, ln_r2 = ln_r
    ln_rho = ln_r2 - ln_r1
    frac = np.empty((rows, size))
    if ordered.size:
        from scipy.special import betainc, betaincinv, expit

        x0 = expit(-ln_rho[ordered])
        cut = betainc(col(s1)[ordered], col(s2)[ordered], x0)
        for i, r in enumerate(ordered):
            left = np.flatnonzero(cut[i] >= _CUT_FLOOR)
            for _ in range(_CUT_ROUNDS):
                b = rngs[r].beta(s1[r], s2[r], size=left.size)
                below = b < x0[i, left]
                frac[r, left[below]] = b[below]
                left = left[~below]
            left = _merge(cut[i] < _CUT_FLOOR, left)
            u = 1.0 - rngs[r].uniform(left.size)
            with np.errstate(divide="ignore"):
                inv = betaincinv(s1[r], s2[r], u * cut[i, left])
            # where the inverse underflows the cut is deep in the left tail,
            # and there the cut beta tends to x0 * Beta(s1, 1)
            frac[r, left] = np.where(inv > 0.0, inv, x0[i, left] * u ** (1.0 / s1[r]))
        with np.errstate(divide="ignore"):
            ln_g[ordered] += np.log(cut)
        frac[ordered] = np.minimum(frac[ordered], np.nextafter(x0, 0.0))
    for r in np.flatnonzero([not c.prior.ordered for c in cores]):
        frac[r] = rngs[r].beta(s1[r], s2[r], size=size)
    with np.errstate(divide="ignore"):
        ln_frac, ln_rest = np.log(frac), np.log1p(-frac)
    c, w = col([bg.a0 - bg.a1 - bg.a2 for bg in bgs]), col(s1) / (col(s1) + col(s2))
    t = np.flatnonzero(c)
    ln_g[t] += c[t] * np.logaddexp(ln_frac[t] + (1.0 - w[t]) * ln_rho[t], ln_rest[t] - w[t] * ln_rho[t])
    ln_l1, ln_l2 = ln_frac + ln_total - ln_r1, ln_rest + ln_total - ln_r2
    l1, l2 = np.exp(ln_l1), np.exp(ln_l2)
    l1[ordered] = np.minimum(l1[ordered], np.nextafter(l2[ordered], 0.0))
    gaps = {r: abs(bgs[r].a2 - bgs[r].a1) for r in ordered if bgs[r].a1 != bgs[r].a2}
    for gap in set(gaps.values()):  # a scalar power, as alone
        t = [r for r, g in gaps.items() if g == gap]
        ln_g[t] += np.log1p((l1[t] / l2[t]) ** gap) - math.log(2.0)
    return l1, l2, ln_l1, ln_l2, ln_g


def _merge(mask: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.union1d(np.flatnonzero(mask), idx)``, with no sort."""
    return np.flatnonzero(mask | (np.bincount(idx, minlength=mask.size) > 0))


class _DrawStack:
    """``n`` posterior draws for each core of ``rngs`` (of samples with
    equal k) from its stream there, made in array steps over a group of
    about 2^14 draws when the first of the group is taken, so memory stays
    flat however many cores join.  A row draws what it would alone."""

    def __init__(self, n: int, rngs: dict):
        _check_count("n_draws", n, 1)
        self.n, self.rngs, self.made, self.rows = n, rngs, {}, {core: i for i, core in enumerate(rngs)}
        for core in rngs:
            core.stack = self

    def take(self, core) -> WeightedPosterior:
        """The draws of ``core``, or the error its row raised; the core
        leaves the stack."""
        if core not in self.made:
            step, n = max(1, 2**14 // self.n), self.n
            first = self.rows[core] // step * step
            cores = list(self.rngs)[first : first + step]
            rngs = [self.rngs[c] for c in cores]
            alpha, sums, counts, made = _sample_marginal(cores, n, rngs)
            l1, l2, ln_l1, ln_l2, ln_g = _rates(cores, sums, rngs)  # a failed row's are never read
            dead = ~np.any(ln_g > -math.inf, axis=1)
            ln_g[dead] = 0.0
            normalized, _ = _max_shift(ln_g)
            normalized /= normalized.sum(axis=1, keepdims=True)
            low = 1.0 / np.sum(normalized**2, axis=1) < 0.01 * n
            with np.errstate(over="ignore"):
                weights = np.exp(ln_g)
            for r in np.flatnonzero([e is None for e in made]):
                if dead[r]:
                    made[r] = DegenerateWeightsError("every importance weight underflowed to zero")
                    continue
                lam, kw = l1[r], {k: int(v[r]) for k, v in counts.items()}
                made[r] = WeightedPosterior(
                    alpha[r], lam, lam if l2 is l1 else l2[r], ln_l1[r], ln_l2[r], weights[r], normalized[r],
                    bool(low[r]), **kw,
                )
            self.made.update(zip(cores, made))
        core.stack, made = None, self.made.pop(core)
        if isinstance(made, Exception):
            raise made
        return made


class _PosteriorCore:
    """Shared machinery behind every posterior in this module.

    A core holds one group or two, row ``row`` of each (kernel stack,
    counts) pair of ``groups``, with the sum of the log failure times and
    the prior; a one-group core reads only a0, b0 and the shape prior.  It
    owns the shape marginal of the one rate proposal (see the module
    docstring) and its properness checks, and draws as a row of a
    :class:`_DrawStack`, around its ``mode`` (searched there unless
    :func:`shape_modes` has set it).
    """

    stack = None

    def __init__(self, groups, row: int, sum_log_t: float, prior: PriorSpec):
        self.prior = prior
        self.mode = None
        self.sums, self.row, counts = [g for g, _ in groups], row, [float(n[row]) for _, n in groups]
        k = sum(counts)
        bg = prior.bg
        self.gamma_shape = bg.a0 + k
        if len(groups) == 1:
            self.group_shapes = (self.gamma_shape,)
        else:
            # an ordered prior keeps the larger term of its folded sum on
            # lambda1 < lambda2, which puts the smaller of a1, a2 with lambda1
            low, high = sorted((bg.a1, bg.a2)) if prior.ordered else (bg.a1, bg.a2)
            self.group_shapes = (low + counts[0], high + counts[1])
        if min(self.gamma_shape, *self.group_shapes) <= 0.0:
            raise ImproperPosteriorError(
                "rate posterior is improper: a flat hyperparameter meets a zero count"
            )
        # (G w, G (1 - w)) = (s1, s2) G / (s1 + s2), exactly (s1, s2) when c = 0
        scale = self.gamma_shape / sum(self.group_shapes)
        self.log_b0 = math.log(bg.b0) if bg.b0 > 0.0 else -math.inf
        c2 = [(g.take(row), scale * s) for g, s in zip(self.sums, self.group_shapes)]
        self.branch = _ConcaveTerm(k + prior.shape.a - 1.0, prior.shape.b - sum_log_t, c2, self.log_b0)
        _check_decay(self.branch)

    @classmethod
    def of(cls, sample, prior: PriorSpec) -> "_PosteriorCore":
        """The core of a ``sample`` that :func:`draw_posterior` takes; any
        other input raises :class:`TypeError`."""
        if isinstance(sample, JpcSample):
            return cls(sample.groups, 0, sample.sum_log_t, prior)
        samples = sample if isinstance(sample, tuple) and len(sample) == 2 else (sample,)
        if not all(isinstance(d, CompleteSample) for d in samples):
            raise TypeError("sample must be a JpcSample, a CompleteSample or a pair of CompleteSamples")
        groups = [(PowerSum(1.0, d.log_values[None]), [d.n]) for d in samples]
        return cls(groups, 0, sum(d.sum_log for d in samples), prior)

    def draw(self, n: int, rng: RngStream) -> WeightedPosterior:
        """``n`` draws from ``rng``: those of the :class:`_DrawStack` this
        core joined with this ``n`` and stream, else of a stack of one."""
        if self.stack is None or self.stack.n != n or self.stack.rngs[self] is not rng:
            _DrawStack(n, {self: rng})
        return self.stack.take(self)


def shape_modes(cores) -> None:
    """Set the ``mode`` of each core (of samples with equal k) from one
    lockstep search, one row per core: a row's mode is the one a lone
    search finds, ``inf`` where its marginal still rises at 1e10."""
    if cores:
        deriv = _stack(cores).deriv  # one column of shapes
        modes = _locate_modes(lambda x: [v[:, 0] for v in deriv(x[:, None])], len(cores))
        for core, mode in zip(cores, modes):
            core.mode = mode


def draw_posterior(sample, prior: PriorSpec, n_draws: int, rng: RngStream, core=None) -> WeightedPosterior:
    """Importance-weighted posterior draws for a :class:`JpcSample`, one
    :class:`CompleteSample`, or a pair (a 2-tuple) of complete samples
    sharing one shape; any other ``sample`` raises :class:`TypeError`.

    A complete sample is one group whose rate prior is gamma(a0, b0): its
    draws are exact, with unit weights and one rate array (``lambda1`` is
    ``lambda2``), and of ``prior`` it reads only a0, b0 and the shape prior.

    ``core``, the ``_PosteriorCore`` of ``sample`` and ``prior`` (its mode
    maybe set by :func:`shape_modes`), is built here when not given; given,
    it is all that is read of ``sample``, which may then be None.

    Raises :class:`ImproperPosteriorError` when either the rate update or
    the shape marginal fails its integrability check, which happens for
    flat priors when one group never fails.
    """
    core = core or _PosteriorCore.of(sample, prior)
    return core.draw(n_draws, rng)


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
    _check_level(level)
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

    The discrepancy is the largest group-wise KS distance of the times
    against the drawn laws (``gof._ks_rows``, from the draws' log rates).
    ``data`` may be a :class:`CompleteSample`, one group whose replicates'
    CDF values under their own law are sorted uniforms whatever the draw,
    so each is taken as a sorted row u of ``(n_rep, n)`` uniforms, at
    distance max(i/n - u_(i), u_(i) - (i - 1)/n) (its posterior reads only
    a0, b0 and the shape prior from ``prior``), or a :class:`JpcSample`,
    whose failure times form two groups and whose replicates come from one
    :func:`simulate_jpc_batch` call with per-row parameters.

    ``posterior``, a :class:`WeightedPosterior` of ``data``, supplies draws
    the caller already has instead of drawing them from ``prior``; a
    complete sample's rates are its ``lambda1`` and ``log_lambda1`` (for
    one group's margin of a common-shape posterior, ``dataclasses.replace``
    puts that group's rates there).
    """
    if rng is None:
        raise ValueError("an explicit RngStream is required")
    _check_count("n_rep", n_rep, 1)
    if posterior is not None and not isinstance(posterior, WeightedPosterior):
        raise TypeError("posterior must be a WeightedPosterior")
    if isinstance(data, CompleteSample):
        log_t, delta = np.log(data.sorted), np.ones(data.n)

        def replicate(_):
            u, rank = np.sort(rng.uniform((n_rep, data.n)), axis=1), np.arange(1, data.n + 1)
            return np.maximum((rank / data.n - u).max(axis=1), (u - (rank - 1) / data.n).max(axis=1))

    elif isinstance(data, JpcSample):
        log_t, delta = data.log_t, data.delta

        def replicate(idx):
            par = (post.alpha[idx], post.lambda1[idx], post.lambda2[idx])
            rep = simulate_jpc_batch(data.scheme, par, rng, n_rep)
            return _ks_rows(*rep[:2], par[0], post.log_lambda1[idx], post.log_lambda2[idx])

    else:
        raise TypeError("data must be a CompleteSample or a JpcSample")
    post = posterior or draw_posterior(data, prior, n_rep, rng)
    d_obs = _ks_rows(log_t, delta, post.alpha, post.log_lambda1, post.log_lambda2)
    idx = _resample_indices(post.normalized, n_rep, rng)
    return float(np.mean(replicate(idx) >= d_obs[idx])), float((post.normalized * d_obs).sum())


def _resample_indices(normalized: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    c = np.cumsum(normalized)
    c[-1] = 1.0
    return np.searchsorted(c, rng.uniform(n), side="left")
