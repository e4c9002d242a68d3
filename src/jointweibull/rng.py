"""Counter-addressed random streams and the samplers built on top of them.

A stream is identified by a ``(seed, counter)`` pair which is used verbatim
as a Philox key, so any stream can be reconstructed from two integers and
substreams are independent by construction rather than by distance in a
single sequence.  Everything downstream (simulation, bootstrap, posterior
draws, Monte Carlo studies) receives an explicit :class:`RngStream`; there
is no module-level hidden state.

Tangents to a concave log-density form a piecewise-exponential upper hull
whose segments are truncated exponentials.  Measured from its higher end,
each segment is normalized and sampled exactly by one closed form with no
overflowing term; the posterior samplers use such hulls as static proposals
for their shape draws.  A log-density is one vectorized callable
(:data:`LogDensity`) that returns its value, slope and curvature together,
and hulls come only as stacks, one hull per row (a lone hull is a stack of
one), built in one step from the arrays of their tangents.  The module also
holds the package's one root finder, :func:`_solve_rows`, a
lockstep safeguarded Newton search from a start the caller chooses, over
rows of decreasing functions given with their slopes: it locates the mode
that seeds each hull, and the maximum likelihood fits elsewhere solve
their profile score equations with it.  Next to it sit the one power-sum
kernel, :class:`PowerSum`: every ln(sum c t^a) in the package and its first
two derivatives in ``a``, one group per row of a stack (a lone group is a
stack of one), and the one concave term built on it,
:class:`_ConcaveTerm`: ``c0 ln a - c1 a - sum_g c2_g ln(b0 + S_g(a))``,
which is both the profile log-likelihood of every maximum likelihood fit
and the shape marginal of every posterior.  The max-shift :func:`_max_shift`
serves the importance weights and the hulls; the tests build their
log-sum-exp oracle for :class:`PowerSum` on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonIntegrableTargetError, _check_count, _check_real

_MASK64 = (1 << 64) - 1

# Root search: brackets stay inside [_ROOT_FLOOR, _ROOT_CEIL], and a row is
# solved once its Newton step is within _REL_TOL / 2 of its abscissa or its
# bracket is narrower than _REL_TOL of its upper end.
_ROOT_FLOOR = 1e-10
_ROOT_CEIL = 1e10
_REL_TOL = 1e-10
_MAX_SWEEPS = 200

# A concave log-density known up to a constant, as one vectorized callable
# that returns its value, slope and curvature at an array of abscissae.  The
# slope must agree with the value to a few ulps, since the hull's tangents
# are built from both; the curvature gives the mode search its Newton steps
# and the hull its scale at the mode.
LogDensity = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _max_shift(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(x - m)`` and ``m``, the maximum along the last axis kept as a
    length-1 axis.  A row whose maximum is not finite is shifted by 0
    instead, so an all ``-inf`` row exponentiates to zeros rather than NaN."""
    top = x.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    wgt = x - top
    np.exp(wgt, out=wgt)
    return wgt, top


class PowerSum:
    """``ln S(a)``, ``S(a) = sum_j c_j t_j^a``, for shapes ``a >= 0``, of
    groups stacked in rows of ``log_t`` (a lone group is a stack of one);
    ``c >= 0`` broadcasts.

    Set up once: ``top`` = L, the largest ``ln t_j`` of weight ``c_j > 0``,
    the offsets ``ln t_j - L <= 0`` and the weights ``c``, so ``ln S(a) = a L
    + ln sum_j c_j exp(a (ln t_j - L))``: no term overflows and the top column
    adds its ``c`` (>= 1 for the package's counts), so no call takes a max or
    mends a shift.  A zero-weight column holds offset 0 and weight 0.
    """

    def __init__(self, c, log_t):
        log_t = np.asarray(log_t, dtype=float)
        self.wgt = np.broadcast_to(np.asarray(c, dtype=float), log_t.shape)
        pos = self.wgt > 0.0
        self.top = np.where(pos, log_t, -math.inf).max(axis=-1)
        self.off = np.where(pos, log_t - self.top[..., None], 0.0)

    def take(self, rows) -> "PowerSum":
        """The stack of the rows that ``rows`` (a list, index array, mask or slice) names."""
        out = PowerSum.__new__(PowerSum)
        out.top, out.off, out.wgt = self.top[rows], self.off[rows], self.wgt[rows]
        return out

    @staticmethod
    def gather(picks) -> "PowerSum":
        """The stack of the rows that ``picks`` names, (stack, row) pairs."""
        stacks = list({id(p): p for p, _ in picks}.values())
        if len(stacks) == 1:
            return stacks[0].take([r for _, r in picks])
        at = dict(zip(map(id, stacks), np.cumsum([0] + [len(p.top) for p in stacks]).tolist()))
        out = PowerSum.__new__(PowerSum)
        out.top, out.off, out.wgt = (np.concatenate(v) for v in zip(*((p.top, p.off, p.wgt) for p in stacks)))
        return out.take([at[id(p)] + r for p, r in picks])

    def exps(self, a: np.ndarray) -> np.ndarray:
        """``exp(a (ln t_j - L))`` at the shapes ``a``, ``(rows, times, shapes...)``."""
        e = np.einsum("bj,b...->bj...", self.off, a if a.ndim else np.broadcast_to(a, self.top.shape))
        return np.exp(e, out=e)

    def log_sum(self, alpha, exps=None):
        """``ln S`` at ``alpha``, any shape form :meth:`moments` takes, from
        ``exps``, the :meth:`exps` there of this kernel or of one with its
        offsets where it weighs, summed over the times for all of a row's
        shapes at once, so the last bits may differ from :meth:`moments`."""
        a = np.asarray(alpha, dtype=float)
        e = self.exps(a) if exps is None else exps
        top = self.top.reshape(self.top.shape + (1,) * (a.ndim - 1))
        return a * top + np.log(np.einsum("bj...,bj->b...", e, self.wgt))

    def moments(self, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean and variance of ``ln t`` under the weights ``c t^a``, and
        ``ln S``: d/da and d2/da2 of ``ln S`` at ``alpha``, and ``ln S``.
        The sums are contractions over the weighted exponentials, and the
        variance is the weighted sum of squared deviations from the mean."""
        a = np.asarray(alpha, dtype=float)
        top, off, wgt = self.top, self.off, self.wgt
        if a.ndim > 1:  # a row of shapes per row
            top, off, wgt = top[:, None], off[:, None], wgt[:, None]
        w = a[..., None] * off
        np.exp(w, out=w)
        w *= wgt
        tot = np.einsum("...j->...", w)
        mean = np.einsum("...j,...j->...", w, off) / tot
        dev = off - mean[..., None]
        var = np.einsum("...j,...j,...j->...", w, dev, dev) / tot
        return top + mean, var, a * top + np.log(tot)


class _ConcaveTerm:
    """``s(a) = c0 ln a - c1 a - sum_g c2_g ln(b0 + S_g(a))``, concave in the
    shape ``a > 0`` where ``c0`` and every ``c2_g`` are >= 0, from ``groups``
    of (kernel of ``S_g``, ``c2_g``) pairs and ``log_b0`` (``-inf`` for no
    ``b0``): the profile log-likelihood of a fit (``c0 = k``, ``c1 = -sum ln
    t``, ``c2_g = k_g``, no ``b0``) and the shape marginal of a posterior
    core.  Its kernels are stacks (one row for a lone term): each coefficient
    and shape hold one entry per row, or a column meets a row of shapes.
    With ``D = S/(b0 + S)`` and ``E``, ``Var`` the mean and variance of ``ln
    t`` under the weights of ``S``, the slope is ``c0/a - c1 - sum c2 D E``
    and the curvature ``-c0/a^2 - sum c2 D (Var + (1 - D) E^2)``; without
    ``b0``, ``D`` is exactly 1 and is not formed.
    """

    def __init__(self, c0, c1, groups, log_b0=-math.inf):
        self.c0, self.c1, self.groups, self.log_b0 = c0, c1, list(groups), log_b0
        self._b0 = np.broadcast_to(np.ravel(log_b0), len(self.groups[0][0].top))
        self._damped = np.flatnonzero(self._b0 > -math.inf)  # the rows with b0 > 0

    def __call__(self, alpha):
        """``s(alpha)`` and the ``ln(b0 + S_g)`` it reads, one row per group,
        at one shape or a row of shapes per row, sharing exponentials as
        :attr:`_shared` says; rows with no ``b0`` skip ``np.logaddexp``."""
        a = np.asarray(alpha, dtype=float)
        merged, own, rest = self._shared
        e = None if merged is None else merged.exps(a)
        with np.errstate(divide="ignore"):  # the rows of own read exponentials not theirs
            sums = np.stack([g.log_sum(a, e) for g, _ in self.groups])
        if len(own):
            sums[1, own] = rest.log_sum(a[own])
        at = self._damped
        sums[:, at] = np.logaddexp(self._b0[at].reshape(at.shape + (1,) * (a.ndim - 1)), sums[:, at])
        return self._value(a, sums), sums

    @cached_property
    def _shared(self):
        """``(merged, own, rest)``: on rows where two kernels have one ``top``
        and agree on every column both weigh, ``merged``, the first with the
        second's offsets where only that one weighs, forms the exponentials
        of both; ``rest``, the second on the other rows ``own``, its own."""
        kernels = [g for g, _ in self.groups]
        if len(kernels) != 2 or kernels[0].off.shape != kernels[1].off.shape:
            return None, [], None
        u, v = kernels
        share = (u.top == v.top) & np.all((u.off == v.off) | (u.wgt == 0.0) | (v.wgt == 0.0), axis=-1)
        merged, own = u.take(slice(None)), np.flatnonzero(~share)
        merged.off = np.where(share[:, None] & (u.wgt == 0.0), v.off, u.off)
        return (merged, own, v.take(own)) if share.any() else (None, [], None)

    def local(self, alpha):
        """Value, slope and curvature at ``alpha``: a :data:`LogDensity`."""
        moments = [g.moments(alpha) for g, _ in self.groups]
        logs = [np.logaddexp(self.log_b0, m[2]) if self._damped.size else m[2] for m in moments]
        return (self._value(alpha, logs), *self._derivs(alpha, moments))

    def deriv(self, alpha):
        """Slope and curvature at ``alpha``, all a root search reads."""
        return self._derivs(alpha, [g.moments(alpha) for g, _ in self.groups])

    def _value(self, alpha, logs):
        with np.errstate(divide="ignore"):
            val = self.c0 * np.log(alpha) if np.any(self.c0 != 0.0) else 0.0
        val = val - self.c1 * alpha
        for (_, c2), log in zip(self.groups, logs):
            val = val - c2 * log
        return val

    def _derivs(self, alpha, moments):
        slope, curv = self.c0 / alpha - self.c1, -self.c0 / alpha**2
        for (_, c2), (mean, var, ln_sum) in zip(self.groups, moments):
            if self._damped.size:
                damp = np.exp(ln_sum - np.logaddexp(self.log_b0, ln_sum))
                c2, var = c2 * damp, var + (1.0 - damp) * mean**2
            slope, curv = slope - c2 * mean, curv - c2 * var
        return slope, curv


def splitmix64(x: int) -> int:
    """Mix an integer into a well-spread 64-bit value (SplitMix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Reproducible generator addressed by a ``(seed, counter)`` pair.

    Streams with equal addresses replay identical output; streams whose
    counters differ use distinct Philox key blocks and are therefore
    independent.  ``substream(i)`` derives the stream at counter offset
    ``i`` without consuming any randomness from the parent.
    """

    __slots__ = ("seed", "counter", "_gen")

    def __init__(self, seed: int, counter: int = 0):
        _check_count("seed", seed)
        _check_count("counter", counter, -math.inf, math.inf)
        self.seed, self.counter = int(seed), int(counter) & _MASK64
        key = np.array([self.seed, self.counter], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.counter + offset)

    # thin wrappers so all draws are auditable through one interface

    def uniform(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def exponential(self, size=None):
        """Standard (unit-rate) exponential draws."""
        return self._gen.standard_exponential(size)

    def hypergeometric(self, ngood, nbad, nsample):
        """Good units among ``nsample`` drawn without replacement from
        ``ngood`` good and ``nbad`` bad ones; broadcasts over arrays."""
        return self._gen.hypergeometric(ngood, nbad, nsample)

    def gamma(self, shape, rate=1.0, size=None):
        """Gamma draw parameterized by shape and *rate* (not scale).

        Shape exactly zero is rejected: the degenerate point mass at zero is
        never a valid conditional in this package and usually signals an
        improper posterior upstream.
        """
        if (np.asarray(shape) <= 0.0).any():
            raise ValueError("gamma shape must be strictly positive")
        if (np.asarray(rate) <= 0.0).any():
            raise ValueError("gamma rate must be strictly positive")
        return self._gen.gamma(shape, 1.0 / np.asarray(rate), size)

    def beta(self, a, b, size=None):
        if (np.asarray(a) <= 0.0).any() or (np.asarray(b) <= 0.0).any():
            raise ValueError("beta parameters must be strictly positive")
        return self._gen.beta(a, b, size)


@dataclass(frozen=True)
class BetaGammaHyper:
    """Hyperparameters (a0, b0, a1, a2) of the beta-gamma law on a rate pair.

    The total rate is gamma(a0, b0) and the fraction going to the first
    component is an independent beta(a1, a2).  Zeros are allowed here so the
    same container can describe flat (improper) priors; the samplers demand
    strictly positive entries.
    """

    a0: float
    b0: float
    a1: float
    a2: float

    def __post_init__(self):
        for name in ("a0", "b0", "a1", "a2"):
            _check_real(name, getattr(self, name), positive=False)


# --------------------------------------------------------------------------
# piecewise-exponential upper hulls


class PiecewiseExpEnvelope:
    """A stack of upper hulls of concave log-densities built from tangent
    lines, one hull per row.

    Every tangent to a concave function dominates it, so the pointwise
    minimum of any collection of tangents is a valid envelope regardless of
    where the tangents were taken; placement only affects tightness.  The
    hull is a piecewise-linear function of the abscissa, hence a piecewise
    exponential density after exponentiation.  Its support is [0, inf), the
    range of every shape parameter the package samples.

    Each segment is a truncated exponential measured from its higher end,
    the left end unless its slope ``a`` is positive; a flat segment
    (``|a| d < 1e-12``, where the sign of ``a`` is round-off) is measured
    from its left end.  With rate ``|a|``, width ``d`` and height ``H``
    there, its log mass is
    ``H + ln((1 - exp(-|a| d)) / |a|)``, or ``H + ln d`` where
    ``|a| d < 1e-12``, and a draw with uniform ``w`` lies
    ``-ln(1 - w (1 - exp(-|a| d))) / |a|``, or ``w d``, from that end.  Seen
    from there no term overflows and a rising segment needs no branch of its
    own, so both forms are array expressions over all segments.  Each hull
    has a slot per tangent, the ``tangents`` it keeps first in abscissa
    order and then masked ones of no mass.
    """

    def __init__(self, x, h, dh):
        """The hulls on [0, inf) of the tangents with abscissae ``x``,
        heights ``h`` and slopes ``dh``, one hull per row of these 2-D
        arrays, each row's error (None for none) recorded in ``errors``; a
        tangent with a non-finite entry or ``x < 0`` is masked."""
        x, h, dh = (np.asarray(v, dtype=float) for v in (x, h, dh))
        usable = np.isfinite(x) & np.isfinite(h) & np.isfinite(dh) & (x >= 0.0)
        # orders along the last axis, as indices into the flattened arrays
        base = np.arange(0, x.size, x.shape[-1])[:, None]
        order = np.argsort(np.where(usable, x, math.inf), axis=-1, kind="stable") + base
        ok, slope = np.take(usable, order), np.take(np.where(usable, dh, 0.0), order)
        # Concavity means slopes fall left to right; floating noise can give
        # tiny inversions or duplicates.  Each tangent dominates the target
        # alone, so any subset is a valid hull: keep a tangent only where its
        # slope is below every slope to its left.  The rightmost tangent and
        # the rightmost kept one must both fall, or the mass is infinite.
        low = np.minimum.accumulate(np.where(ok, slope, math.inf), axis=-1)
        edge = np.zeros_like(x[..., :1])
        left = np.concatenate((edge + math.inf, low[..., :-1]), axis=-1)
        keep = ok & (slope < left - 1e-13 * (1.0 + np.abs(slope)))
        used, self.tangents = ok.sum(axis=-1), keep.sum(axis=-1)
        order = np.take(order, np.argsort(~keep, axis=-1, kind="stable") + base)
        keep = np.arange(x.shape[-1]) < self.tangents[..., None]
        x, h, dh = (np.where(keep, np.take(v, order), 0.0) for v in (x, h, dh))
        # flat indices of each row's rightmost usable and rightmost kept tangent
        last = base[..., 0] - 1 + np.maximum([used, self.tangents], 1)
        rise = np.maximum(np.take(slope, last[0]), np.take(dh, last[1])) >= 0.0
        msg = np.where(rise, "rightmost tangent slope is non-negative; envelope has infinite mass", "")
        msg = np.where(used == 0, "no usable tangent points", msg)
        with np.errstate(divide="ignore", invalid="ignore"):
            # breakpoints: support edge, intersections of consecutive kept
            # tangents, +inf; a clipped breakpoint still yields a valid (if
            # looser) hull, and a masked slot starts and ends at +inf
            zi = (h[..., 1:] - h[..., :-1] + x[..., :-1] * dh[..., :-1] - x[..., 1:] * dh[..., 1:]) / (
                dh[..., :-1] - dh[..., 1:]
            )
            zi = np.where(keep[..., 1:], np.minimum(np.maximum(zi, x[..., :-1]), x[..., 1:]), math.inf)
            z = np.maximum.accumulate(np.maximum(zi, 0.0), axis=-1)
            z = np.concatenate((edge, z, edge + math.inf), axis=-1)
            # a draw steps from the segment's higher end by ln(1 - w _em) / a,
            # or by w _span from the left end of a flat segment
            d = np.subtract(z[..., 1:], z[..., :-1], out=np.zeros_like(x), where=keep)
            rd = np.abs(dh) * d
            self._flat, self._em = rd < 1e-12, -np.expm1(-rd)
            up = (dh > 0.0) & ~self._flat
            self._end = np.where(keep, np.where(up, z[..., 1:], z[..., :-1]), 0.0)
            self._span = np.where(up, -d, d)
            tail = np.where(self._flat, np.log(d), np.log(self._em / np.abs(dh)))
            logmass = h + dh * (self._end - x) + tail
        self._bx, self._bh, self._bdh, self._bz = x, h, dh, z
        dead = (msg == "") & ~np.any(logmass > -math.inf, axis=-1)
        msg = np.where(dead, "envelope mass underflowed to zero", msg)
        self.errors = [NonIntegrableTargetError(m) if m else None for m in msg.tolist()]
        w, top = _max_shift(np.where((msg != "")[..., None], 0.0, logmass))  # a failed row is never drawn
        cum = np.cumsum(w, axis=-1)
        self._log_total = top[..., 0] + np.log(cum[..., -1])
        self._cum = cum / cum[..., -1:]

    def log_value(self, q, seg) -> np.ndarray:
        """Envelope height at ``q`` on the segments ``seg`` (flat indices)
        that :meth:`sample` drew."""
        return np.take(self._bh, seg) + np.take(self._bdh, seg) * (q - np.take(self._bx, seg))

    def sample(self, u, w, rows) -> tuple[np.ndarray, np.ndarray]:
        """Exact draws and their segments (flat indices) at uniforms ``u``,
        which pick segments, and ``w``, which place the draws in them: row
        ``i`` of ``u`` and ``w`` draws from hull ``rows[i]``."""
        width = self._cum.shape[-1]
        seg = np.array([np.searchsorted(self._cum[r], v) + r * width for r, v in zip(rows, u)])
        w = np.clip(w, 1e-16, 1.0 - 1e-16)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.log1p(-w * np.take(self._em, seg)) / np.take(self._bdh, seg)
        step = np.where(np.take(self._flat, seg), w * np.take(self._span, seg), step)
        return np.clip(np.take(self._end, seg) + step, 0.0, None), seg


# --------------------------------------------------------------------------
# lockstep root finding


def _solve_rows(
    deriv: Callable[[np.ndarray], tuple], n_rows: int, start=1.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of ``n_rows`` decreasing-through-zero functions, found in lockstep.

    ``deriv`` maps an ``(n_rows,)`` array of abscissae to a tuple that ends
    with the row values and their slopes, so a :data:`LogDensity` gives the
    roots of its slope, its modes; one call is one sweep.  Each row starts
    at ``start`` (a scalar or one abscissa per row, inside [1e-10, 1e10]; a
    close start saves sweeps) and takes Newton steps ``x - d/slope`` from
    its last point.  A point with a positive value becomes the row's lower
    bracket end and one with a negative value its upper end.  Until a row
    has both ends, its step is clipped to [x/2, 2x], and a step that is not
    finite or whose slope is not negative doubles or halves ``x`` towards
    the root, as the clipped steps do; a row whose next point would leave
    [1e-10, 1e10] stops there.  Once bracketed, a step that leaves the open
    bracket bisects it instead (``rtsafe``), moving at most to 2x.  A row
    stops when its Newton step is no longer than half of 1e-10 of its
    abscissa, when its value is exactly 0, or when its bracket is no wider
    than 1e-10 of its upper end; it stays put while the other rows go on,
    up to 200 sweeps in all.  Only a row's own evaluations move its state,
    so each row's root is the one it would get alone from the same start.
    A stack takes as many sweeps as its slowest row, each one over all
    rows: the maximum likelihood fits stack samples, and
    :func:`_locate_modes` stacks the shape modes of many (sample, prior)
    pairs.

    Returns ``(root, ok, sweeps)``.  ``ok`` is False for a row that neither
    landed nor was bracketed: its root is ``inf`` when its value stays
    positive up to 1e10 and ``0`` when it stays negative down to 1e-10.
    """
    x = np.array(np.broadcast_to(np.asarray(start, dtype=float), (n_rows,)))
    lo = np.zeros(n_rows)
    hi = np.full(n_rows, math.inf)
    active = np.ones(n_rows, dtype=bool)
    *_, d, slope = deriv(x)
    sweeps = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # a stopped row's state is frozen, so updating it again is a no-op
            rise = d > 0.0
            lo = np.where(rise, x, lo)
            hi = np.where(rise, hi, x)
            step = d / slope
            newton = (slope < 0.0) & np.isfinite(step)
            landed = (d == 0.0) | (newton & (np.abs(step) <= 0.5 * _REL_TOL * x))
            active &= ~landed & (lo < (1.0 - _REL_TOL) * hi)
            if sweeps >= _MAX_SWEEPS or not active.any():
                break
            twice = 2.0 * x
            nxt = np.minimum(np.maximum(x - step, 0.5 * x), twice)
            nxt = np.where(newton & (nxt > lo) & (nxt < hi), nxt, np.minimum(0.5 * (lo + hi), twice))
            # a row that would leave [1e-10, 1e10] unbracketed has no root there
            active &= (nxt >= _ROOT_FLOOR) & (nxt <= _ROOT_CEIL)
            x = np.where(active, nxt, x)
            *_, dx, sx = deriv(x)
            sweeps += 1
            d = np.where(active, dx, d)
            slope = np.where(active, sx, slope)
        # a row stops with the state that stopped it, so its root follows
        # from that state: the Newton step it landed with, or its bracket
        root = np.where(landed, np.where(d == 0.0, x, x - step), 0.5 * (lo + hi))
    ok = landed | ((lo > 0.0) & (hi < math.inf))
    root = np.where(ok, root, np.where(d > 0.0, math.inf, 0.0))
    return root, ok, sweeps


def _locate_modes(local: LogDensity, n_rows: int) -> np.ndarray:
    """Modes of ``n_rows`` concave log-densities on [0, inf), given as one
    callable that takes one abscissa per row, from one :func:`_solve_rows`
    search.

    The mode is the root of the log-density's slope.  A slope still
    positive at 1e10 means the density never turns down: that row's mode is
    ``inf``, which :func:`build_static_envelope` refuses, so one such row
    fails alone.  One still negative at 1e-10, or a root at or below 1e-8,
    puts the mode at the support edge, taken as 1e-8.
    """
    root, _, _ = _solve_rows(local, n_rows)
    return np.maximum(root, 1e-8)


_STATIC_OFFSETS = (
    -8.0, -5.5, -4.0, -3.0, -2.2, -1.6, -1.1, -0.7, -0.35,
    0.0, 0.35, 0.7, 1.1, 1.6, 2.2, 3.0, 4.0, 5.5, 8.0,
)
_EDGE_OFFSETS = (0.0, 1.0, 3.0) + (math.nan,) * (len(_STATIC_OFFSETS) - 3)


def build_static_envelope(local: LogDensity, mode) -> PiecewiseExpEnvelope:
    """A ready-to-sample stack of hulls with curvature-scaled tangent
    placement, one per row of a stacked ``local`` around that row's entry
    of ``mode``, found by a stacked search (:func:`_locate_modes`); a lone
    density is a stack of one.  An interior mode gets
    tangents at the positive ones of ``_STATIC_OFFSETS`` multiples of
    1/sqrt(-curvature) at the mode around it; a mode at the support edge
    (1e-8) gets three, spaced by the inverse of the slope there.  The last
    tangent thus sits 8 scales past the mode or 3/|slope| past the edge,
    where a strictly concave target slopes down; a target that does not
    leaves the hull's rightmost slope non-negative, which the hull refuses,
    as it refuses a mode of ``inf``.  All tangents come from one array call
    of ``local``.  The stack records each row's error in ``errors``.
    """
    mode = np.asarray(mode, dtype=float)
    rising, edge = mode == math.inf, mode <= 1e-8
    # a rising row reads local at 1, where every search starts, and gets no tangents
    _, d, f2 = (v[:, 0] for v in local(np.where(rising, 1.0, mode)[:, None]))
    errors = {i: ValueError("log-density derivative not finite at the support edge")
              for i in np.flatnonzero(edge & ~np.isfinite(d))}
    for i in np.flatnonzero(rising):
        errors[i] = NonIntegrableTargetError("log-density still increasing at 1e10")
    scale = np.where(edge, 1.0 / np.maximum(np.abs(d), 1e-8), 1.0 / np.sqrt(np.maximum(-f2, 1e-12)))
    pts = mode[:, None] + np.where(edge[:, None], _EDGE_OFFSETS, _STATIC_OFFSETS) * scale[:, None]
    pts = np.where((pts > 0.0) & ~rising[:, None], np.maximum(pts, 1e-12), math.nan)
    env = PiecewiseExpEnvelope(pts, *local(np.where(np.isfinite(pts), pts, 1.0))[:2])
    for i, exc in errors.items():
        env.errors[i] = exc
    return env
