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
and a hull is built in one step from the arrays of its tangents.  The
module also holds the package's one root finder, :func:`_solve_rows`, a
lockstep bracket and safeguarded Newton step over rows of decreasing
functions given with their slopes: it locates the mode that seeds each
hull, and the maximum likelihood fits elsewhere solve their profile score
equations with it.  Next to it sits the package's one log-sum-exp,
:func:`log_sum_exp`, whose max-shift also gives the softmax moments
(:func:`_softmax_moments`) that the profile score, the shape marginal's
slope and both of their curvatures are made of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonIntegrableTargetError

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


def log_sum_exp(x):
    """``ln(sum(exp(x)))`` along the last axis, shifted by the maximum so that
    no term overflows; an all ``-inf`` row gives ``-inf``."""
    wgt, top = _max_shift(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        return np.log(wgt.sum(axis=-1)) + top[..., 0]


def _softmax_moments(
    logits: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and variance of ``values`` under the softmax of ``logits`` along
    the last axis, and the log-sum-exps of ``logits``: for ``logits = ln c +
    a ln t`` and ``values = ln t`` they are d/da and d2/da2 of
    ln(sum c t^a), and ln(sum c t^a) itself."""
    wgt, top = _max_shift(logits)
    tot = wgt.sum(axis=-1)
    mean = (wgt * values).sum(axis=-1) / tot
    dev = values - mean[..., None]
    dev *= dev
    dev *= wgt
    return mean, dev.sum(axis=-1) / tot, top[..., 0] + np.log(tot)


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
        seed = int(seed)
        counter = int(counter)
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        counter &= _MASK64
        self.seed = seed
        self.counter = counter
        key = np.array([seed, counter], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "RngStream":
        return RngStream(self.seed, (self.counter + int(offset)) & _MASK64)

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
        if np.any(np.asarray(shape) <= 0.0):
            raise ValueError("gamma shape must be strictly positive")
        if np.any(np.asarray(rate) <= 0.0):
            raise ValueError("gamma rate must be strictly positive")
        return self._gen.gamma(shape, 1.0 / np.asarray(rate), size)

    def beta(self, a, b, size=None):
        if np.any(np.asarray(a) <= 0.0) or np.any(np.asarray(b) <= 0.0):
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
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")


def beta_gamma_mean(hyper: BetaGammaHyper) -> tuple[float, float]:
    """Component means a0*ai / (b0*(a1+a2)) of the beta-gamma law."""
    s = hyper.a1 + hyper.a2
    base = hyper.a0 / (hyper.b0 * s)
    return base * hyper.a1, base * hyper.a2


def beta_gamma_variance(hyper: BetaGammaHyper) -> tuple[float, float]:
    """Component variances of the beta-gamma law.

    With m_i the component mean, the variance is
    ``m_i/b0 * ((ai+1)(a0+1)/(a1+a2+1) - a0*ai/(a1+a2))``.
    """
    s = hyper.a1 + hyper.a2
    out = []
    for ai in (hyper.a1, hyper.a2):
        mi = hyper.a0 * ai / (hyper.b0 * s)
        bracket = (ai + 1.0) * (hyper.a0 + 1.0) / (s + 1.0) - hyper.a0 * ai / s
        out.append(mi / hyper.b0 * bracket)
    return out[0], out[1]


def log_beta_gamma_pdf(l1, l2, hyper: BetaGammaHyper):
    """Log-density of the (unordered) beta-gamma law at ``(l1, l2)``."""
    from scipy.special import betaln, gammaln

    a0, b0, a1, a2 = hyper.a0, hyper.b0, hyper.a1, hyper.a2
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    tot = l1 + l2
    return (
        a0 * math.log(b0)
        - gammaln(a0)
        - betaln(a1, a2)
        + (a1 - 1.0) * np.log(l1)
        + (a2 - 1.0) * np.log(l2)
        + (a0 - a1 - a2) * np.log(tot)
        - b0 * tot
    )


def _positive(hyper: BetaGammaHyper) -> None:
    if min(hyper.a0, hyper.b0, hyper.a1, hyper.a2) <= 0.0:
        raise ValueError("sampling a beta-gamma law needs strictly positive hyperparameters")


def sample_beta_gamma(hyper: BetaGammaHyper, rng: RngStream, size=None):
    """Draw rate pairs (l1, l2): total gamma(a0,b0) split by beta(a1,a2)."""
    _positive(hyper)
    lam = rng.gamma(hyper.a0, rate=hyper.b0, size=size)
    p = rng.beta(hyper.a1, hyper.a2, size=size)
    return p * lam, (1.0 - p) * lam


# --------------------------------------------------------------------------
# piecewise-exponential upper hulls


class PiecewiseExpEnvelope:
    """Upper hull of a concave log-density built from tangent lines.

    Every tangent to a concave function dominates it, so the pointwise
    minimum of any collection of tangents is a valid envelope regardless of
    where the tangents were taken; placement only affects tightness.  The
    hull is a piecewise-linear function of the abscissa, hence a piecewise
    exponential density after exponentiation.  Its support is [0, inf), the
    range of every shape parameter the package samples.

    Each segment is a truncated exponential measured from its higher end,
    the left end unless its slope ``a`` is positive.  With rate ``|a|``,
    width ``d`` and height ``H`` there, its log mass is
    ``H + ln((1 - exp(-|a| d)) / |a|)``, or ``H + ln d`` where
    ``|a| d < 1e-12``, and a draw with uniform ``w`` lies
    ``-ln(1 - w (1 - exp(-|a| d))) / |a|``, or ``w d``, from that end.  Seen
    from there no term overflows and a rising segment needs no branch of its
    own, so both forms are array expressions over all segments.
    """

    def __init__(self, x, h, dh):
        """The hull on [0, inf) of the tangents with abscissae ``x``,
        heights ``h`` and slopes ``dh``; a tangent with a non-finite entry
        or a negative abscissa is left out."""
        x, h, dh = (np.asarray(v, dtype=float) for v in (x, h, dh))
        usable = np.isfinite(x) & np.isfinite(h) & np.isfinite(dh) & (x >= 0.0)
        order = np.argsort(x[usable])
        x, h, dh = (v[usable][order] for v in (x, h, dh))
        # Concavity means slopes are non-increasing left to right; floating
        # noise can produce tiny inversions or duplicates.  Each tangent
        # individually dominates the target, so any subset is still a valid
        # hull: on a clash we keep whichever of the two parallel lines sits
        # lower, which is the tighter choice.
        keep_x, keep_h, keep_dh = [], [], []
        for xi, hi, di in zip(x, h, dh):
            drop_new = False
            while keep_dh and di >= keep_dh[-1] - 1e-13 * (1.0 + abs(di)):
                if hi - di * xi < keep_h[-1] - keep_dh[-1] * keep_x[-1]:
                    keep_x.pop(), keep_h.pop(), keep_dh.pop()
                else:
                    drop_new = True
                    break
            if not drop_new:
                keep_x.append(xi), keep_h.append(hi), keep_dh.append(di)
        x, h, dh = (np.asarray(v) for v in (keep_x, keep_h, keep_dh))
        if x.size == 0:
            raise NonIntegrableTargetError("no usable tangent points")
        if dh[-1] >= 0.0:
            raise NonIntegrableTargetError(
                "rightmost tangent slope is non-negative; envelope has infinite mass"
            )
        # breakpoints: support edge, pairwise tangent intersections, +inf;
        # a clipped breakpoint still yields a valid (if looser) hull
        zi = (h[1:] - h[:-1] + x[:-1] * dh[:-1] - x[1:] * dh[1:]) / (dh[:-1] - dh[1:])
        zi = np.minimum(np.maximum(zi, x[:-1]), x[1:])
        z = np.concatenate(([0.0], np.maximum.accumulate(np.maximum(zi, 0.0)), [math.inf]))
        # a draw steps from the segment's higher end by ln(1 - w _em) / a, or
        # by w _span (signed away from that end) on a flat segment
        d = np.diff(z)
        up = dh > 0.0
        self._end, self._span = np.where(up, z[1:], z[:-1]), np.where(up, -d, d)
        rd = np.abs(dh) * d
        self._flat, self._em = rd < 1e-12, -np.expm1(-rd)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(self._flat, np.log(d), np.log(self._em / np.abs(dh)))
        logmass = h + dh * (self._end - x) + tail
        self._bx, self._bh, self._bdh, self._bz = x, h, dh, z
        if not np.any(logmass > -math.inf):
            raise NonIntegrableTargetError("envelope mass underflowed to zero")
        w, top = _max_shift(logmass)
        self._log_total = float(top[0]) + math.log(w.sum())
        self._cum = np.cumsum(w / w.sum())

    def log_total_mass(self) -> float:
        return self._log_total

    def log_value(self, q) -> np.ndarray:
        """Envelope height at ``q`` (vectorized)."""
        q = np.asarray(q, dtype=float)
        seg = np.clip(np.searchsorted(self._bz, q, side="right") - 1, 0, self._bx.size - 1)
        return self._bh[seg] + self._bdh[seg] * (q - self._bx[seg])

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """Exact draws from the normalized envelope density."""
        seg = np.searchsorted(self._cum, rng.uniform(n), side="left")
        seg = np.clip(seg, 0, self._bx.size - 1)
        w = np.clip(rng.uniform(n), 1e-16, 1.0 - 1e-16)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.log1p(-w * self._em[seg]) / self._bdh[seg]
        step = np.where(self._flat[seg], w * self._span[seg], step)
        return np.clip(self._end[seg] + step, 0.0, None)


# --------------------------------------------------------------------------
# lockstep root finding


def _solve_rows(
    deriv: Callable[[np.ndarray], tuple], n_rows: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of ``n_rows`` decreasing-through-zero functions, found in lockstep.

    ``deriv`` maps an ``(n_rows,)`` array of abscissae to a tuple that ends
    with the row values and their slopes, so a :data:`LogDensity` gives the
    roots of its slope, its modes; one call is one sweep.  Every row is
    bracketed from 1, doubling while its value is positive and halving
    while it is negative, inside [1e-10, 1e10]; a sweep serves both
    directions at once, and a direction that no row needs costs nothing.
    Each row then takes Newton steps ``x - d/slope``, the first from its
    bracket end with a positive value and the others from its last point,
    so on a convex decreasing function they climb to the root from below
    inside the bracket.  A row bisects its bracket where a step is not
    finite, has a slope that is not negative, or leaves the open bracket
    (``rtsafe``).  It stops when its Newton step is no longer than half of
    1e-10 of its abscissa, when its value is exactly 0, or when its bracket
    is no wider than 1e-10 of its upper end; it stays put while the other
    rows go on, up to 200 sweeps in all.  Only a row's own evaluations move its bracket and its next
    point, so each row's root is the one it would get alone.

    Returns ``(root, ok, sweeps)``.  ``ok`` is False for a row that was never
    bracketed: its root is ``inf`` when the value stays positive past 1e10
    and ``0`` when it stays negative below 1e-10.
    """
    x = np.ones(n_rows)
    lo = np.ones(n_rows)
    hi = np.ones(n_rows)
    *_, d, slope = deriv(x)
    sweeps = 1
    up = d > 0.0
    down = d < 0.0
    hi[up] = 2.0
    lo[down] = 0.5
    ok = np.ones(n_rows, dtype=bool)
    while up.any() or down.any():
        moving = up | down
        probe = np.where(up, hi, lo)
        *_, dp, sp = deriv(probe)
        sweeps += 1
        # keep the bracket end with a positive value as the Newton start
        take = moving & ((dp >= 0.0) | (d <= 0.0))
        x = np.where(take, probe, x)
        d = np.where(take, dp, d)
        slope = np.where(take, sp, slope)
        up &= dp > 0.0
        down &= dp < 0.0
        lo[up] = hi[up]
        hi[up] *= 2.0
        hi[down] = lo[down]
        lo[down] *= 0.5
        ok &= ~((up & (hi > _ROOT_CEIL)) | (down & (lo < _ROOT_FLOOR)))
        up &= ok
        down &= ok
    active = ok.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            step = d / slope
            newton = (slope < 0.0) & np.isfinite(step)
            landed = (d == 0.0) | (newton & (np.abs(step) <= 0.5 * _REL_TOL * x))
            active &= ~landed & (hi - lo > _REL_TOL * hi)
            if sweeps >= _MAX_SWEEPS or not active.any():
                break
            nxt = x - step
            nxt = np.where(newton & (nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
            x = np.where(active, nxt, x)
            *_, dx, sx = deriv(x)
            sweeps += 1
            d = np.where(active, dx, d)
            slope = np.where(active, sx, slope)
            rise = d > 0.0
            lo = np.where(active & rise, x, lo)
            hi = np.where(active & ~rise, x, hi)
        # a row stops with the state that stopped it, so its root follows
        # from that state: the Newton step it landed with, or its bracket
        root = np.where(landed, np.where(d == 0.0, x, x - step), 0.5 * (lo + hi))
    root = np.where(ok, root, np.where(hi > 1.0, math.inf, 0.0))
    return root, ok, sweeps


def _locate_mode(local: LogDensity) -> tuple[float, bool]:
    """Return (mode, at_boundary) for a concave log-density on [0, inf).

    The mode is the root of the log-density's slope.  A slope still
    positive at 1e10 means the density never turns down.  One still
    negative at 1e-10, or a root at or below 1e-8, puts the mode at the
    support edge, taken as 1e-8.
    """
    root, _, _ = _solve_rows(local, 1)
    mode = float(root[0])
    if mode == math.inf:
        raise NonIntegrableTargetError("log-density still increasing at 1e10")
    if mode <= 1e-8:
        return 1e-8, True
    return mode, False


_STATIC_OFFSETS = (
    -8.0, -5.5, -4.0, -3.0, -2.2, -1.6, -1.1, -0.7, -0.35,
    0.0, 0.35, 0.7, 1.1, 1.6, 2.2, 3.0, 4.0, 5.5, 8.0,
)


def build_static_envelope(local: LogDensity) -> PiecewiseExpEnvelope:
    """A ready-to-sample hull with curvature-scaled tangent placement.

    An interior mode gets tangents at ``_STATIC_OFFSETS`` multiples of
    1/sqrt(-curvature) at the mode around it; a mode at the support edge
    gets three, spaced by the inverse of the slope there.  The last tangent
    thus sits 8 scales past the mode or 3/|slope| past the edge, where a
    strictly concave target slopes down; a target that does not leaves the
    hull's rightmost slope non-negative, which the hull refuses.  All
    tangents come from one array call of ``local``.
    """
    mode, at_edge = _locate_mode(local)
    _, d, f2 = (float(v[0]) for v in local(np.array([mode])))
    if at_edge:
        if not math.isfinite(d):
            raise ValueError("log-density derivative not finite at the support edge")
        scale = 1.0 / max(abs(d), 1e-8)
        pts = mode + np.array([0.0, 1.0, 3.0]) * scale
    else:
        sigma = 1.0 / math.sqrt(max(-f2, 1e-12))
        pts = mode + np.array(_STATIC_OFFSETS) * sigma
        pts = pts[pts > 0.0]
    pts = np.maximum(pts, 1e-12)
    h, dh, _ = local(pts)
    return PiecewiseExpEnvelope(pts, h, dh)
