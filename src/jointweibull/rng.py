"""Counter-addressed random streams and the samplers built on top of them.

A stream is identified by a ``(seed, counter)`` pair which is used verbatim
as a Philox key, so any stream can be reconstructed from two integers and
substreams are independent by construction rather than by distance in a
single sequence.  Everything downstream (simulation, bootstrap, posterior
draws, Monte Carlo studies) receives an explicit :class:`RngStream`; there
is no module-level hidden state.

Tangents to a concave log-density form a piecewise-exponential upper hull
whose segments are truncated exponentials, which can be normalized and
sampled exactly; the posterior samplers use such hulls as static proposals
for their shape draws.  The module also holds the package's one root
finder, :func:`_bisect_rows`, a lockstep bracket-and-bisect over rows of
decreasing functions: it locates the mode that seeds each hull, and the
maximum likelihood fits elsewhere solve their profile score equations with
it.  Next to it sits the package's one log-sum-exp, :func:`log_sum_exp`,
whose max-shift also gives the softmax means (:func:`_softmax_mean`) that
the profile score and the shape marginal's slope are made of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonIntegrableTargetError

_MASK64 = (1 << 64) - 1

# Root search: brackets stay inside [_ROOT_FLOOR, _ROOT_CEIL], and a row is
# solved once its bracket is narrower than _REL_TOL of its upper end.
_ROOT_FLOOR = 1e-10
_ROOT_CEIL = 1e10
_REL_TOL = 1e-10
_MAX_SWEEPS = 200


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


def _softmax_mean(logits: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of ``values`` under the softmax of ``logits`` along the last
    axis, and the log-sum-exps of ``logits``: d/da ln(sum c t^a) and
    ln(sum c t^a) for ``logits = ln c + a ln t`` and ``values = ln t``."""
    wgt, top = _max_shift(logits)
    tot = wgt.sum(axis=-1)
    wgt *= values
    return wgt.sum(axis=-1) / tot, top[..., 0] + np.log(tot)


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

    def choice_without_replacement(self, n: int, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.intp)
        return self._gen.choice(n, size=count, replace=False)


def weibull_inverse_cdf(u, alpha: float, lam: float):
    """Quantile transform: ``F^{-1}(u)`` for density a*l*x^(a-1)*exp(-l*x^a)."""
    return (-np.log1p(-np.asarray(u)) / lam) ** (1.0 / alpha)


def sample_weibull(alpha: float, lam: float, rng: RngStream, size=None):
    """Draw Weibull variates by inversion.

    Draws are strictly positive: the (measure-zero) event ``u == 0`` is
    redrawn so downstream code can rely on positive, log-able lifetimes.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be a positive finite real")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be a positive finite real")
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    u = np.atleast_1d(rng.uniform(n))
    while True:
        bad = u <= 0.0
        if not bad.any():
            break
        u[bad] = rng.uniform(int(bad.sum()))
    t = weibull_inverse_cdf(u, alpha, lam)
    if scalar:
        return float(t[0])
    return t.reshape(size)


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


def sample_hypergeometric(pop1: int, pop2: int, draws: int, rng: RngStream) -> int:
    """Number of population-1 units in ``draws`` taken without replacement."""
    pop1 = int(pop1)
    pop2 = int(pop2)
    draws = int(draws)
    if pop1 < 0 or pop2 < 0:
        raise ValueError("population counts must be non-negative")
    if draws < 0 or draws > pop1 + pop2:
        raise ValueError("draws must lie in [0, pop1+pop2]")
    if draws == 0:
        return 0
    if pop1 == 0:
        return 0
    if pop2 == 0:
        return draws
    return int(rng.hypergeometric(pop1, pop2, draws))


@dataclass(frozen=True)
class LogConcaveTarget:
    """A log-concave density known up to a constant.

    Both callables must be vectorized (accept and return ndarrays).  The
    derivative is what the envelope construction differentiates against, so
    it has to be consistent with ``log_density`` to a few ulps, not merely
    approximate.
    """

    log_density: Callable[[np.ndarray], np.ndarray]
    log_density_derivative: Callable[[np.ndarray], np.ndarray]


# --------------------------------------------------------------------------
# piecewise-exponential upper hulls


def _log_integral_exp_linear(a: float, u: float, v: float) -> float:
    # log of the integral of exp(a*q) over [u, v]; v may be +inf when a < 0.
    if v == math.inf:
        if a >= 0.0:
            return math.inf
        return a * u - math.log(-a)
    d = v - u
    if d <= 0.0:
        return -math.inf
    ad = a * d
    if abs(ad) < 1e-12:
        return a * u + math.log(d) + math.log1p(0.5 * ad)
    if ad > 700.0:
        return a * v - math.log(a)
    return a * u + math.log(math.expm1(ad) / a)


class PiecewiseExpEnvelope:
    """Upper hull of a concave log-density built from tangent lines.

    Every tangent to a concave function dominates it, so the pointwise
    minimum of any collection of tangents is a valid envelope regardless of
    where the tangents were taken; placement only affects tightness.  The
    hull is a piecewise-linear function of the abscissa, hence a piecewise
    exponential density after exponentiation, which we can integrate and
    invert segment by segment in closed form.
    """

    def __init__(self, lo: float):
        if not (lo >= 0.0 and math.isfinite(lo)):
            raise ValueError("support_lo must be a finite non-negative real")
        self.lo = lo
        self._x: list[float] = []
        self._h: list[float] = []
        self._dh: list[float] = []
        self._built = False

    def insert(self, x: float, h: float, dh: float) -> None:
        if not (math.isfinite(x) and math.isfinite(h) and math.isfinite(dh)):
            return
        if x < self.lo:
            return
        self._x.append(x)
        self._h.append(h)
        self._dh.append(dh)
        self._built = False

    def _build(self) -> None:
        order = np.argsort(np.asarray(self._x))
        x = np.asarray(self._x)[order]
        h = np.asarray(self._h)[order]
        dh = np.asarray(self._dh)[order]
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
        x = np.asarray(keep_x)
        h = np.asarray(keep_h)
        dh = np.asarray(keep_dh)
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
        z = np.concatenate(([self.lo], np.maximum.accumulate(np.maximum(zi, self.lo)), [math.inf]))
        logmass = np.empty(x.size)
        for i in range(x.size):
            logmass[i] = (h[i] - dh[i] * x[i]) + _log_integral_exp_linear(
                dh[i], z[i], z[i + 1]
            )
        self._bx, self._bh, self._bdh, self._bz = x, h, dh, z
        if not np.any(logmass > -math.inf):
            raise NonIntegrableTargetError("envelope mass underflowed to zero")
        w, top = _max_shift(logmass)
        self._log_total = float(top[0]) + math.log(w.sum())
        self._cum = np.cumsum(w / w.sum())
        self._built = True

    def log_total_mass(self) -> float:
        if not self._built:
            self._build()
        return self._log_total

    def log_value(self, q) -> np.ndarray:
        """Envelope height at ``q`` (vectorized)."""
        if not self._built:
            self._build()
        q = np.asarray(q, dtype=float)
        seg = np.clip(np.searchsorted(self._bz, q, side="right") - 1, 0, self._bx.size - 1)
        return self._bh[seg] + self._bdh[seg] * (q - self._bx[seg])

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """Exact draws from the normalized envelope density."""
        if not self._built:
            self._build()
        seg = np.searchsorted(self._cum, rng.uniform(n), side="left")
        seg = np.clip(seg, 0, self._bx.size - 1)
        a = self._bdh[seg]
        u = self._bz[seg]
        v = self._bz[seg + 1]
        w = rng.uniform(n)
        w = np.clip(w, 1e-16, 1.0 - 1e-16)
        out = np.empty(n)
        flat = np.isfinite(v) & (np.abs(a * (v - u)) < 1e-12)
        neg = (a < 0.0) & ~flat
        pos = (a > 0.0) & ~flat
        if flat.any():
            out[flat] = u[flat] + w[flat] * (v[flat] - u[flat])
        if neg.any():
            an, un, vn, wn = a[neg], u[neg], v[neg], w[neg]
            grow = np.expm1(an * (vn - un))  # expm1(-inf) = -1 on the last segment
            out[neg] = un + np.log1p(wn * grow) / an
        if pos.any():
            ap, up, vp, wp = a[pos], u[pos], v[pos], w[pos]
            # mass piles up at v; anchor there for stability
            out[pos] = vp + np.logaddexp(np.log(wp), np.log1p(-wp) - ap * (vp - up)) / ap
        return np.clip(out, self.lo, None)




# --------------------------------------------------------------------------
# lockstep root finding


def _bisect_rows(
    deriv: Callable[[np.ndarray], np.ndarray], n_rows: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of ``n_rows`` decreasing-through-zero functions, found in lockstep.

    ``deriv`` maps an ``(n_rows,)`` array of abscissae to the row values; one
    call is one sweep.  Every row is bracketed from 1, doubling while its
    value is positive and halving while it is negative, inside
    [1e-10, 1e10]; a sweep serves both directions at once, and a direction
    that no row needs costs nothing.  Each row is then bisected until its
    bracket is no wider than 1e-10 of its upper end, after which it stays
    put while the other rows go on, up to 200 sweeps in all.

    Returns ``(root, ok, sweeps)``.  ``ok`` is False for a row that was never
    bracketed: its root is ``inf`` when the value stays positive past 1e10
    and ``0`` when it stays negative below 1e-10.
    """
    lo = np.ones(n_rows)
    hi = np.ones(n_rows)
    d = deriv(lo)
    sweeps = 1
    up = d > 0.0
    down = d < 0.0
    hi[up] = 2.0
    lo[down] = 0.5
    ok = np.ones(n_rows, dtype=bool)
    while up.any() or down.any():
        d = deriv(np.where(up, hi, lo))
        sweeps += 1
        up &= d > 0.0
        down &= d < 0.0
        lo[up] = hi[up]
        hi[up] *= 2.0
        hi[down] = lo[down]
        lo[down] *= 0.5
        ok &= ~((up & (hi > _ROOT_CEIL)) | (down & (lo < _ROOT_FLOOR)))
        up &= ok
        down &= ok
    active = ok & (hi - lo > _REL_TOL * hi)
    while active.any() and sweeps < _MAX_SWEEPS:
        mid = 0.5 * (lo + hi)
        pos = deriv(mid) > 0.0
        sweeps += 1
        lo = np.where(active & pos, mid, lo)
        hi = np.where(active & ~pos, mid, hi)
        active &= hi - lo > _REL_TOL * hi
    root = np.where(ok, 0.5 * (lo + hi), np.where(hi > 1.0, math.inf, 0.0))
    return root, ok, sweeps


def _locate_mode(target: LogConcaveTarget, lo: float) -> tuple[float, bool]:
    """Return (mode, at_boundary) for a concave log-density on [lo, inf).

    The mode is the root of the log-density derivative.  A derivative still
    positive at 1e10 means the density never turns down.  One still
    negative at 1e-10, or a root at or below the support edge (taken as
    1e-8 for a support starting at 0), puts the mode at that edge.
    """
    edge = lo if lo > 0.0 else 1e-8
    root, _, _ = _bisect_rows(target.log_density_derivative, 1)
    mode = float(root[0])
    if mode == math.inf:
        raise NonIntegrableTargetError("log-density still increasing at 1e10")
    if mode <= edge:
        return edge, True
    return mode, False


_STATIC_OFFSETS = (
    -8.0, -5.5, -4.0, -3.0, -2.2, -1.6, -1.1, -0.7, -0.35,
    0.0, 0.35, 0.7, 1.1, 1.6, 2.2, 3.0, 4.0, 5.5, 8.0,
)


def build_static_envelope(target: LogConcaveTarget, support_lo: float) -> PiecewiseExpEnvelope:
    """A ready-to-sample hull with curvature-scaled tangent placement.

    An interior mode gets tangents at ``_STATIC_OFFSETS`` curvature scales
    around it; a mode at the support edge gets three, spaced by the inverse
    of the slope there.  The target is evaluated on all tangent points in
    one array call of each callable.
    """
    lo = support_lo
    mode, at_edge = _locate_mode(target, lo)
    env = PiecewiseExpEnvelope(lo)
    if at_edge:
        d = float(target.log_density_derivative(np.array([mode]))[0])
        if not math.isfinite(d):
            raise ValueError("log-density derivative not finite at the support edge")
        scale = 1.0 / max(abs(d), 1e-8)
        pts = mode + np.array([0.0, 1.0, 3.0]) * scale
    else:
        eps = 1e-4 * max(mode, 1.0)
        f_right, f_mid, f_left = target.log_density(
            np.array([mode + eps, mode, max(mode - eps, lo + 0.25 * eps)])
        )
        f2 = (f_right - 2.0 * f_mid + f_left) / eps**2
        sigma = 1.0 / math.sqrt(max(-f2, 1e-12))
        pts = mode + np.array(_STATIC_OFFSETS) * sigma
        pts = pts[pts > lo]
    pts = np.maximum(pts, lo if lo > 0.0 else 1e-12)
    h = target.log_density(pts)
    dh = target.log_density_derivative(pts)
    # make sure at least one point sits where the slope is negative
    xr = pts[-1]
    slope = dh[-1]
    guard = 0
    while slope >= 0.0 and guard < 200:
        xr = 2.0 * max(xr, 1e-8)
        slope = target.log_density_derivative(np.array([xr]))[0]
        guard += 1
    if guard:
        pts = np.append(pts, xr)
        h = np.append(h, target.log_density(np.array([xr])))
        dh = np.append(dh, slope)
    for p, hp, dp in zip(pts.tolist(), h.tolist(), dh.tolist()):
        env.insert(p, hp, dp)
    return env
