"""Independent numerical oracles used by the test suite.

Everything here recomputes target quantities from first principles —
direct summation, dense-grid quadrature, finite differences, a unit-by-unit
walk of the censoring experiment, the per-epoch accounting loop — without
touching the estimator code paths under test; and readers of the bundled
joint sample and strength files that only the tests call.  The last
section holds the closed forms the package runs nowhere itself (observed
information, closed-form rates, the profile, the power sums U and V on a
sample's stack of one and the joint log-likelihood with both rate terms
evaluated, beta-gamma moments and draws, a max-shifted log-sum-exp) and a
reader of a posterior core's shape marginal; the tests check them against
direct sums, finite differences, quadrature, scipy and one another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.resources import files

import numpy as np
from scipy import integrate, optimize, special, stats

from jointweibull.bayes import PriorSpec, _PosteriorCore
from jointweibull.errors import _check_real
from jointweibull.io import parse_complete_lines, parse_jpc_lines
from jointweibull.jpc import CensoringScheme, JointParams, JpcObservation, JpcSample, simulate_jpc
from jointweibull.mle import _require_both_groups
from jointweibull.rng import BetaGammaHyper, RngStream, _max_shift


def swap_groups(sample: JpcSample) -> JpcSample:
    """Relabel group 1 as group 2 and vice versa."""
    scheme = CensoringScheme(
        sample.scheme.n, sample.scheme.m, sample.scheme.k, sample.scheme.R
    )
    obs = tuple(
        JpcObservation(float(t), 1 - int(d), int(r) - int(s))
        for t, d, s, r in zip(sample.t, sample.delta, sample.s, sample.scheme.R)
    )
    return JpcSample(scheme, obs)


def _bundled_lines(name: str) -> list[str]:
    return files("jointweibull.data").joinpath(name).read_text(encoding="utf-8").splitlines()


def _bundled_values(name: str) -> tuple[float, ...]:
    return parse_complete_lines(_bundled_lines(name))


def fiber_jpc_sample() -> JpcSample:
    """The bundled joint censoring outcome (k=20, withdrawals 4,...,4,36)."""
    return parse_jpc_lines(_bundled_lines("fiber_jpc_sample.txt"))


def carbon_fiber_20mm() -> tuple[float, ...]:
    """69 strengths (GPa) at 20 mm gauge length."""
    return _bundled_values("fiber_strength_20mm.txt")


def carbon_fiber_10mm() -> tuple[float, ...]:
    """63 strengths (GPa) at 10 mm gauge length."""
    return _bundled_values("fiber_strength_10mm.txt")


def jpc_accounting_oracle(scheme: CensoringScheme, t, delta, s):
    """The message with which ``JpcSample`` refuses these rows, or ``None``.

    The per-epoch loop that replayed the experiment's accounting before
    ``JpcSample`` checked its arrays with one vectorized rule, in exact
    Python integers.  Each epoch checks its time (finite and > 0, then
    strictly increasing), its indicator, the failing group's survivors, then
    its split (``s >= 0``, ``s <= R``, covered by the survivors); the groups
    must be exhausted at the end.
    """
    if len(t) != scheme.k:
        return "number of observations must equal k"
    alive1, alive2 = scheme.m, scheme.n
    prev = 0.0
    for j, (tj, dj, sj, rj) in enumerate(zip(map(float, t), map(int, delta), map(int, s), scheme.R), start=1):
        if not (math.isfinite(tj) and tj > 0.0):
            return f"failure times must be finite reals > 0 (epoch {j})"
        if tj <= prev:
            return f"failure times must strictly increase (epoch {j})"
        prev = tj
        if dj not in (0, 1):
            return f"delta must be 0 or 1 (epoch {j})"
        if dj == 1:
            if alive1 < 1:
                return f"group 1 exhausted before epoch {j}"
            alive1 -= 1
        else:
            if alive2 < 1:
                return f"group 2 exhausted before epoch {j}"
            alive2 -= 1
        if sj < 0:
            return f"s must be >= 0 (epoch {j})"
        w = rj - sj
        if w < 0:
            return f"withdrawal split exceeds R at epoch {j}"
        if sj > alive1 or w > alive2:
            return f"withdrawals exceed survivors at epoch {j}"
        alive1 -= sj
        alive2 -= w
    if alive1 != 0 or alive2 != 0:
        return "scheme does not exhaust both groups"
    return None


def jpc_epoch_moments_oracle(scheme: CensoringScheme, lambda1: float, lambda2: float):
    """Exact per-epoch moments of a joint progressive experiment.

    Walks the distribution of the survivor counts (a1, a2) epoch by epoch:
    with h = a1*lambda1 + a2*lambda2, the next gap in tau = t^alpha has mean
    1/h, the failure is from group 1 with probability a1*lambda1/h, and the
    withdrawal split is hypergeometric over the remaining survivors.
    Returns arrays of E[tau_j], P(delta_j = 1) and E[s_j].
    """
    states = {(scheme.m, scheme.n): 1.0}
    e_tau, p_delta, e_s = [], [], []
    tau = 0.0
    for r in scheme.R:
        gap = pd = es = 0.0
        nxt: dict[tuple[int, int], float] = {}
        for (a1, a2), pr in states.items():
            h1, h2 = a1 * lambda1, a2 * lambda2
            gap += pr / (h1 + h2)
            pd += pr * h1 / (h1 + h2)
            for d, pq in ((1, h1 / (h1 + h2)), (0, h2 / (h1 + h2))):
                if pq == 0.0:
                    continue
                b1, b2 = a1 - d, a2 - 1 + d
                splits = np.arange(r + 1)
                pmf = stats.hypergeom(b1 + b2, b1, r).pmf(splits)
                for sj, ps in zip(splits, pmf):
                    if ps > 0.0:
                        es += pr * pq * ps * sj
                        key = (b1 - int(sj), b2 - r + int(sj))
                        nxt[key] = nxt.get(key, 0.0) + pr * pq * ps
        tau += gap
        e_tau.append(tau)
        p_delta.append(pd)
        e_s.append(es)
        states = nxt
    return np.array(e_tau), np.array(p_delta), np.array(e_s)


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


def choice_without_replacement(rng: RngStream, n: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.intp)
    return rng._gen.choice(n, size=count, replace=False)


def simulate_jpc_walk(scheme: CensoringScheme, params: JointParams, rng: RngStream) -> JpcSample:
    """Run one experiment unit by unit: the reference law of the package's
    tau-scale simulator.

    Lifetimes are drawn by inversion; at each failure the withdrawal is
    split between groups hypergeometrically and the withdrawn units are
    removed uniformly at random, which is what makes later failure epochs
    carry the correct conditional law.  Exact lifetime ties (possible only
    through floating-point collision) are redrawn.
    """
    m, n = scheme.m, scheme.n
    life = np.empty(m + n)
    life[:m] = np.atleast_1d(sample_weibull(params.alpha, params.lambda1, rng, size=m))
    life[m:] = np.atleast_1d(sample_weibull(params.alpha, params.lambda2, rng, size=n))
    while True:
        order = np.sort(life)
        dup = np.flatnonzero(order[1:] == order[:-1])
        if dup.size == 0:
            break
        for v in order[dup]:
            hits = np.flatnonzero(life == v)[1:]
            for idx in hits:
                lam = params.lambda1 if idx < m else params.lambda2
                life[idx] = sample_weibull(params.alpha, lam, rng)
    alive = np.ones(m + n, dtype=bool)
    obs = []
    for r_j in scheme.R:
        pool = np.flatnonzero(alive)
        fail = pool[np.argmin(life[pool])]
        delta = 1 if fail < m else 0
        alive[fail] = False
        a1 = int(np.count_nonzero(alive[:m]))
        a2 = int(np.count_nonzero(alive[m:]))
        s_j = sample_hypergeometric(a1, a2, r_j, rng)
        g1 = np.flatnonzero(alive[:m])
        g2 = m + np.flatnonzero(alive[m:])
        alive[g1[choice_without_replacement(rng, a1, s_j)]] = False
        alive[g2[choice_without_replacement(rng, a2, r_j - s_j)]] = False
        obs.append(JpcObservation(t=float(life[fail]), delta=delta, s=s_j))
    return JpcSample(scheme=scheme, obs=tuple(obs))


def tau_scale_rows_row_major(scheme: CensoringScheme, alpha, lam1, lam2, rng: RngStream):
    """The tau-scale walk of ``jpc._tau_scale_rows`` as a row-major loop:
    the gaps and picks stay ``(size, k)`` and epoch j steps through their
    strided column j.  The same draws in the same order, so the same
    outputs byte for byte."""
    size, k = alpha.size, scheme.k
    gap = rng.exponential((size, k))
    pick = rng.uniform((size, k))
    delta = np.zeros((size, k), dtype=np.int64)
    s = np.zeros((size, k), dtype=np.int64)
    a1 = np.full(size, scheme.m, dtype=np.int64)
    a2 = np.full(size, scheme.n, dtype=np.int64)
    for j, r_j in enumerate(scheme.R):
        h1 = a1 * lam1
        h2 = a2 * lam2
        gap[:, j] /= h1 + h2
        d = pick[:, j] * h2 < (1.0 - pick[:, j]) * h1
        delta[:, j] = d
        a1 -= d
        a2 -= ~d
        if r_j:
            sj = rng.hypergeometric(a1, a2, r_j)
            s[:, j] = sj
            a1 -= sj
            a2 -= r_j - sj
    with np.errstate(divide="ignore"):
        log_t = np.log(np.cumsum(gap, axis=1)) / alpha[:, None]
    return log_t, delta, s


def _jpc_posterior_grid(sample, bg, shape, ordered, alpha_hi, n_alpha, n_p):
    """Unnormalized posterior on a dense alpha grid.

    The rate pair is reduced to a one-dimensional integral over the
    gamma-beta fraction, using the gamma moment generating function in
    closed form.  Returns the grid, the alpha marginal density and the
    unnormalized first moments of lambda1 and lambda2 at each grid point.
    """
    a0, b0, a1, a2 = bg.a0, bg.b0, bg.a1, bg.a2
    a, b = shape.a, shape.b
    k = sample.scheme.k
    k1, k2 = sample.k1, sample.k2
    if ordered:
        j = min(k1, k2)
        c = a0 + 2 * j
        ba, bb = a1 + j, a2 + j
        e1, e2 = k1 - j, k2 - j
    else:
        c = a0 + k
        ba, bb = a1 + k1, a2 + k2
        e1 = e2 = 0
    alphas = np.linspace(alpha_hi / n_alpha * 0.1, alpha_hi, n_alpha)
    u = np.exp(log_u_stat(sample, alphas))
    v = np.exp(log_v_stat(sample, alphas))
    w = np.minimum(u, v)
    du, dv = u - w, v - w
    rate = b0 + w
    s = (k + a - 1.0) * np.log(alphas) - alphas * (b - sample.sum_log_t)
    s -= c * np.log(rate)
    s -= s.max()
    p = np.linspace(0.0, 1.0, n_p)[1:-1]
    bpdf = stats.beta.pdf(p, ba, bb)
    if ordered:
        frac1 = np.minimum(p, 1.0 - p)
        frac2 = np.maximum(p, 1.0 - p)
    else:
        frac1, frac2 = p, 1.0 - p
    lg0 = special.gammaln(c + e1 + e2) - special.gammaln(c)
    lg1 = special.gammaln(c + e1 + e2 + 1) - special.gammaln(c)
    cols = np.empty((alphas.size, 3))
    for i in range(alphas.size):
        q = frac1 * du[i] + frac2 * dv[i]
        base = bpdf * frac1**e1 * frac2**e2
        lr0 = c * np.log(rate[i]) - (c + e1 + e2) * np.log(rate[i] + q)
        lr1 = c * np.log(rate[i]) - (c + e1 + e2 + 1) * np.log(rate[i] + q)
        cols[i, 0] = integrate.trapezoid(base * np.exp(lg0 + lr0), p)
        cols[i, 1] = integrate.trapezoid(base * frac1 * np.exp(lg1 + lr1), p)
        cols[i, 2] = integrate.trapezoid(base * frac2 * np.exp(lg1 + lr1), p)
    return alphas, np.exp(s) * cols[:, 0], np.exp(s) * cols[:, 1], np.exp(s) * cols[:, 2]


def jpc_posterior_oracle(sample, bg, shape, ordered=False,
                         alpha_hi=12.0, n_alpha=4800, n_p=8001):
    """Posterior means of (alpha, lambda1, lambda2) for a JPC sample,
    integrated on a dense alpha grid."""
    alphas, w0, m1, m2 = _jpc_posterior_grid(sample, bg, shape, ordered, alpha_hi, n_alpha, n_p)
    z = integrate.trapezoid(w0, alphas)
    return (
        float(integrate.trapezoid(alphas * w0, alphas) / z),
        float(integrate.trapezoid(m1, alphas) / z),
        float(integrate.trapezoid(m2, alphas) / z),
    )


def jpc_alpha_hpd_oracle(sample, bg, shape, level=0.9, ordered=False,
                         alpha_hi=12.0, n_alpha=4800, n_p=8001):
    """Highest-density interval of the posterior marginal of alpha.

    Grid points of the quadrature marginal are taken in order of decreasing
    density until they hold ``level`` of the mass; the interval spans the
    points taken (the marginal is unimodal, so they are contiguous).
    """
    alphas, w0, _, _ = _jpc_posterior_grid(sample, bg, shape, ordered, alpha_hi, n_alpha, n_p)
    order = np.argsort(w0)[::-1]
    mass = np.cumsum(w0[order]) / w0.sum()
    taken = alphas[order[: int(np.searchsorted(mass, level)) + 1]]
    return float(taken.min()), float(taken.max())


def jpc_posterior_oracle_3d(sample, bg, shape, ordered=False,
                            alpha_hi=8.0, lam_hi=6.0, n_alpha=700, n_lam=460):
    """Brute-force tensor quadrature of the joint posterior density.

    No reduction tricks: the likelihood times the prior is integrated on a
    three-dimensional grid, so this oracle is independent of any
    factorization used by the sampler.
    """
    a0, b0, a1, a2 = bg.a0, bg.b0, bg.a1, bg.a2
    a, b = shape.a, shape.b
    ag = np.linspace(alpha_hi / n_alpha * 0.1, alpha_hi, n_alpha)
    lg = np.linspace(lam_hi / n_lam * 1e-3, lam_hi, n_lam)
    lu = np.exp(log_u_stat(sample, ag))
    lv = np.exp(log_v_stat(sample, ag))
    l1 = lg[:, None]
    l2 = lg[None, :]
    lam = l1 + l2
    log_prior = (a0 - a1 - a2) * np.log(lam) - b0 * lam
    if ordered:
        pair = np.where(
            l1 < l2,
            np.exp((a1 - 1) * np.log(l1) + (a2 - 1) * np.log(l2))
            + np.exp((a1 - 1) * np.log(l2) + (a2 - 1) * np.log(l1)),
            0.0,
        )
    else:
        pair = np.exp((a1 - 1) * np.log(l1) + (a2 - 1) * np.log(l2))
    prior2 = pair * np.exp(log_prior)
    k, k1, k2 = sample.scheme.k, sample.k1, sample.k2
    slt = sample.sum_log_t
    rows = np.empty((ag.size, 4))
    for i, al in enumerate(ag):
        loglik = (
            k * np.log(al)
            + (al - 1.0) * slt
            + k1 * np.log(l1)
            + k2 * np.log(l2)
            - l1 * lu[i]
            - l2 * lv[i]
        )
        f = prior2 * np.exp(loglik + (a - 1.0) * np.log(al) - b * al)
        m0 = integrate.trapezoid(integrate.trapezoid(f, lg, axis=1), lg)
        m1 = integrate.trapezoid(integrate.trapezoid(f * l1, lg, axis=1), lg)
        m2 = integrate.trapezoid(integrate.trapezoid(f * l2, lg, axis=1), lg)
        rows[i] = (m0, al * m0, m1, m2)
    z = integrate.trapezoid(rows[:, 0], ag)
    return tuple(float(integrate.trapezoid(rows[:, j], ag) / z) for j in (1, 2, 3))


def complete_posterior_oracle(data, a0, b0, a, b, alpha_hi=12.0, n_alpha=6000):
    """Posterior means (alpha, lambda) for one complete Weibull sample.

    The rate is conjugate given the shape, so a single alpha integral
    suffices.
    """
    n = data.n
    ts = data.array
    ag = np.linspace(alpha_hi / n_alpha * 0.1, alpha_hi, n_alpha)
    sa = np.power.outer(ts, ag).sum(axis=0)
    s = (n + a - 1.0) * np.log(ag) - ag * (b - data.sum_log) - (n + a0) * np.log(b0 + sa)
    s -= s.max()
    w = np.exp(s)
    z = integrate.trapezoid(w, ag)
    ea = float(integrate.trapezoid(ag * w, ag) / z)
    el = float(integrate.trapezoid((n + a0) / (b0 + sa) * w, ag) / z)
    return ea, el


def fd_hessian(fun, point, rel_step=1e-5):
    """Central-difference Hessian of a scalar function of ``len(point)``
    variables."""
    point = np.asarray(point, dtype=float)
    h = rel_step * np.maximum(np.abs(point), 1.0)
    n = point.size
    out = np.empty((n, n))
    for i in range(n):
        for jj in range(i, n):
            if i == jj:
                up = point.copy(); up[i] += h[i]
                dn = point.copy(); dn[i] -= h[i]
                out[i, i] = (fun(up) - 2.0 * fun(point) + fun(dn)) / h[i] ** 2
            else:
                pp = point.copy(); pp[i] += h[i]; pp[jj] += h[jj]
                pm = point.copy(); pm[i] += h[i]; pm[jj] -= h[jj]
                mp = point.copy(); mp[i] -= h[i]; mp[jj] += h[jj]
                mm = point.copy(); mm[i] -= h[i]; mm[jj] -= h[jj]
                out[i, jj] = out[jj, i] = (
                    fun(pp) - fun(pm) - fun(mp) + fun(mm)
                ) / (4.0 * h[i] * h[jj])
    return out


def gamma_hpd(shape, rate, level=0.9):
    """Equal-density highest-density interval of a gamma law (shape > 1)."""
    g = stats.gamma(shape, scale=1.0 / rate)
    mode = (shape - 1.0) / rate

    def upper_of(lo):
        return optimize.brentq(
            lambda u: g.logpdf(u) - g.logpdf(lo), mode, mode + 80.0 / rate
        )

    lo = optimize.brentq(
        lambda x: g.cdf(upper_of(x)) - g.cdf(x) - level, 1e-12, mode - 1e-12
    )
    return lo, upper_of(lo)


def random_jpc_sample(rng, max_group=6, alpha_range=(0.6, 2.5)):
    """A small simulated sample under a randomized scheme; used by the
    property loops.  Returns None when a group ends up with no failures."""
    m = int(rng.integers(2, max_group + 1))
    n = int(rng.integers(2, max_group + 1))
    k = int(rng.integers(2, m + n + 1))
    spare = m + n - k
    cuts = np.sort(rng.integers(0, spare + 1, size=k - 1)) if k > 1 else np.array([], int)
    parts = np.diff(np.concatenate([[0], cuts, [spare]]))
    scheme = CensoringScheme(m, n, k, tuple(int(x) for x in parts))
    params = JointParams(
        float(rng.uniform() * (alpha_range[1] - alpha_range[0]) + alpha_range[0]),
        float(rng.uniform() * 1.5 + 0.25),
        float(rng.uniform() * 1.5 + 0.25),
    )
    sample = simulate_jpc(scheme, params, rng)
    if sample.k1 == 0 or sample.k2 == 0:
        return None
    return sample


def jpc_discrepancy_oracle(sample: JpcSample, params) -> float:
    """Largest group-wise KS distance of a joint sample's failure times
    against the fitted lifetime laws, one group at a time with a sort
    (groups without failures contribute nothing): the scalar form of the
    discrepancy of the joint predictive check."""
    worst = 0.0
    for grp, lam in ((1, params.lambda1), (0, params.lambda2)):
        mask = sample.delta == grp
        if not mask.any():
            continue
        ts = np.sort(sample.t[mask])
        f = -np.expm1(-lam * ts**params.alpha)
        n = ts.size
        d_plus = (np.arange(1, n + 1) / n - f).max()
        d_minus = (f - np.arange(0, n) / n).max()
        worst = max(worst, float(max(d_plus, d_minus)))
    return worst


def static_envelope_pointwise(local):
    """The tangent hull of ``rng.build_static_envelope`` built point by point,
    as a stack of one: every height and slope comes from its own one-point
    call of the ``(value, slope, curvature)`` callable ``local`` of one row."""
    from jointweibull.rng import _STATIC_OFFSETS, PiecewiseExpEnvelope, _locate_modes

    def at(x: float) -> list[float]:
        return [float(v[0]) for v in local(np.array([x]))]

    (mode,) = _locate_modes(local, 1)
    if mode <= 1e-8:
        d = at(mode)[1]
        scale = 1.0 / max(abs(d), 1e-8)
        pts = [mode + c * scale for c in (0.0, 1.0, 3.0)]
    else:
        f2 = at(mode)[2]
        sigma = 1.0 / math.sqrt(max(-f2, 1e-12))
        pts = [p for p in (mode + c * sigma for c in _STATIC_OFFSETS) if p > 0.0]
    tangents = []
    for p in pts:
        p = max(p, 1e-12)
        h, dh, _ = at(p)
        if math.isfinite(h):
            tangents.append((p, h, dh))
    return PiecewiseExpEnvelope(*([v] for v in zip(*tangents)))


# --------------------------------------------------------------------------
# closed forms the package does not run


def log_sum_exp(x):
    """``ln(sum(exp(x)))`` along the last axis, shifted by the maximum so that
    no term overflows; an all ``-inf`` row gives ``-inf``."""
    wgt, top = _max_shift(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        return np.log(wgt.sum(axis=-1)) + top[..., 0]


def _log_group_sum(sample: JpcSample, g: int, alpha) -> np.ndarray:
    """ln of group ``g``'s power sum on the sample's stack of one, at
    ``alpha`` (any shape of shapes >= 0)."""
    return sample.groups[g][0].log_sum(np.asarray(alpha, dtype=float)[None])[0]


def log_u_stat(sample: JpcSample, alpha) -> np.ndarray:
    """ln U(alpha) for alpha >= 0, free of overflow; vectorized over alpha."""
    return _log_group_sum(sample, 0, alpha)


def log_v_stat(sample: JpcSample, alpha) -> np.ndarray:
    """ln V(alpha) for alpha >= 0, free of overflow; vectorized over alpha."""
    return _log_group_sum(sample, 1, alpha)


def u_stat(sample: JpcSample, alpha: float) -> float:
    """Group-1 weighted power sum U(alpha); U(0) counts the group size m."""
    _check_real("alpha", alpha, positive=False)
    return float(np.exp(log_u_stat(sample, alpha)))


def v_stat(sample: JpcSample, alpha: float) -> float:
    """Group-2 weighted power sum V(alpha); V(0) counts the group size n."""
    _check_real("alpha", alpha, positive=False)
    return float(np.exp(log_v_stat(sample, alpha)))


def log_likelihood(sample: JpcSample, params: JointParams) -> float:
    """Joint log-likelihood of the censoring outcome at ``params``, with
    both rate terms ``lambda_g S_g(alpha)`` evaluated."""
    a, l1, l2 = params.alpha, params.lambda1, params.lambda2
    val = sample.scheme.k * math.log(a) + (a - 1.0) * sample.sum_log_t
    val += sample.k1 * math.log(l1)
    val += sample.k2 * math.log(l2)
    val -= l1 * u_stat(sample, a)
    val -= l2 * v_stat(sample, a)
    return float(val)


def lambda_hats(sample: JpcSample, alpha: float) -> tuple[float, float]:
    """Closed-form rate maximizers k1/U(alpha), k2/V(alpha)."""
    _require_both_groups(sample)
    _check_real("alpha", alpha)
    l1 = math.exp(math.log(sample.k1) - float(log_u_stat(sample, alpha)))
    l2 = math.exp(math.log(sample.k2) - float(log_v_stat(sample, alpha)))
    return l1, l2


def profile_loglik(sample: JpcSample, alpha: float) -> float:
    """Profiled shape criterion p(alpha) (rates maximized out, constants
    dropped)."""
    _check_real("alpha", alpha)
    k = sample.scheme.k
    val = k * math.log(alpha) + (alpha - 1.0) * sample.sum_log_t
    val -= sample.k1 * float(log_u_stat(sample, alpha))
    val -= sample.k2 * float(log_v_stat(sample, alpha))
    return float(val)


@dataclass(frozen=True)
class InfoMatrix:
    """Observed information in the order (alpha, lambda1, lambda2)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (3, 3):
            raise ValueError("information matrix must be 3x3")
        object.__setattr__(self, "entries", e)


def fisher_info(sample: JpcSample, params: JointParams) -> InfoMatrix:
    """Observed information at ``params``.

    The rate/rate block is diagonal (the cross derivative vanishes), the
    shape/rate entries are the ln-t-weighted power sums, and the shape
    entry adds the curvature of the power sums to k/alpha^2.
    """
    t = sample.t
    lnt = sample.log_t
    ta = t**params.alpha
    c1, c2 = (sums.wgt[0] for sums, _ in sample.groups)
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
    a0, b0, a1, a2 = hyper.a0, hyper.b0, hyper.a1, hyper.a2
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    tot = l1 + l2
    return (
        a0 * math.log(b0)
        - special.gammaln(a0)
        - special.betaln(a1, a2)
        + (a1 - 1.0) * np.log(l1)
        + (a2 - 1.0) * np.log(l2)
        + (a0 - a1 - a2) * np.log(tot)
        - b0 * tot
    )


def sample_beta_gamma(hyper: BetaGammaHyper, rng: RngStream, size=None):
    """Draw rate pairs (l1, l2): total gamma(a0,b0) split by beta(a1,a2),
    which needs every hyperparameter > 0."""
    for name in ("a0", "b0", "a1", "a2"):
        _check_real(name, getattr(hyper, name))
    lam = rng.gamma(hyper.a0, rate=hyper.b0, size=size)
    p = rng.beta(hyper.a1, hyper.a2, size=size)
    return p * lam, (1.0 - p) * lam


def log_marginal_shape(sample: JpcSample, prior: PriorSpec, alpha):
    """Unnormalized log of the proposal's shape marginal ``s(a)``, the
    density the shape draws come from; vectorized over ``alpha``.

    For every prior this is the one concave branch of the ``bayes`` module
    docstring.  For an unordered prior with ``a0 = a1 + a2`` it is the
    posterior's own shape marginal; for the others the importance weights
    carry the difference.
    """
    core = _PosteriorCore.of(sample, prior)
    return core.branch(np.asarray(alpha, dtype=float)[None])[0][0]
