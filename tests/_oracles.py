"""Independent numerical oracles used by the test suite.

Everything here recomputes target quantities from first principles —
direct summation, dense-grid quadrature, finite differences — without
touching the estimator code paths under test.
"""
from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, special, stats

from jointweibull.jpc import (
    CensoringScheme,
    JpcObservation,
    JpcSample,
    log_u_stat,
    log_v_stat,
)


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
    """Central-difference Hessian of a scalar function of three variables."""
    point = np.asarray(point, dtype=float)
    h = rel_step * np.maximum(np.abs(point), 1.0)
    out = np.empty((3, 3))
    for i in range(3):
        for jj in range(i, 3):
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
    from jointweibull.jpc import JointParams, simulate_jpc

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


def static_envelope_pointwise(target, support_lo: float):
    """The tangent hull of ``rng.build_static_envelope`` built point by point:
    every height and slope comes from its own scalar call of the target."""
    import math

    from jointweibull.rng import _STATIC_OFFSETS, PiecewiseExpEnvelope, _locate_mode

    lo = support_lo
    mode, at_edge = _locate_mode(target, lo)
    env = PiecewiseExpEnvelope(lo)
    if at_edge:
        d = float(target.log_density_derivative(mode))
        scale = 1.0 / max(abs(d), 1e-8)
        pts = [mode + c * scale for c in (0.0, 1.0, 3.0)]
    else:
        eps = 1e-4 * max(mode, 1.0)
        f2 = (
            float(target.log_density(mode + eps))
            - 2.0 * float(target.log_density(mode))
            + float(target.log_density(max(mode - eps, lo + 0.25 * eps)))
        ) / eps**2
        sigma = 1.0 / math.sqrt(max(-f2, 1e-12))
        pts = [p for p in (mode + c * sigma for c in _STATIC_OFFSETS) if p > lo]
    xr = pts[-1]
    guard = 0
    while float(target.log_density_derivative(xr)) >= 0.0 and guard < 200:
        xr = 2.0 * max(xr, 1e-8)
        guard += 1
    if xr != pts[-1]:
        pts.append(xr)
    for p in pts:
        p = max(p, lo if lo > 0.0 else 1e-12)
        h = float(target.log_density(p))
        if math.isfinite(h):
            env.insert(p, h, float(target.log_density_derivative(p)))
    return env
