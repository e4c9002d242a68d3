"""Repeated-sampling studies of the estimators: bias/MSE of point methods
and average length / coverage of interval methods.

Chunk ``c`` of ``_CHUNK`` replications is simulated in one batch from
``(base_seed, splitmix64(c*_CHUNK + 1))``; its two power-sum kernels, built
once over its rows, serve one stacked fit, one stacked asymptotic-interval
step per maximum likelihood method and one posterior stack, which runs the
one mode search.  Replication ``i`` draws each method from ``(base_seed,
splitmix64(i+1) + method offset)``, offsets from 1.  Whole chunks are
simulated, so replication ``i`` depends only on ``(base_seed, i)``.
Replications in which one group never fails are skipped and counted, as is
each one where a method fails (a fit without a shape or any
``EstimationError``).  A posterior whose effective sample size falls below
one percent of its draws is counted per method as ``low_ess`` and kept.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field
from itertools import groupby
from typing import Optional

import numpy as np

from .bayes import PriorSpec, ShapeHyper, _DrawStack, _PosteriorCore, bayes_estimate, draw_posterior
from .bayes import hpd_interval
from .errors import EstimationError, StudyFailedError, _check_count, _check_level, _check_real
from .jpc import CensoringScheme, JointParams, _groups, _times, simulate_jpc_batch
from .mle import _asymptotic, _bootstrap, _fit_design
from .rng import BetaGammaHyper, RngStream, splitmix64

POINT_METHODS = (
    "mle",
    "mle-ordered",
    "bayes-ip",
    "bayes-nip",
    "bayes-ordered-ip",
    "bayes-ordered-nip",
)
INTERVAL_METHODS = POINT_METHODS + ("bootstrap",)
PARAMETERS = ("alpha", "lambda1", "lambda2")

# Stable substream offsets per method so adding or removing methods from a
# run never perturbs the draws of the remaining ones.
_METHOD_OFFSET = {name: 1 + i for i, name in enumerate(INTERVAL_METHODS)}

# the chunk is also the posterior stack, drawn in row groups of about 2^14
# draws; a 200-replication six-method point study takes 0.51-0.60 s (min of
# 5, 2 shared cores) and peaks at 62-63 MB RSS at 8, 16, 32 or 64
_CHUNK = 16


def informative_prior(truth: JointParams, ordered: bool = False) -> PriorSpec:
    """Mean-matched prior preset for rate truth (0.5, 1.0).

    The beta-gamma block has component means 0.5 and 1.0; the shape block
    is gamma with rate 2 centered on the true shape.
    """
    return PriorSpec(
        bg=BetaGammaHyper(1.5, 1.0, 2.0, 4.0),
        shape=ShapeHyper(2.0 * truth.alpha, 2.0),
        ordered=ordered,
    )


@dataclass(frozen=True)
class StudyConfig:
    scheme: CensoringScheme
    truth: JointParams
    replications: int
    methods: tuple[str, ...]
    level: float = 0.9
    n_posterior: int = 1000
    n_boot: int = 500
    base_seed: int = 0
    shape_rate_flat: float = 0.0
    informative: Optional[PriorSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        unknown = set(self.methods) - set(INTERVAL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if not self.methods:
            raise ValueError("at least one method is required")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"repeated methods: {list(self.methods)}")
        for name in ("replications", "n_posterior", "n_boot", "base_seed"):
            _check_count(name, getattr(self, name), 0 if name == "base_seed" else 1)
        _check_level(self.level)
        _check_real("shape_rate_flat", self.shape_rate_flat, positive=False)

    def prior_for(self, method: str) -> PriorSpec:
        ordered = method.startswith("bayes-ordered")
        if method.endswith("-ip"):
            base = self.informative or informative_prior(self.truth)
            return PriorSpec(bg=base.bg, shape=base.shape, ordered=ordered)
        return PriorSpec.flat(shape_rate=self.shape_rate_flat, ordered=ordered)


@dataclass(frozen=True)
class McRow:
    scheme: str
    parameter: str
    method: str
    ae: Optional[float]
    mse: Optional[float]
    al: Optional[float]
    cp: Optional[float]
    skipped: int
    low_ess: int


@dataclass
class McReport:
    rows: list[McRow] = field(default_factory=list)

    def cell(self, parameter: str, method: str) -> McRow:
        for row in self.rows:
            if row.parameter == parameter and row.method == method:
                return row
        raise KeyError((parameter, method))

    def to_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(
            ["scheme", "parameter", "method", "AE", "MSE", "AL", "CP", "skipped", "low_ess"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.scheme,
                    row.parameter,
                    row.method,
                    *("" if v is None else f"{v:.6g}" for v in (row.ae, row.mse, row.al, row.cp)),
                    row.skipped,
                    row.low_ess,
                ]
            )


def _scheme_label(scheme: CensoringScheme) -> str:
    runs = ((r, len(list(same))) for r, same in groupby(scheme.R))
    parts = " ".join(str(r) if count == 1 else f"{r}x{count}" for r, count in runs)
    return f"m={scheme.m} n={scheme.n} k={scheme.k} R={parts}"


_COMPONENTS = (lambda a, l1, l2: a, lambda a, l1, l2: l1, lambda a, l1, l2: l2)


def _chunk(config: StudyConfig, methods: list[str], point: bool, first: int) -> tuple[np.ndarray, dict, dict]:
    """The chunk of replications from ``first`` as ``(used, est, low)``: a
    mask of those used and, per method, its estimates ``(3, rows)`` (with
    ``point`` False, its interval ends ``(3, 2, rows)``) and low-ESS flags,
    read only where used.  Its kernels are built once from ln of its times
    as doubles, so each row is its sample's.  One stacked fit serves the
    fitted methods (the ordered fit refits the free fit's rows that break
    l1 <= l2), one :func:`_asymptotic` call per maximum likelihood method
    gives its intervals, and the Bayes cores draw as one stack."""
    scheme = config.scheme
    stream = RngStream(config.base_seed, splitmix64(first + 1))
    rows = simulate_jpc_batch(scheme, astuple(config.truth), stream, _CHUNK)
    lnt, delta, s = (x[: config.replications - first] for x in rows)
    log_t = np.log(_times(lnt))
    groups, k1 = _groups(scheme, log_t, delta, s), delta.sum(axis=1)
    used = (k1 > 0) & (k1 < scheme.k)
    est = {m: np.full(((3,) if point else (3, 2)) + used.shape, np.nan) for m in methods}
    low = {m: np.zeros_like(used) for m in methods}
    fitted = [m for m in methods if m.startswith("mle") or m == "bootstrap"]
    if fitted and used.any():
        live = np.flatnonzero(used)
        live_groups = [(g.take(live), n[live]) for g, n in groups]
        fits = _fit_design(scheme, live_groups, log_t[live], "mle-ordered" in fitted)
        for m in fitted:
            alpha, rates, _, boundary, ok, _ = fits[m == "mle-ordered"]
            at, fit = live[ok], np.vstack((alpha, rates))[:, ok]
            used[live[~ok]] = False  # no shape maximizer
            if m == "bootstrap":
                free = {j: JointParams(*params) for j, params in zip(at.tolist(), fit.T.tolist())}
            elif point:
                est[m][:, at] = fit
            else:
                kernels = [(g.take(at), n[at]) for g, n in groups]
                est[m][..., at] = _asymptotic(scheme, kernels, log_t[at], fit, boundary[ok], config.level)
    bayes, cores = [m for m in methods if m.startswith("bayes")], {}
    priors = {m: config.prior_for(m) for m in bayes}
    for j in np.flatnonzero(used).tolist():
        try:
            cores.update({(j, m): _PosteriorCore(groups, j, log_t[j].sum(), priors[m]) for m in bayes})
        except EstimationError:
            used[j] = False
    streams = {(j, m): RngStream(config.base_seed, splitmix64(first + j + 1) + _METHOD_OFFSET[m])
               for j in np.flatnonzero(used).tolist() for m in methods if not m.startswith("mle")}
    _DrawStack(config.n_posterior, {cores[key]: rng for key, rng in streams.items() if key[1] in bayes})
    for j in np.flatnonzero(used).tolist():
        try:
            for m in methods:
                if m == "bootstrap":
                    res = _bootstrap(scheme, free[j], config.level, config.n_boot, False, streams[j, m])
                    est[m][..., j] = [(iv.lower, iv.upper) for iv in res[:3]]
                elif m in bayes:
                    post = draw_posterior(cores[j, m], cores[j, m].prior, config.n_posterior, streams[j, m])
                    if point:
                        est[m][:, j] = bayes_estimate(post, lambda *draws: draws)
                    else:
                        intervals = [hpd_interval(post, h, config.level) for h in _COMPONENTS]
                        est[m][..., j] = [(iv.lower, iv.upper) for iv in intervals]
                    low[m][j] = post.low_ess
        except EstimationError:
            used[j] = False
    return used, est, low


def _replicate(config: StudyConfig, point: bool) -> McReport:
    """The replication loop of both studies over chunks (:func:`_chunk`):
    each method's estimates, as mean estimate and squared error into AE and
    MSE, or (with ``point`` False) its intervals, as mean width and coverage
    into AL and CP, each cell added in replication order (one chunk's
    arrays at a time).  Low-ESS posteriors are counted per method, not skipped."""
    methods = [m for m in config.methods if not (point and m == "bootstrap")]
    tv, used = np.array(astuple(config.truth))[:, None], 0
    sums, low = {m: np.zeros((2, 3, 1)) for m in methods}, dict.fromkeys(methods, 0)
    for start in range(0, config.replications, _CHUNK):
        mask, est, flags = _chunk(config, methods, point, start)
        used += int(mask.sum())
        for m in methods:
            v, low[m] = est[m][..., mask], low[m] + int(flags[m][mask].sum())
            terms = (v, (v - tv) ** 2) if point else (v[:, 1] - v[:, 0], (v[:, 0] <= tv) & (tv <= v[:, 1]))
            sums[m] = np.cumsum(np.concatenate((sums[m], terms), axis=-1), axis=-1)[..., -1:]
    if used == 0:
        raise StudyFailedError(f"all {config.replications} replications were skipped")
    label, rows = _scheme_label(config.scheme), []
    for m in methods:
        first, second = (sums[m][..., 0] / used).tolist()
        for p, a, b in zip(PARAMETERS, first, second):
            cells = (a, b, None, None) if point else (None, None, a, b)
            rows.append(McRow(label, p, m, *cells, config.replications - used, low[m]))
    return McReport(sorted(rows, key=lambda row: PARAMETERS.index(row.parameter)))


def run_point_study(config: StudyConfig) -> McReport:
    """Average estimate and mean squared error per parameter and method.

    The ``bootstrap`` method defines no point estimator and is ignored here.
    """
    return _replicate(config, point=True)


def run_interval_study(config: StudyConfig) -> McReport:
    """Average interval length and empirical coverage per parameter/method.

    Coverage is reported as a fraction in [0, 1]."""
    return _replicate(config, point=False)
