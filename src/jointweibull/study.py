"""Repeated-sampling studies of the estimators: bias/MSE of point methods
and average length / coverage of interval methods.

Chunk ``c`` of ``_CHUNK`` replications is simulated in one batch from
``(base_seed, splitmix64(c*_CHUNK + 1))``; its two power-sum kernels, built
once over its rows, serve one stacked fit, one mode search and one
posterior stack.  Replication ``i`` draws each method from ``(base_seed,
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
from typing import Optional

import numpy as np

from .bayes import PriorSpec, ShapeHyper, _DrawStack, _PosteriorCore, bayes_estimate, draw_posterior
from .bayes import hpd_interval, shape_modes
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
    parts = []
    i = 0
    while i < len(scheme.R):
        j = i
        while j < len(scheme.R) and scheme.R[j] == scheme.R[i]:
            j += 1
        parts.append(str(scheme.R[i]) if j - i == 1 else f"{scheme.R[i]}x{j - i}")
        i = j
    return f"m={scheme.m} n={scheme.n} k={scheme.k} R={' '.join(parts)}"


_COMPONENTS = (lambda a, l1, l2: a, lambda a, l1, l2: l1, lambda a, l1, l2: l2)


def _evaluate(config: StudyConfig, row, stream: RngStream, method: str, prep, point: bool):
    """A method's estimates (with ``point`` False, its intervals) of the
    parameters and its low-ESS flag, from what the chunk made ready for it:
    a fit's parameters and boundary flag (the bootstrap's is the free fit),
    or a posterior core with its mode, registered on the chunk's draw stack
    with ``stream``, the method's own; ``row`` (its kernels' rows, log times) is None unless read."""
    if method.startswith("mle"):
        params, boundary = prep
        if point:
            return astuple(params), False
        return _asymptotic(config.scheme, *row, params, boundary, config.level), False
    if method == "bootstrap":
        res = _bootstrap(config.scheme, prep[0], config.level, config.n_boot, False, stream)
        return (res.alpha, res.lambda1, res.lambda2), False
    post = draw_posterior(None, prep.prior, config.n_posterior, stream, core=prep)
    if point:
        return tuple(bayes_estimate(post, h) for h in _COMPONENTS), post.low_ess
    return tuple(hpd_interval(post, h, config.level) for h in _COMPONENTS), post.low_ess


def _chunk(config: StudyConfig, methods: list[str], point: bool, first: int) -> list:
    """Per replication of the chunk from ``first``, a dict from method to
    what :func:`_evaluate` returns, or None where it is skipped.  Its kernels
    are built once from ln of its times as doubles, so each row is its
    sample's; the ordered fit refits the free fit's rows that break l1 <= l2."""
    scheme = config.scheme
    stream = RngStream(config.base_seed, splitmix64(first + 1))
    rows = simulate_jpc_batch(scheme, astuple(config.truth), stream, _CHUNK)
    lnt, delta, s = (x[: config.replications - first] for x in rows)
    log_t = np.log(_times(lnt))
    groups, k1 = _groups(scheme, log_t, delta, s), delta.sum(axis=1)
    prep = {j: {} for j in np.flatnonzero((k1 > 0) & (k1 < scheme.k)).tolist()}
    live = list(prep)
    fitted = [m for m in methods if m.startswith("mle") or m == "bootstrap"]
    if fitted and live:
        live_groups = [(g.take(live), n[live]) for g, n in groups]
        fits = _fit_design(scheme, live_groups, log_t[live], "mle-ordered" in fitted)
        for m in fitted:
            alpha, rates, boundary, ok, _ = fits[m == "mle-ordered"]
            for i, j in enumerate(live):
                if not ok[i]:  # no shape maximizer
                    prep.pop(j, None)
                elif j in prep:
                    prep[j][m] = JointParams(*map(float, (alpha[i], *rates[:, i]))), bool(boundary[i])
    bayes = [m for m in methods if m.startswith("bayes")]
    for j in list(prep):
        try:
            prep[j].update((m, _PosteriorCore(groups, j, log_t[j].sum(), config.prior_for(m))) for m in bayes)
        except EstimationError:
            del prep[j]
    streams = {(j, m): RngStream(config.base_seed, splitmix64(first + j + 1) + _METHOD_OFFSET[m])
               for j in prep for m in methods if not m.startswith("mle")}
    if bayes and prep:
        shape_modes([prep[j][m] for j in prep for m in bayes])
        _DrawStack(config.n_posterior, {prep[j][m]: streams[j, m] for j in prep for m in bayes})
    asymptotic = not point and any(m.startswith("mle") for m in methods)  # the one reader of a row
    out = [None] * len(log_t)
    for j, ready in prep.items():
        row = ([(g.take(j), n[j]) for g, n in groups], log_t[j]) if asymptotic else None
        try:
            out[j] = {m: _evaluate(config, row, streams.get((j, m)), m, ready.get(m), point) for m in methods}
        except EstimationError:
            pass
    return out


def _replicate(config: StudyConfig, point: bool) -> McReport:
    """The replication loop of both studies: point estimates per method,
    accumulated as estimate and squared error into AE and MSE, or (with
    ``point`` False) intervals per method, accumulated as width and coverage
    into AL and CP.  Low-ESS posteriors are counted per method, not skipped.
    """
    methods = [m for m in config.methods if not (point and m == "bootstrap")]
    sums = {(p, m): [0.0, 0.0] for p in PARAMETERS for m in methods}
    truth = (config.truth.alpha, config.truth.lambda1, config.truth.lambda2)
    low_ess = dict.fromkeys(methods, 0)
    used = 0
    skipped = 0
    starts = range(0, config.replications, _CHUNK)
    for results in (res for start in starts for res in _chunk(config, methods, point, start)):
        if results is None:
            skipped += 1
            continue
        used += 1
        for m, (triple, low) in results.items():
            low_ess[m] += low
            for p, res, tv in zip(PARAMETERS, triple, truth):
                cell = sums[(p, m)]
                if point:
                    cell[0] += res
                    cell[1] += (res - tv) ** 2
                else:
                    cell[0] += res.width
                    cell[1] += 1 if res.contains(tv) else 0
    if used == 0:
        raise StudyFailedError(f"all {config.replications} replications were skipped")
    label = _scheme_label(config.scheme)
    report = McReport()
    for p in PARAMETERS:
        for m in methods:
            first, second = (v / used for v in sums[(p, m)])
            cells = (first, second, None, None) if point else (None, None, first, second)
            report.rows.append(McRow(label, p, m, *cells, skipped, low_ess[m]))
    return report


def run_point_study(config: StudyConfig) -> McReport:
    """Average estimate and mean squared error per parameter and method.

    The ``bootstrap`` method defines no point estimator and is ignored here.
    """
    return _replicate(config, point=True)


def run_interval_study(config: StudyConfig) -> McReport:
    """Average interval length and empirical coverage per parameter/method.

    Coverage is reported as a fraction in [0, 1]."""
    return _replicate(config, point=False)
