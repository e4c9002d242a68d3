"""Repeated-sampling studies of the estimators: bias/MSE of point methods
and average length / coverage of interval methods.

Reproducibility works by construction: replication ``i`` draws everything
from streams keyed by ``(base_seed, splitmix64(i+1) + method offset)``, so
results are a pure function of the configuration no matter how the loop is
ordered or resumed.  Replications in which one group never fails carry no
information about the other group's rate; they are skipped and counted, as
are the (rare) replications where a method raises an ``EstimationError``
(an improper posterior, a failed fit or bootstrap).  A posterior whose
effective sample size falls below one percent of its draws is counted per
method as ``low_ess`` and kept in the averages.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

from .bayes import PriorSpec, ShapeHyper, bayes_estimate, draw_posterior, hpd_interval, shape_modes
from .errors import EstimationError, StudyFailedError
from .jpc import CensoringScheme, JointParams, simulate_jpc
from .mle import asymptotic_ci, bootstrap_ci, fit_mle, fit_mle_ordered
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
            v = getattr(self, name)
            low = 0 if name == "base_seed" else 1
            if isinstance(v, bool) or not isinstance(v, Integral) or not low <= v < 2**64:
                raise ValueError(f"{name} must be an integer in [{low}, 2^64), not {v!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly between 0 and 1")

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


def _evaluate(config: StudyConfig, sample, rep_stream: RngStream, method: str, mode, point: bool):
    """A method's estimates (with ``point`` False, its intervals) of the
    three parameters, and whether its posterior's effective sample size was
    low.  A posterior's hull is built around ``mode``, its shape mode."""
    if method.startswith("mle"):
        fit = (fit_mle_ordered if method == "mle-ordered" else fit_mle)(sample)
        if point:
            return (fit.params.alpha, fit.params.lambda1, fit.params.lambda2), False
        return asymptotic_ci(sample, fit, config.level), False
    stream = rep_stream.substream(_METHOD_OFFSET[method])
    if method == "bootstrap":
        res = bootstrap_ci(
            sample, level=config.level, n_boot=config.n_boot, ordered=False, rng=stream
        )
        return (res.alpha, res.lambda1, res.lambda2), False
    post = draw_posterior(sample, config.prior_for(method), config.n_posterior, stream, mode=mode)
    if point:
        return tuple(bayes_estimate(post, h) for h in _COMPONENTS), post.low_ess
    return tuple(hpd_interval(post, h, config.level) for h in _COMPONENTS), post.low_ess


def _replicate(config: StudyConfig, point: bool) -> McReport:
    """The replication loop of both studies: point estimates per method,
    accumulated as estimate and squared error into AE and MSE, or (with
    ``point`` False) intervals per method, accumulated as width and coverage
    into AL and CP.  Low-ESS posteriors are counted per method, not skipped.
    """
    methods = [m for m in config.methods if not (point and m == "bootstrap")]
    bayes = [m for m in methods if m.startswith("bayes")]
    priors = [config.prior_for(m) for m in bayes]
    sums = {(p, m): [0.0, 0.0] for p in PARAMETERS for m in methods}
    truth = (config.truth.alpha, config.truth.lambda1, config.truth.lambda2)
    low_ess = dict.fromkeys(methods, 0)
    used = 0
    skipped = 0
    for i in range(config.replications):
        rep = RngStream(config.base_seed, splitmix64(i + 1))
        sample = simulate_jpc(config.scheme, config.truth, rep.substream(0))
        if sample.k1 == 0 or sample.k2 == 0:
            skipped += 1
            continue
        try:
            # one mode search for all posteriors; each then draws alone
            modes = dict(zip(bayes, shape_modes(sample, priors))) if bayes else {}
            results = {m: _evaluate(config, sample, rep, m, modes.get(m), point) for m in methods}
        except EstimationError:
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
