from __future__ import annotations

import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest

from jointweibull.bayes import PriorSpec, ShapeHyper, bayes_estimate, draw_posterior
from jointweibull import bayes, study
from jointweibull.errors import ImproperPosteriorError, NonIntegrableTargetError, StudyFailedError
from jointweibull.jpc import CensoringScheme, JointParams, sample_of_row, simulate_jpc_batch
from jointweibull.mle import asymptotic_ci, bootstrap_ci, fit_mle, fit_mle_ordered
from jointweibull.rng import BetaGammaHyper, RngStream, splitmix64
from jointweibull.study import (
    _METHOD_OFFSET,
    INTERVAL_METHODS,
    PARAMETERS,
    POINT_METHODS,
    McReport,
    StudyConfig,
    informative_prior,
    run_interval_study,
    run_point_study,
)

from _oracles import beta_gamma_mean

_SCHEME = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
_TRUTH = JointParams(1.0, 0.5, 1.0)


def _config(**kw) -> StudyConfig:
    base = dict(scheme=_SCHEME, truth=_TRUTH, replications=50, methods=("mle",))
    base.update(kw)
    return StudyConfig(**base)


def _replay_samples(config: StudyConfig) -> list:
    """The study's samples, rebuilt from the chunk layout: chunk c simulates
    ``_CHUNK`` experiments in one batch from ``(base_seed, splitmix64(c *
    _CHUNK + 1))``, and replication i is row i mod ``_CHUNK`` of its chunk."""
    size = study._CHUNK
    samples = []
    for first in range(0, config.replications, size):
        stream = RngStream(config.base_seed, splitmix64(first + 1))
        rows = simulate_jpc_batch(config.scheme, dataclasses.astuple(config.truth), stream, size)
        samples += [sample_of_row(config.scheme, *row) for row in zip(*rows)]
    return samples[: config.replications]


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        _config(methods=("mle", "magic"))
    with pytest.raises(ValueError):
        _config(methods=())
    with pytest.raises(ValueError):
        _config(replications=0)
    with pytest.raises(ValueError):
        _config(level=1.0)
    with pytest.raises(ValueError, match="n_posterior"):
        _config(n_posterior=0)
    with pytest.raises(ValueError, match="n_boot"):
        _config(n_boot=0)
    with pytest.raises(ValueError, match="repeated"):
        _config(methods=("mle", "bayes-ip", "mle"))


def test_config_refuses_non_integer_counts_and_seeds_outside_64_bits() -> None:
    for key, value in (
        ("replications", 2.5),
        ("n_boot", 2.5),
        ("n_posterior", True),
        ("replications", "3"),
        ("base_seed", -1),
        ("base_seed", 2**64),
        ("base_seed", 1.0),
        ("shape_rate_flat", "x"),
        ("shape_rate_flat", True),
        ("shape_rate_flat", -1.0),
        ("shape_rate_flat", math.nan),
        ("shape_rate_flat", math.inf),
    ):
        with pytest.raises(ValueError, match=key):
            _config(**{key: value})
    assert _config(base_seed=2**64 - 1).base_seed == 2**64 - 1


def test_prior_selection() -> None:
    cfg = _config(methods=POINT_METHODS, shape_rate_flat=2.0)
    nip = cfg.prior_for("bayes-nip")
    assert nip.bg.a0 == 0.0 and nip.shape.b == 2.0 and not nip.ordered
    assert cfg.prior_for("bayes-ordered-nip").ordered
    ip = cfg.prior_for("bayes-ip")
    assert ip.bg.a0 > 0.0 and not ip.ordered
    assert cfg.prior_for("bayes-ordered-ip").ordered


def test_informative_preset_is_mean_matched() -> None:
    prior = informative_prior(_TRUTH)
    m1, m2 = beta_gamma_mean(prior.bg)
    assert m1 == pytest.approx(_TRUTH.lambda1)
    assert m2 == pytest.approx(_TRUTH.lambda2)
    assert prior.shape.a / prior.shape.b == pytest.approx(_TRUTH.alpha)


def test_point_study_reference_band() -> None:
    """First hundred replications of the reference design: the average
    shape estimate sits near 1.11 with mean squared error near 0.079, and
    both are exactly those of fit_mle on the replayed samples."""
    config = _config(replications=100, base_seed=1)
    report = run_point_study(config)
    cell = report.cell("alpha", "mle")
    assert cell.ae == pytest.approx(1.112500, abs=1e-5)
    assert cell.mse == pytest.approx(0.079279, abs=1e-5)
    shapes = [fit_mle(x).params.alpha for x in _replay_samples(config) if x.k1 and x.k2]
    assert cell.ae == sum(shapes) / len(shapes)
    assert cell.mse == sum((a - 1.0) ** 2 for a in shapes) / len(shapes)
    assert cell.al is None and cell.cp is None
    assert cell.skipped == 0
    # rate cells carry the same bookkeeping
    l1 = report.cell("lambda1", "mle")
    assert 0.3 < l1.ae < 0.8 and l1.mse > 0.0


def test_point_study_is_deterministic() -> None:
    cfg = _config(replications=40, methods=("mle", "bayes-nip"), shape_rate_flat=2.0)
    assert run_point_study(cfg) == run_point_study(cfg)


def test_method_streams_do_not_interact() -> None:
    """Dropping a method from the run must not move any other method's
    numbers: every method draws from its own fixed substream."""
    both = run_point_study(
        _config(replications=40, methods=("mle", "bayes-nip"), shape_rate_flat=2.0)
    )
    alone = run_point_study(
        _config(replications=40, methods=("bayes-nip",), shape_rate_flat=2.0)
    )
    for p in PARAMETERS:
        assert both.cell(p, "bayes-nip") == alone.cell(p, "bayes-nip")
    # the Bayes presets share one stacked mode search per replication, and
    # each one run alone still gets its cells from the full run exactly
    full = run_point_study(_config(replications=40, methods=POINT_METHODS, base_seed=5))
    for m in POINT_METHODS[2:]:
        alone = run_point_study(_config(replications=40, methods=(m,), base_seed=5))
        for p in PARAMETERS:
            assert full.cell(p, m) == alone.cell(p, m)


def test_informative_prior_tightens_rate_mse() -> None:
    report = run_point_study(
        _config(replications=300, base_seed=2, methods=("bayes-ip", "bayes-nip"))
    )
    for p in ("lambda1", "lambda2"):
        assert report.cell(p, "bayes-ip").mse < report.cell(p, "bayes-nip").mse


def test_interval_study_reports_length_and_coverage() -> None:
    report = run_interval_study(
        _config(replications=60, methods=("mle", "bayes-ip"), level=0.9)
    )
    for p in PARAMETERS:
        for m in ("mle", "bayes-ip"):
            cell = report.cell(p, m)
            assert cell.ae is None and cell.mse is None
            assert cell.al > 0.0
            assert 0.0 <= cell.cp <= 1.0
    assert report.cell("alpha", "mle").cp > 0.6
    assert report.cell("lambda1", "bayes-ip").cp > 0.7


def test_interval_levels_nest() -> None:
    lo = run_interval_study(
        _config(replications=50, methods=("mle", "bayes-ip"), level=0.9)
    )
    hi = run_interval_study(
        _config(replications=50, methods=("mle", "bayes-ip"), level=0.95)
    )
    for p in PARAMETERS:
        for m in ("mle", "bayes-ip"):
            assert hi.cell(p, m).al > lo.cell(p, m).al
            assert hi.cell(p, m).cp >= lo.cell(p, m).cp


def test_bootstrap_interval_method_runs() -> None:
    report = run_interval_study(
        _config(replications=25, methods=("bootstrap",), n_boot=80)
    )
    cell = report.cell("alpha", "bootstrap")
    assert cell.al > 0.0 and 0.0 <= cell.cp <= 1.0


def test_independent_seeds_agree_within_binomial_noise() -> None:
    a = run_interval_study(_config(replications=100, base_seed=11))
    b = run_interval_study(_config(replications=100, base_seed=12))
    for p in PARAMETERS:
        diff = abs(a.cell(p, "mle").cp - b.cell(p, "mle").cp)
        assert diff < 3.0 * math.sqrt(2.0 * 0.9 * 0.1 / 100.0)


def test_study_fails_when_every_replication_skips() -> None:
    # a single-failure design can never observe both groups
    cfg = StudyConfig(
        scheme=CensoringScheme(1, 1, 1, (1,)),
        truth=JointParams(1.0, 1.0, 1.0),
        replications=5,
        methods=("mle",),
    )
    with pytest.raises(StudyFailedError):
        run_point_study(cfg)
    with pytest.raises(StudyFailedError):
        run_interval_study(cfg)


def test_low_ess_replications_are_counted_not_skipped() -> None:
    """A rate prior far from the data, with (l1 + l2)^298 in its density,
    leaves some replications' importance weights degenerate.  Each cell
    counts its method's low-ESS replications, as a replay of the posteriors
    finds them, and the averages still include those replications."""
    prior = PriorSpec(BetaGammaHyper(300.0, 1.0, 1.0, 1.0), ShapeHyper(2.0, 2.0))
    cfg = _config(replications=20, methods=("mle", "bayes-ip"), informative=prior)
    report = run_point_study(cfg)
    low = 0
    estimates = []
    for i, sample in enumerate(_replay_samples(cfg)):
        rep = RngStream(cfg.base_seed, splitmix64(i + 1))
        if sample.k1 == 0 or sample.k2 == 0:
            continue
        post = draw_posterior(
            sample, prior, cfg.n_posterior, rep.substream(_METHOD_OFFSET["bayes-ip"])
        )
        low += post.low_ess
        estimates.append(bayes_estimate(post, lambda a, l1, l2: a))
    assert 0 < low < len(estimates)
    for p in PARAMETERS:
        assert report.cell(p, "bayes-ip").low_ess == low
        assert report.cell(p, "mle").low_ess == 0
    cell = report.cell("alpha", "bayes-ip")
    assert cell.skipped == cfg.replications - len(estimates)
    assert cell.ae == pytest.approx(sum(estimates) / len(estimates), rel=1e-12)


def test_report_csv_round_trip() -> None:
    report = run_point_study(_config(replications=10))
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "scheme,parameter,method,AE,MSE,AL,CP,skipped,low_ess"
    assert len(lines) == 1 + len(PARAMETERS)
    first = lines[1].split(",")
    assert first[1] == "alpha" and first[2] == "mle"
    assert first[5] == "" and first[6] == ""  # no AL/CP in a point study
    with pytest.raises(KeyError):
        report.cell("alpha", "bootstrap")


def test_scheme_labels_run_length_encode_the_withdrawals() -> None:
    """A report's scheme label names m, n and k and writes each run of equal
    withdrawals as ``RxC`` (a lone one as ``R``)."""
    assert study._scheme_label(_SCHEME) == "m=20 n=22 k=20 R=7 0x18 15"
    assert study._scheme_label(CensoringScheme(69, 63, 20, (4,) * 19 + (36,))) == "m=69 n=63 k=20 R=4x19 36"
    assert study._scheme_label(CensoringScheme(3, 1, 3, (0, 1, 0))) == "m=3 n=1 k=3 R=0 1 0"
    report = run_point_study(_config(replications=3))
    assert {row.scheme for row in report.rows} == {"m=20 n=22 k=20 R=7 0x18 15"}


def test_method_tuples_are_fixed() -> None:
    assert set(POINT_METHODS) < set(INTERVAL_METHODS)
    assert "bootstrap" in INTERVAL_METHODS and "bootstrap" not in POINT_METHODS
    assert isinstance(McReport().rows, list)


def test_ordered_mle_intervals_keep_every_replication_on_the_fiber_design() -> None:
    """At the fiber sample's own ordered fit about half the ordered fits lie
    on lambda1 = lambda2; their intervals come from the common-rate model,
    so none is lost."""
    config = StudyConfig(
        scheme=CensoringScheme(69, 63, 20, (4,) * 19 + (36,)),
        truth=JointParams(4.3475, 0.045326, 0.045326),
        replications=200,
        methods=("mle-ordered",),
        base_seed=1,
    )
    report = run_interval_study(config)
    assert [row.skipped for row in report.rows] == [0, 0, 0]
    assert all(0.5 < row.cp <= 1.0 for row in report.rows)


def test_an_estimation_error_skips_its_replication(monkeypatch) -> None:
    """A method that raises any ``EstimationError`` skips the replication it
    hit; the cells are those of a run without that replication."""
    real = study.draw_posterior
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == fail_at:
            raise NonIntegrableTargetError("refused")
        return real(*args, **kwargs)

    monkeypatch.setattr(study, "draw_posterior", counted)
    config = _config(replications=30, methods=("mle", "bayes-nip"), n_posterior=200)
    fail_at = 0
    shorter = run_point_study(dataclasses.replace(config, replications=29))
    used = len(calls)
    calls.clear()
    run_point_study(config)
    assert len(calls) == used + 1  # the last replication reaches the method
    calls.clear()
    fail_at = used + 1
    report = run_point_study(config)
    for row, ref in zip(report.rows, shorter.rows, strict=True):
        assert row.skipped == ref.skipped + 1
        assert dataclasses.replace(row, skipped=ref.skipped) == ref


def _kernel_key(kernels, row: int) -> bytes:
    """A sample's key: the top and offsets of row ``row`` of its kernels."""
    return b"".join(g.top[row].tobytes() + g.off[row].tobytes() for g in kernels)


def _record_replications(monkeypatch) -> dict:
    """Patch the study's stacked interval step and its posterior calls to
    record, per sample (keyed by its rows of the kernels, in the order the
    study first reaches it), each row's fit with its asymptotic interval
    ends, and each posterior's draws."""
    seen: dict = {}
    real_ci, real_draw = study._asymptotic, study.draw_posterior

    def ci(scheme, groups, log_t, fits, boundary, level):
        ends = real_ci(scheme, groups, log_t, fits, boundary, level)
        for i in range(len(boundary)):
            intervals = tuple(map(tuple, ends[..., i].tolist()))
            record = ("ci", JointParams(*fits[:, i].tolist()), bool(boundary[i]), intervals)
            seen.setdefault(_kernel_key([g for g, _ in groups], i), []).append(record)
        return ends

    def draw(core, prior, n, rng):
        post = real_draw(core, prior, n, rng)
        record = ("post", prior, post.alpha.tobytes(), post.lambda1.tobytes(), post.normalized.tobytes())
        seen.setdefault(_kernel_key(core.sums, core.row), []).append(record)
        return post

    monkeypatch.setattr(study, "_asymptotic", ci)
    monkeypatch.setattr(study, "draw_posterior", draw)
    return seen


def test_first_replications_of_a_longer_study_are_the_shorter_study(monkeypatch) -> None:
    """A study simulates whole chunks, so replication i depends only on the
    base seed and i: the first 21 replications of a 42-replication study
    (chunks of 16, so the 21 end inside a chunk and the 42 span three) get
    the samples, fits and posterior draws of a 21-replication study."""
    assert 21 % study._CHUNK and 42 > 2 * study._CHUNK
    seen = _record_replications(monkeypatch)
    config = _config(replications=21, methods=("mle", "bayes-nip"), n_posterior=200)
    run_interval_study(config)
    short = list(seen.items())
    seen.clear()
    run_interval_study(dataclasses.replace(config, replications=42))
    longer = list(seen.items())
    assert len(short) >= 20 and len(longer) >= 40
    assert longer[: len(short)] == short
    assert all([r[0] for r in records] == ["ci", "post"] for _, records in longer)


def test_stacked_study_fits_are_the_lone_fits(monkeypatch) -> None:
    """Each chunk fits its samples in one free stack and refits only the
    rows that break lambda1 <= lambda2 with one common rate; every sample's
    intervals, read from its rows of the chunk's kernels, are still
    asymptotic_ci's at exactly the fit_mle and fit_mle_ordered fits of that
    sample alone, byte for byte, boundary fits among them: each row of the
    stacked interval step holds asymptotic_ci's (lower, upper) pairs."""
    seen = _record_replications(monkeypatch)
    config = _config(replications=48, methods=("mle", "mle-ordered"))
    run_interval_study(config)
    samples = {_kernel_key([g for g, _ in x.groups], 0): x for x in _replay_samples(config)}
    boundary = 0
    for key, records in seen.items():
        free, ordered = fit_mle(samples[key]), fit_mle_ordered(samples[key])
        want = Counter(
            ("ci", fit.params, fit.boundary, tuple((iv.lower, iv.upper) for iv in intervals))
            for fit in (free, ordered)
            for intervals in [asymptotic_ci(samples[key], fit.params, fit.boundary, config.level)]
        )
        assert Counter(records) == want
        boundary += ordered.boundary
    assert len(seen) >= 45 and boundary >= 1


def test_study_bootstrap_is_bootstrap_ci_of_each_sample(monkeypatch) -> None:
    """An interval study hands each sample's free fit from its chunk's stack
    to the bootstrap instead of fitting the sample again, and that fit is
    fit_mle's; every replication's bootstrap intervals still equal, byte
    for byte, those of bootstrap_ci on that sample with the replication's
    bootstrap substream."""
    seen = {}
    real = study._bootstrap

    def recorded(scheme, params, *args):
        seen[params] = real(scheme, params, *args)
        return seen[params]

    monkeypatch.setattr(study, "_bootstrap", recorded)
    config = _config(replications=20, methods=("mle", "bootstrap"), n_boot=120, base_seed=5)
    run_interval_study(config)
    live = [(i, x) for i, x in enumerate(_replay_samples(config)) if x.k1 and x.k2]
    assert len(seen) == len(live) >= 18
    for i, sample in live:
        stream = RngStream(config.base_seed, splitmix64(i + 1)).substream(_METHOD_OFFSET["bootstrap"])
        alone = bootstrap_ci(sample, level=config.level, n_boot=config.n_boot, rng=stream)
        assert seen[fit_mle(sample).params] == alone


def test_an_improper_or_non_integrable_row_skips_only_its_replication(monkeypatch) -> None:
    """Inside a chunk, a posterior core that raises ImproperPosteriorError
    and one whose shape marginal decays only past 1e10 (the limit of its
    slope pushed to -1e-13, so its row of the chunk's stacked mode search
    has no root and its draws raise) skip their own replications only: the
    cells are those of the study that stops before them."""
    config = _config(replications=20, methods=("mle", "bayes-nip"), n_posterior=200)
    samples = _replay_samples(config)
    assert all(x.k1 and x.k2 for x in samples[16:])
    improper, slow = samples[18].sum_log_t, samples[19].sum_log_t
    real = study._PosteriorCore

    class Rigged(real):
        def __init__(self, groups, row, sum_log_t, prior):
            if sum_log_t == improper:
                raise ImproperPosteriorError("refused")
            super().__init__(groups, row, sum_log_t, prior)
            if sum_log_t == slow:
                limit = self.branch.local(np.array([1e150]))[1][0]
                self.branch.c1 += limit + 1e-13

    modes = []
    real_modes = bayes.shape_modes

    def recorded(cores):
        real_modes(cores)
        modes.extend(core.mode for core in cores)

    monkeypatch.setattr(study, "_PosteriorCore", Rigged)
    monkeypatch.setattr(bayes, "shape_modes", recorded)
    shorter = run_point_study(dataclasses.replace(config, replications=18))
    modes.clear()
    report = run_point_study(config)
    assert len(modes) == 19 and modes.count(math.inf) == 1
    for row, ref in zip(report.rows, shorter.rows, strict=True):
        assert row.skipped == ref.skipped + 2
        assert dataclasses.replace(row, skipped=ref.skipped) == ref


def test_chunk_kernels_are_the_power_sums_of_its_samples(monkeypatch) -> None:
    """A chunk builds its two power-sum kernels once, over its rows; row j
    of each is, in top, offsets and weights byte for byte, the kernel of
    sample_of_row's sample of that row, and its counts are the sample's
    k1 and k2 (over two chunks, the second cut short).  At shape 4.3475
    most simulated log times are not ln of their own exp, so the kernels
    must be built from ln of the times as doubles, as a sample holds them."""
    built = []
    real = study._groups

    def recorded(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(study, "_groups", recorded)
    config = _config(truth=JointParams(4.3475, 0.045326, 0.045326), replications=21, methods=("bayes-nip",))
    run_point_study(dataclasses.replace(config, n_posterior=50))
    samples = _replay_samples(config)
    raw = simulate_jpc_batch(config.scheme, dataclasses.astuple(config.truth), RngStream(0, splitmix64(1)), 16)[0]
    assert sum(not np.array_equal(x.log_t, lt) for x, lt in zip(samples, raw)) > 10
    assert [len(g[0][1]) for g in built] == [16, 5]
    rows = [(groups, j) for groups in built for j in range(len(groups[0][1]))]
    for sample, (groups, j) in zip(samples, rows, strict=True):
        for (stack, counts), (sums, _), k in zip(groups, sample.groups, (sample.k1, sample.k2)):
            row = stack.take([j])
            assert counts[j] == k
            for name in ("top", "off", "wgt"):
                assert getattr(row, name).tobytes() == getattr(sums, name).tobytes()


def test_point_study_refuses_times_that_overflow_or_collide() -> None:
    """At shape 0.002 the simulated log times are far past exp's range:
    a point study raises the ValueError a lone sample would, from one check
    over its chunk."""
    config = _config(truth=JointParams(0.002, 0.5, 1.0), methods=("mle", "bayes-nip"), replications=20)
    with pytest.raises(ValueError, match="failure times overflow, underflow to zero or collide as doubles"):
        run_point_study(config)
