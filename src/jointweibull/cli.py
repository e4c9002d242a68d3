"""Command line front end.

Exit codes: 0 success; 2 when a sample admits no maximum likelihood fit
(all failures in one group); 3 when a posterior fails its propriety check;
4 for malformed or inconsistent input files; 1 for anything else that goes
wrong.  Numeric output is printed as ``key value`` lines with six
significant digits so runs are easy to diff and to parse.  Sample files
are read and written by :mod:`jointweibull.io`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    ImproperPosteriorError,
    NoMleError,
    NonIntegrableTargetError,
    SampleFileError,
    UnstableBootstrapError,
    _check_count,
    _check_level,
)
from .io import parse_complete_file, parse_jpc_file, serialize_jpc_sample
from .jpc import CensoringScheme, JointParams, JpcSample, shift_sample, simulate_jpc
from .rng import BetaGammaHyper, RngStream

if TYPE_CHECKING:
    from .bayes import PriorSpec
    from .study import StudyConfig

SEED_ENV_VAR = "JOINTWEIBULL_SEED"

EXIT_NO_MLE = 2
EXIT_IMPROPER = 3
EXIT_PARSE = 4


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# --------------------------------------------------------------------------
# subcommands


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
            _check_count(SEED_ENV_VAR, seed)
        except ValueError:
            raise SampleFileError(f"{SEED_ENV_VAR} must be an integer in [0, 2^64), not {env!r}") from None
        return seed
    return 0


def _emit(out, key: str, *values) -> None:
    rendered = " ".join(_fmt(v) if isinstance(v, float) else str(v) for v in values)
    print(f"{key} {rendered}", file=out)


def _load_jpc(args) -> JpcSample:
    sample = parse_jpc_file(args.sample)
    if args.shift:
        sample = shift_sample(sample, args.shift)
    return sample


def _cmd_simulate(args) -> int:
    scheme = CensoringScheme(m=args.m, n=args.n, k=args.k, R=tuple(args.R))
    params = JointParams(alpha=args.alpha, lambda1=args.lambda1, lambda2=args.lambda2)
    sample = simulate_jpc(scheme, params, RngStream(_seed(args)))
    text = serialize_jpc_sample(sample)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_fit(args) -> int:
    from .mle import asymptotic_ci, fit_mle, fit_mle_ordered

    sample = _load_jpc(args)
    fit = fit_mle_ordered(sample) if args.ordered else fit_mle(sample)
    out = sys.stdout
    _emit(out, "alpha", fit.params.alpha)
    _emit(out, "lambda1", fit.params.lambda1)
    _emit(out, "lambda2", fit.params.lambda2)
    _emit(out, "loglik", fit.loglik)
    _emit(out, "iterations", fit.iterations)
    _emit(out, "converged", int(fit.converged))
    if args.ordered:
        _emit(out, "boundary", int(fit.boundary))
    cis = asymptotic_ci(sample, fit.params, fit.boundary, args.level)
    for name, ci in zip(("alpha", "lambda1", "lambda2"), cis):
        _emit(out, f"ci_{name}", ci.lower, ci.upper)
    _emit(out, "ci_level", args.level)
    return 0


def _cmd_bootstrap(args) -> int:
    from .mle import bootstrap_ci

    sample = _load_jpc(args)
    res = bootstrap_ci(
        sample,
        level=args.level,
        n_boot=args.n_boot,
        ordered=args.ordered,
        rng=RngStream(_seed(args)),
    )
    out = sys.stdout
    for name, ci in zip(("alpha", "lambda1", "lambda2"), res[:3]):
        _emit(out, f"ci_{name}", ci.lower, ci.upper)
    _emit(out, "ci_level", args.level)
    _emit(out, "skipped", res.skipped)
    return 0


def _prior_from_args(args) -> PriorSpec:
    from .bayes import PriorSpec, ShapeHyper

    return PriorSpec(
        bg=BetaGammaHyper(args.a0, args.b0, args.a1, args.a2),
        shape=ShapeHyper(args.a, args.b),
        ordered=args.ordered,
    )


def _cmd_bayes(args) -> int:
    from .bayes import _COMPONENTS, bayes_estimate, draw_posterior, hpd_interval

    sample = _load_jpc(args)
    prior = _prior_from_args(args)
    post = draw_posterior(sample, prior, args.n_draws, RngStream(_seed(args)))
    out = sys.stdout
    names = ("alpha", "lambda1", "lambda2")
    for name, h in zip(names, _COMPONENTS):
        _emit(out, name, bayes_estimate(post, h))
    for name, h in zip(names, _COMPONENTS):
        ci = hpd_interval(post, h, args.level)
        _emit(out, f"hpd_{name}", ci.lower, ci.upper)
    _emit(out, "hpd_level", args.level)
    _emit(out, "ess", post.ess)
    if post.low_ess:
        print("warning: effective sample size below 1% of draws", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    from .bayes import _COMPONENTS, bayes_estimate, draw_posterior, posterior_predictive_pvalue
    from .gof import CompleteSample, fit_common_shape, fit_weibull_complete, ks_distance, ks_pvalue
    from .gof import lr_test_common_shape

    out = sys.stdout
    seed = _seed(args)
    data = []
    for path in (args.data1, args.data2):
        data.append(CompleteSample.from_raw(parse_complete_file(path), shift=args.shift))
    prior = _prior_from_args(args)
    for tag, ds, offset in (("data1", data[0], 10), ("data2", data[1], 20)):
        fit = fit_weibull_complete(ds)
        d = ks_distance(ds, fit.alpha, log_lam=fit.log_lam)
        _emit(out, f"{tag}_alpha", fit.alpha)
        _emit(out, f"{tag}_lambda", fit.lam)
        _emit(out, f"{tag}_ks", d)
        _emit(out, f"{tag}_ks_pvalue", ks_pvalue(d, ds.n))
        post = draw_posterior(ds, prior, args.n_draws, RngStream(seed, offset))
        _emit(out, f"{tag}_bayes_alpha", float(post.alpha.mean()))
        _emit(out, f"{tag}_bayes_lambda", float(post.lambda1.mean()))
        p_b, exp_ks = posterior_predictive_pvalue(ds, prior, args.n_rep, RngStream(seed, offset + 1), post)
        _emit(out, f"{tag}_bayes_expected_ks", exp_ks)
        _emit(out, f"{tag}_bayes_predictive_p", p_b)
    common = fit_common_shape(data[0], data[1])
    _emit(out, "common_alpha", common.alpha)
    _emit(out, "common_lambda1", common.lam1)
    _emit(out, "common_lambda2", common.lam2)
    stat, p = lr_test_common_shape(data[0], data[1])
    _emit(out, "lr_stat", stat)
    _emit(out, "lr_pvalue", p)
    for tag, ds, log_lam in (("data1", data[0], common.log_lam1), ("data2", data[1], common.log_lam2)):
        d = ks_distance(ds, common.alpha, log_lam=log_lam)
        _emit(out, f"common_{tag}_ks", d)
        _emit(out, f"common_{tag}_ks_pvalue", ks_pvalue(d, ds.n))
    post = draw_posterior((data[0], data[1]), prior, args.n_draws, RngStream(seed, 30))
    if post.low_ess:
        print(
            "warning: common-shape importance weights are degenerate "
            f"(effective sample size {post.ess:.1f} of {post.n_draws}); "
            "common_bayes_* values are unreliable",
            file=sys.stderr,
        )
    for name, h in zip(("alpha", "lambda1", "lambda2"), _COMPONENTS):
        _emit(out, f"common_bayes_{name}", bayes_estimate(post, h))
    pred_stream = RngStream(seed, 31)
    margin2 = dataclasses.replace(post, lambda1=post.lambda2, log_lambda1=post.log_lambda2)
    for tag, ds, margin in (("data1", data[0], post), ("data2", data[1], margin2)):
        p_b, exp_ks = posterior_predictive_pvalue(ds, prior, post.n_draws, pred_stream, margin)
        _emit(out, f"common_bayes_{tag}_expected_ks", exp_ks)
        _emit(out, f"common_bayes_{tag}_predictive_p", p_b)
    return 0


def _study_config_from_json(path: str) -> tuple[StudyConfig, str]:
    import json

    from .bayes import PriorSpec, ShapeHyper
    from .study import StudyConfig

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SampleFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SampleFileError(f"{path}: invalid JSON: {exc}") from exc
    try:
        raw = dict(raw)  # each key read is popped, so what is left are StudyConfig's options
        scheme = CensoringScheme(raw.pop("m"), raw.pop("n"), raw.pop("k"), tuple(raw.pop("R")))
        truth = JointParams(raw.pop("alpha"), raw.pop("lambda1"), raw.pop("lambda2"))
        informative = None
        if "informative" in raw:
            ip = dict(raw.pop("informative"))
            informative = PriorSpec(
                bg=BetaGammaHyper(ip.pop("a0"), ip.pop("b0"), ip.pop("a1"), ip.pop("a2")),
                shape=ShapeHyper(ip.pop("a"), ip.pop("b")),
            )
            if ip:
                raise ValueError(f"unknown key 'informative.{min(ip)}'")
        kind = raw.pop("kind", "point")
        config = StudyConfig(
            scheme=scheme,
            truth=truth,
            replications=raw.pop("replications"),
            methods=tuple(raw.pop("methods")),
            informative=informative,
            **raw,  # an unknown key is an unexpected keyword argument
        )
    except KeyError as exc:
        raise SampleFileError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SampleFileError(f"{path}: bad configuration: {exc}") from exc
    if kind not in ("point", "interval"):
        raise SampleFileError(f"{path}: kind must be 'point' or 'interval'")
    return config, kind


def _cmd_study(args) -> int:
    from .study import run_interval_study, run_point_study

    config, kind = _study_config_from_json(args.config)
    if args.base_seed is not None:
        config = dataclasses.replace(config, base_seed=args.base_seed)
    report = run_point_study(config) if kind == "point" else run_interval_study(config)
    if args.out == "-":
        report.to_csv(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            report.to_csv(fh)
    return 0


# --------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which would collide with the
    # no-MLE code; route usage problems to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _usage(check, value):
    """``value`` once ``check(value)`` passes; a refusal is a usage error."""
    try:
        check(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _level(text: str) -> float:
    return _usage(_check_level, float(text))


def _count(text: str) -> int:
    return _usage(lambda v: _check_count("count", v, 1), int(text))


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a0", type=float, default=0.0, help="beta-gamma total-rate shape")
    p.add_argument("--b0", type=float, default=0.0, help="beta-gamma total-rate rate")
    p.add_argument("--a1", type=float, default=0.0, help="beta-gamma split weight 1")
    p.add_argument("--a2", type=float, default=0.0, help="beta-gamma split weight 2")
    p.add_argument("--a", type=float, default=0.0, help="shape prior: gamma shape")
    p.add_argument("--b", type=float, default=0.0, help="shape prior: gamma rate")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jointweibull", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one censoring outcome")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=int, nargs="+", required=True, metavar="r")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="maximum likelihood fit of a sample file")
    p.add_argument("sample")
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--level", type=_level, default=0.9)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bootstrap", help="parametric bootstrap percentile intervals")
    p.add_argument("sample")
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--level", type=_level, default=0.9)
    p.add_argument("--n-boot", type=_count, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("bayes", help="posterior means and HPD intervals")
    p.add_argument("sample")
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--level", type=_level, default=0.9)
    p.add_argument("--n-draws", type=_count, default=10000)
    p.add_argument("--seed", type=int, default=None)
    _add_prior_flags(p)
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser(
        "analyze", help="full classical + posterior analysis of two complete samples"
    )
    p.add_argument("data1")
    p.add_argument("data2")
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--n-draws", type=_count, default=2000)
    p.add_argument("--n-rep", type=_count, default=2000)
    p.add_argument("--seed", type=int, default=None)
    _add_prior_flags(p)
    p.set_defaults(func=_cmd_analyze, ordered=False)

    p = sub.add_parser("study", help="run a Monte Carlo study from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default="-")
    p.add_argument("--base-seed", type=int, default=None, dest="base_seed")
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoMleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_MLE
    except (ImproperPosteriorError, DegenerateWeightsError, NonIntegrableTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPROPER
    except SampleFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConvergenceError, UnstableBootstrapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
