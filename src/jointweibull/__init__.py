"""Inference for two Weibull populations under joint progressive type-II
censoring: likelihood and Bayes, order-restricted variants, bootstrap and
HPD intervals, goodness of fit, and Monte Carlo studies.

Each public name resolves on first use (PEP 562): ``jointweibull.fit_mle``
imports :mod:`jointweibull.mle` when it is first asked for and returns that
module's current attribute, and ``jointweibull.mle`` imports the module the
same way, so importing the package loads no submodule.  Each CLI subcommand
loads only the layers it runs: ``simulate`` loads ``errors``, ``rng``,
``jpc`` and ``io``; ``fit`` and ``bootstrap`` add ``mle``; ``bayes`` and
``analyze`` add ``mle``, ``gof`` and ``bayes``; only ``study`` loads
``study``."""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": "ConvergenceError DegenerateWeightsError EstimationError ImproperPosteriorError NoMleError "
    "NonIntegrableTargetError SampleFileError StudyFailedError UnstableBootstrapError",
    "bayes": "PriorSpec ShapeHyper WeightedPosterior bayes_estimate draw_posterior hpd_interval "
    "posterior_predictive_pvalue weighted_hpd",
    "gof": "CompleteSample fit_common_shape fit_weibull_complete ks_distance ks_pvalue lr_test_common_shape",
    "jpc": "CensoringScheme JointParams JpcObservation JpcSample shift_sample simulate_jpc",
    "mle": "BootstrapResult IntervalEstimate MleFit asymptotic_ci bootstrap_ci fit_mle fit_mle_ordered",
    "rng": "BetaGammaHyper RngStream",
    "study": "McReport McRow StudyConfig informative_prior run_interval_study run_point_study",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here, so a patch on the defining module is what callers see
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
