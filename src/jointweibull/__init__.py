"""Inference for two Weibull populations under joint progressive type-II
censoring: likelihood and Bayes, order-restricted variants, bootstrap and
HPD intervals, goodness of fit, and Monte Carlo studies."""

from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    EstimationError,
    ImproperPosteriorError,
    NoMleError,
    NonIntegrableTargetError,
    SampleFileError,
    StudyFailedError,
    UnstableBootstrapError,
)
from .bayes import (
    PriorSpec,
    ShapeHyper,
    WeightedPosterior,
    bayes_estimate,
    draw_posterior,
    hpd_interval,
    posterior_predictive_pvalue,
    weighted_hpd,
)
from .gof import (
    CompleteSample,
    fit_common_shape,
    fit_weibull_complete,
    ks_distance,
    ks_pvalue,
    lr_test_common_shape,
)
from .jpc import (
    CensoringScheme,
    JointParams,
    JpcObservation,
    JpcSample,
    shift_sample,
    simulate_jpc,
)
from .mle import (
    BootstrapResult,
    IntervalEstimate,
    MleFit,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    fit_mle_ordered,
)
from .rng import BetaGammaHyper, RngStream
from .study import (
    McReport,
    McRow,
    StudyConfig,
    informative_prior,
    run_interval_study,
    run_point_study,
)

__version__ = "0.1.0"
