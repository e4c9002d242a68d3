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
    draw_posterior_two_complete,
    hpd_interval,
    log_marginal_shape,
    posterior_predictive_pvalue,
    weibull_posterior_complete,
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
    log_likelihood,
    shift_sample,
    simulate_jpc,
    u_stat,
    v_stat,
)
from .mle import (
    BootstrapResult,
    InfoMatrix,
    IntervalEstimate,
    MleFit,
    asymptotic_ci,
    bootstrap_ci,
    fisher_info,
    fit_mle,
    fit_mle_ordered,
    lambda_hats,
    profile_loglik,
)
from .rng import BetaGammaHyper, RngStream, sample_beta_gamma
from .study import (
    McReport,
    McRow,
    StudyConfig,
    informative_prior,
    run_interval_study,
    run_point_study,
)

__version__ = "0.1.0"
