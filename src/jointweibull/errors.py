"""Exception types shared across the estimation and CLI layers.

The command line maps these onto distinct exit codes so that scripted
callers can tell "no MLE exists for this sample" apart from "the posterior
does not integrate" and from plain input-file problems.  A Monte Carlo
study skips and counts a replication in which any method raises an
``EstimationError``.
"""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for failures of an estimation routine."""


class NoMleError(EstimationError):
    """Raised when a sample contains no failure from one of the groups, so
    the likelihood is monotone in that group's rate and has no maximizer."""


class ConvergenceError(EstimationError):
    """Raised when a root bracket cannot be established or an iteration
    budget is exhausted before the requested tolerance is met."""


class ImproperPosteriorError(EstimationError):
    """Raised when the posterior fails an integrability check, e.g. the
    slope of the shape marginal does not tend to a negative limit or a
    conditional gamma/beta update would receive a non-positive parameter."""


class NonIntegrableTargetError(EstimationError):
    """Raised by the log-concave sampler when the target density does not
    decay on the right, so no finite envelope exists."""


class UnstableBootstrapError(EstimationError):
    """Raised when more than half of the bootstrap resamples are degenerate
    (all failures from a single group)."""


class DegenerateWeightsError(EstimationError):
    """Raised when every importance weight is zero, leaving nothing to
    normalize."""


class StudyFailedError(EstimationError):
    """Raised when every replication of a Monte Carlo study was skipped, so
    no cell has anything to average."""


class SampleFileError(ValueError):
    """Raised on malformed input files; the message carries a line number
    where one is available."""
