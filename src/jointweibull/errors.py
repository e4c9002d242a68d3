"""Exception types shared across the estimation and CLI layers.

The command line maps these onto distinct exit codes so that scripted
callers can tell "no MLE exists for this sample" apart from "the posterior
does not integrate" and from plain input-file problems.  A Monte Carlo
study skips and counts a replication in which any method raises an
``EstimationError``.

Scalar inputs follow one rule per kind of number, each a helper here that
raises ``ValueError`` naming the argument: a count (:func:`_check_count`)
is an integer in ``[low, 2^64)``; a real (:func:`_check_real`) is finite
and > 0, or >= 0 where zero is allowed; a level (:func:`_check_level`) is
a real strictly inside (0, 1).  A bool is none of these, a float is no
count and a string is no number.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def _check_count(name: str, v, low: int = 0, high=2**64) -> None:
    """Refuse a count that is not an integer in [low, high), a float or a
    bool among them."""
    if isinstance(v, bool) or not isinstance(v, Integral) or not low <= v < high:
        bounds = f"[{low}, {'2^64' if high == 2**64 else high})"
        raise ValueError(f"{name} must be an integer in {bounds}, not {v!r}")


def _check_real(name: str, v, positive: bool = True) -> None:
    """Refuse a value that is not a finite real > 0, or >= 0 where
    ``positive`` is false; a bool is refused."""
    real = not isinstance(v, bool) and isinstance(v, Real) and math.isfinite(v)
    if not (real and (v > 0.0 if positive else v >= 0.0)):
        raise ValueError(f"{name} must be a finite real {'>' if positive else '>='} 0, not {v!r}")


def _check_shift(shift, smallest) -> None:
    """Refuse a threshold shift that is not a finite real >= 0 below
    ``smallest``, the least time it is subtracted from."""
    _check_real("shift", shift, positive=False)
    if shift and shift >= smallest:
        raise ValueError(f"shift must be below the smallest time, {float(smallest)!r}, not {shift!r}")


def _check_level(level) -> None:
    """Refuse a level that is not a real strictly inside (0, 1)."""
    if isinstance(level, bool) or not isinstance(level, Real) or not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly between 0 and 1, not {level!r}")


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
