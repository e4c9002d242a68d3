"""Data model and likelihood for two Weibull groups under joint progressive
type-II censoring.

Two groups of sizes ``m`` and ``n`` are put on test together.  At each of
``k`` observed failure times a prescribed number ``R_j`` of surviving units
is withdrawn, ``s_j`` of them from group 1.  A sample (:class:`JpcSample`)
is therefore three checked, read-only arrays: the ordered failure times,
indicators of which group failed, and the withdrawal splits.  Both groups
share the Weibull shape ``alpha``; the scale structure enters only through
the two weighted power sums

    U(a) = sum_j s_j t_j^a + sum_{group-1 failures} t_j^a
    V(a) = sum_j w_j t_j^a + sum_{group-2 failures} t_j^a

with ``w_j = R_j - s_j``, and the log-likelihood is

    k ln a + k1 ln l1 + k2 ln l2 + (a-1) sum ln t_j - l1 U(a) - l2 V(a).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import _check_count, _check_real, _check_shift
from .rng import PowerSum, RngStream


@dataclass(frozen=True)
class CensoringScheme:
    """Design of a joint progressive type-II experiment.

    ``R[j]`` is the number of survivors withdrawn at the j-th failure; the
    scheme exhausts both groups: ``sum(R) + k == m + n``.  Every count is
    an integer; a float or a bool is refused, not truncated.
    """

    m: int
    n: int
    k: int
    R: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.R)
        named = [("m", self.m, 1), ("n", self.n, 1), ("k", self.k, 1)]
        for name, v, low in named + [(f"R[{j}]", r, 0) for j, r in enumerate(counts)]:
            _check_count(name, v, low)
        object.__setattr__(self, "R", tuple(map(int, counts)))
        if self.m + self.n >= 2**63:
            raise ValueError("m + n must be below 2^63, so every count and sum is exact in int64")
        if self.k > self.m + self.n:
            raise ValueError("k must lie in [1, m+n]")
        if len(self.R) != self.k:
            raise ValueError("R must list one withdrawal count per failure")
        if sum(self.R) != self.m + self.n - self.k:
            raise ValueError("withdrawals must exhaust the groups: sum(R) == m+n-k")


@dataclass(frozen=True)
class JpcObservation:
    """One failure epoch: time, group indicator (1 = group 1), and the
    number of group-1 units among the withdrawals at that epoch; a
    ``(t, delta, s)`` row of a :class:`JpcSample`."""

    t: float
    delta: int
    s: int

    def __post_init__(self):
        _check_real("t", self.t)
        _check_count("delta", self.delta)
        if self.delta > 1:
            raise ValueError("delta must be 0 or 1")
        _check_count("s", self.s)

    def __iter__(self):
        return iter((self.t, self.delta, self.s))


@dataclass(frozen=True)
class JointParams:
    """Common shape and the two group rates of the Weibull pair."""

    alpha: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("alpha", "lambda1", "lambda2"):
            _check_real(name, getattr(self, name))


@dataclass(frozen=True, eq=False, init=False)
class JpcSample:
    """An observed censoring outcome: the read-only arrays ``t``, ``log_t``,
    ``delta`` and ``s`` (int64), checked against the scheme.

    ``obs`` is k ``(t, delta, s)`` rows with integer counts, a bool refused,
    such as :class:`JpcObservation` objects or ``zip(t, delta, s)`` of
    arrays; only the arrays are kept.  One vectorized rule replays the
    experiment's accounting: times are finite, > 0 and strictly increase,
    ``delta`` is 0 or 1, each failure comes from a group with a survivor,
    and each split has ``0 <= s <= R`` and is covered by the survivors left
    after the failure.  These and ``sum(R) + k == m + n`` exhaust both
    groups.  The first epoch that breaks a rule is named, with the first
    rule it breaks in that order.  Samples compare by identity.
    """

    scheme: CensoringScheme
    t: np.ndarray
    log_t: np.ndarray
    delta: np.ndarray
    s: np.ndarray

    def __init__(self, scheme: CensoringScheme, obs: Iterable):
        object.__setattr__(self, "scheme", scheme)
        rows = tuple(obs)
        if len(rows) != scheme.k:
            raise ValueError("number of observations must equal k")
        t, delta, s = zip(*rows, strict=True)
        mixed = any(isinstance(v, (bool, np.bool_)) for v in delta + s)  # np.asarray([True, 3]) is int64
        t, delta, s = np.asarray(t), np.asarray(delta), np.asarray(s)
        if mixed or t.dtype.kind not in "fiu" or delta.dtype.kind + s.dtype.kind != "ii":
            raise ValueError("rows must hold a real t and integers delta and s below 2^63")
        t, delta, s = t.astype(float), delta.astype(np.int64), s.astype(np.int64)
        w = np.asarray(scheme.R) - s
        # survivors after each failure; exact up to the first broken epoch,
        # where m + n < 2^63 bounds every sum of the epochs before it
        a1 = scheme.m - np.cumsum(delta + s) + s
        a2 = scheme.n - np.cumsum(1 - delta + w) + w
        rules = (
            (~(np.isfinite(t) & (t > 0.0)), "failure times must be finite reals > 0 (epoch {})"),
            (t <= np.concatenate(([0.0], t[:-1])), "failure times must strictly increase (epoch {})"),
            ((delta != 0) & (delta != 1), "delta must be 0 or 1 (epoch {})"),
            ((delta == 1) & (a1 < 0), "group 1 exhausted before epoch {}"),
            ((delta == 0) & (a2 < 0), "group 2 exhausted before epoch {}"),
            (s < 0, "s must be >= 0 (epoch {})"),
            (w < 0, "withdrawal split exceeds R at epoch {}"),
            ((s > a1) | (w > a2), "withdrawals exceed survivors at epoch {}"),
        )
        broken = np.argwhere(np.array([mask for mask, _ in rules]).T)  # (epoch, rule) pairs in that order
        if broken.size:
            raise ValueError(rules[broken[0, 1]][1].format(broken[0, 0] + 1))
        for name, a in (("t", t), ("log_t", np.log(t)), ("delta", delta), ("s", s)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @cached_property
    def groups(self) -> list[tuple[PowerSum, np.ndarray]]:
        """The sample as a stack of one row (:func:`_groups`), set up once."""
        return _groups(self.scheme, self.log_t[None], self.delta[None], self.s[None])

    @cached_property
    def k1(self) -> int:
        return int(self.delta.sum())

    @property
    def k2(self) -> int:
        return self.scheme.k - self.k1

    @cached_property
    def sum_log_t(self) -> float:
        return float(self.log_t.sum())


def _groups(scheme: CensoringScheme, log_t, delta, s) -> list[tuple[PowerSum, np.ndarray]]:
    """The groups of outcomes stacked in rows: the kernel of ln U (weights ``s
    + delta``) with k1 and that of ln V (``R - s + 1 - delta``) with k2."""
    k1, coef2 = delta.sum(axis=1, dtype=float), np.asarray(scheme.R) - s + 1 - delta
    return [(PowerSum(s + delta, log_t), k1), (PowerSum(coef2, log_t), scheme.k - k1)]


def simulate_jpc(scheme: CensoringScheme, params: JointParams, rng: RngStream) -> JpcSample:
    """Run one experiment under the given design and parameters: a one-row
    :func:`simulate_jpc_batch` made a sample by :func:`sample_of_row`."""
    return sample_of_row(scheme, *(x[0] for x in simulate_jpc_batch(scheme, astuple(params), rng, 1)))


def sample_of_row(scheme: CensoringScheme, log_t, delta, s) -> JpcSample:
    """One row of :func:`simulate_jpc_batch` as a sample, times by :func:`_times`."""
    return JpcSample(scheme, zip(_times(log_t), delta, s))


def _times(log_t) -> np.ndarray:
    """``exp(log t)`` of outcomes; ``ValueError`` unless rows of strictly increasing finite doubles > 0."""
    with np.errstate(over="ignore"):
        t = np.exp(log_t)
    if not (np.all(np.isfinite(t[..., -1])) and np.all(np.diff(t, axis=-1, prepend=0.0) > 0.0)):
        raise ValueError("failure times overflow, underflow to zero or collide as doubles at these parameters")
    return t


def simulate_jpc_batch(
    scheme: CensoringScheme, params, rng: RngStream, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``size`` experiments at once; returns ``(log_t, delta, s)``, each
    of shape ``(size, k)``: log failure times, group indicators and
    withdrawal splits, one experiment per row.

    ``params`` is ``(alpha, lambda1, lambda2)``; each entry is a scalar
    shared by all rows or a ``(size,)`` array giving row i its own
    parameters (a posterior predictive check simulates one replicate per
    resampled draw).  Scalars and constant arrays give the same output.

    Both groups share the shape, so in the scale tau = t^alpha every unit is
    exponential with its group's rate and the experiment is memoryless.
    With a1, a2 survivors the next tau-gap is Exp(a1*l1 + a2*l2), the
    failing unit comes from group 1 with probability a1*l1 / (a1*l1 + a2*l2),
    and the withdrawal split is hypergeometric over the survivors left after
    the failure: the joint analogue of Balakrishnan & Sandhu (1995,
    Amer. Statist. 49:229).  A row therefore takes O(k) draws and no sort,
    and the k epochs are k array steps over all rows.  Times come back as
    ``ln t = ln(tau) / alpha``, which never forms t^alpha.  Rows whose log
    times do not strictly increase (floating-point collision only) are
    redrawn at their own parameters; a row whose first hazard overflows,
    where every gap would be 0, raises ``ValueError`` before any draw.
    """
    _check_count("size", size, 1)
    alpha, lam1, lam2 = (np.broadcast_to(np.asarray(p, dtype=float), (size,)) for p in params)
    for name, v in (("alpha", alpha), ("lambda1", lam1), ("lambda2", lam2)):
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ValueError(f"{name} must be a positive finite real in every row")
    with np.errstate(over="ignore"):  # survivors only fall, so this is the largest hazard
        if not np.all(np.isfinite(scheme.m * lam1 + scheme.n * lam2)):
            raise ValueError("first-epoch hazard m*lambda1 + n*lambda2 overflows a double")
    k = scheme.k
    log_t = np.empty((size, k))
    delta = np.empty((size, k), dtype=np.int64)
    s = np.empty((size, k), dtype=np.int64)
    todo = np.arange(size)
    while todo.size:
        lt, d, sj = _tau_scale_rows(scheme, alpha[todo], lam1[todo], lam2[todo], rng)
        if np.isposinf(lt[:, -1]).any():
            raise ValueError("failure times overflow a double at these parameters")
        log_t[todo], delta[todo], s[todo] = lt, d, sj
        ok = (lt[:, 0] > -np.inf) & np.all(np.diff(lt, axis=1) > 0.0, axis=1)
        todo = todo[~ok]
    return log_t, delta, s


def _tau_scale_rows(scheme: CensoringScheme, alpha, lam1, lam2, rng: RngStream):
    """One pass of :func:`simulate_jpc_batch`: draws made ``(size, k)`` and
    walked as contiguous epoch rows of their transposes, outputs ``(size, k)``."""
    size, k = alpha.size, scheme.k
    gap = rng.exponential((size, k)).T.copy()
    pick = rng.uniform((size, k)).T.copy()
    delta = np.zeros((size, k), dtype=np.int64)
    s = np.zeros((size, k), dtype=np.int64)
    a1 = np.full(size, scheme.m, dtype=np.int64)
    a2 = np.full(size, scheme.n, dtype=np.int64)
    for j, r_j in enumerate(scheme.R):
        h1 = a1 * lam1
        h2 = a2 * lam2
        gap[j] /= h1 + h2
        # U*(h1 + h2) < h1, arranged so an empty group can never be picked
        d = pick[j] * h2 < (1.0 - pick[j]) * h1
        delta[:, j] = d
        a1 -= d
        a2 -= ~d
        if r_j:
            s[:, j] = sj = rng.hypergeometric(a1, a2, r_j)
            a1 -= sj
            a2 -= r_j - sj
    with np.errstate(divide="ignore"):  # a zero first gap gives -inf: redrawn
        np.log(np.cumsum(gap, axis=0, out=gap), out=gap)
    gap /= alpha
    return np.ascontiguousarray(gap.T), delta, s


def shift_sample(sample: JpcSample, shift: float) -> JpcSample:
    """Subtract a threshold, a finite real >= 0 below the smallest time, from
    every failure time.  Useful when recorded values carry a known lower bound."""
    _check_shift(shift, sample.t[0])
    if shift == 0.0:
        return sample
    return JpcSample(sample.scheme, zip(sample.t - shift, sample.delta, sample.s))


def break_ties(values) -> np.ndarray:
    """Perturb exact ties by position-stable multiples of 1e-9.

    Estimation code needs strictly ordered epochs; recorded data sometimes
    carries duplicates at the printed precision.  The c-th repeat of a value
    (counting from zero) is moved up by c * 1e-9, a deterministic function of
    position, so repeated runs agree bit for bit; values that occur once are
    never moved.  For a non-decreasing input (the times of a sample file) the
    output strictly increases whenever double precision leaves room between
    the values that occur once: a repeat that 1e-9 steps would push onto or
    past the next value, or that cannot move by 1e-9 at its magnitude, is
    placed at the nearest double that keeps the order.  Where the steps
    already give a strictly increasing result, that result is returned as is.
    """
    x = np.array(values, dtype=float)
    out = x.copy()
    seen: dict[float, int] = {}
    for i, v in enumerate(x):
        c = seen.get(v, 0)
        if c:
            out[i] = v + c * 1e-9
        seen[v] = c + 1
    if not np.all(np.diff(x) >= 0.0) or np.all(np.diff(out) > 0.0):
        return out
    tied = [seen[v] > 1 for v in x]
    # a forward pass lifts each repeat above its predecessor, a backward pass
    # lowers it below its successor; values that occur once stay fixed
    for i in range(1, out.size):
        if tied[i]:
            out[i] = max(out[i], np.nextafter(out[i - 1], math.inf))
    for i in range(out.size - 2, -1, -1):
        if tied[i]:
            out[i] = min(out[i], np.nextafter(out[i + 1], -math.inf))
    return out
