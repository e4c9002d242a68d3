"""Data model and likelihood for two Weibull groups under joint progressive
type-II censoring.

Two groups of sizes ``m`` and ``n`` are put on test together.  At each of
``k`` observed failure times a prescribed number ``R_j`` of surviving units
is withdrawn, ``s_j`` of them from group 1.  A sample therefore consists of
the ordered failure times, indicators of which group failed, and the
withdrawal splits.  Both groups share the Weibull shape ``alpha``; the
scale structure enters only through the two weighted power sums

    U(a) = sum_j s_j t_j^a + sum_{group-1 failures} t_j^a
    V(a) = sum_j w_j t_j^a + sum_{group-2 failures} t_j^a

with ``w_j = R_j - s_j``, and the log-likelihood is

    k ln a + k1 ln l1 + k2 ln l2 + (a-1) sum ln t_j - l1 U(a) - l2 V(a).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .rng import RngStream, log_sum_exp


@dataclass(frozen=True)
class CensoringScheme:
    """Design of a joint progressive type-II experiment.

    ``R[j]`` is the number of survivors withdrawn at the j-th failure; the
    scheme exhausts both groups: ``sum(R) + k == m + n``.
    """

    m: int
    n: int
    k: int
    R: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "R", tuple(int(r) for r in self.R))
        if self.m < 1 or self.n < 1:
            raise ValueError("both group sizes must be positive")
        if not 1 <= self.k <= self.m + self.n:
            raise ValueError("k must lie in [1, m+n]")
        if len(self.R) != self.k:
            raise ValueError("R must list one withdrawal count per failure")
        if any(r < 0 for r in self.R):
            raise ValueError("withdrawal counts must be non-negative")
        if sum(self.R) != self.m + self.n - self.k:
            raise ValueError("withdrawals must exhaust the groups: sum(R) == m+n-k")


@dataclass(frozen=True)
class JpcObservation:
    """One failure epoch: time, group indicator (1 = group 1), and the
    number of group-1 units among the withdrawals at that epoch."""

    t: float
    delta: int
    s: int

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError("failure time must be a positive finite real")
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        if self.s < 0:
            raise ValueError("withdrawal split must be non-negative")


@dataclass(frozen=True)
class JointParams:
    """Common shape and the two group rates of the Weibull pair."""

    alpha: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("alpha", "lambda1", "lambda2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite real")


@dataclass(frozen=True)
class JpcSample:
    """An observed censoring outcome, validated against its scheme.

    Construction replays the experiment's accounting: times strictly
    increase, every withdrawal is covered by the survivors present at that
    epoch, and both groups are exactly exhausted by the end.
    """

    scheme: CensoringScheme
    obs: tuple[JpcObservation, ...]

    def __post_init__(self):
        object.__setattr__(self, "obs", tuple(self.obs))
        sch = self.scheme
        if len(self.obs) != sch.k:
            raise ValueError("number of observations must equal k")
        alive1, alive2 = sch.m, sch.n
        prev = 0.0
        for j, o in enumerate(self.obs):
            if o.t <= prev:
                raise ValueError(f"failure times must strictly increase (epoch {j + 1})")
            prev = o.t
            if o.delta == 1:
                if alive1 < 1:
                    raise ValueError(f"group 1 exhausted before epoch {j + 1}")
                alive1 -= 1
            else:
                if alive2 < 1:
                    raise ValueError(f"group 2 exhausted before epoch {j + 1}")
                alive2 -= 1
            w = sch.R[j] - o.s
            if w < 0:
                raise ValueError(f"withdrawal split exceeds R at epoch {j + 1}")
            if o.s > alive1 or w > alive2:
                raise ValueError(f"withdrawals exceed survivors at epoch {j + 1}")
            alive1 -= o.s
            alive2 -= w
        if alive1 != 0 or alive2 != 0:
            raise ValueError("scheme does not exhaust both groups")

    @cached_property
    def t(self) -> np.ndarray:
        return np.array([o.t for o in self.obs])

    @cached_property
    def log_t(self) -> np.ndarray:
        return np.log(self.t)

    @cached_property
    def delta(self) -> np.ndarray:
        return np.array([o.delta for o in self.obs])

    @cached_property
    def s(self) -> np.ndarray:
        return np.array([o.s for o in self.obs])

    @cached_property
    def w(self) -> np.ndarray:
        return np.asarray(self.scheme.R) - self.s

    @cached_property
    def coef1(self) -> np.ndarray:
        """Weight of t_j^a inside U: withdrawals plus a group-1 failure."""
        return (self.s + self.delta).astype(float)

    @cached_property
    def coef2(self) -> np.ndarray:
        return (self.w + 1 - self.delta).astype(float)

    @cached_property
    def log_coef1(self) -> np.ndarray:
        return log_weights(self.scheme.R, self.delta, self.s)[0]

    @cached_property
    def log_coef2(self) -> np.ndarray:
        return log_weights(self.scheme.R, self.delta, self.s)[1]

    @property
    def k1(self) -> int:
        return int(self.delta.sum())

    @property
    def k2(self) -> int:
        return self.scheme.k - self.k1

    @cached_property
    def sum_log_t(self) -> float:
        return float(self.log_t.sum())


def log_weights(R, delta, s) -> tuple[np.ndarray, np.ndarray]:
    """ln of the weights of t_j^a inside U and V, ``s_j + delta_j`` and
    ``R_j - s_j + 1 - delta_j`` (``-inf`` where a weight is zero), for one
    outcome or for outcomes stacked in rows."""
    with np.errstate(divide="ignore"):
        return np.log(s + delta), np.log(np.asarray(R) - s + 1 - delta)


def _non_negative(alpha: float) -> float:
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    return float(alpha)


def u_stat(sample: JpcSample, alpha: float) -> float:
    """Group-1 weighted power sum U(alpha); U(0) counts the group size m."""
    return float(np.exp(log_u_stat(sample, _non_negative(alpha))))


def v_stat(sample: JpcSample, alpha: float) -> float:
    """Group-2 weighted power sum V(alpha); V(0) counts the group size n."""
    return float(np.exp(log_v_stat(sample, _non_negative(alpha))))


def log_u_stat(sample: JpcSample, alpha) -> np.ndarray:
    """ln U(alpha), stable for any exponent; vectorized over ``alpha``."""
    a = np.asarray(alpha, dtype=float)
    return log_sum_exp(sample.log_coef1 + a[..., None] * sample.log_t)


def log_v_stat(sample: JpcSample, alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    return log_sum_exp(sample.log_coef2 + a[..., None] * sample.log_t)


def log_likelihood(sample: JpcSample, params: JointParams) -> float:
    """Joint log-likelihood of the censoring outcome at ``params``."""
    k1, k2 = sample.k1, sample.k2
    k = sample.scheme.k
    a = params.alpha
    val = k * math.log(a) + (a - 1.0) * sample.sum_log_t
    if k1 > 0:
        val += k1 * math.log(params.lambda1)
    if k2 > 0:
        val += k2 * math.log(params.lambda2)
    val -= params.lambda1 * u_stat(sample, a)
    val -= params.lambda2 * v_stat(sample, a)
    return float(val)


def simulate_jpc(scheme: CensoringScheme, params: JointParams, rng: RngStream) -> JpcSample:
    """Run one experiment under the given design and parameters: a one-row
    :func:`simulate_jpc_batch`.  Raises ``ValueError`` where the times
    ``exp(log t)`` are not strictly increasing positive finite doubles."""
    log_t, delta, s = simulate_jpc_batch(scheme, astuple(params), rng, 1)
    with np.errstate(over="ignore"):
        t = np.exp(log_t[0])
    if not (np.isfinite(t[-1]) and np.all(np.diff(t, prepend=0.0) > 0.0)):
        raise ValueError("failure times overflow, underflow to zero or collide as doubles at these parameters")
    obs = tuple(
        JpcObservation(t=float(tj), delta=int(dj), s=int(sj))
        for tj, dj, sj in zip(t, delta[0], s[0])
    )
    return JpcSample(scheme=scheme, obs=obs)


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
    if size < 1:
        raise ValueError("size must be positive")
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
    size, k = alpha.size, scheme.k
    gap = rng.exponential((size, k))
    pick = rng.uniform((size, k))
    delta = np.zeros((size, k), dtype=np.int64)
    s = np.zeros((size, k), dtype=np.int64)
    a1 = np.full(size, scheme.m, dtype=np.int64)
    a2 = np.full(size, scheme.n, dtype=np.int64)
    for j, r_j in enumerate(scheme.R):
        h1 = a1 * lam1
        h2 = a2 * lam2
        gap[:, j] /= h1 + h2
        # U*(h1 + h2) < h1, arranged so an empty group can never be picked
        d = pick[:, j] * h2 < (1.0 - pick[:, j]) * h1
        delta[:, j] = d
        a1 -= d
        a2 -= ~d
        if r_j:
            sj = rng.hypergeometric(a1, a2, r_j)
            s[:, j] = sj
            a1 -= sj
            a2 -= r_j - sj
    with np.errstate(divide="ignore"):  # a zero first gap gives -inf: redrawn
        log_t = np.log(np.cumsum(gap, axis=1)) / alpha[:, None]
    return log_t, delta, s


def shift_sample(sample: JpcSample, shift: float) -> JpcSample:
    """Subtract a threshold from every failure time (new times must stay
    positive).  Useful when recorded values carry a known lower bound."""
    if shift == 0.0:
        return sample
    obs = tuple(
        JpcObservation(t=o.t - shift, delta=o.delta, s=o.s) for o in sample.obs
    )
    return JpcSample(scheme=sample.scheme, obs=obs)


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
