from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    JpcObservation,
    JpcSample,
    break_ties,
    shift_sample,
    simulate_jpc,
    simulate_jpc_batch,
)
from jointweibull import jpc
from jointweibull.rng import RngStream

from _oracles import (
    jpc_accounting_oracle,
    jpc_epoch_moments_oracle,
    log_likelihood,
    log_u_stat,
    log_v_stat,
    random_jpc_sample,
    simulate_jpc_walk,
    swap_groups,
    tau_scale_rows_row_major,
    u_stat,
    v_stat,
)


def test_scheme_validation() -> None:
    with pytest.raises(ValueError):
        CensoringScheme(0, 2, 1, (1,))
    with pytest.raises(ValueError):
        CensoringScheme(2, 2, 0, ())
    with pytest.raises(ValueError):
        CensoringScheme(2, 2, 5, (0, 0, 0, 0, -1))
    with pytest.raises(ValueError):
        CensoringScheme(2, 2, 2, (1, 1, 0))
    with pytest.raises(ValueError):
        CensoringScheme(2, 2, 2, (1, -1))
    with pytest.raises(ValueError):
        CensoringScheme(2, 2, 2, (2, 1))


def test_observation_validation() -> None:
    with pytest.raises(ValueError):
        JpcObservation(0.0, 1, 0)
    with pytest.raises(ValueError):
        JpcObservation(1.0, 2, 0)
    with pytest.raises(ValueError):
        JpcObservation(1.0, 1, -1)


_REF_R = (7,) + (0,) * 18 + (15,)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: CensoringScheme(20.0, 22, 20, _REF_R), "m"),
        (lambda: CensoringScheme(20, True, 20, _REF_R), "n"),
        (lambda: CensoringScheme(20, 22, 20.0, _REF_R), "k"),
        (lambda: CensoringScheme(20, 22, 20, (7.9,) + (0,) * 18 + (15.9,)), "R[0]"),
        (lambda: CensoringScheme(20, 22, 20, _REF_R[:-1] + (15.0,)), "R[19]"),
        (lambda: JpcObservation(1.0, 1, 0.5), "s"),
        (lambda: JpcObservation(1.0, 1, True), "s"),
        (lambda: JpcObservation(1.0, 1.0, 0), "delta"),
        (lambda: JpcObservation(1.0, True, 0), "delta"),
    ],
)
def test_counts_must_be_integers(make, name) -> None:
    """A count or group indicator that is a float or a bool, even one that
    truncates to a valid design, is refused with a ValueError that names
    it."""
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer"):
        make()


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        JointParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        JointParams(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        JointParams(1.0, 1.0, math.inf)


def test_sample_accounting_rejects_impossible_histories() -> None:
    scheme = CensoringScheme(2, 2, 2, (1, 1))
    ok = (JpcObservation(1.0, 1, 1), JpcObservation(2.0, 0, 0))
    JpcSample(scheme, ok)  # sanity: the baseline history is legal
    with pytest.raises(ValueError):  # times must strictly increase
        JpcSample(scheme, (JpcObservation(2.0, 1, 1), JpcObservation(2.0, 0, 0)))
    with pytest.raises(ValueError):  # s exceeds R at the first epoch
        JpcSample(scheme, (JpcObservation(1.0, 1, 2), JpcObservation(2.0, 0, 0)))
    with pytest.raises(ValueError):  # group 1 is exhausted before epoch 2
        JpcSample(scheme, (JpcObservation(1.0, 1, 1), JpcObservation(2.0, 1, 0)))
    with pytest.raises(ValueError):  # leftover survivors at the end
        JpcSample(scheme, (JpcObservation(1.0, 1, 0), JpcObservation(2.0, 0, 0)))
    with pytest.raises(ValueError):  # wrong number of epochs
        JpcSample(scheme, (JpcObservation(1.0, 1, 1),))


_EPOCH_EDITS = st.one_of(
    st.tuples(st.just("t"), st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])),
    st.tuples(st.just("t*"), st.sampled_from([0.5, 0.999999, 1.000001, 2.0])),
    st.tuples(st.just("t="), st.sampled_from([-1, 1])),
    st.tuples(st.just("delta"), st.sampled_from([0, 1, -1, 2, 2**63 - 1, -(2**63)])),
    st.tuples(st.just("s+"), st.sampled_from([-2, -1, 1, 2])),
    st.tuples(st.just("s"), st.sampled_from([-1, 40, 2**63 - 1, -(2**63)])),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([(20, 22, _REF_R), (69, 63, (4,) * 19 + (36,)), (5, 4, (1, 1, 2, 1))]),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 19), _EPOCH_EDITS), min_size=1, max_size=3),
)
def test_accounting_rule_agrees_with_the_epoch_loop(design, seed, edits) -> None:
    """On simulated samples with one to three times, indicators or splits
    corrupted (set, scaled, copied from a neighbour or moved), the vectorized
    rule accepts what the per-epoch loop accepts and refuses the rest with
    the loop's message for the first broken epoch and rule, counts far past
    any design included."""
    m, n, R = design
    scheme = CensoringScheme(m, n, len(R), R)
    log_t, delta, s = (x[0].copy() for x in simulate_jpc_batch(scheme, (1.0, 0.5, 1.0), RngStream(seed), 1))
    t = np.exp(log_t)
    for j, (how, v) in edits:
        j %= scheme.k
        if how == "t*":
            t[j] *= v
        elif how == "t=":
            t[j] = t[min(max(j + v, 0), scheme.k - 1)]
        elif how == "s+":
            with np.errstate(over="ignore"):  # a count set to an int64 end wraps, as numpy stores it
                s[j] += v
        else:
            {"t": t, "delta": delta, "s": s}[how][j] = v
    expected = jpc_accounting_oracle(scheme, t, delta, s)
    try:
        JpcSample(scheme, zip(t, delta, s))
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == expected


def test_rows_must_hold_a_real_time_and_integer_counts(tiny_k2) -> None:
    """Rows of the wrong width or kind are refused, not truncated: a float
    or bool column of counts, a Python or numpy bool among integer counts, a
    count past int64 and a ragged row."""
    t, delta, s = tiny_k2.t, tiny_k2.delta, tiny_k2.s
    for rows in (
        zip(t, delta, s.astype(float)),
        zip(t, delta.astype(bool), s),
        [(1.0, 1, 2**63), (2.0, 0, 0)],
        [(1.0, 1, 1), (2.0, 0)],
        [(1.0, 1, 1, 0), (2.0, 0, 0, 0)],
    ):
        with pytest.raises(ValueError):
            JpcSample(tiny_k2.scheme, rows)
    for rows in ([(1.0, True, 1), (2.0, 0, 0)], [(1.0, 1, np.True_), (2.0, 0, 0)]):
        with pytest.raises(ValueError, match=r"^rows must hold a real t and integers delta and s below 2\^63$"):
            JpcSample(tiny_k2.scheme, rows)


def test_sample_arrays_are_read_only(tiny_k2) -> None:
    """A checked sample cannot be changed through its arrays."""
    for name in ("t", "log_t", "delta", "s"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tiny_k2, name)[0] = 1


def test_counts_stay_exact_up_to_the_int64_bound() -> None:
    """A design with m + n >= 2^63, whose kernel weights would wrap in int64,
    is refused naming the bound; one just below it keeps exact weights."""
    with pytest.raises(ValueError, match=r"^m \+ n must be below 2\^63"):
        JpcSample(CensoringScheme(2**63, 1, 1, (2**63,)), (JpcObservation(1.0, 1, 2**63 - 1),))
    m = 2**63 - 2
    sample = JpcSample(CensoringScheme(m, 1, 1, (m,)), (JpcObservation(1.0, 1, m - 1),))
    assert [float(g.top[0]) for g, _ in sample.groups] == [0.0, 0.0]
    assert u_stat(sample, 0.0) == pytest.approx(m, rel=1e-12)
    assert v_stat(sample, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_power_sums_on_hand_sample(tiny_k2) -> None:
    """Two epochs, one failure per group: U(1)=2 and V(1)=4 by hand."""
    assert u_stat(tiny_k2, 1.0) == pytest.approx(2.0)
    assert v_stat(tiny_k2, 1.0) == pytest.approx(4.0)
    # at exponent zero the sums count the group sizes
    assert u_stat(tiny_k2, 0.0) == pytest.approx(tiny_k2.scheme.m)
    assert v_stat(tiny_k2, 0.0) == pytest.approx(tiny_k2.scheme.n)
    with pytest.raises(ValueError):
        u_stat(tiny_k2, -0.5)
    with pytest.raises(ValueError):
        v_stat(tiny_k2, -0.5)


def test_power_sums_match_direct_formula(fiber, tiny_k4) -> None:
    for sample in (fiber, tiny_k4):
        t = sample.t
        for alpha in (0.3, 1.0, 2.7, 4.5):
            direct_u = float(np.sum((sample.s + sample.delta) * t**alpha))
            direct_v = float(np.sum((np.asarray(sample.scheme.R) - sample.s + 1 - sample.delta) * t**alpha))
            assert u_stat(sample, alpha) == pytest.approx(direct_u, rel=1e-12)
            assert v_stat(sample, alpha) == pytest.approx(direct_v, rel=1e-12)


def test_log_power_sums_vectorized(fiber) -> None:
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    lu = log_u_stat(fiber, grid)
    lv = log_v_stat(fiber, grid)
    assert lu.shape == grid.shape
    for i, a in enumerate(grid):
        assert lu[i] == pytest.approx(math.log(u_stat(fiber, float(a))), rel=1e-12)
        assert lv[i] == pytest.approx(math.log(v_stat(fiber, float(a))), rel=1e-12)


def test_derived_count_fields(fiber) -> None:
    assert fiber.k1 + fiber.k2 == fiber.scheme.k
    assert fiber.k1 == int(fiber.delta.sum())
    assert np.array_equal(fiber.log_t, np.log(fiber.t))
    assert fiber.sum_log_t == pytest.approx(float(np.log(fiber.t).sum()), rel=1e-12)


def test_loglik_hand_value(single_k1) -> None:
    """One failure at t=1 with unit parameters: the value is exactly -2."""
    assert log_likelihood(single_k1, JointParams(1.0, 1.0, 1.0)) == pytest.approx(-2.0)


def test_loglik_matches_direct_formula() -> None:
    rng = RngStream(101, 0)
    checked = 0
    while checked < 25:
        sample = random_jpc_sample(rng)
        if sample is None:
            continue
        a = 0.4 + 2.5 * rng.uniform()
        l1 = 0.2 + 2.0 * rng.uniform()
        l2 = 0.2 + 2.0 * rng.uniform()
        direct = (
            sample.scheme.k * math.log(a)
            + sample.k1 * math.log(l1)
            + sample.k2 * math.log(l2)
            + (a - 1.0) * float(np.log(sample.t).sum())
            - l1 * float(np.sum((sample.s + sample.delta) * sample.t**a))
            - l2 * float(np.sum((np.asarray(sample.scheme.R) - sample.s + 1 - sample.delta) * sample.t**a))
        )
        val = log_likelihood(sample, JointParams(a, l1, l2))
        assert val == pytest.approx(direct, rel=1e-10)
        checked += 1


def test_loglik_label_swap_symmetry(fiber, tiny_k4) -> None:
    """Relabeling the groups and swapping the rates leaves the value alone."""
    for sample in (fiber, tiny_k4):
        flipped = swap_groups(sample)
        for a, l1, l2 in [(1.0, 0.5, 1.5), (3.2, 0.07, 0.02)]:
            assert log_likelihood(sample, JointParams(a, l1, l2)) == pytest.approx(
                log_likelihood(flipped, JointParams(a, l2, l1)), rel=1e-12
            )


def test_simulation_bookkeeping_invariants() -> None:
    scheme = CensoringScheme(5, 4, 4, (1, 1, 2, 1))
    params = JointParams(1.3, 0.7, 1.1)
    rng = RngStream(55, 0)
    for _ in range(2000):
        sample = simulate_jpc(scheme, params, rng)
        t = sample.t
        assert np.all(np.diff(t) > 0.0)
        assert np.all(t > 0.0)
        assert sample.k1 == int(sample.delta.sum())
        assert np.all(sample.s >= 0) and np.all(sample.s <= np.asarray(scheme.R))
        # the power sums at exponent zero recount the two groups exactly
        assert u_stat(sample, 0.0) == pytest.approx(scheme.m)
        assert v_stat(sample, 0.0) == pytest.approx(scheme.n)


def test_simulation_first_epoch_law() -> None:
    """With unit shape the first failure time is exponential with rate
    m*l1 + n*l2 and falls in group 1 with probability m*l1 / (m*l1 + n*l2)."""
    scheme = CensoringScheme(4, 3, 2, (2, 3))
    params = JointParams(1.0, 0.6, 1.2)
    rate = scheme.m * params.lambda1 + scheme.n * params.lambda2
    rng = RngStream(56, 0)
    first = np.empty(4000)
    hits = 0
    for i in range(first.size):
        sample = simulate_jpc(scheme, params, rng)
        first[i] = sample.t[0]
        hits += sample.delta[0]
    res = stats.kstest(first, stats.expon(scale=1.0 / rate).cdf)
    assert res.pvalue > 1e-3
    p = scheme.m * params.lambda1 / rate
    assert abs(hits / first.size - p) < 4.0 * math.sqrt(p * (1.0 - p) / first.size)


def test_simulation_is_deterministic() -> None:
    scheme = CensoringScheme(5, 4, 4, (1, 1, 2, 1))
    params = JointParams(1.5, 0.6, 1.1)
    a, b, c = (simulate_jpc(scheme, params, RngStream(seed, 0)) for seed in (7, 7, 8))
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("t", "delta", "s"))
    assert not all(np.array_equal(getattr(a, f), getattr(c, f)) for f in ("t", "delta", "s"))


def test_simulation_is_a_one_row_batch() -> None:
    """``simulate_jpc`` is the batch simulator's first row on the same stream;
    times whose logs are finite but overflow a double, or underflow to zero,
    raise rather than being drawn again."""
    for seed in range(20):
        sample = simulate_jpc(_REF_SCHEME, _REF_TRUTH, RngStream(64, seed))
        log_t, delta, s = simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), RngStream(64, seed), 1)
        np.testing.assert_allclose(sample.log_t, log_t[0], rtol=1e-14, atol=1e-15)
        assert np.array_equal(sample.delta, delta[0]) and np.array_equal(sample.s, s[0])
    with pytest.raises(ValueError, match="overflow"):
        simulate_jpc(CensoringScheme(3, 3, 2, (2, 2)), JointParams(1e-4, 1e-3, 1e-3), RngStream(1))
    with pytest.raises(ValueError, match="underflow"):
        simulate_jpc(CensoringScheme(3, 3, 2, (1, 3)), JointParams(0.5, 1e300, 1e300), RngStream(1))
    # a first-epoch hazard m*lambda1 + n*lambda2 past a double makes every gap 0
    with pytest.raises(ValueError, match="overflow"):
        simulate_jpc(CensoringScheme(3, 3, 2, (1, 3)), JointParams(0.5, 1e308, 1.0), RngStream(1))


def test_shift_sample(fiber) -> None:
    raw_min = float(fiber.t.min())
    shifted = shift_sample(fiber, 0.1)
    assert shifted.scheme == fiber.scheme
    assert np.allclose(shifted.t, fiber.t - 0.1)
    assert np.array_equal(shifted.delta, fiber.delta)
    assert shift_sample(fiber, 0.0) is fiber
    with pytest.raises(ValueError):
        shift_sample(fiber, raw_min)


def test_break_ties_orders_duplicates() -> None:
    out = break_ties([1.5, 1.5, 1.5, 2.0, 2.0])
    assert np.all(np.diff(np.sort(out)) > 0.0)
    assert np.allclose(out, [1.5, 1.5, 1.5, 2.0, 2.0], atol=1e-8)
    assert np.array_equal(break_ties([1.0, 2.0]), [1.0, 2.0])
    # position-stable: same input, same output
    assert np.array_equal(break_ties([3.0, 3.0]), break_ties([3.0, 3.0]))


_REF_SCHEME = CensoringScheme(20, 22, 20, (7,) + (0,) * 18 + (15,))
_REF_TRUTH = JointParams(1.0, 0.5, 1.0)


def test_batch_simulator_matches_scalar_simulator() -> None:
    """The tau-scale batch simulator draws from the law of the unit-by-unit
    walk (lifetimes drawn, sorted and withdrawn unit by unit), compared at
    the first, a middle and the last epoch of the reference design."""
    n = 3000
    rng = RngStream(61, 0)
    scalar = [simulate_jpc_walk(_REF_SCHEME, _REF_TRUTH, rng) for _ in range(n)]
    lt_s = np.array([x.log_t for x in scalar])
    d_s = np.array([x.delta for x in scalar])
    s_s = np.array([x.s for x in scalar])
    lt_b, d_b, s_b = simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), RngStream(62, 0), n)
    assert lt_b.shape == d_b.shape == s_b.shape == (n, _REF_SCHEME.k)

    def close(x: np.ndarray, y: np.ndarray) -> bool:
        se = math.sqrt((x.var() + y.var()) / n)
        return abs(x.mean() - y.mean()) <= 4.5 * se

    for j in (0, 9, 19):
        assert stats.ks_2samp(lt_s[:, j], lt_b[:, j]).pvalue > 1e-3
        assert close(d_s[:, j], d_b[:, j])
        if _REF_SCHEME.R[j]:
            assert close(s_s[:, j], s_b[:, j])
        else:
            assert not s_b[:, j].any()
    assert close(d_s.sum(axis=1), d_b.sum(axis=1))
    # every batched row is a legal history: JpcSample replays the accounting
    for lt, d, sj in zip(lt_b, d_b, s_b):
        obs = tuple(
            JpcObservation(float(t), int(g), int(w)) for t, g, w in zip(np.exp(lt), d, sj)
        )
        sample = JpcSample(_REF_SCHEME, obs)
        assert np.allclose(sample.log_t, lt, rtol=1e-12, atol=1e-15)


def test_batch_simulator_matches_exact_epoch_moments() -> None:
    """Means of tau_j = t_j^alpha, group shares and withdrawal splits at
    every epoch, against the exact walk over survivor counts."""
    params = JointParams(2.5, 0.8, 0.3)
    n = 40_000
    log_t, delta, s = simulate_jpc_batch(_REF_SCHEME, astuple(params), RngStream(65, 0), n)
    exact = jpc_epoch_moments_oracle(_REF_SCHEME, params.lambda1, params.lambda2)
    for draws, mean in zip((np.exp(params.alpha * log_t), delta, s), exact):
        se = draws.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.5 * se + 1e-12)


class _CollidingStream(RngStream):
    """A stream whose first batch of exponential gaps has a zero in one
    column, so every row of the first round repeats a failure time."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.exponential_calls = 0

    def exponential(self, size=None):
        self.exponential_calls += 1
        gaps = super().exponential(size)
        if self.exponential_calls == 1:
            gaps[:, 3] = 0.0
        return gaps


def test_batch_simulator_redraws_tied_rows() -> None:
    rng = _CollidingStream(63)
    log_t, delta, s = simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), rng, 50)
    assert rng.exponential_calls == 2
    assert np.all(np.diff(log_t, axis=1) > 0.0)
    assert np.array_equal(
        log_t, simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), _CollidingStream(63), 50)[0]
    )


def test_batch_simulator_is_deterministic_and_validates_size() -> None:
    a = simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), RngStream(64, 0), 20)
    b = simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), RngStream(64, 0), 20)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(ValueError):
        simulate_jpc_batch(_REF_SCHEME, astuple(_REF_TRUTH), RngStream(64, 0), 0)
    # rates this small put tau past the largest double: raise, never loop
    tiny = (1.0, 1e-310, 1e-310)
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        simulate_jpc_batch(_REF_SCHEME, tiny, RngStream(64, 0), 10)
    # every row's parameters are checked, and arrays must fit ``size``
    bad_row = (np.array([1.0, 1.0, -1.0]), 0.5, 1.0)
    with pytest.raises(ValueError):
        simulate_jpc_batch(_REF_SCHEME, bad_row, RngStream(64, 0), 3)
    with pytest.raises(ValueError):
        simulate_jpc_batch(_REF_SCHEME, (np.ones(4), 0.5, 1.0), RngStream(64, 0), 3)


def test_batch_simulator_per_row_parameters_match_exact_epoch_moments() -> None:
    """Rows alternate between two parameter triples; each half matches the
    exact epoch moments of its own triple, not of the other."""
    first, second = (2.5, 0.8, 0.3), (0.7, 0.2, 1.5)
    n = 40_000
    rows = np.arange(n) % 2
    params = tuple(np.where(rows == 0, x, y) for x, y in zip(first, second))
    log_t, delta, s = simulate_jpc_batch(_REF_SCHEME, params, RngStream(66, 0), n)
    for half, (alpha, lam1, lam2) in enumerate((first, second)):
        sel = rows == half
        exact = jpc_epoch_moments_oracle(_REF_SCHEME, lam1, lam2)
        for draws, mean in zip((np.exp(alpha * log_t[sel]), delta[sel], s[sel]), exact):
            se = draws.std(axis=0) / math.sqrt(sel.sum())
            assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.5 * se + 1e-12)
    # the two laws differ visibly: group-1 shares at the first epoch
    assert abs(delta[rows == 0, 0].mean() - delta[rows == 1, 0].mean()) > 0.3


def test_batch_simulator_scalar_and_array_parameters_agree_bytewise() -> None:
    size = 64
    scalar = simulate_jpc_batch(_REF_SCHEME, (2.5, 0.8, 0.3), RngStream(67, 0), size)
    arrays = tuple(np.full(size, v) for v in (2.5, 0.8, 0.3))
    rows = simulate_jpc_batch(_REF_SCHEME, arrays, RngStream(67, 0), size)
    for x, y in zip(scalar, rows):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_batch_simulator_walks_epochs_as_the_row_major_loop(monkeypatch) -> None:
    """The simulator walks each epoch as a contiguous row of its transposed
    draws; its outputs, and those of ``simulate_jpc_batch``, equal byte for
    byte and C-contiguous those of the row-major loop over strided columns,
    on the fiber and the reference design, with scalar and per-row
    parameters."""
    fiber = CensoringScheme(69, 63, 20, (4,) * 19 + (36,))
    gen = np.random.default_rng(68)
    for scheme, truth in ((fiber, (4.3475, 0.045326, 0.045326)), (_REF_SCHEME, astuple(_REF_TRUTH))):
        for size in (1, 7, 300):
            per_row = tuple(v * np.exp(gen.uniform(-0.3, 0.3, size)) for v in truth)
            for params in (truth, per_row):
                rows = tuple(np.broadcast_to(np.asarray(p, dtype=float), (size,)) for p in params)
                got = jpc._tau_scale_rows(scheme, *rows, RngStream(69, size))
                want = tau_scale_rows_row_major(scheme, *rows, RngStream(69, size))
                batch = simulate_jpc_batch(scheme, params, RngStream(70, size), size)
                with monkeypatch.context() as patched:
                    patched.setattr(jpc, "_tau_scale_rows", tau_scale_rows_row_major)
                    batch_want = simulate_jpc_batch(scheme, params, RngStream(70, size), size)
                for x, y in zip(got + batch, want + batch_want):
                    assert x.shape == (size, scheme.k) and x.flags.c_contiguous
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _former_break_ties(values) -> np.ndarray:
    """The 1e-9-step rule alone, as ``break_ties`` applied it before it kept
    sorted inputs in order."""
    out = np.array(values, dtype=float)
    seen: dict[float, int] = {}
    for i, v in enumerate(out):
        c = seen.get(v, 0)
        if c:
            out[i] = v + c * 1e-9
        seen[v] = c + 1
    return out


_CLOSE_VALUES = (1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 2e-9, 2.5, 3e7, 3e7 + 1e-8, 1e8)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_CLOSE_VALUES), max_size=12).map(sorted))
# a repeat's 1e-9 step used to land on, or pass, the next recorded time, and
# at 1e8 it vanished in rounding
@example([1.0, 1.0, 1.000000001])
@example([1.0, 1.0, 1.0000000005])
@example([1e8, 1e8])
def test_break_ties_properties(values) -> None:
    out = break_ties(values)
    assert np.all(np.diff(out) > 0.0)
    counts = Counter(values)
    for v, o in zip(values, out):
        if counts[v] == 1:
            assert o == v
        else:
            assert abs(o - v) <= len(values) * max(1e-9, 2.0 * np.spacing(v))
    assert break_ties(values).tobytes() == out.tobytes()
    former = _former_break_ties(values)
    if np.all(np.diff(former) > 0.0):
        assert out.tobytes() == former.tobytes()
