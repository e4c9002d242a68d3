"""Output checks against the recorded reference (``reference.json``).

Three kinds of check, chosen so that a legitimate change of random stream
never fails them:

* exact: deterministic outputs (fits, log-likelihoods, asymptotic
  intervals, the likelihood-ratio statistic) must match the recorded value
  to a tight relative tolerance;
* band: a stochastic output must lie within ``z`` Monte Carlo standard
  errors of its reference centre.  The standard error is the spread of that
  output at the workload's own size, measured over many seeds when the
  reference was made; where an oracle from ``tests/_oracles.py`` exists
  (quadrature posterior means) the centre is the oracle value;
* range: outputs whose value the reference cannot pin down (effective
  sample sizes, counts, or values the program itself flags as unreliable)
  must lie in a stated interval;
* count: a rate estimated from hits out of trials (interval coverage,
  Monte Carlo p-values) must agree with the reference's pooled hits out of
  trials by Fisher's exact test.  A normal band is too narrow in the tail
  of a count whose expected hits or misses are a handful.

No check compares against a seeded value.
"""

from __future__ import annotations

import math

# One unit checked on its own: the chance of a false alarm per check is
# below 1e-8 for a normal error and the spread is measured, not assumed.
Z_UNIT = 6.0
# The mean over all units of one run.
Z_RUN = 5.0
# The same false-alarm chances, as p-values for the exact count test.
P_UNIT = math.erfc(Z_UNIT / math.sqrt(2.0))
P_RUN = math.erfc(Z_RUN / math.sqrt(2.0))
# Deterministic values computed in process.
REL_EXACT = 1e-7
# Deterministic values printed by the CLI with six significant digits.
REL_PRINTED = 2e-5


def parse_kv(text: str) -> dict[str, list[float]]:
    """``key v1 [v2]`` lines, as the CLI prints them."""
    out: dict[str, list[float]] = {}
    for line in text.splitlines():
        parts = line.split()
        if parts:
            out[parts[0]] = [float(p) for p in parts[1:]]
    return out


def flatten_kv(kv: dict[str, list[float]]) -> dict[str, float]:
    """Two-valued keys (intervals) become ``key.lo`` and ``key.hi``."""
    flat: dict[str, float] = {}
    for key, vals in kv.items():
        if len(vals) == 1:
            flat[key] = vals[0]
        elif len(vals) == 2:
            flat[f"{key}.lo"], flat[f"{key}.hi"] = vals
    return flat


def check_values(values: dict[str, float], ref: dict, rel_exact: float, z: float) -> list[str]:
    """Check one unit's outputs against a reference section with optional
    ``exact``, ``band`` and ``range`` tables."""
    problems = []
    for key, want in ref.get("exact", {}).items():
        got = values.get(key)
        if got is None or not abs(got - want) <= rel_exact * abs(want):
            problems.append(f"{key}: got {got!r}, want {want!r} (exact, rel {rel_exact:g})")
    n_ref = ref.get("n", math.inf)
    for key, (centre, sd) in ref.get("band", {}).items():
        got = values.get(key)
        half = z * sd * math.sqrt(1.0 + 1.0 / n_ref)
        if got is None or not abs(got - centre) <= half:
            problems.append(f"{key}: got {got!r}, want {centre:.6g} +/- {half:.3g}")
    for key, (lo, hi) in ref.get("range", {}).items():
        got = values.get(key)
        if got is None or not lo <= got <= hi:
            problems.append(f"{key}: got {got!r}, want within [{lo:g}, {hi:g}]")
    return problems


def check_run_means(units: list[dict[str, float]], ref: dict) -> list[str]:
    """Mean of each banded output over the run's units against the centre,
    with the standard error of a mean of that many units."""
    problems = []
    n_ref = ref["n"]
    for key, (centre, sd) in ref.get("band", {}).items():
        vals = [u[key] for u in units if key in u]
        if not vals:
            continue
        mean = sum(vals) / len(vals)
        half = Z_RUN * sd * math.sqrt(1.0 / len(vals) + 1.0 / n_ref)
        if not abs(mean - centre) <= half:
            problems.append(
                f"run mean of {key} over {len(vals)} units: {mean:.6g}, want {centre:.6g} +/- {half:.3g}"
            )
    return problems


def check_counts(counts: dict[str, tuple[int, int]], ref: dict, p_min: float) -> list[str]:
    """Hits out of trials, of one unit or pooled over a run, against the
    reference's pooled hits out of trials, by Fisher's exact test."""
    from scipy.stats import fisher_exact

    problems = []
    for key, (ref_hits, ref_trials) in ref.get("counts", {}).items():
        if key not in counts:
            continue
        hits, trials = counts[key]
        p = fisher_exact([[hits, trials - hits], [ref_hits, ref_trials - ref_hits]]).pvalue
        if not p >= p_min:
            problems.append(
                f"{key}: {hits} of {trials}, reference {ref_hits} of {ref_trials} "
                f"(exact p {p:.2g} < {p_min:.2g})"
            )
    return problems


def check_finite(values: dict[str, float], keys) -> list[str]:
    return [f"{k}: missing or not finite ({values.get(k)!r})" for k in keys if not math.isfinite(values.get(k, math.nan))]


def check_sample_text(text: str, m: int, n: int, k: int, R: tuple[int, ...]) -> list[str]:
    """A simulated sample file must describe a legal outcome of the design:
    the header repeats the design, times strictly increase, and replaying
    failures and withdrawals exhausts both groups exactly."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) != k + 2:
        return [f"sample has {len(lines)} data lines, want {k + 2}"]
    try:
        header = tuple(int(v) for v in lines[0])
        withdrawals = tuple(int(v) for v in lines[1][1:]) if lines[1][0] == "R:" else None
        obs = [(float(t), int(d), int(s)) for t, d, s in lines[2:]]
    except ValueError as exc:
        return [f"sample does not parse: {exc}"]
    if header != (m, n, k) or withdrawals != R:
        return [f"sample design {header} R={withdrawals} differs from ({m}, {n}, {k}) R={R}"]
    alive1, alive2, prev = m, n, 0.0
    for j, (t, d, s) in enumerate(obs, start=1):
        if not (math.isfinite(t) and t > prev) or d not in (0, 1):
            return [f"epoch {j}: time {t!r} or indicator {d!r} invalid"]
        prev = t
        alive1 -= d
        alive2 -= 1 - d
        alive1 -= s
        alive2 -= R[j - 1] - s
        if min(alive1, alive2) < 0 or s < 0 or s > R[j - 1]:
            return [f"epoch {j}: failures and withdrawals exceed the survivors"]
    if alive1 or alive2:
        return [f"design not exhausted: {alive1} and {alive2} units left"]
    return []
