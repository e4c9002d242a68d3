#!/usr/bin/env python3
"""Regenerate ``reference.json``, the values the benchmark's checks use.

    python3 perfbench/make_reference.py

For every stochastic output the reference stores a centre and the standard
deviation of that output at the workload's own size, measured over many
batches whose seeds no benchmark run uses; for outputs that are hits out
of trials (interval coverage, Monte Carlo p-values) it stores the hits and
trials pooled over those batches instead.  Where ``tests/_oracles.py``
has a quadrature oracle for the quantity (posterior means), the oracle value
is the centre instead.  Deterministic outputs are stored as computed.  Every
section is made in the same run, and the file is written whole.

Regenerate only when a workload's definition changes, never to make a check
pass: a program change that moves a checked value beyond its band is a
finding, not a reason for a new reference.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run  # sibling module: the workload definitions

sys.path.insert(0, str(run.ROOT / "tests"))

# Seed of every reference batch.  Benchmark seeds are masked to 32 bits, so
# a run collides with the reference only when given exactly this seed.
REF_SEED = 0xFFFFFFFF
BATCHES = {"study-point": 300, "study-interval": 150, "checks": 60, "cli-fiber": 60}

CHECKS_EXACT = tuple(
    [f"{t}.{k}" for t in ("ds1", "ds2") for k in ("alpha", "lambda", "loglik", "ks")]
    + ["common.alpha", "common.lambda1", "common.lambda2", "common.loglik", "lr_stat", "lr_pvalue"]
)
CHECKS_BAND = tuple(["jpc.p", "jpc.expected_ks"] + [f"{t}.{k}" for t in ("ds1", "ds2") for k in ("p", "expected_ks")])

# Per CLI command: which printed keys are deterministic, banded, or only
# range-checked.  Interval keys are split into .lo and .hi.
_CI = [f"ci_{p}.{e}" for p in ("alpha", "lambda1", "lambda2") for e in ("lo", "hi")]
CLI_KEYS = {
    "fit": {
        "exact": ["alpha", "lambda1", "lambda2", "loglik", "converged", "ci_level", *_CI],
        # the root-finder's iteration count is not an output to pin
        "range": {"iterations": [1, 10_000]},
    },
    "bayes": {
        "exact": ["hpd_level"],
        "band": ["alpha", "lambda1", "lambda2"]
        + [f"hpd_{p}.{e}" for p in ("alpha", "lambda1", "lambda2") for e in ("lo", "hi")],
        # a better proposal raises the effective sample size up to n_draws
        "range": {"ess": [100, 10_000]},
    },
    "bootstrap": {
        "exact": ["ci_level"],
        "band": _CI,
        "range": {"skipped": [0, 250]},
    },
    "analyze": {
        "exact": [f"{t}_{k}" for t in ("data1", "data2") for k in ("alpha", "lambda", "ks", "ks_pvalue")]
        + ["common_alpha", "common_lambda1", "common_lambda2", "lr_stat", "lr_pvalue"]
        + [f"common_{t}_{k}" for t in ("data1", "data2") for k in ("ks", "ks_pvalue")],
        "band": [f"{t}_bayes_{k}" for t in ("data1", "data2") for k in ("alpha", "lambda", "expected_ks", "predictive_p")],
        # the common-shape posterior's importance weights collapse (the CLI
        # warns that these values are unreliable), so they get no band
        "range": {
            "common_bayes_alpha": [0.0, math.inf],
            "common_bayes_lambda1": [0.0, math.inf],
            "common_bayes_lambda2": [0.0, math.inf],
            "common_bayes_data1_expected_ks": [0.0, 1.0],
            "common_bayes_data2_expected_ks": [0.0, 1.0],
            "common_bayes_data1_predictive_p": [0.0, 1.0],
            "common_bayes_data2_predictive_p": [0.0, 1.0],
        },
    },
}


def spread(values: list[float]) -> list[float]:
    return [statistics.fmean(values), statistics.stdev(values)]


def tail_report(name: str, values: list[float], centre: float, sd: float) -> str:
    worst = max(abs(v - centre) for v in values) / sd if sd > 0 else 0.0
    return f"  {name}: centre {centre:.6g} sd {sd:.4g} worst |z| {worst:.2f}"


def count_report(counts: dict) -> None:
    for k, (hits, trials) in counts.items():
        print(f"  {k}: {hits} of {trials}")


def study_reference(batches: list[dict], run_batches: int, counts: dict) -> dict:
    keys = [k for k in batches[0] if k.startswith(("ae.", "al."))]
    band = {k: spread([b[k] for b in batches]) for k in keys}
    count_report(counts)
    # how far the mean of a run-sized chunk strays, in run-level standard errors
    for k, (centre, sd) in band.items():
        chunks = [batches[i:i + run_batches] for i in range(0, len(batches) - run_batches + 1, run_batches)]
        zs = [abs(statistics.fmean(b[k] for b in c) - centre) / (sd / math.sqrt(run_batches)) for c in chunks]
        print(tail_report(k, [b[k] for b in batches], centre, sd) + f"  run-chunk worst |z| {max(zs, default=0):.2f}")
    return {"n": len(batches), "band": band, "counts": counts}


def checks_reference(batches: list[dict], counts: dict) -> dict:
    exact = {}
    for k in CHECKS_EXACT:
        vals = {b[k] for b in batches}
        if len(vals) != 1:
            raise SystemExit(f"{k} differs between batches: {sorted(vals)[:3]}")
        exact[k] = vals.pop()
    band = {k: spread([b[k] for b in batches]) for k in CHECKS_BAND}
    for k, (c, sd) in band.items():
        print(tail_report(k, [b[k] for b in batches], c, sd))
    count_report(counts)
    return {"n": len(batches), "exact": exact, "band": band, "counts": counts}


def cli_reference(batches: list[dict]) -> dict:
    from _oracles import complete_posterior_oracle, jpc_posterior_oracle

    import jointweibull as jw
    from run import DATA, SHIFT, read_jpc, read_values

    parsed = {
        sub: [run.checks.flatten_kv(run.checks.parse_kv(b[sub]["stdout"])) for b in batches]
        for sub in CLI_KEYS
    }
    out = {}
    for sub, spec in CLI_KEYS.items():
        rows = parsed[sub]
        section = {"n": len(rows), "exact": {}, "band": {}, "range": spec.get("range", {})}
        for k in spec.get("exact", []):
            vals = {r[k] for r in rows}
            if len(vals) != 1:
                raise SystemExit(f"{sub} {k} differs between batches: {sorted(vals)[:3]}")
            section["exact"][k] = vals.pop()
        for k in spec.get("band", []):
            section["band"][k] = spread([r[k] for r in rows])
        out[sub] = section

    fiber = jw.shift_sample(read_jpc(DATA / "fiber_jpc_sample.txt", jw), SHIFT)
    flat = jw.PriorSpec.flat()
    oracle = jpc_posterior_oracle(fiber, flat.bg, flat.shape)
    for k, centre in zip(("alpha", "lambda1", "lambda2"), oracle):
        out["bayes"]["band"][k][0] = centre
    for tag, name in (("data1", "fiber_strength_20mm.txt"), ("data2", "fiber_strength_10mm.txt")):
        ds = jw.CompleteSample.from_raw(read_values(DATA / name), SHIFT)
        ea, el = complete_posterior_oracle(ds, 0.0, 0.0, 0.0, 0.0)
        out["analyze"]["band"][f"{tag}_bayes_alpha"][0] = ea
        out["analyze"]["band"][f"{tag}_bayes_lambda"][0] = el
    for sub, section in out.items():
        for k, (centre, sd) in section["band"].items():
            vals = [r[k] for r in parsed[sub]]
            print(tail_report(f"{sub}.{k}", vals, centre, sd) + f"  sweep mean {statistics.fmean(vals):.6g}")
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, wl in run.WORKLOADS.items():
            wl.setup(REF_SEED, Path(tmp))
            n = BATCHES[name]
            t0 = time.perf_counter()
            batches = [wl.inprocess_batch(j) for j in range(n)]
            print(f"{name}: {n} batches in {time.perf_counter() - t0:.1f} s")
            if name.startswith("study-"):
                # batches in an 18 s run on the reference machine
                per_run = {"study-point": 54, "study-interval": 24}[name]
                reference[name] = study_reference(batches, per_run, wl.counts(batches))
            elif name == "checks":
                reference[name] = checks_reference(batches, wl.counts(batches))
            else:
                reference[name] = cli_reference(batches)
            reference[name]["seed"] = REF_SEED
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
