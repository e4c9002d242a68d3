#!/usr/bin/env python3
"""Self-test of the benchmark: a corrupted output must be counted as failed.

    python3 perfbench/smoke.py

Runs every workload briefly with one kind of program output corrupted after
it is produced, and requires the run to report failed units and
``correct: false``.  Also requires ``BENCHMARK.json`` to list exactly the
workloads and metrics that ``run.py`` reports.
"""

from __future__ import annotations

import io
import json
import sys

import run


def _scale(key: str, factor: float):
    def corrupt(out):
        return {**out, key: out[key] * factor}

    return corrupt


def _cli_fit(out):
    fit = dict(out["fit"])
    fit["stdout"] = fit["stdout"].replace("\nlambda1 ", "\nlambda1 1", 1)
    return {**out, "fit": fit}


CORRUPTIONS = {
    # AE no longer squares with MSE
    "study-point": _scale("ae.alpha.mle", 1.5),
    # a coverage above one
    "study-interval": _scale("cp.alpha.bootstrap", 1.5),
    # a deterministic statistic off by 0.1%
    "checks": _scale("lr_stat", 1.001),
    # a fitted rate printed with a wrong leading digit
    "cli-fiber": _cli_fit,
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(run.PER_LAYER.items()):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    for name, corrupt in CORRUPTIONS.items():
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=1.0, trace=trace, corrupt=corrupt, out=io.StringIO())
            verdict = f"{name} trace={int(trace)}: {result['failed']} of {result['attempted']} units failed"
            print(verdict)
            if result["correct"] or result["failed"] == 0:
                problems.append(verdict + " -- the corruption went unnoticed")
    for msg in problems:
        print("SMOKE FAILED:", msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
