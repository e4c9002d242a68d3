#!/usr/bin/env python3
"""Benchmark of the jointweibull package: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from the
checkout's ``src/`` and needs no install.  ``--seed`` fixes every input the
workload generates.  With ``--trace 0`` it measures for ``--seconds``
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed amount of work, each batch untraced and then twice with spans (around
the layer functions, then around ``RngStream``'s methods), and reports the
per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy can load.
# Child processes inherit the environment.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "jointweibull"
DATA = PACKAGE_DIR / "data"
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (sibling module; needs nothing from the package)

# The reference design of the paper's study tables and its truth.
DESIGN = (20, 22, 20, (7,) + (0,) * 18 + (15,))
TRUTH = (1.0, 0.5, 1.0)
# Threshold subtracted from the fiber strengths before every analysis.
SHIFT = 0.75
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 60
WARMUP_BATCH = (1 << 20) - 1
# Machine-speed yardsticks.  The cores are shared and their speed drifts by
# 10-35% within minutes, so every timed piece of work is scaled by the time
# of a fixed yardstick, unrelated to the package and timed right after it,
# against the yardstick's time on the reference machine.  Work in this
# process is paired with an in-process kernel; work in a child process (CLI
# calls, set-up probes) with a child process that imports numpy and
# scipy.special, because child start-up and imports do not track the kernel.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.5
CHILD_YARDSTICK = ("-c", "import numpy, scipy.special")
CHILD_REF_S = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("simulate", "fit", "bayes", "bootstrap", "analyze")
BAYES_METHODS = ("bayes-ip", "bayes-nip", "bayes-ordered-ip", "bayes-ordered-nip")

# metric name -> unit; a layer the workload does not reach reports 0
PER_LAYER = {
    "jpc.simulate_jpc.calls": "calls/unit",
    "jpc.simulate_jpc.self_s": "s/unit",
    "rng.calls": "calls/unit",
    "rng.self_s": "s/unit",
    "mle.fit_mle.self_s": "s/unit",
    "mle.fit_mle_ordered.self_s": "s/unit",
    "mle.asymptotic_ci.self_s": "s/unit",
    "mle.bootstrap_ci.self_s": "s/unit",
    "mle.bootstrap_ci.skipped_frac": "frac",
    "bayes.draw_posterior.calls": "calls/unit",
    "bayes.draw_posterior.self_s": "s/unit",
    **{f"bayes.draw_posterior.ess_frac.{m}": "frac" for m in BAYES_METHODS},
    "bayes.hpd_interval.self_s": "s/unit",
    "bayes.posterior_predictive_pvalue.self_s": "s/unit",
    "gof.ks_pvalue.self_s": "s/unit",
    "gof.fit_weibull_complete.calls": "calls/unit",
    "gof.fit_weibull_complete.self_s": "s/unit",
    "study.run_point_study.self_s": "s/unit",
    "study.run_interval_study.self_s": "s/unit",
    "study.skipped_frac": "frac",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"cli.main_s.{c}": "s" for c in CLI_COMMANDS},
    **{f"cli.call_s.{c}": "s" for c in CLI_COMMANDS},
    "trace.wall_s": "s/unit",
    "trace.overhead_s": "s/unit",
    "trace.overhead_frac": "frac",
}


def calibrate() -> float:
    """Seconds for the yardstick kernel: interpreter arithmetic plus the
    small-array numpy calls the package is made of."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    x = np.arange(64.0)
    for _ in range(300):
        np.exp(-x * 0.01).sum() + np.sort(x)[3]
    return time.perf_counter() - t0


def child_yardstick(workdir: Path) -> float:
    """Seconds for the child yardstick, from spawn to exit."""
    return run_child([sys.executable, *CHILD_YARDSTICK], workdir)["wall_s"]


def unit_seed(seed: int, j: int) -> int:
    """Seed of batch ``j``: distinct for every (seed, batch) pair."""
    return ((seed & 0xFFFFFFFF) << 20) | j


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("JOINTWEIBULL_SEED", None)
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_child(argv: list[str], workdir: Path) -> dict:
    """Run one child process to completion, timing it from spawn to exit.

    Output goes to files, so a child never blocks on a full pipe; ``wait4``
    reports the child's own peak resident set size."""
    with open(workdir / "child.out", "w+b") as out, open(workdir / "child.err", "w+b") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise RuntimeError(f"{argv[1:4]} ran longer than {CHILD_TIMEOUT_S} s") from None
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "rc": proc.returncode,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


# --------------------------------------------------------------------------
# inputs, read from the bundled data files by the benchmark itself


def read_values(path: Path) -> tuple[float, ...]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return tuple(float(ln) for ln in (s.strip() for s in lines) if ln and not ln.startswith("#"))


def read_jpc(path: Path, jw):
    rows = [ln.split() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip() and not ln.startswith("#")]
    m, n, k = (int(v) for v in rows[0])
    scheme = jw.CensoringScheme(m, n, k, tuple(int(v) for v in rows[1][1:]))
    obs = tuple(jw.JpcObservation(float(t), int(d), int(s)) for t, d, s in rows[2:])
    return jw.JpcSample(scheme, obs)


# --------------------------------------------------------------------------
# workloads


class Workload:
    """A batch of work, repeated; each batch counts ``units_per_batch`` units.

    ``batch(j)`` is what the timed loop runs.  ``inprocess_batch(j)`` gives
    the same outputs from inside this process, which is what the traced run
    wraps; ``identity(out)`` is the part of an output that must not change
    under tracing."""

    name = ""
    why = ""
    units_per_batch = 1
    # batches of a traced run per second of --seconds: fixed work, so span
    # counts repeat exactly for a given seed
    trace_batches_per_s = 0.1
    in_process = True

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def batch(self, j: int):
        raise NotImplementedError

    def inprocess_batch(self, j: int):
        return self.batch(j)

    def identity(self, out):
        return out

    def check(self, out, ref) -> tuple[int, list[str]]:
        raise NotImplementedError

    def check_run(self, outs, ref) -> list[str]:
        return []

    def counts(self, outs) -> dict[str, tuple[int, int]]:
        """Outputs that are hits out of trials, summed over ``outs``."""
        return {}


class StudyWorkload(Workload):
    def __init__(self, name, why, kind, methods, reps, trace_batches_per_s):
        self.name = name
        self.why = why
        self.kind = kind
        self.methods = methods
        self.units_per_batch = reps
        self.trace_batches_per_s = trace_batches_per_s

    def setup(self, seed, workdir):
        import jointweibull as jw

        self.jw = jw
        self.seed = seed
        m, n, k, R = DESIGN
        self.scheme = jw.CensoringScheme(m, n, k, R)
        self.truth = jw.JointParams(*TRUTH)

    def batch(self, j):
        jw = self.jw
        config = jw.StudyConfig(
            self.scheme,
            self.truth,
            replications=self.units_per_batch,
            methods=self.methods,
            level=0.9,
            n_posterior=1000,
            n_boot=500,
            base_seed=unit_seed(self.seed, j),
        )
        if self.kind == "point":
            report = jw.run_point_study(config)
            fields = ("ae", "mse")
        else:
            report = jw.run_interval_study(config)
            fields = ("al", "cp")
        out = {"skipped": float(report.rows[0].skipped)}
        for row in report.rows:
            for f in fields:
                out[f"{f}.{row.parameter}.{row.method}"] = getattr(row, f)
        return out

    def check(self, out, ref):
        reps = self.units_per_batch
        keys = [f"{f}.{p}.{m}" for f in (("ae", "mse") if self.kind == "point" else ("al", "cp"))
                for p in ("alpha", "lambda1", "lambda2") for m in self.methods]
        problems = checks.check_finite(out, keys + ["skipped"])
        if problems:
            return reps, problems
        used = reps - out["skipped"]
        if not 1 <= used <= reps:
            problems.append(f"{out['skipped']} of {reps} replications skipped")
        for p, truth in zip(("alpha", "lambda1", "lambda2"), TRUTH):
            for m in self.methods:
                if self.kind == "point":
                    ae, mse = out[f"ae.{p}.{m}"], out[f"mse.{p}.{m}"]
                    # the mean square error of the used replications can
                    # never be below the squared error of their mean
                    if not (ae > 0.0 and mse >= (ae - truth) ** 2 * (1.0 - 1e-9)):
                        problems.append(f"{p} {m}: AE {ae!r} and MSE {mse!r} are inconsistent")
                else:
                    al, cp = out[f"al.{p}.{m}"], out[f"cp.{p}.{m}"]
                    hits = cp * used
                    if not (al > 0.0 and 0.0 <= cp <= 1.0 and abs(hits - round(hits)) < 1e-6):
                        problems.append(f"{p} {m}: AL {al!r} or CP {cp!r} impossible")
        return (reps if problems else 0), problems

    def check_run(self, outs, ref):
        return checks.check_run_means(outs, ref) + checks.check_counts(self.counts(outs), ref, checks.P_RUN)

    def counts(self, outs):
        """Per ``cp.`` cell: intervals that covered the truth, out of the
        replications used."""
        counts = {}
        for out in outs:
            used = self.units_per_batch - round(out["skipped"])
            for key, cp in out.items():
                if key.startswith("cp."):
                    hits, trials = counts.get(key, (0, 0))
                    counts[key] = (hits + round(cp * used), trials + used)
        return counts


class ChecksWorkload(Workload):
    name = "checks"
    why = "in-process model checks on the bundled data: predictive checks and Monte Carlo KS tests"
    trace_batches_per_s = 0.15
    N_REP = 1000
    N_MC = 200

    def setup(self, seed, workdir):
        import jointweibull as jw

        self.jw = jw
        self.seed = seed
        self.fiber = jw.shift_sample(read_jpc(DATA / "fiber_jpc_sample.txt", jw), SHIFT)
        self.complete = (
            ("ds1", jw.CompleteSample.from_raw(read_values(DATA / "fiber_strength_20mm.txt"), SHIFT)),
            ("ds2", jw.CompleteSample.from_raw(read_values(DATA / "fiber_strength_10mm.txt"), SHIFT)),
        )
        self.flat = jw.PriorSpec.flat()

    def batch(self, j):
        jw = self.jw
        s = unit_seed(self.seed, j)
        out = {}
        out["jpc.p"], out["jpc.expected_ks"] = jw.posterior_predictive_pvalue(
            self.fiber, self.flat, n_rep=self.N_REP, rng=jw.RngStream(s, 1)
        )
        for i, (tag, ds) in enumerate(self.complete):
            out[f"{tag}.p"], out[f"{tag}.expected_ks"] = jw.posterior_predictive_pvalue(
                ds, self.flat, n_rep=self.N_REP, rng=jw.RngStream(s, 2 + 2 * i)
            )
            fit = jw.fit_weibull_complete(ds)
            out[f"{tag}.alpha"], out[f"{tag}.lambda"], out[f"{tag}.loglik"] = fit.alpha, fit.lam, fit.loglik
            out[f"{tag}.ks"] = jw.ks_distance(ds, fit.alpha, fit.lam)
            out[f"{tag}.ks_mc_p"] = jw.ks_pvalue(
                out[f"{tag}.ks"], ds.n, estimated=True, n_mc=self.N_MC, rng=jw.RngStream(s, 3 + 2 * i)
            )
        common = jw.fit_common_shape(self.complete[0][1], self.complete[1][1])
        out["common.alpha"], out["common.lambda1"], out["common.lambda2"] = common.alpha, common.lam1, common.lam2
        out["common.loglik"] = common.loglik
        out["lr_stat"], out["lr_pvalue"] = jw.lr_test_common_shape(self.complete[0][1], self.complete[1][1])
        return out

    def check(self, out, ref):
        problems = checks.check_values(out, ref, checks.REL_EXACT, checks.Z_UNIT)
        problems += checks.check_counts(self.counts([out]), ref, checks.P_UNIT)
        return (1 if problems else 0), problems

    def check_run(self, outs, ref):
        return checks.check_run_means(outs, ref) + checks.check_counts(self.counts(outs), ref, checks.P_RUN)

    def counts(self, outs):
        """The Monte Carlo KS p-values: simulated distances at least the
        observed one, out of ``N_MC``."""
        return {
            f"{tag}.ks_mc_p": (sum(round(out[f"{tag}.ks_mc_p"] * self.N_MC) for out in outs), self.N_MC * len(outs))
            for tag, _ in self.complete
        }


class CliWorkload(Workload):
    name = "cli-fiber"
    why = "closed loop, one client: five CLI calls as fresh processes, where start-up and imports dominate"
    units_per_batch = len(CLI_COMMANDS)
    trace_batches_per_s = 0.05
    in_process = False

    def setup(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for name in ("fiber_jpc_sample.txt", "fiber_strength_20mm.txt", "fiber_strength_10mm.txt"):
            shutil.copyfile(DATA / name, inputs / name)
        self.sample = str(inputs / "fiber_jpc_sample.txt")
        self.data = (str(inputs / "fiber_strength_20mm.txt"), str(inputs / "fiber_strength_10mm.txt"))

    def argvs(self, j):
        m, n, k, R = DESIGN
        seed = ["--seed", str(unit_seed(self.seed, j))]
        shift = ["--shift", repr(SHIFT)]
        design = ["--m", str(m), "--n", str(n), "--k", str(k), "--R", *map(str, R),
                  "--alpha", repr(TRUTH[0]), "--lambda1", repr(TRUTH[1]), "--lambda2", repr(TRUTH[2])]
        return (
            ("simulate", ["simulate", *design, *seed]),
            ("fit", ["fit", self.sample, *shift]),
            ("bayes", ["bayes", self.sample, *shift, *seed]),
            ("bootstrap", ["bootstrap", self.sample, *shift, *seed]),
            ("analyze", ["analyze", *self.data, *shift, *seed]),
        )

    def batch(self, j):
        out = {}
        for sub, argv in self.argvs(j):
            out[sub] = run_child([sys.executable, "-m", "jointweibull.cli", *argv], self.workdir)
            out[sub]["yardstick_s"] = child_yardstick(self.workdir)
        return out

    def inprocess_batch(self, j):
        import jointweibull.cli as cli

        out = {}
        for sub, argv in self.argvs(j):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                wall = time.perf_counter() - t0
            out[sub] = {"rc": rc, "stdout": stdout.getvalue(), "wall_s": wall}
        return out

    def identity(self, out):
        return {sub: (res["rc"], res["stdout"]) for sub, res in out.items()}

    def check(self, out, ref):
        failed, problems = 0, []
        m, n, k, R = DESIGN
        for sub, res in out.items():
            if res["rc"] != 0:
                found = [f"exit code {res['rc']}: {res.get('stderr', '').strip()[-300:]}"]
            elif sub == "simulate":
                found = checks.check_sample_text(res["stdout"], m, n, k, R)
            else:
                values = checks.flatten_kv(checks.parse_kv(res["stdout"]))
                found = checks.check_values(values, ref[sub], checks.REL_PRINTED, checks.Z_UNIT)
            if found:
                failed += 1
                problems += [f"{sub}: {p}" for p in found]
        return failed, problems


WORKLOADS = {
    w.name: w
    for w in (
        StudyWorkload(
            "study-point",
            "point study, six methods: posterior draws dominate, the simulator is under 1%",
            "point",
            ("mle", "mle-ordered", "bayes-ip", "bayes-nip", "bayes-ordered-ip", "bayes-ordered-nip"),
            reps=4,
            trace_batches_per_s=0.6,
        ),
        StudyWorkload(
            "study-interval",
            "interval study with bootstrap: 500 scalar simulations per replication dominate",
            "interval",
            ("mle", "bayes-ip", "bootstrap"),
            reps=2,
            trace_batches_per_s=0.3,
        ),
        ChecksWorkload(),
        CliWorkload(),
    )
}


# --------------------------------------------------------------------------
# measurement


def probe(workload: str, seed: int, workdir: Path) -> int:
    """Fresh-interpreter set-up: import the package, then build the inputs."""
    t0 = time.perf_counter()
    import jointweibull.cli  # noqa: F401  (every layer a first call loads)

    t1 = time.perf_counter()
    WORKLOADS[workload].setup(seed, workdir)
    t2 = time.perf_counter()
    import jointweibull

    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "file": jointweibull.__file__}))
    return 0


def run_probes(workload: str, seed: int, workdir: Path) -> list[dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir)]
    results = []
    for _ in range(SETUP_PROBES):
        res = run_child(argv, workdir)
        if res["rc"] != 0:
            raise RuntimeError(f"set-up probe failed: {res['stderr'].strip()[-500:]}")
        info = json.loads(res["stdout"].splitlines()[-1])
        require_checkout_package(info["file"])
        info["yardstick_s"] = child_yardstick(workdir)
        results.append(info)
    return results


def require_checkout_package(path: str) -> None:
    if not Path(path).resolve().is_relative_to(PACKAGE_DIR.resolve()):
        raise RuntimeError(f"jointweibull was imported from {path}, not from this checkout's src/")


def provenance() -> dict:
    import numpy
    import scipy

    try:
        # GNU nproc honours OMP_NUM_THREADS, which this benchmark pins to 1
        plain = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=True, env=plain).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        nproc = f"unavailable (os.cpu_count {os.cpu_count()})"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "commit": commit,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def check_outputs(wl: Workload, outs: list, errors: dict, ref) -> tuple[int, list[str]]:
    """Failed units and messages for a list of batch outputs (None where the
    batch raised)."""
    failed, problems, good = 0, [], []
    for j, out in enumerate(outs):
        if out is None:
            failed += wl.units_per_batch
            problems.append(f"batch {j} raised {errors[j]}")
            continue
        try:
            f, p = wl.check(out, ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # output too malformed to check
            f, p = wl.units_per_batch, [f"output does not parse: {exc!r}"]
        failed += f
        problems += [f"batch {j}: {msg}" for msg in p]
        if not f:
            good.append(out)
    run_problems = wl.check_run(good, ref)
    if run_problems:
        # a run-level band failure cannot be pinned on one unit: none of the
        # run's units can be vouched for
        failed = len(outs) * wl.units_per_batch
        problems += run_problems
    return failed, problems


def run_batches(wl: Workload, indices, fn, corrupt=None):
    outs, walls, errors = [], [], {}
    for j in indices:
        t0 = time.perf_counter()
        try:
            out = fn(j)
        except Exception as exc:  # a batch that raises is a failed batch; keep measuring
            out = None
            errors[len(outs)] = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        if out is not None and corrupt is not None:
            out = corrupt(out)
        outs.append(out)
    return outs, walls, errors


def measure(wl: Workload, seconds: float, ref, corrupt=None) -> dict:
    """The end-to-end run: batches until ``seconds`` have passed."""
    if wl.in_process:
        run_batches(wl, [WARMUP_BATCH], wl.batch)
    # per timed piece of work: its seconds, and the yardstick's time over
    # the yardstick's reference time measured right after it
    outs, walls, errors, work, speeds = [], [], {}, [], []
    t_start = time.perf_counter()
    j = 0
    while True:
        o, w, e = run_batches(wl, [j], wl.batch, corrupt)
        errors.update({len(outs) + i: msg for i, msg in e.items()})
        outs += o
        walls += w
        if wl.in_process:
            work.append(w[0])
            kernel = [calibrate() for _ in range(max(1, round(w[0] / CAL_EVERY_S)))]
            speeds.append(statistics.median(kernel) / CAL_REF_S)
        elif o[0] is not None:
            for call in o[0].values():
                work.append(call["wall_s"])
                speeds.append(call["yardstick_s"] / CHILD_REF_S)
        j += 1
        if time.perf_counter() - t_start >= seconds:
            break
    failed, problems = check_outputs(wl, outs, errors, ref)
    attempted = len(outs) * wl.units_per_batch
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max((r["rss_mb"] for out in outs if out for r in out.values()), default=0.0)
    scaled = sum(t / f for t, f in zip(work, speeds))
    info = {
        "batches": len(outs),
        "batch_p50_s": statistics.median(walls),
        "raw_units_per_s": attempted / sum(work) if work else 0.0,
        "speed": statistics.median(speeds) if speeds else 1.0,
    }
    if len(walls) >= 11:
        info["batch_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    if not wl.in_process:
        for sub in CLI_COMMANDS:
            calls = [out[sub]["wall_s"] for out in outs if out]
            info[f"cli_{sub}_s"] = statistics.median(calls) if calls else 0.0
            info[f"cli_{sub}_n"] = len(calls)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units_per_s": attempted / scaled if scaled else 0.0,
        "peak_rss_mb": rss,
        "info": info,
    }


def measure_traced(wl: Workload, seed: int, seconds: float, ref, workdir: Path, corrupt=None) -> dict:
    """Fixed work, per unit: per-layer metrics and the tracing overhead.

    Each batch runs three times in a row: untraced and traced at the layer
    functions (taking turns at going first), then traced at RngStream's
    methods.  Self times come from the layer pass and ``rng.*`` from the
    RngStream pass, so the cost of the RngStream shims is not charged to
    their callers.  The overhead is the median over batches of the
    layer-traced minus the untraced wall: the two runs of a batch are
    adjacent, so the machine's drift, which is slow, stays out of their
    difference."""
    from tracing import Tracer

    n = max(1, round(seconds * wl.trace_batches_per_s))
    indices = range(n)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    subprocess_outs, sub_errors = None, {}
    if not wl.in_process:
        subprocess_outs, _, sub_errors = run_batches(wl, indices, wl.batch, corrupt)
        for sub in CLI_COMMANDS:
            calls = [o[sub]["wall_s"] for o in subprocess_outs if o]
            metrics[f"cli.call_s.{sub}"] = statistics.median(calls) if calls else 0.0
    run_batches(wl, [WARMUP_BATCH], wl.inprocess_batch)
    layer_tracer, rng_tracer = Tracer(), Tracer()
    plain, traced, rng_traced, errors = [], [], [], {}
    traced_wall, diffs, shares = 0.0, [], []

    def once(j, tracer=None, rng=False):
        with tracer.installed(rng=rng) if tracer else contextlib.nullcontext():
            o, w, e = run_batches(wl, [j], wl.inprocess_batch, corrupt)
        if e:
            errors[j] = e[0]
        return o[0], w[0]

    t0 = time.perf_counter()
    for j in indices:
        # the untraced and layer-traced passes take turns at going first, so
        # that what the first run of a batch leaves behind cancels out
        walls = {}
        for tracer in ((None, layer_tracer) if j % 2 == 0 else (layer_tracer, None)):
            out, walls[tracer] = once(j, tracer)
            (plain if tracer is None else traced).append(out)
        rng_traced.append(once(j, rng_tracer, rng=True)[0])
        traced_wall += walls[layer_tracer]
        diffs.append(walls[layer_tracer] - walls[None])
        shares.append(diffs[-1] / walls[None])
    units = n * wl.units_per_batch
    if not wl.in_process:
        for sub in CLI_COMMANDS:
            metrics[f"cli.main_s.{sub}"] = statistics.median(o[sub]["wall_s"] for o in plain if o) if any(plain) else 0.0
    failed, problems = check_outputs(wl, subprocess_outs or plain, sub_errors if subprocess_outs else errors, ref)
    mismatched = 0
    for j in range(n):
        views = [x[j] for x in (subprocess_outs, plain, traced, rng_traced) if x is not None]
        if any(v is None for v in views) or any(wl.identity(v) != wl.identity(views[0]) for v in views[1:]):
            mismatched += 1
            problems.append(f"batch {j}: traced outputs differ from untraced outputs")
    failed = min(n * wl.units_per_batch, failed + mismatched * wl.units_per_batch)

    spans = {"calls": {}, "self": {}}
    for tracer in (layer_tracer, rng_tracer):
        for name, (calls, self_s) in tracer.layers().items():
            key = "rng" if name.startswith("rng.") else name
            spans["calls"][key] = spans["calls"].get(key, 0) + calls
            spans["self"][key] = spans["self"].get(key, 0.0) + self_s
    for name in PER_LAYER:
        for suffix, table in ((".calls", "calls"), (".self_s", "self")):
            if name.endswith(suffix) and name[: -len(suffix)] in spans[table]:
                metrics[name] = spans[table][name[: -len(suffix)]] / units
    for method, fracs in layer_tracer.ess_frac.items():
        metrics[f"bayes.draw_posterior.ess_frac.{method}"] = statistics.median(fracs)
    if layer_tracer.boot_resamples:
        metrics["mle.bootstrap_ci.skipped_frac"] = layer_tracer.boot_skipped / layer_tracer.boot_resamples
    if layer_tracer.study_replications:
        metrics["study.skipped_frac"] = layer_tracer.study_skipped / layer_tracer.study_replications
    metrics["trace.wall_s"] = traced_wall / units
    metrics["trace.overhead_s"] = statistics.median(diffs) / wl.units_per_batch
    metrics["trace.overhead_frac"] = statistics.median(shares)
    layer_tracer.write(TRACE_DIR / f"{wl.name}.spans.tsv", t0)
    rng_tracer.write(TRACE_DIR / f"{wl.name}.rng.spans.tsv", t0)

    interp = [run_child([sys.executable, "-c", "pass"], workdir)["wall_s"] for _ in range(SETUP_PROBES)]
    metrics["cli.interpreter_s"] = statistics.median(interp)
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in run_probes(wl.name, seed, workdir))
    return {
        "attempted": n * wl.units_per_batch,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "spans": len(layer_tracer.start) + len(rng_tracer.start),
    }


def predictions(name: str, m: dict) -> list[tuple[str, bool, str]]:
    """The claims each workload was chosen for, read off the traced run."""
    wall = m["trace.wall_s"]
    out = []
    if name == "study-interval":
        share = m["jpc.simulate_jpc.self_s"] / wall
        out.append(("simulate_jpc self time > 1/2 of traced study-interval", share > 0.5, f"share {share:.3f}"))
    if name == "study-point":
        share = m["jpc.simulate_jpc.self_s"] / wall
        out.append(("simulate_jpc self time < 5% of traced study-point", share < 0.05, f"share {share:.4f}"))
        share = m["bayes.draw_posterior.self_s"] / wall
        out.append(("draw_posterior self time > 1/2 of traced study-point", share > 0.5, f"share {share:.3f}"))
    if name == "cli-fiber":
        start = m["cli.interpreter_s"] + m["cli.import_s"]
        fit = m["cli.call_s.fit"]
        out.append(("interpreter + import > 1/2 of a fit call", start > 0.5 * fit,
                    f"{start:.3f} s of {fit:.3f} s"))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt=None, out=sys.stdout) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    wl = WORKLOADS[workload]
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print("provenance " + json.dumps(provenance()), file=out)
        print(f"workload {workload}: {wl.why}", file=out)
        if not trace:
            setups = run_probes(workload, seed, workdir)
        wl.setup(seed, workdir)
        if trace or wl.in_process:
            import jointweibull

            require_checkout_package(jointweibull.__file__)
        if trace:
            res = measure_traced(wl, seed, seconds, ref, workdir, corrupt)
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in res["metrics"].items()}
            print(f"traced {res['attempted']} units, {res['spans']} spans -> "
                  f"{TRACE_DIR.name}/{workload}.spans.tsv, {workload}.rng.spans.tsv", file=out)
            for claim, ok, detail in predictions(workload, res["metrics"]):
                print(f"prediction {'holds' if ok else 'FAILS'}: {claim} ({detail})", file=out)
        else:
            res = measure(wl, seconds, ref, corrupt)
            values = {
                "setup_s": statistics.median(p["setup_s"] * CHILD_REF_S / p["yardstick_s"] for p in setups),
                "units_per_s": res["units_per_s"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
            res["info"]["raw_setup_s"] = statistics.median(p["setup_s"] for p in setups)
            for key, value in res["info"].items():
                print(f"info {key} = {value:.6g}", file=out)
            print(f"info failed_frac = {res['failed'] / res['attempted']:.6g} "
                  f"({res['failed']} of {res['attempted']} units)", file=out)
        for msg in res["problems"][:50]:
            print(f"check FAILED {msg}", file=out)
        for name, metric in metrics.items():
            print(f"metric {name} = {metric['value']:.6g} {metric['unit']}", file=out)
        result = {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }
        print(json.dumps(result), file=out)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: {PACKAGE_DIR} or {REFERENCE} is missing; run from the root of a "
              "jointweibull checkout", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args.workload, args.seed, args.workdir)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
