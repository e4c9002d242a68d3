"""Spans around calls into the package's public functions.

The benchmark traces the program from outside: each traced function is
replaced, for the length of a ``with tracer.installed():`` block, by a shim
that records a span (name, start, end, parent span).  The shim is bound in
every ``jointweibull`` module that holds the function under any name, so a
call made from inside the package (``bootstrap_ci`` calling
``simulate_jpc``) becomes a child span.  The program's source is untouched
and its outputs are unchanged: a shim only reads the clock around the call.

Spans live in flat arrays while the block runs and are written out once at
the end.

A shim's own cost falls outside its span, in the caller's self time.  The
``RngStream`` methods are called tens of thousands of times per study
replication, so they are traced in a pass of their own
(``installed(rng=True)``) and the layer functions in another, and each
layer's self time is read from the pass that does not wrap its children by
the thousand.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, function) pairs traced at every layer boundary.  A function
# missing from the package under test raises, so a change that moves a layer
# has to update this list on purpose rather than have its metrics read 0.
TRACED = (
    ("jpc", "simulate_jpc"),
    ("mle", "fit_mle"),
    ("mle", "fit_mle_ordered"),
    ("mle", "asymptotic_ci"),
    ("mle", "bootstrap_ci"),
    ("bayes", "draw_posterior"),
    ("bayes", "bayes_estimate"),
    ("bayes", "hpd_interval"),
    ("bayes", "posterior_predictive_pvalue"),
    ("gof", "fit_weibull_complete"),
    ("gof", "ks_pvalue"),
    ("study", "run_point_study"),
    ("study", "run_interval_study"),
    ("cli", "main"),
)


def bayes_method(prior) -> str:
    """Study method name of a prior: informative or flat, ordered or not."""
    informative = prior.bg.a0 > 0.0 or prior.shape.a > 0.0
    return "bayes-" + ("ordered-" if prior.ordered else "") + ("ip" if informative else "nip")


class Tracer:
    """In-memory span store plus the counters read off traced results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.ess_frac: dict[str, list[float]] = defaultdict(list)
        self.boot_skipped = 0
        self.boot_resamples = 0
        self.study_skipped = 0
        self.study_replications = 0

    def wrap(self, label: str, fn, observe=None):
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        stack = self._stack
        name, parent, start, end = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return shim

    # observers: counters that need the call's arguments or result

    def _observe_posterior(self, fn):
        sig = inspect.signature(fn)

        def observe(args, kwargs, post):
            bound = sig.bind(*args, **kwargs)
            self.ess_frac[bayes_method(bound.arguments["prior"])].append(post.ess / post.n_draws)

        return observe

    def _observe_bootstrap(self, fn):
        sig = inspect.signature(fn)

        def observe(args, kwargs, res):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.boot_skipped += int(res.skipped)
            self.boot_resamples += int(bound.arguments["n_boot"])

        return observe

    def _observe_study(self, args, kwargs, report):
        config = args[0] if args else kwargs["config"]
        self.study_skipped += report.rows[0].skipped
        self.study_replications += config.replications

    @contextlib.contextmanager
    def installed(self, rng: bool = False):
        """Bind shims over the functions in ``TRACED`` or, with ``rng``,
        over RngStream's public methods; restore the originals on exit."""
        restore = []
        try:
            if rng:
                self._bind_rng(restore)
            else:
                self._bind_layers(restore)
            yield self
        finally:
            for obj, attr, value in reversed(restore):
                setattr(obj, attr, value)

    def _bind_layers(self, restore: list) -> None:
        package = importlib.import_module("jointweibull")
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, fn_name in TRACED:
            owner = importlib.import_module(f"jointweibull.{mod_name}")
            fn = getattr(owner, fn_name)
            observe = None
            if fn_name == "draw_posterior":
                observe = self._observe_posterior(fn)
            elif fn_name == "bootstrap_ci":
                observe = self._observe_bootstrap(fn)
            elif fn_name.startswith("run_") and fn_name.endswith("_study"):
                observe = self._observe_study
            shim = self.wrap(f"{mod_name}.{fn_name}", fn, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, shim)
                        restore.append((mod, attr, fn))

    def _bind_rng(self, restore: list) -> None:
        stream = importlib.import_module("jointweibull.rng").RngStream
        for attr, value in list(vars(stream).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                setattr(stream, attr, self.wrap(f"rng.{attr}", value))
                restore.append((stream, attr, value))

    def layers(self) -> dict[str, list]:
        """Per span name: [calls, self seconds].  Self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list] = {}
        for i in range(n):
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0])
            acc[0] += 1
            acc[1] += end[i] - start[i] - child[i]
        return out

    def write(self, path: Path, t0: float) -> None:
        """Spans as tab-separated lines, times in seconds from ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
