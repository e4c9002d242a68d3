"""Bundled example data: one joint progressively censored outcome over the
breaking strengths of single carbon fibers at two gauge lengths."""

from __future__ import annotations

from importlib.resources import files

from .io import parse_jpc_lines
from .jpc import JpcSample


def fiber_jpc_sample() -> JpcSample:
    """The bundled joint censoring outcome (k=20, withdrawals 4,...,4,36)."""
    lines = files("jointweibull.data").joinpath("fiber_jpc_sample.txt").read_text(encoding="utf-8")
    return parse_jpc_lines(lines.splitlines())
