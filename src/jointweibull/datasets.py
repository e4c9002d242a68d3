"""Bundled example data: breaking strengths of single carbon fibers at two
gauge lengths, plus one joint progressively censored outcome over both."""

from __future__ import annotations

from importlib.resources import files

from .io import parse_complete_lines, parse_jpc_lines
from .jpc import JpcSample


def _lines(name: str) -> list[str]:
    return files("jointweibull.data").joinpath(name).read_text(encoding="utf-8").splitlines()


def carbon_fiber_20mm() -> tuple[float, ...]:
    """69 strengths (GPa) at 20 mm gauge length."""
    return parse_complete_lines(_lines("fiber_strength_20mm.txt"))


def carbon_fiber_10mm() -> tuple[float, ...]:
    """63 strengths (GPa) at 10 mm gauge length."""
    return parse_complete_lines(_lines("fiber_strength_10mm.txt"))


def fiber_jpc_sample() -> JpcSample:
    """The bundled joint censoring outcome (k=20, withdrawals 4,...,4,36)."""
    return parse_jpc_lines(_lines("fiber_jpc_sample.txt"))
