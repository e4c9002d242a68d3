"""Sample files: the joint censoring outcome and plain lists of lifetimes.

A joint sample file reads::

    # comment lines and blank lines are ignored
    m n k
    R: r1 r2 ... rk
    t1 delta1 s1
    ...
    tk deltak sk

A values file holds one or more positive finite numbers per line,
separated by blanks or commas, with the same comment rule.  Malformed or
inconsistent input raises :class:`SampleFileError`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import SampleFileError
from .jpc import CensoringScheme, JpcObservation, JpcSample, break_ties


def _positive_real(tok: str, lineno: int) -> float:
    """``tok`` as a positive finite real, the one rule for a time or value."""
    try:
        v = float(tok)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0.0):
        raise SampleFileError(f"line {lineno}: not a positive finite real: {tok!r}")
    return v


def parse_jpc_lines(lines: Sequence[str]) -> JpcSample:
    content: list[tuple[int, str]] = []
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((i, stripped))
    if not content:
        raise SampleFileError("file holds no data lines")
    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 3:
        raise SampleFileError(f"line {lineno}: header must read 'm n k'")
    try:
        m, n, k = (int(p) for p in parts)
    except ValueError as exc:
        raise SampleFileError(f"line {lineno}: header must hold three integers") from exc
    if len(content) < 2:
        raise SampleFileError("missing withdrawal line 'R: ...'")
    lineno, rline = content[1]
    if not rline.startswith("R:"):
        raise SampleFileError(f"line {lineno}: expected a line starting with 'R:'")
    try:
        r = tuple(int(p) for p in rline[2:].split())
    except ValueError as exc:
        raise SampleFileError(f"line {lineno}: withdrawal counts must be integers") from exc
    body = content[2:]
    if len(body) != k:
        raise SampleFileError(
            f"expected {k} observation lines, found {len(body)}"
        )
    times, deltas, splits = [], [], []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise SampleFileError(f"line {lineno}: expected 't delta s'")
        times.append(_positive_real(parts[0], lineno))
        try:
            deltas.append(int(parts[1]))
            splits.append(int(parts[2]))
        except ValueError as exc:
            raise SampleFileError(f"line {lineno}: malformed observation") from exc
    times = break_ties(times)
    try:
        scheme = CensoringScheme(m=m, n=n, k=k, R=r)
        obs = tuple(
            JpcObservation(t=float(t), delta=d, s=s)
            for t, d, s in zip(times, deltas, splits)
        )
        return JpcSample(scheme=scheme, obs=obs)
    except ValueError as exc:
        raise SampleFileError(f"inconsistent sample: {exc}") from exc


def parse_jpc_file(path: str) -> JpcSample:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_jpc_lines(fh.readlines())
    except OSError as exc:
        raise SampleFileError(f"cannot read {path}: {exc}") from exc


def serialize_jpc_sample(sample: JpcSample) -> str:
    sch = sample.scheme
    lines = [f"{sch.m} {sch.n} {sch.k}", "R: " + " ".join(str(r) for r in sch.R)]
    for o in sample.obs:
        lines.append(f"{o.t:.12g} {o.delta} {o.s}")
    return "\n".join(lines) + "\n"


def parse_complete_lines(lines: Sequence[str]) -> tuple[float, ...]:
    """The numbers of a values file, in order; each must be a positive
    finite real, as a time of a joint sample file must.  An empty result
    is returned as is, for the caller to reject with the file's name."""
    values = []
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        values.extend(_positive_real(tok, i) for tok in stripped.replace(",", " ").split())
    return tuple(values)


def parse_complete_file(path: str) -> tuple[float, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_complete_lines(fh.readlines())
    except OSError as exc:
        raise SampleFileError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise SampleFileError(f"{path} holds no values")
    return values
