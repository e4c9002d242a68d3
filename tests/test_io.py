from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jointweibull
from jointweibull.errors import SampleFileError
from jointweibull.io import (
    parse_complete_file,
    parse_jpc_file,
    parse_jpc_lines,
    serialize_jpc_sample,
)
from jointweibull.jpc import (
    CensoringScheme,
    JointParams,
    JpcSample,
    simulate_jpc,
)
from jointweibull.rng import RngStream

from _oracles import fiber_jpc_sample, u_stat, v_stat


@st.composite
def simulated_samples(draw) -> JpcSample:
    """``simulate_jpc`` outcomes of random small designs and parameters."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, m + n))
    spare = m + n - k
    cuts = sorted(draw(st.lists(st.integers(0, spare), min_size=k - 1, max_size=k - 1)))
    scheme = CensoringScheme(m, n, k, tuple(np.diff([0, *cuts, spare])))
    params = JointParams(
        draw(st.floats(0.3, 4.0)), draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
    )
    return simulate_jpc(scheme, params, RngStream(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=100, deadline=None)
@given(simulated_samples())
@example(fiber_jpc_sample())
def test_parse_round_trip(sample) -> None:
    """Writing a sample and reading it back gives the scheme, the group
    indicators and the splits exactly, and the times to the 12 significant
    digits the writer prints."""
    again = parse_jpc_lines(serialize_jpc_sample(sample).splitlines())
    assert again.scheme == sample.scheme
    assert np.array_equal(again.delta, sample.delta)
    assert np.array_equal(again.s, sample.s)
    np.testing.assert_allclose(again.t, sample.t, rtol=1e-11, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(simulated_samples(), st.data())
def test_sample_accounting(sample, data) -> None:
    """The power sums at exponent zero recount both groups, and one group-1
    withdrawal more than the replayed survivors allow is refused."""
    sch = sample.scheme
    assert u_stat(sample, 0.0) == pytest.approx(sch.m, rel=1e-12)
    assert v_stat(sample, 0.0) == pytest.approx(sch.n, rel=1e-12)
    j = data.draw(st.integers(0, sch.k - 1))
    s = sample.s.copy()
    s[j] += 1
    with pytest.raises(ValueError):
        JpcSample(sch, zip(sample.t, sample.delta, s))


def test_parse_skips_comments_and_blanks() -> None:
    text = ["# heading", "", "2 2 2", "  # another", "R: 1 1", "1.0 1 1", "", "2.0 0 0"]
    sample = parse_jpc_lines(text)
    assert sample.scheme.k == 2 and sample.k1 == 1


def test_parse_accepts_sorted_ties_next_to_a_close_time() -> None:
    # the repeat of 1.0 used to be moved onto the next recorded time
    text = ["3 2 3", "R: 1 1 0", "1.0 1 1", "1.0 0 0", "1.000000001 1 0"]
    sample = parse_jpc_lines(text)
    assert np.all(np.diff(sample.t) > 0.0)
    assert sample.t[0] == 1.0 and sample.t[-1] == 1.000000001


def test_parse_reports_malformed_input() -> None:
    with pytest.raises(SampleFileError):
        parse_jpc_lines(["# nothing"])
    with pytest.raises(SampleFileError):
        parse_jpc_lines(["2 2", "R: 1 1", "1 1 1", "2 0 0"])
    with pytest.raises(SampleFileError):
        parse_jpc_lines(["2 2 2", "1.0 1 1", "2.0 0 0"])
    with pytest.raises(SampleFileError):
        parse_jpc_lines(["2 2 2", "R: 1 1", "1.0 1 1"])
    with pytest.raises(SampleFileError):
        parse_jpc_lines(["2 2 2", "R: 1 1", "1.0 one 1", "2.0 0 0"])
    for bad in ("nan", "-2", "0", "inf"):
        with pytest.raises(SampleFileError, match="line 4:"):
            parse_jpc_lines(["2 2 2", "R: 1 1", "1.0 1 1", f"{bad} 0 1"])
    with pytest.raises(SampleFileError):  # sum(R) inconsistent with m+n-k
        parse_jpc_lines(["2 2 2", "R: 2 1", "1.0 1 1", "2.0 0 0"])
    with pytest.raises(SampleFileError):
        parse_jpc_file("/nonexistent/sample.txt")


def test_parse_complete_values(tmp_path) -> None:
    p = tmp_path / "vals.txt"
    p.write_text("# strengths\n1.2, 3.4\n5.6\n", encoding="utf-8")
    assert parse_complete_file(str(p)) == (1.2, 3.4, 5.6)
    bad = tmp_path / "bad.txt"
    for text, line in (("1.2 oops", 1), ("1.2\n-3", 2), ("1.2\n0", 2), ("1.2\nnan", 2), ("1.2\n2, inf", 2)):
        bad.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(SampleFileError, match=f"line {line}:"):
            parse_complete_file(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(SampleFileError):
        parse_complete_file(str(empty))


def test_bundled_sample_leaves_cli_out() -> None:
    """Reading the bundled data goes through ``jointweibull.io`` and must
    not load the command line front end."""
    pkg_root = str(Path(jointweibull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from importlib.resources import files\n"
        "import jointweibull.io as io\n"
        "io.parse_jpc_file(str(files('jointweibull.data') / 'fiber_jpc_sample.txt'))\n"
        "for name in ('fiber_strength_20mm.txt', 'fiber_strength_10mm.txt'):\n"
        "    io.parse_complete_file(str(files('jointweibull.data') / name))\n"
        "print(json.dumps('jointweibull.cli' in sys.modules))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) is False
