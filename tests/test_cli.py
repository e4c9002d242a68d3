from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import jointweibull
from jointweibull.cli import SEED_ENV_VAR, main
from jointweibull.io import serialize_jpc_sample
from jointweibull.study import StudyConfig

from _oracles import carbon_fiber_10mm, carbon_fiber_20mm, fiber_jpc_sample

_PROJECT_ROOT = Path(__file__).resolve().parents[1]

ONE_GROUP_FILE = """\
2 3 2
R: 1 2
0.5 0 1
0.9 0 1
"""

IMPROPER_FILE = """\
1 1 2
R: 0 0
2 1 0
3 0 0
"""


def _kv(out: str) -> dict[str, list[str]]:
    parsed: dict[str, list[str]] = {}
    for line in out.strip().splitlines():
        parts = line.split()
        parsed[parts[0]] = parts[1:]
    return parsed


@pytest.fixture()
def fiber_file(tmp_path):
    path = tmp_path / "joint.txt"
    path.write_text(serialize_jpc_sample(fiber_jpc_sample()), encoding="utf-8")
    return str(path)


def test_fit_command(fiber_file, capsys) -> None:
    assert main(["fit", fiber_file, "--shift", "0.75"]) == 0
    out = _kv(capsys.readouterr().out)
    assert float(out["alpha"][0]) == pytest.approx(4.495, abs=5e-4)
    assert float(out["lambda1"][0]) == pytest.approx(0.071, abs=5e-4)
    assert float(out["lambda2"][0]) == pytest.approx(0.016, abs=1e-3)
    assert out["converged"] == ["1"]
    lo, hi = (float(v) for v in out["ci_alpha"])
    assert lo < 4.495 < hi
    assert float(out["ci_level"][0]) == 0.9


def test_fit_ordered_command(fiber_file, capsys) -> None:
    """A boundary fit prints the common-rate model's intervals, one for both
    rates, and no warning."""
    assert main(["fit", fiber_file, "--shift", "0.75", "--ordered"]) == 0
    captured = capsys.readouterr()
    out = _kv(captured.out)
    assert out["boundary"] == ["1"]
    assert out["lambda1"] == out["lambda2"]
    for name in ("alpha", "lambda1", "lambda2"):
        lo, hi = (float(v) for v in out[f"ci_{name}"])
        assert lo < float(out[name][0]) < hi
    assert out["ci_lambda1"] == out["ci_lambda2"]
    assert out["ci_level"] == ["0.9"]
    assert captured.err == ""


def test_simulate_is_deterministic_and_fits(tmp_path, capsys) -> None:
    args = [
        "simulate", "--m", "8", "--n", "7", "--k", "6",
        "--R", "2", "0", "3", "0", "4", "0",
        "--alpha", "1.5", "--lambda1", "0.6", "--lambda2", "1.1",
    ]
    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    assert main(args + ["--seed", "9", "--out", str(f1)]) == 0
    assert main(args + ["--seed", "9", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert main(args + ["--seed", "10", "--out", "-"]) == 0
    other = capsys.readouterr().out
    assert other != f1.read_text()
    rc = main(["fit", str(f1)])
    assert rc == 0
    capsys.readouterr()


def test_simulate_exits_one_when_the_first_hazard_overflows(capsys) -> None:
    """m*lambda1 + n*lambda2 past a double would make every gap 0, and so
    every redraw fail: the command refuses before drawing."""
    args = ["simulate", "--m", "3", "--n", "3", "--k", "2", "--R", "1", "3", "--alpha", "0.5"]
    assert main(args + ["--lambda1", "1e308", "--lambda2", "1", "--seed", "1"]) == 1
    assert "overflow" in capsys.readouterr().err


def test_seed_env_var(tmp_path, capsys, monkeypatch) -> None:
    args = [
        "simulate", "--m", "4", "--n", "4", "--k", "4", "--R", "1", "1", "1", "1",
        "--alpha", "1.0", "--lambda1", "1.0", "--lambda2", "1.0",
    ]
    assert main(args + ["--seed", "9"]) == 0
    direct = capsys.readouterr().out
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    assert main(args) == 0
    assert capsys.readouterr().out == direct
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    assert main(args) == 4
    capsys.readouterr()
    # every value that is no seed exits 4 with one line naming the variable
    for bad in ("x", "-1", str(2**64), "1.5"):
        monkeypatch.setenv(SEED_ENV_VAR, bad)
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {SEED_ENV_VAR} must be an integer in [0, 2^64), not {bad!r}"]


def test_bayes_command(fiber_file, capsys) -> None:
    rc = main(
        ["bayes", fiber_file, "--shift", "0.75", "--b", "4", "--n-draws", "2000", "--seed", "1"]
    )
    assert rc == 0
    out = _kv(capsys.readouterr().out)
    assert 2.4 < float(out["alpha"][0]) < 2.75
    lo, hi = (float(v) for v in out["hpd_alpha"])
    assert lo < float(out["alpha"][0]) < hi
    assert float(out["ess"][0]) > 200.0


def test_bayes_ordered_on_the_bundled_file(capsys) -> None:
    """The ordered flat prior on the bundled file as shipped (no shift): the
    per-group branch it samples decays, so the command succeeds."""
    path = str(Path(jointweibull.__file__).parent / "data" / "fiber_jpc_sample.txt")
    assert main(["bayes", path, "--ordered", "--b", "4"]) == 0
    out = _kv(capsys.readouterr().out)
    assert float(out["lambda1"][0]) < float(out["lambda2"][0])


def test_bayes_ordered_on_the_bundled_file_keeps_its_draws(capsys) -> None:
    """On the file as shipped the data put lambda1 above lambda2, against
    the order.  The ordered flat prior's weight depends on the shape alone,
    so the effective sample size stays near the draw count and no low-ESS
    warning is printed."""
    path = str(Path(jointweibull.__file__).parent / "data" / "fiber_jpc_sample.txt")
    assert main(["bayes", path, "--ordered", "--b", "4"]) == 0
    captured = capsys.readouterr()
    assert "effective sample size" not in captured.err
    assert float(_kv(captured.out)["ess"][0]) > 0.9 * 10_000


def test_bootstrap_command(fiber_file, capsys) -> None:
    rc = main(
        ["bootstrap", fiber_file, "--shift", "0.75", "--n-boot", "60", "--seed", "52"]
    )
    assert rc == 0
    out = _kv(capsys.readouterr().out)
    lo, hi = (float(v) for v in out["ci_alpha"])
    assert 0.0 < lo < hi
    assert int(out["skipped"][0]) <= 10


def test_exit_code_no_mle(tmp_path, capsys) -> None:
    p = tmp_path / "one_group.txt"
    p.write_text(ONE_GROUP_FILE, encoding="utf-8")
    assert main(["fit", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_improper_posterior(tmp_path, capsys) -> None:
    p = tmp_path / "improper.txt"
    p.write_text(IMPROPER_FILE, encoding="utf-8")
    assert main(["bayes", str(p), "--n-draws", "100"]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_parse_failure(tmp_path, capsys) -> None:
    p = tmp_path / "garbled.txt"
    p.write_text("2 2\nR: 1 1\n", encoding="utf-8")
    assert main(["fit", str(p)]) == 4
    assert main(["fit", str(tmp_path / "missing.txt")]) == 4
    for bad in ("nan", "-2"):
        p.write_text(f"2 2 2\nR: 1 1\n0.5 1 1\n{bad} 0 1\n", encoding="utf-8")
        assert main(["fit", str(p)]) == 4
        assert "line 4:" in capsys.readouterr().err
    good = tmp_path / "good.txt"
    good.write_text("1.2\n0.5\n2.0\n", encoding="utf-8")
    for bad in ("-3", "nan"):
        p.write_text(f"1.2\n{bad}\n", encoding="utf-8")
        assert main(["analyze", str(p), str(good)]) == 4
    # a value that --shift makes non-positive is an argument error
    assert main(["analyze", str(good), str(good), "--shift", "0.6"]) == 1
    capsys.readouterr()


def test_shift_at_or_past_the_smallest_time_is_refused_by_name(fiber_file, capsys) -> None:
    """A ``--shift`` at or past the smallest time of a joint sample or of a
    strengths file exits 1 with one message naming the shift and that time."""
    data = files("jointweibull.data")
    strengths = [str(data / "fiber_strength_20mm.txt"), str(data / "fiber_strength_10mm.txt")]
    for argv in (["fit", fiber_file], ["analyze", *strengths]):
        for shift in ("5", "1.312"):
            assert main(argv + ["--shift", shift]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: shift must be below the smallest time, 1.312, not {float(shift)!r}\n"


def test_usage_errors_exit_one(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        main(["fit"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{sample}", "--level", "1.5"],
        ["fit", "{sample}", "--level", "nan"],
        ["bootstrap", "{sample}", "--level", "0"],
        ["bootstrap", "{sample}", "--n-boot", "0"],
        ["bayes", "{sample}", "--level", "0"],
        ["bayes", "{sample}", "--n-draws", "0"],
        ["bayes", "{sample}", "--n-draws", "2.5"],
        ["analyze", "{data1}", "{data2}", "--n-rep", "0"],
        ["analyze", "{data1}", "{data2}", "--n-draws", "-3"],
    ],
)
def test_bad_level_and_counts_are_usage_errors(argv, fiber_file, tmp_path, capsys) -> None:
    """A level outside (0, 1) or a count below 1 is refused while the
    arguments are parsed, before anything is printed."""
    files = {"sample": fiber_file}
    for name, values in (("data1", carbon_fiber_20mm()), ("data2", carbon_fiber_10mm())):
        files[name] = str(tmp_path / f"{name}.txt")
        Path(files[name]).write_text("\n".join(map(str, values)), encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main([a.format(**files) for a in argv + ["--shift", "0.75"]])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}" in captured.err


def test_analyze_has_no_ordered_flag(capsys) -> None:
    """``analyze`` has no order-restricted variant, so ``--ordered`` is a
    usage error there rather than a flag it would silently ignore."""
    with pytest.raises(SystemExit) as info:
        main(["analyze", "d1.txt", "d2.txt", "--ordered"])
    assert info.value.code == 1
    assert "unrecognized arguments: --ordered" in capsys.readouterr().err


def test_analyze_command(tmp_path, capsys) -> None:
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    d1.write_text("\n".join(str(v) for v in carbon_fiber_20mm()), encoding="utf-8")
    d2.write_text("\n".join(str(v) for v in carbon_fiber_10mm()), encoding="utf-8")
    rc = main(
        [
            "analyze", str(d1), str(d2),
            "--shift", "0.75", "--b", "4",
            "--n-draws", "500", "--n-rep", "300", "--seed", "5",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    out = _kv(captured.out)
    assert float(out["data1_alpha"][0]) == pytest.approx(3.843, abs=5e-3)
    assert float(out["data1_ks"][0]) == pytest.approx(0.046, abs=2e-3)
    assert float(out["data2_alpha"][0]) == pytest.approx(3.909, abs=5e-3)
    assert float(out["data2_ks"][0]) == pytest.approx(0.079, abs=2e-3)
    assert float(out["common_alpha"][0]) == pytest.approx(3.876, abs=5e-3)
    assert float(out["lr_pvalue"][0]) == pytest.approx(0.895, abs=0.05)
    assert 0.0 <= float(out["data1_bayes_predictive_p"][0]) <= 1.0
    # flat rates factor over the two samples, so the common-shape draws are
    # exact and no degenerate-weights warning is printed
    assert "degenerate" not in captured.err


def test_study_command_point_and_interval(tmp_path, capsys) -> None:
    cfg = {
        "m": 5, "n": 4, "k": 4, "R": [1, 1, 2, 1],
        "alpha": 1.5, "lambda1": 0.6, "lambda2": 1.1,
        "replications": 12, "methods": ["mle"], "kind": "point",
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out_csv = tmp_path / "report.csv"
    assert main(["study", str(path), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("scheme,parameter,method")
    assert len(lines) == 4
    # a base-seed override must change the numbers
    assert main(["study", str(path), "--base-seed", "7"]) == 0
    stdout_csv = capsys.readouterr().out
    assert stdout_csv.splitlines()[0] == lines[0]
    assert stdout_csv.strip().splitlines()[1:] != lines[1:]
    cfg["kind"] = "interval"
    cfg["replications"] = 8
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["study", str(path)]) == 0
    interval_out = capsys.readouterr().out
    assert ",AL," in interval_out.splitlines()[0] or "AL" in interval_out.splitlines()[0]


def test_study_command_config_errors(tmp_path, capsys) -> None:
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["study", str(bad_json)]) == 4
    missing = {"m": 2, "n": 2, "k": 2, "R": [1, 1]}
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(missing), encoding="utf-8")
    assert main(["study", str(p)]) == 4
    wrong_kind = {
        "m": 2, "n": 2, "k": 2, "R": [1, 1],
        "alpha": 1.0, "lambda1": 1.0, "lambda2": 1.0,
        "replications": 2, "methods": ["mle"], "kind": "sideways",
    }
    p.write_text(json.dumps(wrong_kind), encoding="utf-8")
    assert main(["study", str(p)]) == 4
    capsys.readouterr()


def test_study_command_refuses_bad_settings_before_running(tmp_path, capsys, monkeypatch) -> None:
    """No posterior draws, no bootstrap resamples and a repeated method are
    refused with the bad-configuration code before any replication runs."""
    import jointweibull.cli as cli

    def never(config):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(cli, "run_point_study", never)
    monkeypatch.setattr(cli, "run_interval_study", never)
    base = {
        "m": 20, "n": 22, "k": 20, "R": [7] + [0] * 18 + [15],
        "alpha": 1.0, "lambda1": 0.5, "lambda2": 1.0,
        "replications": 3, "methods": ["mle", "bayes-nip", "bootstrap"], "kind": "interval",
    }
    p = tmp_path / "study.json"
    for key, value, word in (
        ("n_posterior", 0, "n_posterior"),
        ("n_boot", 0, "n_boot"),
        ("methods", ["mle", "bayes-nip", "mle"], "repeated"),
    ):
        p.write_text(json.dumps({**base, key: value}), encoding="utf-8")
        assert main(["study", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad configuration" in captured.err and word in captured.err


def test_study_command_refuses_unknown_keys_and_bad_counts(tmp_path, capsys, monkeypatch) -> None:
    """A misspelled key, top-level or in the informative prior, a count that
    is not an integer, a seed outside [0, 2^64), a flat shape rate that is
    not a finite real >= 0 and a bool in the informative prior exit 4
    naming the key, before any replication runs and with nothing on stdout;
    absent options take StudyConfig's own defaults."""
    import jointweibull.cli as cli

    def never(config):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(cli, "run_point_study", never)
    base = {
        "m": 20, "n": 22, "k": 20, "R": [7] + [0] * 18 + [15],
        "alpha": 1.0, "lambda1": 0.5, "lambda2": 1.0,
        "replications": 3, "methods": ["mle", "bayes-ip"],
    }
    prior = {"a0": 1.5, "b0": 1.0, "a1": 2.0, "a2": 4.0, "a": 2.0, "b": 2.0}
    p = tmp_path / "study.json"
    p.write_text(json.dumps({**base, "informative": prior}), encoding="utf-8")
    config, kind = cli._study_config_from_json(str(p))
    assert kind == "point"
    assert config == StudyConfig(
        config.scheme, config.truth, 3, ("mle", "bayes-ip"), informative=config.informative
    )
    for extra, word in (
        ({"n_posteriors": 50}, "n_posteriors"),
        ({"informative": {**prior, "c": 1.0}}, "informative.c"),
        ({"replications": 2.5}, "replications"),
        ({"n_boot": 2.5}, "n_boot"),
        ({"n_posterior": True}, "n_posterior"),
        ({"base_seed": -1}, "base_seed"),
        ({"base_seed": 2**64}, "base_seed"),
        ({"shape_rate_flat": "x"}, "shape_rate_flat"),
        ({"shape_rate_flat": -1}, "shape_rate_flat"),
        ({"informative": {**prior, "a0": True}}, "a0 must be"),
    ):
        p.write_text(json.dumps({**base, **extra}), encoding="utf-8")
        assert main(["study", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert word in captured.err


def test_study_command_refuses_fractional_counts(tmp_path, capsys, monkeypatch) -> None:
    """A design count that is not an integer exits 4 naming it, before any
    replication runs and with nothing on stdout: a fractional withdrawal
    count that truncates to a valid design, and a float m or k."""
    import jointweibull.cli as cli

    def never(config):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(cli, "run_interval_study", never)
    base = {
        "m": 69, "n": 63, "k": 20, "R": [4] * 19 + [36],
        "alpha": 4.3475, "lambda1": 0.045326, "lambda2": 0.045326,
        "replications": 3, "methods": ["mle-ordered"], "kind": "interval",
    }
    p = tmp_path / "study.json"
    for extra, word in (
        ({"R": [4] * 19 + [36.5]}, "R[19]"),
        ({"m": 69.0}, "m must be"),
        ({"k": 20.0}, "k must be"),
    ):
        p.write_text(json.dumps({**base, **extra}), encoding="utf-8")
        assert main(["study", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and word in captured.err


@pytest.mark.parametrize("key", ["alpha", "lambda2"])
def test_study_command_refuses_a_bool_parameter(key, tmp_path, capsys, monkeypatch) -> None:
    """A bool for a true Weibull parameter exits 4 naming the key, before
    any replication runs and with nothing on stdout, rather than running
    as the value 1."""
    import jointweibull.cli as cli

    def never(config):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(cli, "run_interval_study", never)
    config = {
        "m": 69, "n": 63, "k": 20, "R": [4] * 19 + [36],
        "alpha": 4.3475, "lambda1": 0.045326, "lambda2": 0.045326,
        "replications": 3, "methods": ["mle-ordered"], "kind": "interval", key: True,
    }
    p = tmp_path / "study.json"
    p.write_text(json.dumps(config), encoding="utf-8")
    assert main(["study", str(p)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f"{key} must be" in captured.err


def _console_script_command(name: str) -> list[str]:
    """The ``[project.scripts]`` entry ``name`` as a fresh interpreter runs
    it from an installer's wrapper: import the target, ``sys.exit(main())``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(_PROJECT_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    code = f"import sys; sys.argv[0] = {name!r}; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def _check_console_script(command: list[str], fiber_file: str, env=None) -> None:
    res = subprocess.run(
        command + ["fit", fiber_file, "--shift", "0.75"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("alpha 4.495")
    usage = subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)
    assert usage.returncode == 1


def test_console_script(fiber_file) -> None:
    """The declared console-script target behaves as the installed command,
    with the package found where this test imported it from."""
    pkg_root = str(Path(jointweibull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    _check_console_script(_console_script_command("jointweibull"), fiber_file, env)


def test_cli_import_leaves_scipy_stats_out(fiber_file) -> None:
    """Importing the CLI must not load ``scipy.stats``, whose import is most
    of a CLI call's start-up, nor ``scipy.special``, which only the commands
    that need its functions load; a ``fit`` call needs none of them, and
    neither does a ``bayes`` call with an unordered prior, the default flat
    one or one whose rates do not factor over the groups: only the cut of
    an ordered prior needs the incomplete beta function.  ``analyze`` on
    the bundled strength data needs neither: its Kolmogorov and chi-square
    tails are series and ``math.erfc``."""
    data = Path(jointweibull.__file__).resolve().parent / "data"
    strengths = [str(data / f"fiber_strength_{mm}mm.txt") for mm in (20, 10)]
    pkg_root = str(Path(jointweibull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys\n"
        "import jointweibull.cli\n"
        "loaded = lambda: [m in sys.modules for m in ('scipy.stats', 'scipy.special')]\n"
        "after_import = loaded()\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes.append(jointweibull.cli.main(['fit', {fiber_file!r}]))\n"
        "    after_fit = loaded()\n"
        f"    codes.append(jointweibull.cli.main(['bayes', {fiber_file!r}, '--n-draws', '200']))\n"
        "    after_bayes = loaded()\n"
        f"    codes.append(jointweibull.cli.main(['bayes', {fiber_file!r}, '--n-draws', '200',\n"
        "        '--a0', '3', '--b0', '1', '--a1', '1', '--a2', '1']))\n"
        "    after_coupled = loaded()\n"
        f"    codes.append(jointweibull.cli.main(['analyze', *{strengths!r}, '--shift', '0.75',\n"
        "        '--n-draws', '500', '--n-rep', '300']))\n"
        "print(json.dumps([after_import, codes, after_fit, after_bayes, after_coupled, loaded()]))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert res.returncode == 0, res.stderr
    after_import, exit_codes, after_fit, after_bayes, after_coupled, after_analyze = json.loads(res.stdout)
    assert after_import == [False, False]
    assert exit_codes == [0, 0, 0, 0]
    assert after_fit == [False, False]
    assert after_bayes == [False, False]
    assert after_coupled == [False, False]
    assert after_analyze == [False, False]


@pytest.mark.skipif(
    shutil.which("jointweibull") is None, reason="the jointweibull command is not installed"
)
def test_installed_console_script(fiber_file) -> None:
    _check_console_script(["jointweibull"], fiber_file)
