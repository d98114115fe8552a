"""CLI: argument parsing and end-to-end command runs (scaled down)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / \
    "results-quick.json"


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list(capsys):
    out = run_cli(capsys, "list")
    assert "streamcluster" in out
    assert "suffer-blocking" in out
    assert out.count("\n") >= 33  # 32 benchmarks + header


def test_suite_vanilla_and_optimized(capsys):
    out = run_cli(
        capsys, "suite", "is", "--threads", "16", "--cores", "4",
        "--scale", "0.2",
    )
    assert "is: 16 threads on 4 cores (vanilla kernel)" in out
    assert "execution time" in out
    out = run_cli(
        capsys, "suite", "is", "--threads", "16", "--cores", "4",
        "--scale", "0.2", "--optimized",
    )
    assert "(optimized kernel)" in out


def test_suite_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["suite", "doom3"])


def _section_results_match_fixture(capsys, tmp_path, key: str,
                                   *argv: str) -> str:
    """``repro <key> --quick`` writes exactly the fixture's entries for
    that section: the per-section commands and ``repro all`` share specs."""
    path = tmp_path / f"results-{key}.json"
    out = run_cli(capsys, key, "--quick", "--no-cache", "--jobs", "1",
                  "--results", str(path), *argv)
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))["results"]
    want = [e for e in fixture if e["id"].startswith(f"{key}/")]
    got = json.loads(path.read_text(encoding="utf-8"))["results"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return out


def test_fig04(capsys, tmp_path):
    out = _section_results_match_fixture(capsys, tmp_path, "fig04")
    assert "rnd-r" in out and "128MB" in out


def test_fig02(capsys, tmp_path):
    out = _section_results_match_fixture(capsys, tmp_path, "fig02")
    assert "per-switch cost" in out
    # The deprecated backend selector warns once and moves no result.
    with pytest.warns(FutureWarning, match="no effect") as record:
        _section_results_match_fixture(capsys, tmp_path, "fig02",
                                       "--backend", "fast")
    assert [w.category for w in record].count(FutureWarning) == 1


def test_unknown_backend_env_is_a_usage_error(monkeypatch, capsys):
    from repro.fastpath import set_backend
    from repro.fastpath.build import load_fastcore

    assert load_fastcore() is None
    with pytest.raises(ValueError):
        set_backend("warp")
    monkeypatch.setenv("REPRO_BACKEND", "warp")
    with pytest.raises(SystemExit) as exc:
        main(["fig02", "--quick", "--no-cache", "--results", "none"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_unknown_policy_env_is_a_usage_error(monkeypatch, capsys):
    import repro
    import repro.kernel.policy as policy_mod

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_POLICY": "warp",
           "PYTHONPATH": os.pathsep.join(
               [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", "import repro"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("REPRO_POLICY", "warp")
    monkeypatch.setattr(policy_mod, "_policy", None)
    assert main(["fig02", "--quick", "--no-cache", "--results", "none"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "REPRO_POLICY='warp'" in err
    assert main(["list"]) == 0  # builds no kernel: the variable is unread
    assert "scheduling policies" in capsys.readouterr().out


def test_fig01_subset_scaled(capsys):
    out = run_cli(capsys, "fig01", "--scale", "0.15", "--no-cache",
                  "--jobs", "1", "--results", "none")
    assert "Figure 1" in out
    assert "lu" in out


def test_table1_alias_exists():
    args = build_parser().parse_args(["table1", "--scale", "0.1"])
    assert args.sections == ["fig09"]


@pytest.mark.parametrize("argv", [
    ["fig09", "--smt"],
    ["fig12", "--duration-ms", "300"],
    ["table2", "--duration-ms", "300"],
    ["fig02", "--backend", "warp"],
])
def test_removed_figure_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
