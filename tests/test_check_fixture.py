"""``benchmarks/check_fixture.py``: the results check every full-report
run ends with.  An artifact equal to the committed fixture passes; one
that differs fails and names, for each differing spec, the fields that
differ, so that a change to the params alone reads as such."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_fixture.py"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("check_fixture", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fixture_results(check):
    return check.load_results(check.FIXTURE)[0]


def _artifact(tmp_path: Path, results: list) -> str:
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"cache": {}, "results": results}),
                    encoding="utf-8")
    return str(path)


def test_equal_artifact_exits_zero(check, fixture_results, tmp_path, capsys):
    path = _artifact(tmp_path, fixture_results)
    assert check.main([path]) == 0
    out, err = capsys.readouterr()
    assert "equals the fixture" in out and not err


def test_params_only_difference_is_named(check, fixture_results, tmp_path,
                                         capsys):
    results = copy.deepcopy(fixture_results)
    first = results[0]
    first["params"]["extra"] = 1
    assert check.main([_artifact(tmp_path, results)]) == 1
    err = capsys.readouterr().err
    assert f"  {first['id']}: params\n" in err
    assert "1 differing specs" in err and "by field: params 1" in err


def test_result_difference_is_named(check, fixture_results, tmp_path, capsys):
    results = copy.deepcopy(fixture_results)
    last = results[-1]
    last["result"] = {"perturbed": True}
    assert check.main([_artifact(tmp_path, results)]) == 1
    err = capsys.readouterr().err
    assert f"  {last['id']}: result\n" in err
    assert "by field: result 1" in err


def test_missing_and_mixed_differences_are_named(check, fixture_results,
                                                tmp_path, capsys):
    results = copy.deepcopy(fixture_results)
    dropped = results.pop(1)
    mixed = results[2]
    mixed["seed"] += 1
    mixed["result"] = None
    assert check.main([_artifact(tmp_path, results)]) == 1
    err = capsys.readouterr().err
    assert f"  {dropped['id']}: missing in artifact\n" in err
    assert f"  {mixed['id']}: result,seed\n" in err


def test_reordered_entries_are_named_as_such(check, fixture_results, tmp_path,
                                             capsys):
    results = copy.deepcopy(fixture_results)
    results[0], results[1] = results[1], results[0]
    assert check.main([_artifact(tmp_path, results)]) == 1
    err = capsys.readouterr().err
    assert "0 differing specs" in err and "in another order" in err
