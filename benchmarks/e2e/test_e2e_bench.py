"""Tests for the end-to-end benchmark, on slices of a few small specs.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import compare
import e2e_bench
import e2e_clock
import e2e_trace

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def _env():
    """``main`` pins the simulator's environment; undo it afterwards."""
    saved = dict(os.environ)
    e2e_bench.prepare_env()
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(e2e_bench.BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def _main(capsys, *argv: str) -> tuple[int, dict]:
    status, lines = _main_lines(capsys, *argv)
    return status, lines[-1]


def _main_lines(capsys, *argv: str) -> tuple[int, list[dict]]:
    """One pass over the smoke slice, unless ``argv`` says otherwise."""
    status = e2e_bench.main(["--workload", "smoke", "--seed", "2021",
                             "--seconds", "0", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return status, [json.loads(line) for line in lines]


def _attributes() -> list[dict]:
    """Every attribute of the objects the tracer and counters wrap."""
    from repro.kernel.kernel import Kernel
    from repro.runners import parallel
    from repro.sim.engine import Engine

    return [dict(vars(owner)) for owner in (Engine, Kernel, parallel)]


def _same(a: list[dict], b: list[dict]) -> bool:
    return all(x.keys() == y.keys() and all(x[k] is y[k] for k in x)
               for x, y in zip(a, b))


def test_tracer_keeps_results_and_restores_attributes():
    # The fig02 slice plus one serving spec, whose programs consume the
    # values the kernel sends them.
    specs = e2e_bench.select_specs(
        ("fig02", "serve"), r"fig02/1T/|serve/colo/container/vanilla$", {},
        2021)
    assert len(specs) == 3
    untraced, _, _ = e2e_bench.run_pass(specs)
    before = _attributes()

    tracer = e2e_trace.LayerTracer()
    with tracer.installed():
        assert not _same(_attributes(), before)
        traced, _, failures = e2e_bench.run_pass(specs)
    assert _same(_attributes(), before)
    with e2e_trace.CycleCounters().installed():
        assert not _same(_attributes(), before)
    assert _same(_attributes(), before)

    assert not failures
    assert ([e2e_bench.canonical(r) for r in traced]
            == [e2e_bench.canonical(r) for r in untraced])
    assert tracer.calls("runner.spec") == 3
    assert tracer.calls("kernel.dispatch") > 0
    assert tracer.calls("kernel.epoll_post") > 0
    assert 0 < tracer.events <= tracer.scheduled
    assert {s[0] for s in tracer.spans} == {s.id for s in specs}


def test_host_clock_scales_by_measured_speed():
    ref = e2e_clock.REFERENCE_NS
    clock = e2e_clock.HostClock()
    clock.t0, clock.t1 = 0, 10_000_000
    before = [(-1_000_000 * (5 - i), 2 * ref) for i in range(5)]
    during = [(2_000_000 * k, 2 * ref) for k in range(1, 5)]
    late = [(clock.t1 + 1, ref)]  # handled after the block ended
    clock.samples = before + during + late
    # A host at half the reference speed: the block's work, less the
    # samples' own time, counts half.
    work = clock.t1 - clock.t0 - 4 * 2 * ref
    assert clock.wall_s == pytest.approx(work / 2 / 1e9)
    clock.samples = [(at, ref) for at, _ in before + during]
    assert clock.wall_s == pytest.approx((clock.t1 - 4 * ref) / 1e9)


def test_host_clock_samples_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGPROF)
    with e2e_clock.HostClock() as clock:
        start = time.process_time()
        while time.process_time() - start < 0.3:
            e2e_clock.calibration_loop()
    assert len(clock.samples) > e2e_clock.WINDOW
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert 0.5 < clock.wall_s / clock.raw_s < 2.0


def test_raw_spans_are_capped_and_spread():
    tracer = e2e_trace.LayerTracer(max_spans=8)
    for _ in range(100):
        tracer.call("x", lambda: None)
    assert len(tracer.spans) < 8
    assert tracer.calls("x") == 100
    starts = [s[3] for s in tracer.spans]
    assert starts == sorted(starts)


def test_run_is_correct_and_emits_the_end_to_end_metrics(capsys, bench):
    status, lines = _main_lines(capsys, "--setup-runs", "1")
    raw, out = lines
    assert status == 0
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 2 + len(e2e_bench.select_specs(
        *e2e_bench.CANARY, 2021))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())
    # The unscaled host times precede the result line.
    assert set(raw["raw"]) == {"wall_s", "setup_s"}
    assert all(v > 0 for v in raw["raw"].values())


def test_passes_repeat_for_the_given_seconds(capsys, tmp_path):
    saved = tmp_path / "results.json"
    status, out = _main(capsys, "--setup-runs", "0", "--seconds", "1",
                        "--save-results", str(saved))
    assert status == 0 and out["correct"] is True
    passes = json.loads(saved.read_text())["passes"]
    assert passes > 1
    assert out["attempted"] == 2 * passes + 12


def test_a_pass_that_differs_from_the_first_fails(monkeypatch):
    specs = e2e_bench.select_specs(*e2e_bench.SMOKE["smoke"], 2021)
    run_pass = e2e_bench.run_pass
    calls = []

    def drifting(specs):
        results, clock, failures = run_pass(specs)
        calls.append(1)
        if len(calls) == 3:
            results[1] = {**results[1], "duration_ns": -1}
        return results, clock, failures

    monkeypatch.setattr(e2e_bench, "run_pass", drifting)
    clocks, first, bad = e2e_bench.timed_passes(specs, None, 0.5)
    assert len(clocks) >= 3
    assert bad == [specs[1].id]
    assert first[1]["duration_ns"] > 0


def test_overrides_apply_only_to_parameters_a_spec_has():
    specs = e2e_bench.select_specs(
        ("fig13", "table2"), r"fig13/kvm/ticket/8T|table2/ticket",
        {"total_stages": 120, "duration_ms": 100.0}, 2021)
    assert [s.id for s in specs] == ["fig13/kvm/ticket/8T(vanilla)",
                                     "table2/ticket"]
    fig13, table2 = (s.params for s in specs)
    assert fig13["total_stages"] == 120 and "duration_ms" not in fig13
    assert table2["duration_ms"] == 100.0 and "total_stages" not in table2


def test_perturbed_reference_fails(capsys, tmp_path):
    saved = tmp_path / "ref.json"
    status, _ = _main(capsys, "--setup-runs", "0",
                      "--save-results", str(saved))
    assert status == 0
    artifact = json.loads(saved.read_text())
    artifact["results"][0]["result"]["duration_ns"] += 1
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(artifact))

    status, out = _main(capsys, "--setup-runs", "0",
                        "--reference", str(perturbed))
    assert status != 0
    assert out["correct"] is False
    assert out["failed"] / out["attempted"] > 0


def test_every_run_checks_the_canary_against_the_fixture(
        capsys, tmp_path, monkeypatch):
    canary = e2e_bench.select_specs(*e2e_bench.CANARY, 2021)
    assert len(canary) == 12
    status, out = _main(capsys, "--setup-runs", "0", "--seed", "7")
    assert status == 0 and out["correct"] is True
    assert out["attempted"] == 2 + len(canary)

    fixture = json.loads(e2e_bench.FIXTURE.read_text())
    entry = next(e for e in fixture["results"] if e["id"] == canary[-1].id)
    entry["result"] = {"perturbed": True}
    perturbed = tmp_path / "fixture.json"
    perturbed.write_text(json.dumps(fixture))
    monkeypatch.setattr(e2e_bench, "FIXTURE", perturbed)
    status, out = _main(capsys, "--setup-runs", "0", "--seed", "7")
    assert status != 0
    assert out["correct"] is False and out["failed"] == 1


def test_traced_run_emits_every_layer_metric(capsys, bench):
    status, out = _main(capsys, "--trace", "1")
    assert status == 0 and out["correct"] is True
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert out["metrics"]["fastpath.digest_match"]["value"] == 1.0
    assert out["metrics"]["runners.specs"]["value"] == 2


def test_declaration_matches_benchmark(bench):
    assert [w["name"] for w in bench["workloads"]] == list(e2e_bench.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert "setup_s" in names


def test_fails_without_the_simulator(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(e2e_bench.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(e2e_bench.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "memcached",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------
LOWER = "lower"


def test_verdict_win():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    head = [v * 0.9 for v in base]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "win"


def test_verdict_regression():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    head = [v * 1.1 for v in base]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "regression"
    # Within the bound is not a regression.
    head = [v * 1.02 for v in base]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "ok"


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [10.0] * 10
    noise = [0.9, 1.1, 0.95, 1.05, 1.0, 0.92, 1.08, 0.97, 1.03, 1.0]
    head = [b * 1.08 * n for b, n in zip(base, noise)]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    head = [b * 0.5 * n for b, n in zip(base, noise)]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "win"


def test_verdict_leaves_the_seed_effect_out():
    # Peak RSS that depends on the seed, the same on both sides.
    base = [65.5, 70.6, 66.9, 68.2, 63.9, 57.5, 67.9, 71.3, 69.0, 49.3]
    head = [v * 1.001 for v in base]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "ok"
    head = [v * 1.08 for v in base]
    assert compare.verdict(base, head, LOWER, 0.05)[0] == "regression"


def test_verdict_needs_nine_in_ten_pair_wins():
    base = [10.0] * 10
    head = [9.0] * 8 + [10.5, 10.5]
    assert compare.verdict(base, head, LOWER, 0.25)[0] == "ok"


def test_compare_cli_exit_status(tmp_path, bench, capsys):
    def run_set(path, scale, seeds=range(10), raw_scale=1.0):
        with open(path, "w", encoding="utf-8") as f:
            for i in seeds:
                # A strong seed effect, which pairing by seed cancels.
                value = (1.0 + 0.1 * i) * scale
                metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                           for m in bench["end_to_end"]}
                f.write(json.dumps({
                    "workload": "memcached", "seed": i, "trace": 0,
                    "backend": "pure",
                    "result": {"correct": True, "attempted": 3, "failed": 0,
                               "metrics": metrics},
                    "raw": {"wall_s": value * raw_scale},
                }) + "\n")
        return str(path)

    base = run_set(tmp_path / "base.jsonl", 1.0)
    same = run_set(tmp_path / "same.jsonl", 1.0, seeds=range(9, -1, -1))
    faster = run_set(tmp_path / "faster.jsonl", 0.8)
    slower = run_set(tmp_path / "slower.jsonl", 1.5)
    assert compare.main([base, same]) == 0
    assert "unresolved" not in capsys.readouterr().out
    assert compare.main([base, faster]) == 0
    assert compare.main([base, slower]) == 1
    capsys.readouterr()
    # Raw host time that moves while the scaled time does not is marked.
    hidden = run_set(tmp_path / "hidden.jsonl", 1.0, raw_scale=1.5)
    assert compare.main([base, hidden]) == 0
    assert "differs from scaled" in capsys.readouterr().out
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"sets": {
        "a": compare.load_set(base), "b": compare.load_set(faster)}}))
    assert compare.main([f"{baseline}:a", f"{baseline}:b"]) == 0
