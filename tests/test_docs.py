"""Docs stay true: generated files are fresh, every doc is reachable
from README, command examples name real subcommands, and the exit-code
table matches both the constants and the CLI's behavior."""

from __future__ import annotations

import re
from pathlib import Path

from repro import exitcodes
from repro.cli import build_parser, main
from repro.validate import Results, render_experiments_md
from repro.validate.cli_docs import render_cli_md

REPO = Path(__file__).resolve().parents[1]
FIXTURE = REPO / "benchmarks" / "fixtures" / "results-quick.json"

_MD_REF = re.compile(r"[\w./-]+\.md")


def _md_refs(path: Path) -> set[str]:
    """Markdown files referenced from ``path``, normalized repo-relative."""
    refs = set()
    for ref in _MD_REF.findall(path.read_text(encoding="utf-8")):
        candidate = (REPO / ref).resolve()
        if candidate.is_file():
            refs.add(candidate.relative_to(REPO).as_posix())
    return refs


# ------------------------------------------------------------ reachability

def test_every_doc_is_reachable_from_readme():
    frontier = ["README.md"]
    reachable = {"README.md"}
    while frontier:
        current = frontier.pop()
        for ref in _md_refs(REPO / current):
            if ref not in reachable:
                reachable.add(ref)
                frontier.append(ref)
    docs = {p.relative_to(REPO).as_posix() for p in (REPO / "docs").glob("*.md")}
    unreachable = docs - reachable
    assert not unreachable, (
        f"docs not linked (directly or transitively) from README: "
        f"{sorted(unreachable)}")
    assert "EXPERIMENTS.md" in reachable


# ------------------------------------------------------- generated files

def test_cli_md_is_fresh():
    committed = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
    assert committed == render_cli_md(build_parser()), (
        "docs/cli.md is stale — regenerate with `python -m repro docs`")


def test_cli_md_rendering_is_deterministic():
    assert render_cli_md(build_parser()) == render_cli_md(build_parser())


def test_experiments_md_is_fresh():
    committed = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    regenerated = render_experiments_md(Results.load(str(FIXTURE)))
    assert committed == regenerated, (
        "EXPERIMENTS.md is stale — regenerate with `python -m repro "
        "validate --results benchmarks/fixtures/results-quick.json "
        "--update-docs`")


def test_docs_check_cli(tmp_path, capsys):
    fresh = REPO / "docs" / "cli.md"
    assert main(["docs", "--check", "--out", str(fresh)]) == 0
    stale = tmp_path / "cli.md"
    stale.write_text(fresh.read_text(encoding="utf-8") + "drift\n",
                     encoding="utf-8")
    assert main(["docs", "--check", "--out", str(stale)]) == 1
    assert "stale" in capsys.readouterr().err


def test_scheduling_md_policy_table_is_fresh():
    from repro.kernel.policy import update_policy_table
    committed = (REPO / "docs" / "scheduling.md").read_text(encoding="utf-8")
    assert update_policy_table(committed) == committed, (
        "docs/scheduling.md policy table is stale — regenerate with "
        "`python -m repro docs`")


def test_scheduling_md_is_linked_from_readme_and_architecture():
    assert "docs/scheduling.md" in (REPO / "README.md").read_text(
        encoding="utf-8")
    assert "docs/scheduling.md" in (
        REPO / "docs" / "architecture.md").read_text(encoding="utf-8")


# -------------------------------------------------- command-example drift

def test_readme_and_docs_reference_only_real_subcommands():
    parser = build_parser()
    choices = set()
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            choices |= set(action.choices)
    pattern = re.compile(r"python -m repro ([a-z0-9]+)")
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
               REPO / "EXPERIMENTS.md"]
    for path in sources:
        for cmd in pattern.findall(path.read_text(encoding="utf-8")):
            assert cmd in choices, (
                f"{path.name} references unknown subcommand "
                f"`python -m repro {cmd}`")


def _all_option_strings(parser) -> set[str]:
    """Every ``--flag`` reachable in an argparse tree (subparsers too)."""
    opts: set[str] = set()
    stack = [parser]
    seen: set[int] = set()
    while stack:
        p = stack.pop()
        if id(p) in seen:
            continue
        seen.add(id(p))
        for action in p._actions:
            opts.update(o for o in action.option_strings
                        if o.startswith("--"))
            choices = getattr(action, "choices", None)
            if isinstance(choices, dict):
                stack.extend(v for v in choices.values()
                             if hasattr(v, "_actions"))
    return opts


# Flags documented for tools other than ``python -m repro``: pip and
# the perf harness's own script
# (``benchmarks/perf/run.py`` builds its parser inside main()).
_NON_REPRO_FLAGS = {
    "--no-build-isolation",              # pip (README install section)
    "--check-baseline", "--write-baseline", "--tolerance", "--output",
    "--json",                            # benchmarks/perf/run.py
}

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]+")
_SRC_PATH = re.compile(r"src/repro/[A-Za-z0-9_./-]*[A-Za-z0-9_/-]")


def test_every_documented_flag_resolves():
    """Any ``--flag`` a doc mentions must exist in the CLI (or be an
    explicitly allowlisted external tool's flag) — stale flags rot docs."""
    known = _all_option_strings(build_parser()) | _NON_REPRO_FLAGS
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    unknown: dict[str, set[str]] = {}
    for path in sources:
        for flag in _FLAG.findall(path.read_text(encoding="utf-8")):
            if flag not in known:
                unknown.setdefault(flag, set()).add(path.name)
    assert not unknown, f"docs mention unknown flags: {unknown}"


def test_every_documented_src_path_resolves():
    """Any ``src/repro/...`` path a doc mentions must exist on disk."""
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
               REPO / "EXPERIMENTS.md", REPO / "DESIGN.md"]
    missing: dict[str, set[str]] = {}
    for path in sources:
        for ref in _SRC_PATH.findall(path.read_text(encoding="utf-8")):
            if not (REPO / ref).exists():
                missing.setdefault(ref, set()).add(path.name)
    assert not missing, f"docs reference missing paths: {missing}"


def test_documented_dotted_modules_resolve():
    """``repro.foo.bar`` dotted references in the hand-written docs must
    import (generated docs are covered by their own freshness gates)."""
    import importlib

    pattern = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+\b")
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    bad: dict[str, set[str]] = {}
    for path in sources:
        if path.name == "cli.md":
            continue
        for ref in set(pattern.findall(path.read_text(encoding="utf-8"))):
            module, attr = ref, None
            try:
                importlib.import_module(module)
                continue
            except ImportError:
                module, _, attr = ref.rpartition(".")
            try:
                mod = importlib.import_module(module)
            except ImportError:
                bad.setdefault(ref, set()).add(path.name)
                continue
            if not hasattr(mod, attr):
                bad.setdefault(ref, set()).add(path.name)
    assert not bad, f"docs reference unimportable repro modules: {bad}"


# ----------------------------------------------------------- exit codes

def test_exit_table_matches_constants():
    codes = [code for code, _, _ in exitcodes.EXIT_TABLE]
    assert codes == sorted(codes)
    assert set(codes) == {
        exitcodes.EXIT_OK, exitcodes.EXIT_FAILURE, exitcodes.EXIT_USAGE,
        exitcodes.EXIT_CHAOS_VIOLATION, exitcodes.EXIT_FIDELITY_VIOLATION,
    }
    assert exitcodes.EXIT_OK == 0
    assert exitcodes.EXIT_FAILURE == 1
    assert exitcodes.EXIT_USAGE == exitcodes.EXIT_PARTIAL == 2
    assert exitcodes.EXIT_CHAOS_VIOLATION == 3
    assert exitcodes.EXIT_FIDELITY_VIOLATION == 4


def test_exit_table_is_rendered_into_cli_md():
    text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
    for code, meaning, source in exitcodes.EXIT_TABLE:
        assert meaning in text
        assert source in text


def test_chaos_exit_codes_documented_consistently():
    """README and docs/robustness.md tell the same exit-code story as
    the constants (satellite of ISSUE 5: the two used to drift)."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    robust = (REPO / "docs" / "robustness.md").read_text(encoding="utf-8")
    assert "exit 3 on violation" in readme
    assert "exit 0 iff it reproduces, 1 otherwise" in readme
    assert f"{exitcodes.EXIT_CHAOS_VIOLATION}\n(`EXIT_CHAOS_VIOLATION`)" \
        in robust or "EXIT_CHAOS_VIOLATION" in robust
    assert "EXIT_FAILURE" in robust
    # and the behavioral codes they describe exist
    assert exitcodes.EXIT_CHAOS_VIOLATION == 3
    assert exitcodes.EXIT_FAILURE == 1
