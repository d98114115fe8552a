"""OpenMetrics text and JSONL time-series exporters.

``to_openmetrics`` renders a registry snapshot in the strict OpenMetrics
text format (``# TYPE``/``# HELP`` metadata, ``_total``-suffixed counter
samples, histogram ``_bucket``/``_count``/``_sum`` series with a
``+Inf`` bound, single trailing ``# EOF``) — the format the CI
fidelity job validates line by line.  ``write_series_jsonl``
writes one JSON object per row with sorted keys, so identical series
are byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Sequence


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(v: Any) -> str:
    if isinstance(v, bool):  # bools are ints; be explicit
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if f == float("inf"):
        return "+Inf"
    return repr(f)


def _label_str(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [(k, str(v)) for k, v in labels.items()]
    items.extend(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def to_openmetrics(snapshot: Sequence[dict[str, Any]]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as OpenMetrics text."""
    lines: list[str] = []
    for fam in snapshot:
        name, kind = fam["name"], fam["type"]
        lines.append(f"# TYPE {name} {kind}")
        if fam.get("help"):
            lines.append(f"# HELP {name} {_escape_help(fam['help'])}")
        for sample in fam["samples"]:
            labels = sample.get("labels", {})
            if kind == "counter":
                lines.append(
                    f"{name}_total{_label_str(labels)} "
                    f"{_fmt_value(sample['value'])}"
                )
            elif kind == "histogram":
                cum = 0
                for le, cum in sample["buckets"]:
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_str(labels, (('le', _fmt_value(le)),))} "
                        f"{cum}"
                    )
                lines.append(
                    f"{name}_bucket"
                    f"{_label_str(labels, (('le', '+Inf'),))} "
                    f"{sample['count']}"
                )
                lines.append(
                    f"{name}_count{_label_str(labels)} {sample['count']}")
                lines.append(
                    f"{name}_sum{_label_str(labels)} "
                    f"{_fmt_value(sample['sum'])}"
                )
            else:  # gauge / untyped
                lines.append(
                    f"{name}{_label_str(labels)} "
                    f"{_fmt_value(sample['value'])}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str, snapshot: Sequence[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_openmetrics(snapshot))


def write_series_jsonl(
    path: str,
    rows: Sequence[dict[str, Any]],
    meta: dict[str, Any] | None = None,
) -> int:
    """One sorted-key JSON object per line; optional leading meta row."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"type": "meta", **meta}, sort_keys=True,
                                separators=(",", ":")) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")
            n += 1
    return n


def validate_openmetrics(text: str) -> list[str]:
    """Strict line-format check; returns problems (empty = valid).

    Covers what the CI smoke job needs: every line is metadata, a
    sample, or the final ``# EOF``; counters end in ``_total``; the
    exposition ends with exactly one ``# EOF`` line.
    """
    import re

    sample_re = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"           # metric name
        r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
        r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
        r" (?:[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf|NaN))$"
    )
    meta_re = re.compile(
        r"^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
        r"(counter|gauge|histogram|summary|info|stateset|unknown)"
        r"|HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|UNIT .*)$"
    )
    problems: list[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing trailing # EOF")
    counter_names: set[str] = set()
    for i, line in enumerate(lines, start=1):
        if line == "# EOF":
            if i != len(lines):
                problems.append(f"line {i}: # EOF before end of exposition")
            continue
        if line.startswith("#"):
            if not meta_re.match(line):
                problems.append(f"line {i}: bad metadata line {line!r}")
            elif line.startswith("# TYPE") and line.endswith("counter"):
                counter_names.add(line.split()[2])
            continue
        if not sample_re.match(line):
            problems.append(f"line {i}: bad sample line {line!r}")
            continue
        bare = line.split("{", 1)[0].split(" ", 1)[0]
        for cname in counter_names:
            if bare == cname:
                problems.append(
                    f"line {i}: counter sample {bare!r} lacks a "
                    "_total/_created suffix")
    return problems
