#!/usr/bin/env python3
"""Check report artifacts against the committed quick-report fixture.

    python benchmarks/check_fixture.py results.json [more.json ...]

Each artifact's ``results`` array must equal
``benchmarks/fixtures/results-quick.json``'s, compared as the SHA-256 of
its canonical JSON.  Exits 1 if any differs, naming each differing spec
id with the fields that differ (``result``, ``params``, ``runner``,
``seed``, ...) or the side it is missing on, so that a change to the
params alone reads as such.  Only a quick report at the default seed
can match.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import sys

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "results-quick.json")

#: Differing specs listed one per line; the tally covers all of them.
SHOWN = 20


def load_results(path: str) -> tuple[list, str]:
    """An artifact's results array and the SHA-256 of its canonical JSON."""
    with open(path, encoding="utf-8") as f:
        results = json.load(f)["results"]
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return results, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def differences(results: list, fixture: list) -> dict[str, str]:
    """Spec id -> what differs from the fixture's entry: the fields that
    differ, comma-separated, or the side the spec is missing on."""
    want = {e["id"]: e for e in fixture}
    got = {e["id"]: e for e in results}
    out = {}
    for spec_id, entry in got.items():
        other = want.get(spec_id)
        if other is None:
            out[spec_id] = "missing in fixture"
            continue
        fields = sorted(k for k in entry.keys() | other.keys()
                        if k != "id" and entry.get(k) != other.get(k))
        if fields:
            out[spec_id] = ",".join(fields)
    for spec_id in want:
        if spec_id not in got:
            out[spec_id] = "missing in artifact"
    return out


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fixture, want = load_results(FIXTURE)
    failed = 0
    for path in paths:
        results, got = load_results(path)
        if got == want:
            print(f"{path}: results array equals the fixture ({got})")
            continue
        failed += 1
        differ = differences(results, fixture)
        print(f"{path}: results {got} != fixture {want}; "
              f"{len(results)} vs {len(fixture)} entries; "
              f"{len(differ)} differing specs", file=sys.stderr)
        for spec_id, what in list(differ.items())[:SHOWN]:
            print(f"  {spec_id}: {what}", file=sys.stderr)
        if len(differ) > SHOWN:
            print(f"  ... {len(differ) - SHOWN} more", file=sys.stderr)
        tally = collections.Counter(differ.values())
        if tally:
            print("  by field: " + "; ".join(
                f"{what} {n}" for what, n in sorted(tally.items())),
                file=sys.stderr)
        else:
            print("  every entry equals the fixture's, in another order",
                  file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
