#!/usr/bin/env python3
"""Check report artifacts against the committed quick-report fixture.

    python benchmarks/check_fixture.py results.json [more.json ...]

Each artifact's ``results`` array must equal
``benchmarks/fixtures/results-quick.json``'s, compared as the SHA-256 of
its canonical JSON.  Exits 1 if any differs, naming the differing spec
ids.  Only a quick report at the default seed can match.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "results-quick.json")


def load_results(path: str) -> tuple[list, str]:
    """An artifact's results array and the SHA-256 of its canonical JSON."""
    with open(path, encoding="utf-8") as f:
        results = json.load(f)["results"]
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return results, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fixture, want = load_results(FIXTURE)
    by_id = {e["id"]: e for e in fixture}
    failed = 0
    for path in paths:
        results, got = load_results(path)
        if got == want:
            print(f"{path}: results array equals the fixture ({got})")
            continue
        failed += 1
        differ = [e["id"] for e in results if by_id.get(e["id"]) != e]
        print(f"{path}: results {got} != fixture {want}; "
              f"{len(results)} vs {len(fixture)} entries; "
              f"differing specs: {differ[:20]}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
