"""Golden-digest regression tests for the optimized simulator core.

The digests below are SHA-256 over the canonical JSON of the ``results``
entries (id + result, in spec order) for quick-mode report sections, as
produced by the *pre-optimization* simulator core.  They pin down two
guarantees at once:

* the hot-path containers (the event heap, the sorted-map runqueue,
  dispatch tables) are **bit-identical** to the original implementation
  for a fixed seed, and
* results are byte-identical across ``--jobs`` values — serial inline
  execution and the process pool must produce the same artifact.

If an intentional semantic change to the simulator moves these digests,
regenerate them with a ``--jobs 1`` quick run of the affected sections
and update the constants (and say so in the commit message).
"""

from __future__ import annotations

import hashlib
import json

from repro.runners.full_report import ReportParams, build_all_specs
from repro.runners.parallel import ParallelRunner

GOLDEN_DIGESTS = {
    "fig02": "e08139ace45b767dc0551f34c884a873601a8a4d7c0bcd0a3e02062949e4e1e5",
    "fig09_subset":
        "e27b45a094d58cb387f3bddcb67e6e07e11c7ae83efd053ef6d9ec44ff375876",
}

QUICK_PARAMS = ReportParams(scale=0.3, quick=True, seed=2021)


def _specs(prefixes: tuple[str, ...]):
    out = []
    for _section, specs in build_all_specs(QUICK_PARAMS):
        out.extend(s for s in specs if s.id.startswith(prefixes))
    return out


def _digest(specs, results) -> str:
    blob = json.dumps(
        [{"id": s.id, "result": r} for s, r in zip(specs, results)],
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run(specs, jobs: int):
    return ParallelRunner(jobs=jobs, use_cache=False).run(specs)


def test_fig02_quick_digest_and_jobs_equivalence():
    specs = _specs(("fig02/",))
    assert len(specs) == 17
    serial = _run(specs, jobs=1)
    parallel = _run(specs, jobs=4)
    assert serial == parallel
    assert _digest(specs, serial) == GOLDEN_DIGESTS["fig02"]


def test_fig09_subset_quick_digest_and_jobs_equivalence():
    specs = _specs(("fig09/streamcluster/", "fig09/is/"))
    assert len(specs) == 6
    serial = _run(specs, jobs=1)
    parallel = _run(specs, jobs=4)
    assert serial == parallel
    assert _digest(specs, serial) == GOLDEN_DIGESTS["fig09_subset"]


def test_fig09_subset_digest_unchanged_with_telemetry(tmp_path):
    """Schedstats + --metrics-dir must not perturb results: the golden
    digest holds with telemetry artifacts being written per spec."""
    specs = _specs(("fig09/streamcluster/", "fig09/is/"))
    results = ParallelRunner(
        jobs=2, use_cache=False, metrics_dir=tmp_path,
    ).run(specs)
    assert _digest(specs, results) == GOLDEN_DIGESTS["fig09_subset"]
    # One artifact triple per spec landed next to the results.
    assert len(list(tmp_path.glob("*.om"))) == len(specs)
