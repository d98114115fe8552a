"""Fidelity validation: machine-checked paper-vs-measured specs.

EXPERIMENTS.md used to hand-transcribe every figure/table of the paper
against measured numbers, with nothing enforcing the transcription: a
perf or model change could silently halve ``lu``'s collapse and tier-1
would still pass (``tests/test_determinism.py`` pins bit-identity with
the committed fixture, not paper fidelity).

This package turns the paper's claims into executable specs:

* :mod:`~repro.validate.specs` — one :class:`FidelitySpec` per published
  claim (a value with a tolerance band, or a direction/crossover
  assertion), grouped into the paper's figures and tables, plus the
  catalog of *known deviations*.
* :mod:`~repro.validate.compare` — evaluates specs against a
  ``results.json`` artifact and classifies each as MATCH / DEVIATION
  (known, catalogued) / VIOLATION, with structured JSON output.
* :mod:`~repro.validate.report` — regenerates ``EXPERIMENTS.md``
  deterministically from the registry plus a results artifact, making
  the document a build product with a single source of truth.
* :mod:`~repro.validate.cli_docs` — renders ``docs/cli.md`` from the
  live argparse tree, so the CLI reference cannot drift from the code.

``python -m repro validate`` is the entry point; ``docs/validation.md``
explains the tolerance philosophy and how to add a spec.
"""

from .compare import SpecOutcome, Status, ValidationReport, evaluate
from .report import render_experiments_md
from .specs import (
    DEVIATIONS,
    SECTION_DOCS,
    SPECS,
    FidelitySpec,
    MissingResult,
    Results,
)

__all__ = [
    "DEVIATIONS",
    "SECTION_DOCS",
    "SPECS",
    "FidelitySpec",
    "MissingResult",
    "Results",
    "SpecOutcome",
    "Status",
    "ValidationReport",
    "evaluate",
    "render_experiments_md",
]
