"""Experiment runners: every table and figure (``full_report``) on the
parallel cached spec runner (``parallel``), plus ablations and adaptation."""

from . import ablations, adaptation, full_report, parallel
from .report import format_table

__all__ = [
    "ablations", "adaptation", "full_report", "parallel",
    "format_table",
]
