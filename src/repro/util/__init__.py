"""Internal utilities: the runqueue's ordered map."""

from .sortedmap import SortedMap

__all__ = ["SortedMap"]
