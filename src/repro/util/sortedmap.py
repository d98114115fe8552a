"""An ordered map kept as two parallel sorted lists.

The CFS runqueue (`repro.kernel.runqueue`) stores queued tasks keyed by
``(vruntime, enqueue_seq)``, the order of the real kernel's
``cfs_rq->tasks_timeline``.  Virtual blocking relies on tail insertion
via a sentinel key, so ordered iteration and leftmost lookup must be
exact — hence an ordered map rather than a lazy heap.

Keys live in one list kept sorted with :mod:`bisect`, values at the same
index in another.  A runqueue holds a few dozen tasks at most, where one
C-level ``list.insert`` or ``del`` over the slots costs less than the
rebalancing of a balanced tree in Python.  Keys must be mutually
comparable and unique (the runqueue guarantees uniqueness through the
enqueue sequence number).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator


class SortedMap:
    """Ordered key -> value map: O(log n) search, O(n) memmove on
    insert/delete, O(1) min."""

    __slots__ = ("_keys", "_values", "size")

    def __init__(self) -> None:
        self._keys: list = []
        self._values: list = []
        self.size = 0  # public: hot callers read it directly (no __len__ call)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __contains__(self, key) -> bool:
        keys = self._keys
        i = bisect_left(keys, key)
        return i < self.size and keys[i] == key

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key, default=None):
        keys = self._keys
        i = bisect_left(keys, key)
        if i < self.size and keys[i] == key:
            return self._values[i]
        return default

    def min_item(self) -> tuple[Any, Any]:
        """``(key, value)`` of the smallest key."""
        if not self.size:
            raise KeyError("min_item() on empty map")
        return self._keys[0], self._values[0]

    def min_value(self):
        """Value of the smallest key."""
        if not self.size:
            raise KeyError("min_value() on empty map")
        return self._values[0]

    def max_item(self) -> tuple[Any, Any]:
        if not self.size:
            raise KeyError("max_item() on empty map")
        return self._keys[-1], self._values[-1]

    def max_item_below(self, bound) -> tuple[Any, Any] | None:
        """``(key, value)`` of the greatest key strictly below ``bound``,
        or None if there is none: one binary search."""
        i = bisect_left(self._keys, bound)
        if i == 0:
            return None
        return self._keys[i - 1], self._values[i - 1]

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Ascending-key iteration."""
        return zip(self._keys, self._values)

    def keys(self) -> Iterator[Any]:
        return iter(self._keys)

    def values(self) -> Iterator[Any]:
        return iter(self._values)

    # ------------------------------------------------------------------
    # Insert / delete
    # ------------------------------------------------------------------
    def insert(self, key, value) -> None:
        keys = self._keys
        i = bisect_left(keys, key)
        if i < self.size and keys[i] == key:
            raise KeyError(f"duplicate key {key!r}")
        keys.insert(i, key)
        self._values.insert(i, value)
        self.size += 1

    def remove(self, key) -> Any:
        keys = self._keys
        i = bisect_left(keys, key)
        if i == self.size or keys[i] != key:
            raise KeyError(key)
        del keys[i]
        self.size -= 1
        return self._values.pop(i)

    def pop_min(self) -> tuple[Any, Any]:
        """Remove and return the smallest ``(key, value)``."""
        if not self.size:
            raise KeyError("pop_min() on empty map")
        self.size -= 1
        return self._keys.pop(0), self._values.pop(0)

    # ------------------------------------------------------------------
    # Structural validation (used by tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise AssertionError if the lists are out of order or out of
        step with ``size``."""
        keys = self._keys
        assert len(keys) == len(self._values) == self.size, "size mismatch"
        for a, b in zip(keys, keys[1:]):
            assert a < b, "keys not strictly ascending"
