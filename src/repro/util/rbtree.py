"""A classic red-black tree.

The CFS runqueue (`repro.kernel.runqueue`) stores runnable tasks in a
red-black tree keyed by ``(vruntime, enqueue_seq)``, mirroring the real
kernel's ``cfs_rq->tasks_timeline``.  Virtual blocking relies on tail
insertion via a sentinel key, so ordered iteration and leftmost lookup must
be exact — hence a real tree rather than a lazy heap.

Supports insert, delete, min, max-below, iteration, and membership; keys
must be mutually comparable and unique (the runqueue guarantees uniqueness
through the enqueue sequence number).
"""

from __future__ import annotations

from typing import Any, Iterator

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "color")

    def __init__(self, key, value, color=RED):
        self.key = key
        self.value = value
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent: _Node | None = None
        self.color = color


class RedBlackTree:
    """Ordered key -> value map with O(log n) insert/delete/min.

    The leftmost node is cached (Linux's ``rb_leftmost``) so ``min_item``
    and ``pop_min`` locate the minimum in O(1); the cache is maintained
    incrementally on insert and delete.
    """

    __slots__ = ("_root", "size", "_lm")

    def __init__(self) -> None:
        self._root: _Node | None = None
        self.size = 0  # public: hot callers read it directly (no __len__ call)
        self._lm: _Node | None = None  # cached leftmost node

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __contains__(self, key) -> bool:
        return self._find(key) is not None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find(self, key) -> _Node | None:
        node = self._root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def get(self, key, default=None):
        node = self._find(key)
        return default if node is None else node.value

    def min_item(self) -> tuple[Any, Any]:
        """Return ``(key, value)`` of the leftmost node (O(1), cached)."""
        node = self._lm
        if node is None:
            raise KeyError("min_item() on empty tree")
        return node.key, node.value

    def min_value(self):
        """Value of the leftmost node (O(1), cached)."""
        node = self._lm
        if node is None:
            raise KeyError("min_value() on empty tree")
        return node.value

    def max_item(self) -> tuple[Any, Any]:
        if self._root is None:
            raise KeyError("max_item() on empty tree")
        node = self._root
        while node.right is not None:
            node = node.right
        return node.key, node.value

    def max_item_below(self, bound) -> tuple[Any, Any] | None:
        """``(key, value)`` of the greatest key strictly below ``bound``,
        or None if there is none: one O(log n) descent."""
        best = None
        node = self._root
        while node is not None:
            if node.key < bound:
                best = node
                node = node.right
            else:
                node = node.left
        return None if best is None else (best.key, best.value)

    @staticmethod
    def _leftmost(node: _Node) -> _Node:
        while node.left is not None:
            node = node.left
        return node

    def items(self) -> Iterator[tuple[Any, Any]]:
        """In-order (ascending key) iteration."""
        stack: list[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[Any]:
        for _, v in self.items():
            yield v

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key, value) -> None:
        parent = None
        node = self._root
        while node is not None:
            parent = node
            if key == node.key:
                raise KeyError(f"duplicate key {key!r}")
            node = node.left if key < node.key else node.right

        new = _Node(key, value)
        new.parent = parent
        if parent is None:
            self._root = new
        elif key < parent.key:
            parent.left = new
        else:
            parent.right = new
        lm = self._lm
        if lm is None or key < lm.key:
            self._lm = new
        self.size += 1
        self._insert_fixup(new)

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent is not None and z.parent.color is RED:
            gp = z.parent.parent
            assert gp is not None  # red parent implies a grandparent
            if z.parent is gp.left:
                uncle = gp.right
                if uncle is not None and uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_right(gp)
            else:
                uncle = gp.left
                if uncle is not None and uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_left(gp)
        self._root.color = BLACK

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def remove(self, key) -> Any:
        node = self._find(key)
        if node is None:
            raise KeyError(key)
        value = node.value
        if node is self._lm:
            self._lm = self._successor_of_leftmost(node)
        self._delete_node(node)
        self.size -= 1
        return value

    def pop_min(self) -> tuple[Any, Any]:
        """Remove and return the leftmost ``(key, value)`` (O(1) lookup)."""
        node = self._lm
        if node is None:
            raise KeyError("pop_min() on empty tree")
        out = (node.key, node.value)
        self._lm = self._successor_of_leftmost(node)
        self._delete_node(node)
        self.size -= 1
        return out

    @staticmethod
    def _successor_of_leftmost(node: _Node) -> _Node | None:
        """In-order successor of the leftmost node (which has no left
        child): the bottom-left of its right subtree, else its parent.
        Computed *before* deletion; the successor node object survives
        any transplanting the deletion does."""
        if node.right is not None:
            succ = node.right
            while succ.left is not None:
                succ = succ.left
            return succ
        return node.parent

    def _transplant(self, u: _Node, v: _Node | None) -> None:
        if u.parent is None:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        if v is not None:
            v.parent = u.parent

    def _delete_node(self, z: _Node) -> None:
        # CLRS deletion with a None-safe fixup (tracks the fixup node's
        # parent explicitly instead of using a sentinel NIL node).
        y = z
        y_original_color = y.color
        if z.left is None:
            x, x_parent = z.right, z.parent
            self._transplant(z, z.right)
        elif z.right is None:
            x, x_parent = z.left, z.parent
            self._transplant(z, z.left)
        else:
            y = self._leftmost(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x_parent = y
            else:
                x_parent = y.parent
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_original_color is BLACK:
            self._delete_fixup(x, x_parent)

    def _delete_fixup(self, x: _Node | None, parent: _Node | None) -> None:
        while x is not self._root and (x is None or x.color is BLACK):
            if parent is None:
                break
            if x is parent.left:
                w = parent.right
                if w is not None and w.color is RED:
                    w.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent)
                    w = parent.right
                if w is None:
                    x, parent = parent, parent.parent
                    continue
                w_left_black = w.left is None or w.left.color is BLACK
                w_right_black = w.right is None or w.right.color is BLACK
                if w_left_black and w_right_black:
                    w.color = RED
                    x, parent = parent, parent.parent
                else:
                    if w_right_black:
                        if w.left is not None:
                            w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = parent.right
                    w.color = parent.color
                    parent.color = BLACK
                    if w.right is not None:
                        w.right.color = BLACK
                    self._rotate_left(parent)
                    x = self._root
                    parent = None
            else:
                w = parent.left
                if w is not None and w.color is RED:
                    w.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent)
                    w = parent.left
                if w is None:
                    x, parent = parent, parent.parent
                    continue
                w_left_black = w.left is None or w.left.color is BLACK
                w_right_black = w.right is None or w.right.color is BLACK
                if w_left_black and w_right_black:
                    w.color = RED
                    x, parent = parent, parent.parent
                else:
                    if w_left_black:
                        if w.right is not None:
                            w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = parent.left
                    w.color = parent.color
                    parent.color = BLACK
                    if w.left is not None:
                        w.left.color = BLACK
                    self._rotate_right(parent)
                    x = self._root
                    parent = None
        if x is not None:
            x.color = BLACK

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        assert y is not None
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        assert y is not None
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # ------------------------------------------------------------------
    # Structural validation (used by tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise AssertionError if red-black invariants are violated."""
        if self._root is None:
            assert self._lm is None, "leftmost cache must be None when empty"
            return
        assert self._lm is self._leftmost(self._root), "leftmost cache stale"
        assert self._root.color is BLACK, "root must be black"
        self._check(self._root, None, None)

    def _check(self, node: _Node | None, lo, hi) -> int:
        if node is None:
            return 1
        if lo is not None:
            assert node.key > lo, "BST order violated"
        if hi is not None:
            assert node.key < hi, "BST order violated"
        if node.color is RED:
            for child in (node.left, node.right):
                assert child is None or child.color is BLACK, (
                    "red node has a red child"
                )
        lh = self._check(node.left, lo, node.key)
        rh = self._check(node.right, node.key, hi)
        assert lh == rh, "black-height mismatch"
        return lh + (1 if node.color is BLACK else 0)
