"""Red-black tree: unit tests plus hypothesis property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rbtree import RedBlackTree


def test_empty_tree():
    t = RedBlackTree()
    assert len(t) == 0
    assert not t
    assert 1 not in t
    with pytest.raises(KeyError):
        t.min_item()
    with pytest.raises(KeyError):
        t.pop_min()
    with pytest.raises(KeyError):
        t.remove(1)


def test_insert_and_lookup():
    t = RedBlackTree()
    t.insert(5, "five")
    t.insert(3, "three")
    t.insert(8, "eight")
    assert len(t) == 3
    assert t.get(3) == "three"
    assert t.get(99, "default") == "default"
    assert 5 in t and 9 not in t


def test_duplicate_key_rejected():
    t = RedBlackTree()
    t.insert(1, "a")
    with pytest.raises(KeyError):
        t.insert(1, "b")


def test_min_max_items():
    t = RedBlackTree()
    for k in [5, 1, 9, 3, 7]:
        t.insert(k, str(k))
    assert t.min_item() == (1, "1")
    assert t.max_item() == (9, "9")


def test_inorder_iteration_sorted():
    t = RedBlackTree()
    keys = [13, 8, 17, 1, 11, 15, 25, 6, 22, 27]
    for k in keys:
        t.insert(k, k * 10)
    assert list(t.keys()) == sorted(keys)
    assert list(t.values()) == [k * 10 for k in sorted(keys)]


def test_pop_min_drains_in_order():
    t = RedBlackTree()
    for k in [4, 2, 9, 1, 7]:
        t.insert(k, None)
    popped = [t.pop_min()[0] for _ in range(len(t))]
    assert popped == [1, 2, 4, 7, 9]
    assert len(t) == 0


def test_remove_returns_value():
    t = RedBlackTree()
    t.insert(1, "one")
    t.insert(2, "two")
    assert t.remove(1) == "one"
    assert 1 not in t
    assert len(t) == 1


def test_remove_interior_node():
    t = RedBlackTree()
    for k in range(20):
        t.insert(k, k)
    t.remove(10)  # likely an interior node
    t.validate()
    assert list(t.keys()) == [k for k in range(20) if k != 10]


def test_tuple_keys():
    """The runqueue uses (vruntime, seq) tuples as keys."""
    t = RedBlackTree()
    t.insert((100, 1), "a")
    t.insert((100, 2), "b")
    t.insert((50, 3), "c")
    assert t.min_item() == ((50, 3), "c")
    t.remove((100, 1))
    assert len(t) == 2


def test_validate_on_sequential_inserts():
    t = RedBlackTree()
    for k in range(256):
        t.insert(k, k)
        t.validate()
    for k in range(0, 256, 3):
        t.remove(k)
        t.validate()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-(10**6), max_value=10**6), unique=True))
def test_property_insert_iteration_sorted(keys):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, k)
    assert list(t.keys()) == sorted(keys)
    t.validate()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**4), unique=True, min_size=1),
    st.data(),
)
def test_property_mixed_insert_remove(keys, data):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, k)
    to_remove = data.draw(
        st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
    )
    for k in to_remove:
        t.remove(k)
    t.validate()
    remaining = sorted(set(keys) - set(to_remove))
    assert list(t.keys()) == remaining
    assert len(t) == len(remaining)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**4), unique=True, min_size=1))
def test_property_pop_min_is_sorted_drain(keys):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, None)
    drained = [t.pop_min()[0] for _ in range(len(keys))]
    assert drained == sorted(keys)


def test_min_value_matches_min_item():
    t = RedBlackTree()
    for k in (5, 3, 9, 1, 7):
        t.insert(k, f"v{k}")
    assert t.min_item() == (1, "v1")
    assert t.min_value() == "v1"
    t.remove(1)
    assert t.min_value() == "v3"


def test_leftmost_cache_tracks_insert_remove_popmin():
    t = RedBlackTree()
    t.insert(10, None)
    t.validate()
    t.insert(5, None)  # new leftmost
    t.validate()
    t.insert(20, None)  # not leftmost
    t.validate()
    assert t.min_item()[0] == 5
    t.remove(5)  # leftmost removed -> successor becomes leftmost
    t.validate()
    assert t.min_item()[0] == 10
    assert t.pop_min()[0] == 10
    t.validate()
    assert t.pop_min()[0] == 20
    t.validate()
    assert len(t) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**4), unique=True, min_size=1),
    st.data(),
)
def test_property_leftmost_cache_under_churn(keys, data):
    """min_item must stay O(1)-correct through arbitrary insert/remove/
    pop_min interleavings (validate() checks the cache every step)."""
    t = RedBlackTree()
    alive: list[int] = []
    for k in keys:
        t.insert(k, k)
        alive.append(k)
    ops = data.draw(st.lists(st.integers(0, 2), max_size=30))
    for op in ops:
        if not alive:
            break
        if op == 0:
            k = data.draw(st.sampled_from(alive))
            t.remove(k)
            alive.remove(k)
        elif op == 1:
            k, _ = t.pop_min()
            alive.remove(k)
        else:
            k = data.draw(st.integers(10**4 + 1, 10**5))
            if k not in t:
                t.insert(k, k)
                alive.append(k)
        t.validate()
        if alive:
            assert t.min_item()[0] == min(alive)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**4), unique=True, min_size=1),
    st.data(),
)
def test_property_max_item_below_under_churn(keys, data):
    """max_item_below agrees with a sorted-list scan through arbitrary
    insert/remove interleavings, for bounds on, between and beyond the
    live keys."""
    t = RedBlackTree()
    alive: list[int] = []
    spare = [k + 10**4 + 1 for k in keys]

    def check():
        for bound in data.draw(
            st.lists(st.integers(min_value=-1, max_value=3 * 10**4), max_size=5)
        ) + alive[:3]:
            below = [k for k in sorted(alive) if k < bound]
            want = (below[-1], -below[-1]) if below else None
            assert t.max_item_below(bound) == want, (bound, sorted(alive))

    for k in keys:
        t.insert(k, -k)
        alive.append(k)
    check()
    for op in data.draw(st.lists(st.booleans(), max_size=30)):
        if op and alive:
            k = data.draw(st.sampled_from(alive))
            t.remove(k)
            alive.remove(k)
        elif spare:
            k = spare.pop()
            t.insert(k, -k)
            alive.append(k)
        check()
    t.validate()
