"""Only ``repro.sim.rng`` touches a numpy bit generator.

``repro.sim.rng.ScalarDraws`` replays numpy's PCG64 draws from raw words
and keeps the generator's spare 32-bit half itself.  A module that read
the bit generator directly (its ``random_raw`` words, its ``state`` dict
or ``advance``) would step the stream behind the helper's back or read a
stale half, and its draws would stop matching numpy's.  So the helper is
the one owner (docs/performance.md, "BWD window sampling"), and the LBR
replay reads words through ``ScalarDraws.raw``.  This test keeps it so:
it fails, naming ``file:line``, on any module under ``repro`` other than
``repro.sim.rng`` that names ``bit_generator`` or ``random_raw`` (as an
attribute, a variable, a parameter or a string) or that calls
``.advance(...)``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
OWNER = ROOT / "sim" / "rng.py"
NAMES = frozenset({"bit_generator", "random_raw"})


def bit_generator_uses(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every use of a bit generator in ``source``."""
    hits: set[tuple[int, int, str]] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NAMES:
            hit = node
        elif isinstance(node, ast.Name) and node.id in NAMES:
            hit = node
        elif isinstance(node, ast.arg) and node.arg in NAMES:
            hit = node
        elif isinstance(node, ast.Constant) and node.value in NAMES:
            hit = node
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "advance"):
            hit = node
        else:
            continue
        hits.add((hit.lineno, hit.col_offset, ast.unparse(hit)))
    return [(line, text) for line, _, text in sorted(hits)]


def test_scanner_flags_every_way_to_reach_a_bit_generator():
    source = '''
def direct(rng):
    return rng.bit_generator.state


def raw_words(bitgen):
    return bitgen.random_raw(4)


def by_name(rng):
    return getattr(rng, "bit_generator")


def stepped(bitgen, random_raw):
    bitgen.advance(3)
    return random_raw


def clean(draws):
    """Reads words through the helper: raw(4) and its spare half."""
    return draws.raw(4), draws.spare, draws.generator.random()
'''
    assert bit_generator_uses(source) == [
        (3, "rng.bit_generator"),
        (7, "bitgen.random_raw"),
        (11, "'bit_generator'"),
        (14, "random_raw"),
        (15, "bitgen.advance(3)"),
        (16, "random_raw"),
    ]


def test_only_the_rng_module_touches_a_bit_generator():
    assert bit_generator_uses(OWNER.read_text())  # the scan sees the owner
    hits = []
    for path in sorted(ROOT.rglob("*.py")):
        if path == OWNER:
            continue
        for line, text in bit_generator_uses(path.read_text()):
            hits.append(f"{path.relative_to(ROOT.parent)}:{line}: {text}")
    assert not hits, (
        "bit generator reached outside repro.sim.rng; draw through the "
        "stream's ScalarDraws (RngStreams.draws) instead:\n"
        + "\n".join(hits)
    )
