"""Seeded random expression generation shared across the test suites."""

from __future__ import annotations

import random

from symre.alphabet import BitsetAlgebra
from symre.syntax import ExprBuilder

# Raw trees, the expressions as written: ("eps",) | ("lit", SymbolSet) |
# ("star", raw) | ("not", raw) | ("union"|"concat"|"and", raw, raw).
RawExpr = tuple

DEFAULT_WEIGHTS = {
    "lit": 4,
    "eps": 1,
    "star": 2,
    "not": 2,
    "union": 3,
    "concat": 3,
    "and": 2,
}

# Heavier on the extended operators ``&`` and ``!`` (acceptance criterion 3).
C3_WEIGHTS = {"lit": 3, "eps": 1, "star": 2, "not": 3, "union": 3, "concat": 3, "and": 3}


# The random pairs of acceptance criterion 3, one corpus per name:
# name -> (symbols, size of each side, pairs, seed).
C3_CORPORA = {
    "ab10": ("ab", 10, 1000, 0xC3),
    "ab14": ("ab", 14, 1500, 1),
    "abc12": ("abc", 12, 600, 7),
}


def random_set(rng: random.Random, algebra: BitsetAlgebra):
    roll = rng.random()
    if roll < 0.05:
        return algebra.bottom()
    if roll < 0.12:
        return algebra.top()
    chars = [c for c in algebra.symbols if rng.random() < 0.5]
    if not chars:
        chars = [rng.choice(algebra.symbols)]
    return algebra.from_chars(chars)


def random_raw(
    rng: random.Random,
    algebra: BitsetAlgebra,
    budget: int,
    weights: dict[str, int] = DEFAULT_WEIGHTS,
) -> RawExpr:
    """A raw tree whose as-written size is at most ``budget``."""
    if budget <= 1:
        if rng.random() < 0.15:
            return ("eps",)
        return ("lit", random_set(rng, algebra))
    ops, ws = zip(*weights.items())
    op = rng.choices(ops, ws)[0]
    if op == "eps":
        return ("eps",)
    if op == "lit":
        return ("lit", random_set(rng, algebra))
    if op in ("star", "not"):
        return (op, random_raw(rng, algebra, budget - 1, weights))
    left = rng.randint(1, budget - 2) if budget > 2 else 1
    return (
        op,
        random_raw(rng, algebra, left, weights),
        random_raw(rng, algebra, budget - 1 - left, weights),
    )


def raw_text(raw: RawExpr) -> str:
    """The text of ``raw`` with every operator parenthesized, so the parser
    applies one constructor per operator of the tree, in the tree's shape."""
    tag = raw[0]
    if tag == "eps":
        return "()"
    if tag == "lit":
        return raw[1].algebra.format_set(raw[1])
    if tag == "star":
        return f"({raw_text(raw[1])})*"
    if tag == "not":
        return f"!({raw_text(raw[1])})"
    op = {"union": "|", "concat": "", "and": "&"}[tag]
    return f"({raw_text(raw[1])}{op}{raw_text(raw[2])})"


def has_extended_ops(raw: RawExpr) -> bool:
    """True when the tree as written uses intersection or complement."""
    tag = raw[0]
    if tag in ("and", "not"):
        return True
    if tag in ("eps", "lit"):
        return False
    return any(has_extended_ops(child) for child in raw[1:])


def random_partition(rng: random.Random, algebra: BitsetAlgebra):
    """Mutually disjoint non-empty sets covering a random part of the alphabet."""
    symbols = list(algebra.symbols)
    rng.shuffle(symbols)
    kept = [c for c in symbols if rng.random() < 0.75]
    if not kept:
        kept = [rng.choice(symbols)]
    block_count = rng.randint(1, len(kept))
    blocks: list[list[str]] = [[] for _ in range(block_count)]
    for i, c in enumerate(kept):
        blocks[i % block_count].append(c)
    return tuple(algebra.from_chars(block) for block in blocks if block)


def c3_corpus(name: str):
    """The builder, raw pairs and parsed pairs of corpus ``name`` of
    ``C3_CORPORA``, drawn with ``C3_WEIGHTS`` and parsed into one builder."""
    symbols, size, count, seed = C3_CORPORA[name]
    alg = BitsetAlgebra(symbols)
    b = ExprBuilder(alg)
    rng = random.Random(seed)
    raws = [
        (random_raw(rng, alg, size, C3_WEIGHTS), random_raw(rng, alg, size, C3_WEIGHTS))
        for _ in range(count)
    ]
    return b, raws, [(b.parse(raw_text(r)), b.parse(raw_text(s))) for r, s in raws]
