"""Digest the checker's answers on the three seeded random corpora.

Usage: python tools/corpora_digest.py

For each checker mode (``default``, ``scoped`` with ``global_memo=False``,
``bare`` with ``use_axioms=False``) and each corpus the tool prints one
line: the SHA-256 of the sequence of outcomes, the number of queries that
hold and the total of visited pairs.  An outcome is ``[holds, witness]``; a
query that runs out of fuel records ``["FuelExhausted", visited]`` instead,
and its visited pairs count in the total.  The path-scoped mode runs under
``SCOPED_FUEL``, because it blows up on one pair of the ``abc12`` corpus.
A ``trace`` line per corpus digests the rule events of the default checker
over the whole corpus, as they would be written as JSON, counts them, and
counts each rule's events in ``TRACE_RULES`` order: two trees that give the
same trace lines visit the same pairs in the same order and render them
alike.  A text joins the members of ``|`` and ``&`` in sorted order, so the
trace line no longer depends on what the builder interned before: a builder
change that only shifts eids leaves it as it is.

A last line per corpus, in the ``shortlex`` column, digests the answers in
language terms: each outcome is ``[holds, witness]`` with the witness the
shortlex-least word of ``r & !s`` (``shortest_word``), or ``None`` when that
language is empty.  It depends on no checker mode, and an engine change that
moves only the path a witness was found along leaves it as it is.  An
``intersection`` line per corpus digests the shortlex-least word of
``r & s`` of each pair, or ``None`` when that language is empty, and counts
the empty ones: ``r & !s`` keeps its ``!``, so the emptiness search takes it
as one term, while ``r & s`` is mostly a product of the two sides' terms.

The corpora are ``C3_CORPORA`` of ``tests/exprgen.py``, the random pairs of
acceptance criterion 3.  Two trees that give the same digests answer every
query alike, witnesses included.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from exprgen import C3_CORPORA, c3_corpus  # noqa: E402
from symre.containment import TRACE_RULES, Checker, FuelExhausted, shortest_word  # noqa: E402

SCOPED_FUEL = 10_000

MODES = {
    "default": {},
    "scoped": {"global_memo": False, "fuel": SCOPED_FUEL},
    "bare": {"use_axioms": False},
}


def check_outcomes(name: str, mode: str) -> tuple[list, int]:
    """The outcome of each query of corpus ``name`` under checker mode
    ``mode``, and their visited total."""
    b, _, pairs = c3_corpus(name)
    chk = Checker(b, **MODES[mode])
    outcomes = []
    visited = 0
    for r, s in pairs:
        try:
            v = chk.check(r, s)
        except FuelExhausted as err:
            outcomes.append(["FuelExhausted", err.visited])
            visited += err.visited
            continue
        outcomes.append([v.holds, v.witness])
        visited += v.stats.visited
    return outcomes, visited


def trace_events(name: str) -> list[dict]:
    """The rule events of the default checker over corpus ``name``."""
    b, _, pairs = c3_corpus(name)
    events: list[dict] = []
    chk = Checker(b, trace=events.append)
    for r, s in pairs:
        chk.check(r, s)
    return events


def rule_counts(events: list[dict]) -> tuple:
    """The number of events of each rule, in ``TRACE_RULES`` order."""
    rules = [e["rule"] for e in events]
    return tuple(map(rules.count, TRACE_RULES))


def shortlex_outcomes(name: str) -> list:
    """``[holds, shortlex-least witness]`` of each query of corpus ``name``."""
    b, _, pairs = c3_corpus(name)
    outcomes = []
    for r, s in pairs:
        word = shortest_word(b, b.and_(r, b.not_(s)))
        outcomes.append([word is None, None if word is None else b.algebra.word_of(word)])
    return outcomes


def intersection_outcomes(name: str) -> list:
    """The shortlex-least word of ``r & s`` of each pair of corpus ``name``,
    or ``None`` when that language is empty."""
    b, _, pairs = c3_corpus(name)
    words = (shortest_word(b, b.and_(r, s)) for r, s in pairs)
    return [None if word is None else b.algebra.word_of(word) for word in words]


def sha256(outcomes: list) -> str:
    text = json.dumps(outcomes, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    for mode in MODES:
        for name in C3_CORPORA:
            outcomes, visited = check_outcomes(name, mode)
            holds = sum(o[0] is True for o in outcomes)
            print(f"{name:6s} {mode:8s} sha256={sha256(outcomes)} holds={holds} visited={visited}")
    for name in C3_CORPORA:
        events = trace_events(name)
        counts = " ".join(f"{rule}={n}" for rule, n in zip(TRACE_RULES, rule_counts(events)))
        print(f"{name:6s} trace    sha256={sha256(events)} events={len(events)} {counts}")
    for name in C3_CORPORA:
        outcomes = shortlex_outcomes(name)
        holds = sum(o[0] for o in outcomes)
        print(f"{name:6s} shortlex sha256={sha256(outcomes)} holds={holds}")
    for name in C3_CORPORA:
        outcomes = intersection_outcomes(name)
        empty = outcomes.count(None)
        print(f"{name:6s} intersection sha256={sha256(outcomes)} empty={empty}")


if __name__ == "__main__":
    main()
