"""Digest the checker's answers on the three seeded random corpora.

Usage: python tools/corpora_digest.py

For each checker mode (``default``, ``scoped`` with ``global_memo=False``,
``bare`` with ``use_axioms=False``) and each corpus the tool prints one
line: the SHA-256 of the sequence of outcomes, the number of queries that
hold and the total of visited pairs.  An outcome is ``[holds, witness]``; a
query that runs out of fuel records ``["FuelExhausted", visited]`` instead,
and its visited pairs count in the total.  The path-scoped mode runs under
``SCOPED_FUEL``, because it blows up on one pair of the ``abc12`` corpus.

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
from symre.containment import Checker, FuelExhausted  # noqa: E402

SCOPED_FUEL = 10_000

MODES = {
    "default": {},
    "scoped": {"global_memo": False, "fuel": SCOPED_FUEL},
    "bare": {"use_axioms": False},
}


def digest(name: str, mode: str) -> tuple[str, int, int]:
    """The outcome digest, the number of queries that hold and the visited
    total of corpus ``name`` under checker mode ``mode``."""
    b, _, pairs = c3_corpus(name)
    chk = Checker(b, **MODES[mode])
    outcomes = []
    holds = visited = 0
    for r, s in pairs:
        try:
            v = chk.check(r, s)
        except FuelExhausted as err:
            outcomes.append(["FuelExhausted", err.visited])
            visited += err.visited
            continue
        outcomes.append([v.holds, v.witness])
        holds += v.holds
        visited += v.stats.visited
    text = json.dumps(outcomes, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), holds, visited


def main() -> None:
    for mode in MODES:
        for name in C3_CORPORA:
            sha, holds, visited = digest(name, mode)
            print(f"{name:6s} {mode:8s} sha256={sha} holds={holds} visited={visited}")


if __name__ == "__main__":
    main()
