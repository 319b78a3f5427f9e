"""Correctness referee, run after the timed passes and never inside them.

Every decided query is judged by means that do not trust the verdict:

* bitset queries against ``SliceOracle`` (bounded-length language slices);
* every refutation's witness with ``membership``: it must lie in the left
  side and not in the right (for ``equiv``, in exactly one side), and with
  the query's Python ``re`` predicates where the workload gives them;
* pinned verdicts, pinned shortest witnesses and pinned visited-pair
  counts where the workload fixes them;
* the same template over ``unicode`` and ``cofinite`` must get the same
  verdict and witness;
* every pass must repeat the first pass's outcome exactly.

CLI runs are judged from the ``HOLDS`` / ``FAILS witness=...`` (or
``MATCH`` / ``NO-MATCH``) line together with the exit code.  Exit 2 is a
failed query; any other mismatch, such as a crash exiting 1 without a
``FAILS`` line, is a wrong verdict.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from symre import (
    BitsetAlgebra,
    ExprBuilder,
    FiniteCofiniteAlgebra,
    IntervalAlgebra,
    RegexAlgebra,
    SliceOracle,
    membership,
)
from symre.syntax import unescape_word

from workloads import Query, Workload

ORACLE_LEN = 4  # words up to this length over bitset:abcd: 341 of them


class Outcome(NamedTuple):
    ok: bool  # a verdict was reached; False when the query raised
    holds: Optional[bool] = None  # verdict, or the match result
    witness: object = None
    visited: Optional[int] = None  # unknown for CLI runs
    error: str = ""


def make_builder(spec: str) -> ExprBuilder:
    if spec.startswith("regex:"):
        return ExprBuilder(RegexAlgebra(spec[len("regex:") :]))
    if spec.startswith("bitset:"):
        return ExprBuilder(BitsetAlgebra(spec[len("bitset:") :]))
    return ExprBuilder({"unicode": IntervalAlgebra, "cofinite": FiniteCofiniteAlgebra}[spec]())


class Referee:
    """Judges outcomes with builders of its own, one per alphabet."""

    def __init__(self):
        self._builders: dict[str, ExprBuilder] = {}
        self._parsed: dict[tuple[str, object], object] = {}

    def _builder(self, spec: str) -> ExprBuilder:
        if spec not in self._builders:
            self._builders[spec] = make_builder(spec)
        return self._builders[spec]

    def _side(self, spec: str, side):
        key = (spec, side)
        if key not in self._parsed:
            b = self._builder(spec)
            self._parsed[key] = side(b.algebra, b) if callable(side) else b.parse(side)
        return self._parsed[key]

    def judge(self, q: Query, out: Outcome) -> Optional[str]:
        """None when the outcome is confirmed, else what is wrong with it."""
        if q.expect is not None and out.holds != q.expect:
            return f"verdict {out.holds}, expected {q.expect}"
        if q.kind == "match":
            if q.rhs_pred is not None and q.rhs_pred(q.lhs) != out.holds:
                return f"match result {out.holds} disagrees with Python re"
            return None
        if q.pairs is not None and out.visited is not None and out.visited != q.pairs:
            return f"visited {out.visited} pairs, expected {q.pairs}"
        b = self._builder(q.alphabet)
        lhs, rhs = self._side(q.alphabet, q.lhs), self._side(q.alphabet, q.rhs)
        oracle = SliceOracle(b, ORACLE_LEN) if isinstance(b.algebra, BitsetAlgebra) else None
        equiv = q.kind == "equiv"
        if out.holds:
            if oracle is not None and not (oracle.equal if equiv else oracle.subset)(lhs, rhs):
                return "claimed verdict refuted by the slice oracle"
            return None
        w = out.witness
        if w is None:
            return "refutation without a witness"
        sides = (membership(b, w, lhs), membership(b, w, rhs))
        if q.lhs_pred is not None and q.rhs_pred is not None:
            in_re = (q.lhs_pred(w), q.rhs_pred(w))
            if in_re != sides:
                return f"membership of witness {w!r} disagrees with Python re"
        if oracle is not None and len(w) <= ORACLE_LEN:
            in_slice = (w in oracle.slice(lhs), w in oracle.slice(rhs))
            if in_slice != sides:
                return f"membership of witness {w!r} disagrees with the slice oracle"
        if (sides[0] == sides[1]) if equiv else (sides != (True, False)):
            return f"witness {w!r} does not separate the two sides"
        if q.shortest is not None and w != q.shortest:
            return f"witness {w!r} is not the shortest {q.shortest!r}"
        return None

    def judge_passes(self, wl: Workload, passes: list[list[Outcome]]):
        """Return (failed, confirmed, wrong) over the workload's distinct queries.

        ``failed`` holds queries that raised in any pass, ``confirmed`` the
        decided queries whose outcome the referee confirmed, and ``wrong``
        one message per refuted or non-repeating outcome.
        """
        failed: set[int] = set()
        confirmed: set[int] = set()
        wrong: list[str] = []
        firsts: dict[int, Outcome] = {}
        for i, q in enumerate(wl.queries):
            outs = [p[i] for p in passes]
            decided = [o for o in outs if o.ok]
            if len(decided) < len(outs):
                failed.add(i)
            if not decided:
                continue
            first = firsts[i] = decided[0]
            if any(o != first for o in decided[1:]):
                wrong.append(f"query {i}: outcome changes between passes")
                continue
            problem = self.judge(q, first)
            if problem:
                wrong.append(f"query {i} ({q.kind} over {q.alphabet}): {problem}")
            else:
                confirmed.add(i)
        # The same template over the two unbounded character algebras.
        twins: dict[tuple, list[int]] = {}
        for i in confirmed:
            q = wl.queries[i]
            if q.alphabet in ("unicode", "cofinite"):
                twins.setdefault((q.kind, q.lhs, q.rhs), []).append(i)
        for group in twins.values():
            verdicts = {(firsts[i].holds, firsts[i].witness) for i in group}
            if len(verdicts) > 1:
                wrong.append(f"queries {group}: unicode and cofinite disagree")
                confirmed.difference_update(group)
        return failed, confirmed, wrong

    def judge_cli(self, q: Query, code: int, stdout: str) -> Optional[str]:
        """None when the CLI run is confirmed, "failed" on exit 2, else the fault."""
        if code == 2:
            return "failed"
        lines = stdout.splitlines()
        last = lines[-1] if lines else ""
        if q.kind == "match":
            verdict = {("MATCH", 0): True, ("NO-MATCH", 1): False}.get((last, code))
            witness = None
        elif (last, code) == ("HOLDS", 0):
            verdict, witness = True, None
        elif code == 1 and last.startswith("FAILS witness="):
            verdict, witness = False, unescape_word(last[len("FAILS witness="):])
        else:
            verdict = None
        if verdict is None:
            return f"exit {code} with output {last[:80]!r}"
        return self.judge(q, Outcome(True, verdict, witness))
