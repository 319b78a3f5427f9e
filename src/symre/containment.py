"""The containment decision procedure.

A query unfolds the inequality pair by pair: a pair whose left side accepts
the empty word while the right side does not is a refutation; a revisited
pair closes a cycle and counts as proven; otherwise the pair is split along
the next literals of the inequality and both sides are differentiated by
each literal.  The classes come from ``nextlit.pair_classes``, memoized per
pair of the two sides' leads with each class's witness symbol; all the
symbols of a class have the same derivative on each side, so a branch costs
two symbol derivatives by the witness.  A pair without classes is unfolded
into no branches.
Termination follows from the finiteness of dissimilar iterated derivatives.
Four fast-path axioms close a pair before it is unfolded: identity, the
universal right side ``.*``, a left intersection among whose members is
every conjunct of the right side (``L(r & s)`` is contained in ``L(r)``),
and an empty right side, which the shortest-word search of the left side
decides either way.  With them the word fold rewrites the first pair: by
Brzozowski's word derivative ``w·r ⊆ s`` is ``r ⊆ w⁻¹s``, so while the left
side starts with a literal of one symbol, the check steps to its tail and
derives the right side by that symbol, and the loop starts at the pair
reached.  Every pair along such a word has one class, so the unfolding
would visit the same pairs one by one; the fold stops where an axiom would
close them, at ``.*``, ``[]`` or identity.  The axioms never change a
verdict, only the statistics.  A ``[]`` or ``()`` left side has no next
literals, so the unfolding closes its pair in the one visit that opens it,
with no axiom.
A traced check renders each node once: its events share one map of node
texts, so each pair costs its new nodes only.  An untraced check builds no
event and renders nothing.

Refutations carry a witness word built from the deterministic per-literal
witness symbols along the failing path, so a reported witness is always a
member of the left language and never of the right one.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Callable, Iterable, Sequence

from .derivative import deriv_symbol, deriv_word, partial_derivatives
from .nextlit import next_literals, pair_classes
from .syntax import And, Concat, Ere, ExprBuilder, Literal, to_text

DEFAULT_FUEL = 1 << 20

TraceSink = Callable[[dict], None]

# Each rule of a trace, and the verdict it closes its pair with.  ``unfold``
# closes nothing, it opens the pair's branches; nor does ``fold``, the first
# event of a check whose fold read a word: it names the query's pair and the
# word, and the events of the pair reached follow it at depth 0.
TRACE_RULES = {
    "disprove": False,
    "cycle": True,
    "unfold": None,
    "prove-identity": True,
    "prove-universal": True,
    "prove-conjunct": True,
    "disprove-empty": False,
    "prove-empty-language": True,
    "fold": None,
}


# Pairs visited and the deepest unfolding, of one check or of both
# directions of an equivalence.
CheckStats = namedtuple("CheckStats", "visited max_depth")
# Whether the containment (or equivalence) holds; the word that refutes it
# (the algebra's ``word_of``: a ``str``, or a tuple of symbols), or ``None``
# when it holds; and the ``CheckStats``.
Verdict = namedtuple("Verdict", "holds witness stats")


class FuelExhausted(RuntimeError):
    """A defensive cap was hit; this is a diagnostic, not a verdict.

    ``visited`` is what the cap counted and ``max_depth`` how deep it went,
    named by ``units``: the unfolding's visited pairs and depth, or the
    emptiness search's nodes and word length.
    """

    def __init__(self, visited: int, max_depth: int, units=("visited pairs", "max depth")):
        super().__init__(f"fuel exhausted after {visited} {units[0]} ({units[1]} {max_depth})")
        self.visited = visited
        self.max_depth = max_depth


def membership(b: ExprBuilder, word: Iterable, r: Ere) -> bool:
    """Word problem: does the language of ``r`` contain ``word``?"""
    return deriv_word(b, word, r).nullable


def shortest_word(b: ExprBuilder, r: Ere, fuel: int = DEFAULT_FUEL) -> tuple | None:
    """Shortest (then least) member of the language as a symbol tuple.

    Returns ``None`` when the language is empty.  Breadth-first search over
    partial derivatives (``partial_derivatives``): each queued word carries
    the group of terms it reaches first, as a term reached again later has
    the same words ahead of it.  A group steps by the witnesses of its
    terms' next literals in the algebra's symbol order, each across every
    term of the group, so the words are queued in shortlex order and the
    result is the least word under the shortlex order induced by the
    algebra's symbol order.

    Answers are memoized in the builder's ``word_cache``, which is not
    thread-safe.  A search that finds a word records it for ``r``.  A search
    that runs out of terms records every term it saw as empty: each of them
    reaches only non-nullable terms through its per-class partial
    derivatives.  Later searches answer a recorded node at once and never
    keep a term already known to be empty; the word found stays the least,
    since an empty term has no nullable descendant.  Nothing is recorded
    when the fuel runs out.
    """
    if r.nullable:
        return ()
    memo = b.word_cache
    if r.eid in memo:
        return memo[r.eid]
    alg = b.algebra
    seen = {r.eid}
    queue: deque[tuple[tuple, list[Ere]]] = deque([((), [r])])
    while queue:
        word, terms = queue.popleft()
        if len(terms) == 1:
            symbols = map(alg.pick_witness, next_literals(b, terms[0]))
        else:
            witnesses = {alg.pick_witness(s): None for t in terms for s in next_literals(b, t)}
            symbols = sorted(witnesses, key=alg.symbol_key)
        for a in symbols:
            group = []
            for term in terms:
                for child in partial_derivatives(b, a, term):
                    # The default () is never stored for a non-nullable
                    # term, so only a recorded None (a known-empty term) is
                    # skipped here.
                    if child.eid in seen or memo.get(child.eid, ()) is None:
                        continue
                    seen.add(child.eid)
                    if len(seen) > fuel:
                        units = ("emptiness-search nodes", "word length")
                        raise FuelExhausted(len(seen), len(word) + 1, units)
                    if child.nullable:
                        grown = memo[r.eid] = word + (a,)
                        return grown
                    group.append(child)
            if group:
                queue.append((word + (a,), group))
    memo.update(dict.fromkeys(seen))
    return None


class Checker:
    """Containment and equivalence over one expression builder.

    A checker instance owns its builder's interning table and memo caches
    for the duration of a query; run concurrent queries on separate
    instances.  Emptiness answers and shortest witnesses are memoized per
    builder across queries (see ``shortest_word``); that memo is not
    thread-safe either.  ``global_memo`` keeps every visited pair for cycle
    detection (the default); disabling it scopes assumptions to the
    current unfolding path exactly as the rules are stated.
    """

    def __init__(
        self,
        builder: ExprBuilder,
        *,
        use_axioms: bool = True,
        global_memo: bool = True,
        fuel: int = DEFAULT_FUEL,
        trace: TraceSink | None = None,
    ):
        self.builder = builder
        self.use_axioms = use_axioms
        self.global_memo = global_memo
        self.fuel = fuel
        self.trace = trace

    # -- queries -----------------------------------------------------------

    def check(self, r: Ere, s: Ere) -> Verdict:
        """Decide whether the language of ``r`` is contained in ``s``.

        With the axioms on, the word fold first rewrites the query's pair:
        while ``r`` starts with a literal of one symbol ``a`` and ``s`` is
        neither ``.*``, ``[]`` nor ``r``, the pair ``a·r' ⊆ s`` steps to
        ``r' ⊆ a⁻¹s``.  One loop then visits the pairs depth first from the
        pair reached.  Disprove, the axioms and cycle detection answer a
        pair; otherwise it is unfolded, and its frame steps through its
        branches.
        """
        b = self.builder
        trace, fuel, use_axioms = self.trace, self.fuel, self.use_axioms
        bottom, top = b.bottom(), b.sigma_star()
        texts: dict = {}  # the text of each node a trace event named so far
        assumed: set[tuple[int, int]] = set()
        frames: list[list] = []  # [lhs, rhs, branches, next branch] per unfolded pair
        visited = max_depth = depth = 0
        lhs, rhs = r, s
        word = []  # the symbols the fold read: every witness starts with them
        while use_axioms and rhs is not top and rhs is not bottom and rhs is not lhs:
            head = lhs.head if type(lhs) is Concat else lhs
            if type(head) is not Literal or (a := head.symbol) is None:
                break
            word.append(a)
            lhs = lhs.tail if head is not lhs else b.epsilon()
            rhs = deriv_symbol(b, a, rhs)
        if word and trace is not None:
            trace(self._event(texts, "fold", r, s, b.algebra.format_word(word), 0))
        while True:
            visited += 1
            if depth > max_depth:
                max_depth = depth
            if visited > fuel:
                raise FuelExhausted(visited, max_depth)
            # The rule that answers the pair, or that unfolds it into no
            # branches; and the witness tail of a refutation.
            rule = tail = None
            if lhs.nullable and not rhs.nullable:
                rule, tail = "disprove", ()
            elif use_axioms:
                if lhs is rhs:
                    rule = "prove-identity"
                elif rhs is top:
                    rule = "prove-universal"
                # L(r & s) is contained in L(r), and in L(s).
                elif type(lhs) is And and all(
                    m in lhs.members for m in (rhs.members if type(rhs) is And else (rhs,))
                ):
                    rule = "prove-conjunct"
                elif rhs is bottom:
                    tail = shortest_word(b, lhs, fuel)
                    rule = "prove-empty-language" if tail is None else "disprove-empty"
            if rule is None:
                pair = (lhs.eid, rhs.eid)
                if pair in assumed:
                    rule = "cycle"
                else:
                    branches = pair_classes(b, lhs, rhs)
                    if not branches:
                        rule = "unfold"
                    assumed.add(pair)
                    frames.append([lhs, rhs, branches, 0])
            if rule is not None and trace is not None:
                trace(self._event(texts, rule, lhs, rhs, None, depth))
            if tail is not None:
                break
            # Step to the next branch of the innermost frame that has one.
            while frames:
                lhs, rhs, todo, idx = frame = frames[-1]
                if idx < len(todo):
                    break
                frames.pop()
                if not self.global_memo:
                    assumed.discard((lhs.eid, rhs.eid))
            else:
                break
            frame[3] = idx + 1
            a_set, a = todo[idx]
            depth = len(frames)
            if trace is not None:
                literal = b.algebra.format_set(a_set)
                trace(self._event(texts, "unfold", lhs, rhs, literal, depth - 1))
            lhs, rhs = deriv_symbol(b, a, lhs), deriv_symbol(b, a, rhs)

        stats = CheckStats(visited, max_depth)
        if tail is None:
            return Verdict(True, None, stats)
        # The witness is the fold's word, then the witness symbol of each
        # open frame's current branch along the failing path, then the tail.
        word.extend(branches[nxt - 1][1] for _, _, branches, nxt in frames)
        return Verdict(False, b.algebra.word_of(word + list(tail)), stats)

    def _event(self, texts: dict, rule: str, lhs: Ere, rhs: Ere, literal, depth: int) -> dict:
        """The trace event of ``rule`` at the pair, with the text of its literal
        (or ``None``) and node texts kept in ``texts``."""
        return {
            "rule": rule,
            "lhs": to_text(lhs, texts),
            "rhs": to_text(rhs, texts),
            "literal": literal,
            "depth": depth,
        }

    def equivalent(self, r: Ere, s: Ere) -> Verdict:
        """Decide language equality as containment in both directions.

        A failing verdict carries the witness of whichever direction broke
        first, so the word belongs to exactly one of the two languages.
        """
        forward = self.check(r, s)
        if not forward.holds:
            return forward
        backward = self.check(s, r)
        stats = CheckStats(
            forward.stats.visited + backward.stats.visited,
            max(forward.stats.max_depth, backward.stats.max_depth),
        )
        return Verdict(backward.holds, backward.witness, stats)


# ---------------------------------------------------------------------------
# Trace replay


def replay_trace(events: Sequence[dict]) -> bool:
    """Re-evaluate a rule trace symbolically and return its verdict.

    An ``unfold`` event with a literal is followed by the sub-trace of that
    branch one level deeper; a null literal marks an unfolding with no
    branches.  A ``fold`` event may open a root, which goes on with the
    events of the pair its word reached; it names no pair to replay.  The
    trace of a query must replay to the query's verdict.  An
    equivalence that holds one way writes a second root trace, the converse
    containment, and replays to the verdict of that last root.  One loop
    keeps a stack of the open unfoldings, so a deep trace costs no
    recursion.
    """
    if not events:
        raise ValueError("empty trace")
    pairs: list[tuple] = []  # the pair of each open unfolding, outermost first
    i = roots = 0
    try:  # ``i`` indexes the event being read whenever a field is missing
        while True:
            # Replay the event at ``i``, one level below the open unfoldings.
            if i == len(events):
                raise ValueError("trace ends inside an unfolding")
            event = events[i]
            if event["depth"] != len(pairs):
                raise ValueError(f"trace event at index {i} has unexpected depth")
            if event["rule"] == "fold":
                if pairs or i and events[i - 1]["rule"] == "fold" or i + 1 == len(events):
                    raise ValueError(f"fold event at index {i} does not open a root")
                i += 1
                continue
            verdict = TRACE_RULES[event["rule"]]
            if verdict is None:
                pairs.append((event["lhs"], event["rhs"]))
                verdict = True
            else:
                i += 1
            # Step the innermost unfolding through its events until one opens
            # a branch; a false verdict closes every open unfolding.
            while pairs:
                if (
                    verdict
                    and i < len(events)
                    and events[i]["depth"] == len(pairs) - 1
                    and events[i]["rule"] == "unfold"
                    and (events[i]["lhs"], events[i]["rhs"]) == pairs[-1]
                ):
                    literal = events[i]["literal"]
                    i += 1
                    if literal is not None:
                        break
                else:
                    pairs.pop()
            else:
                # A root closed: a second one may follow a first that holds.
                roots += 1
                if not verdict or roots == 2 or i == len(events):
                    break
    except (KeyError, TypeError):
        raise ValueError(f"trace event at index {i} is malformed") from None
    if i != len(events):
        raise ValueError(f"trailing trace events at index {i}")
    return verdict
