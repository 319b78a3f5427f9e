import importlib.util
from pathlib import Path

from exprgen import C3_CORPORA, c3_corpus, raw_text
from symre.alphabet import BitsetAlgebra
from symre.containment import Checker
from symre.syntax import ExprBuilder, to_text

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpora_digest.py"
_spec = importlib.util.spec_from_file_location("corpora_digest", TOOL)
corpora_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpora_digest)

# The (holds, witness) digests of the default checker.  An axiom may cut the
# visited pairs, never change an answer.  A builder rule may move the path a
# witness is found along, so a witness, but never a shortlex digest (below):
# the rule ``X & !X = []`` moved one witness, query 1078 of ``ab14``, from
# ``ab`` to the shortlex-least ``b``, and left the shortlex digests as they
# were.
DEFAULT_DIGESTS = {
    "ab10": "33d508c105ba2928729fe062ccaf6d8ef68dae255683b6a58bb772b6fa0e6339",
    "ab14": "5094db57d8b59b852dc8b8b840edafd0a6c2038c261cd82cedb9734b122e35fa",
    "abc12": "f71354a60e01c997b6adfc9796bca7b036f8e24c6f3c6e69682783182370f617",
}

# The (holds, witness) digest, the HOLDS count and the visited total of the
# path-scoped (``global_memo=False``) and axiom-free (``use_axioms=False``)
# checkers.  Scoping assumptions to the path revisits pairs, and runs out of
# fuel on one ``abc12`` query, so one fewer holds there; otherwise it gives
# the default answers.  Without the axioms the checker unfolds what they
# close, so it gives the default verdicts but finds some witnesses along
# other paths.
MODE_LINES = {
    "scoped": {
        "ab10": ("33d508c105ba2928729fe062ccaf6d8ef68dae255683b6a58bb772b6fa0e6339", 369, 2329),
        "ab14": ("5094db57d8b59b852dc8b8b840edafd0a6c2038c261cd82cedb9734b122e35fa", 550, 4377),
        "abc12": ("427544a82c55b96ad06f0a966ac47b1f6f83c850392fd2e1d503fd074d30f37f", 214, 13171),
    },
    "bare": {
        "ab10": ("96a31f41f17763a245e6bf75eb53e69c662f64d0e0ec89d1c8efb4e2cd3af42d", 369, 2350),
        "ab14": ("a1bda8e8111b4e9cefeade122189c5294b1ed29f34f5d99cc84976374f9931da", 550, 3700),
        "abc12": ("3a05dbc44f4a7a07cf5bbc8fbc1e908f7fc635a0a66b0806ff3d975bd2ca1370", 215, 1722),
    },
}

# The digest and count of the default checker's rule events over each
# corpus, and the count of each rule's events in ``TRACE_RULES`` order
# (disprove, cycle, unfold, prove-identity, prove-universal, prove-conjunct,
# disprove-empty, prove-empty-language): the pairs visited, the rule that
# closed each, the order of the branches and the text of every node.  A text
# joins the members of ``|`` and ``&`` in sorted order, so it no longer
# depends on what the builder interned before; a change of eids alone leaves
# these lines as they are.
TRACE_DIGESTS = {
    "ab10": (
        "eb9ed068feebf245ea202fd0dee3d3e7b61d6f212f13fbbb1b44966e07326079",
        2331,
        (575, 164, 1339, 90, 17, 30, 56, 60),
    ),
    "ab14": (
        "651180e70096cf123028cb89eee61f49d8a821d27a66838f0aed990c771f8d5f",
        3814,
        (847, 378, 2215, 138, 27, 36, 103, 70),
    ),
    "abc12": (
        "588b18e1828fbb05dcbdc3fc48f07eb7c42a357a570650be6daf38149cbacfaf",
        1901,
        (337, 235, 1131, 78, 8, 20, 48, 44),
    ),
}

# The (holds, shortlex-least witness) digests: the answers in language
# terms, whichever path the engine finds its witness along.
SHORTLEX_DIGESTS = {
    "ab10": "f5ee8d21ce3f48a82a252b92c04d366f5e1d7c67429cba0d166b67864ab98705",
    "ab14": "22f03c04a97a045df7f7365eddbd4f608d43f7a363050ea26f3a14356b1f91f4",
    "abc12": "dae16d1ca626aa58aa77e20af0d51bfead41c4c5c4680df1600caef1a606c123",
}

# The shortlex-least word of r & s of each pair, or None when it is empty,
# and the count of empty ones.  About two thirds of these intersections have
# no ``!`` member, so the emptiness search steps them as products of terms.
INTERSECTION_DIGESTS = {
    "ab10": ("f4f1e92cbea1ab2eb0d28cc6354e9e1679a3835fb5608af7fc77f883b8408f66", 539),
    "ab14": ("2cf6f5736a7888f2de8556fc1f08ad74642002087104c4f50d15b9343d47b6d4", 751),
    "abc12": ("bc3d79e25ef24585c246bccc03841ba78c35e707d83d8354493393cb8d0aa95f", 295),
}


def test_default_mode_answers_are_pinned():
    for name, sha in DEFAULT_DIGESTS.items():
        outcomes, _ = corpora_digest.check_outcomes(name, "default")
        assert corpora_digest.sha256(outcomes) == sha, name
        shortlex = corpora_digest.shortlex_outcomes(name)
        assert corpora_digest.sha256(shortlex) == SHORTLEX_DIGESTS[name], name
        assert [holds for holds, _ in shortlex] == [holds for holds, _ in outcomes], name


def test_intersection_words_are_pinned():
    for name, (sha, empty) in INTERSECTION_DIGESTS.items():
        outcomes = corpora_digest.intersection_outcomes(name)
        assert (corpora_digest.sha256(outcomes), outcomes.count(None)) == (sha, empty), name


def test_scoped_and_bare_mode_answers_are_pinned():
    for mode, lines in MODE_LINES.items():
        for name, line in lines.items():
            outcomes, visited = corpora_digest.check_outcomes(name, mode)
            holds = sum(o[0] is True for o in outcomes)
            assert (corpora_digest.sha256(outcomes), holds, visited) == line, (mode, name)


def test_default_mode_traces_are_pinned():
    for name, pin in TRACE_DIGESTS.items():
        events = corpora_digest.trace_events(name)
        pinned = (corpora_digest.sha256(events), len(events), corpora_digest.rule_counts(events))
        assert pinned == pin, name


def test_texts_and_traces_do_not_depend_on_what_the_builder_interned():
    # the corpus builder after all its checks against one fresh builder per
    # query: each side renders alike and each query traces alike
    for name in C3_CORPORA:
        b, raws, pairs = c3_corpus(name)
        checker = Checker(b)
        for r, s in pairs:
            checker.check(r, s)
        for raw_pair, pair in zip(raws, pairs):
            fresh = ExprBuilder(BitsetAlgebra(b.algebra.symbols))
            fresh_pair = [fresh.parse(raw_text(raw)) for raw in raw_pair]
            for warm, cold in zip(pair, fresh_pair):
                assert b.parse(to_text(warm)) is warm
                assert to_text(cold) == to_text(warm), name
            warm_events, fresh_events = [], []
            Checker(b, trace=warm_events.append).check(*pair)
            Checker(fresh, trace=fresh_events.append).check(*fresh_pair)
            assert fresh_events == warm_events, (name, to_text(pair[0]), to_text(pair[1]))
