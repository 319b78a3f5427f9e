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
# were.  The ``.*`` rules (absorbing in ``|``, neutral in ``&``, ``r | !r``,
# ``!([])`` and ``!(.*)``) moved 4/3/1 witnesses, each to a shorter word
# (``ab10`` queries 7, 44, 692 and 854, ``ab14`` 107, 793 and 1359, ``abc12``
# 420), and left the shortlex digests as they were.
DEFAULT_DIGESTS = {
    "ab10": "3a977bc397e0a409115bf8ceb687254da5f5d47dc97e2fb253c6fa9852d9ca5e",
    "ab14": "c8f37dd316905ebb8bf504adddac5731d4441dc8e8d0b0b7594f1311591df9a0",
    "abc12": "79e0961a3bb716405bfec5898a2f2ff07a355d1a6ff23bb877ab8036fefa338d",
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
        "ab10": ("3a977bc397e0a409115bf8ceb687254da5f5d47dc97e2fb253c6fa9852d9ca5e", 369, 1976),
        "ab14": ("c8f37dd316905ebb8bf504adddac5731d4441dc8e8d0b0b7594f1311591df9a0", 550, 3506),
        "abc12": ("a5dc947f176af826738e290188db40c8fb36ad76814292fb3cb59047ed200918", 214, 12174),
    },
    "bare": {
        "ab10": ("a62397fcbecc58933841d777a02c0cb3373c2c81c4d35cc8c13fe4f1c2a908a9", 369, 2232),
        "ab14": ("4faeeb61a5701e4c69aeed1c3d2c16c23bcc280331eadb7d2a3639b91ddfac88", 550, 3485),
        "abc12": ("e872efaca3327ad6eec70aa08294c0de406b839ec2b08f8a678a553f693646ad", 215, 1596),
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
        "cee02d7583a882daa232d02d6e2fadb5aaa177d62481c85e32a63f43770ff9c3",
        2041,
        (571, 77, 1081, 89, 91, 24, 60, 48),
    ),
    "ab14": (
        "4c850e26a33a97ab2c80b9b2b49d15dbc88a60c694ae23394a11730e7883f488",
        3219,
        (837, 176, 1688, 138, 189, 23, 113, 55),
    ),
    "abc12": (
        "83e6ec525dab5891f7d9e07d77cee1b705135f595c767a085ec8fe3376c529e3",
        1623,
        (337, 116, 898, 71, 104, 10, 48, 39),
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
