import importlib.util
from pathlib import Path

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
