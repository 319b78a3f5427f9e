import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpora_digest.py"
_spec = importlib.util.spec_from_file_location("corpora_digest", TOOL)
corpora_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpora_digest)

# The (holds, witness) digests of the default checker, taken before the
# conjunct, empty-language and universal axioms were added: an axiom may cut
# the visited pairs, never change an answer.
DEFAULT_DIGESTS = {
    "ab10": "33d508c105ba2928729fe062ccaf6d8ef68dae255683b6a58bb772b6fa0e6339",
    "ab14": "a6eaffc10089bb8c9a311bebbcd59c156b7f5a1b046ae8e76dc74baf42bbbcc7",
    "abc12": "f71354a60e01c997b6adfc9796bca7b036f8e24c6f3c6e69682783182370f617",
}


def test_default_mode_answers_are_pinned():
    for name, sha in DEFAULT_DIGESTS.items():
        assert corpora_digest.digest(name, "default")[0] == sha, name

