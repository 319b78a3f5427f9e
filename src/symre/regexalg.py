"""Regex-valued symbol sets: an algebra whose symbols are words.

Useful when the alphabet is itself a language -- e.g. object field names --
and a "character class" is a regular expression over an inner alphabet.
Set operations map to the inner expression operators.  The decisions use
the engine's emptiness search and membership over the inner bitset
alphabet: inclusion is emptiness of ``a & !b``, as for every algebra, so
the layering is strictly acyclic.

Outer words over this algebra are tuples of inner words.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .alphabet import Algebra, AlgebraError, BitsetAlgebra, SymbolSet, escape_char
from .containment import FuelExhausted, membership, shortest_word
from .syntax import Ere, ExprBuilder, to_text


# ``expr`` is interned in the algebra's inner builder; its equality is identity.
class RegexSet(namedtuple("RegexSet", "algebra expr"), SymbolSet):
    __slots__ = ()


class RegexAlgebra(Algebra):
    """Sets of inner-alphabet words, represented as inner expressions.

    Unlike the character algebras, representations are not canonical per
    denotation; equality is decided semantically, as inclusion both ways.
    Emptiness and witnesses come from ``shortest_word``, memoized in the
    inner builder's ``word_cache``; like the builder, an instance is not
    thread-safe.
    """

    def __init__(self, inner_symbols: str):
        self.inner = ExprBuilder(BitsetAlgebra(inner_symbols))

    def set_of(self, text: str) -> RegexSet:
        """Build a set from inner concrete syntax, e.g. ``"a(a|b)*"``."""
        return RegexSet(self, self.inner.parse(text))

    def bottom(self) -> RegexSet:
        return RegexSet(self, self.inner.bottom())

    def top(self) -> RegexSet:
        return RegexSet(self, self.inner.sigma_star())

    def union(self, a: RegexSet, b: RegexSet) -> RegexSet:
        self._own(a, b)
        return RegexSet(self, self.inner.union(a.expr, b.expr))

    def intersect(self, a: RegexSet, b: RegexSet) -> RegexSet:
        self._own(a, b)
        return RegexSet(self, self.inner.and_(a.expr, b.expr))

    def complement(self, a: RegexSet) -> RegexSet:
        self._own(a)
        return RegexSet(self, self.inner.not_(a.expr))

    def _shortest(self, a: RegexSet) -> tuple | None:
        """The shortest inner word of ``a`` as a symbol tuple, or ``None``."""
        self._own(a)
        # A failed inner search is a fault of this algebra, not an answer.
        try:
            return shortest_word(self.inner, a.expr)
        except FuelExhausted as exc:
            raise AlgebraError(f"inner emptiness decision failed: {exc}") from exc

    def is_empty(self, a: RegexSet) -> bool:
        return self._shortest(a) is None

    def is_equal(self, a: RegexSet, b: RegexSet) -> bool:
        return super().is_equal(a, b) or (self.is_subset(a, b) and self.is_subset(b, a))

    def contains(self, a: RegexSet, symbol: str) -> bool:
        """Whether the inner word ``symbol`` is in ``a``.  A symbol is a
        ``str``; anything else, a tuple of inner symbols included, is in no
        set, as a symbol outside a character alphabet is."""
        self._own(a)
        return isinstance(symbol, str) and membership(self.inner, symbol, a.expr)

    def pick_witness(self, a: RegexSet) -> str:
        symbols = self._shortest(a)
        if symbols is None:
            raise AlgebraError("cannot pick a witness from the empty set")
        return "".join(symbols)

    def symbol_key(self, symbol: str) -> tuple[int, str]:
        # Shortlex: inner words are ordered by length, then lexicographically.
        return (len(symbol), symbol)

    def word_of(self, symbols: Sequence) -> tuple:
        return tuple(symbols)

    def format_word(self, word: Iterable[str]) -> str:
        return "/".join("".join(escape_char(c, bare=False) for c in w) for w in word)

    def class_set(self, items, negate):
        raise AlgebraError("the regex algebra has no character-class syntax")

    def format_set(self, a: RegexSet) -> str:
        self._own(a)
        return "{" + to_text(a.expr) + "}"
