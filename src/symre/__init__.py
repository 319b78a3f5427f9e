"""Containment and equivalence of extended regular expressions.

Expressions support union, concatenation, star, intersection, and
complement; literals are symbol sets drawn from a pluggable boolean
algebra, so the same engine serves three-letter test alphabets, the full
Unicode range, and cofinite sets over effectively infinite alphabets.

Typical use::

    from symre import BitsetAlgebra, Checker, ExprBuilder

    builder = ExprBuilder(BitsetAlgebra("abc"))
    checker = Checker(builder)
    verdict = checker.check(builder.parse("(a|b)|c"), builder.parse("a|b"))
    assert not verdict.holds and verdict.witness == "c"

The slice oracle (``SliceOracle``, ``slice_*``) and the regex-valued
algebra (``RegexAlgebra``, ``RegexSet``) load on first use.
"""

from .alphabet import (
    Algebra,
    AlgebraError,
    BitsetAlgebra,
    FiniteCofiniteAlgebra,
    IntervalAlgebra,
    SymbolSet,
)
from .containment import (
    Checker,
    CheckStats,
    FuelExhausted,
    Verdict,
    membership,
    replay_trace,
    shortest_word,
)
from .derivative import deriv_literal, deriv_symbol, deriv_word, neg_deriv, pos_deriv
from .nextlit import join, left_join, meet, next_literals, next_of_ineq
from .syntax import Ere, ExprBuilder, ParseError, size, to_text, width

__all__ = [
    "Algebra",
    "AlgebraError",
    "BitsetAlgebra",
    "Checker",
    "CheckStats",
    "Ere",
    "ExprBuilder",
    "FiniteCofiniteAlgebra",
    "FuelExhausted",
    "IntervalAlgebra",
    "ParseError",
    "RegexAlgebra",
    "RegexSet",
    "SliceOracle",
    "SymbolSet",
    "Verdict",
    "deriv_literal",
    "deriv_symbol",
    "deriv_word",
    "join",
    "left_join",
    "meet",
    "membership",
    "neg_deriv",
    "next_literals",
    "next_of_ineq",
    "pos_deriv",
    "replay_trace",
    "shortest_word",
    "size",
    "slice_equal",
    "slice_subset",
    "slice_words",
    "to_text",
    "width",
]

__version__ = "0.1.0"

# Names resolved on first use (PEP 562), each with the submodule defining it.
_LAZY = {
    "RegexAlgebra": "regexalg",
    "RegexSet": "regexalg",
    "SliceOracle": "oracle",
    "slice_equal": "oracle",
    "slice_subset": "oracle",
    "slice_words": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
