import random

import pytest

from symre.alphabet import BitsetAlgebra, IntervalAlgebra
from symre.containment import membership
from symre.oracle import SliceOracle, slice_equal, slice_subset, slice_words
from symre.syntax import ExprBuilder

from exprgen import random_raw, raw_text


@pytest.fixture
def b():
    return ExprBuilder(BitsetAlgebra("abc"))


def test_slice_examples(b):
    assert slice_words(b, b.parse("[]"), 3) == frozenset()
    # the two concatenation languages are disjoint, so the meet is empty
    assert slice_words(b, b.parse("(a.c)&(b.c)"), 4) == frozenset()
    two = ExprBuilder(BitsetAlgebra("ab"))
    assert slice_words(two, two.parse("!([])"), 1) == frozenset(("", "a", "b"))


def test_slice_structural_cases(b):
    assert slice_words(b, b.parse("ab|ba"), 2) == frozenset(("ab", "ba"))
    assert slice_words(b, b.parse("a*"), 3) == frozenset(("", "a", "aa", "aaa"))
    assert slice_words(b, b.parse("(ab)*"), 5) == frozenset(("", "ab", "abab"))
    assert slice_words(b, b.parse("!a"), 1) == frozenset(("", "b", "c"))
    assert slice_words(b, b.parse("a&(a|b)"), 2) == frozenset(("a",))


def test_slice_subset_and_equal(b):
    assert slice_subset(b, b.parse("a"), b.parse("a|b"), 4)
    # the counterexample word has length 1, so the bound-1 slice already sees it
    assert not slice_subset(b, b.parse("(a|b)|c"), b.parse("a|b"), 1)
    rng = random.Random(3)
    for _ in range(50):
        r = b.parse(raw_text(random_raw(rng, b.algebra, 8)))
        assert slice_equal(b, r, r, 4)


def test_slice_monotone_in_bound(b):
    rng = random.Random(9)
    for _ in range(100):
        r = b.parse(raw_text(random_raw(rng, b.algebra, 8)))
        small = slice_words(b, r, 4)
        assert small == {u for u in slice_words(b, r, 5) if len(u) <= 4}


def test_slice_agrees_with_derivative_membership():
    # Two independent code paths for the word problem must coincide.
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    oracle = SliceOracle(b, 5)
    rng = random.Random(10)
    for _ in range(150):
        r = b.parse(raw_text(random_raw(rng, alg, 8)))
        words = oracle.slice(r)
        for u in oracle.all_words():
            assert (u in words) == membership(b, u, r)


def test_guards():
    big = ExprBuilder(BitsetAlgebra("abcdefghi"))
    with pytest.raises(ValueError):
        SliceOracle(big, 4)
    b = ExprBuilder(BitsetAlgebra("ab"))
    with pytest.raises(ValueError):
        SliceOracle(b, 11)
    uni = ExprBuilder(IntervalAlgebra())
    with pytest.raises(ValueError):
        SliceOracle(uni, 4)
