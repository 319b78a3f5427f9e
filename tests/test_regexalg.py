import random

import pytest

from symre.alphabet import AlgebraError
from symre import containment, regexalg
from symre.containment import Checker, FuelExhausted, membership, shortest_word
from symre.regexalg import RegexAlgebra, RegexSet
from symre.syntax import ExprBuilder

from exprgen import random_raw, raw_text


@pytest.fixture
def alg():
    return RegexAlgebra("ab")


def test_set_operations_are_semantic(alg):
    starts_a = alg.set_of("a(a|b)*")
    anything = alg.set_of("(a|b)*")
    assert alg.is_subset(starts_a, anything)
    assert not alg.is_subset(anything, starts_a)
    assert alg.is_equal(alg.union(starts_a, alg.complement(starts_a)), alg.top())
    assert alg.is_empty(alg.intersect(starts_a, alg.complement(starts_a)))
    # structurally different, semantically equal
    assert alg.is_equal(alg.set_of("a|b"), alg.set_of("b|a"))
    assert alg.is_equal(alg.set_of("(ab)*a"), alg.set_of("a(ba)*"))


def test_contains_words(alg):
    starts_a = alg.set_of("a(a|b)*")
    assert alg.contains(starts_a, "ab")
    assert not alg.contains(starts_a, "ba")
    assert not alg.contains(alg.bottom(), "")
    # a symbol that is not a str is in no set, not even the top one
    b = ExprBuilder(alg)
    for symbol in (97, b"a", ("a",)):
        assert not alg.contains(starts_a, symbol)
        assert not alg.contains(alg.top(), symbol)
        assert not membership(b, [symbol], b.parse(".*"))


def test_pick_witness_is_shortlex_least(alg):
    assert alg.pick_witness(alg.set_of("b|aa")) == "b"
    assert alg.pick_witness(alg.set_of("a(a|b)*")) == "a"
    assert alg.pick_witness(alg.set_of("bb|ba")) == "ba"
    assert alg.pick_witness(alg.set_of("(a|b)*")) == ""
    assert alg.pick_witness(alg.complement(alg.set_of("()|a|b"))) == "aa"
    with pytest.raises(AlgebraError):
        alg.pick_witness(alg.set_of("a&b"))


def test_emptiness_and_witness_agree_with_inner_searches(alg):
    # is_empty and pick_witness read the inner builder's memo; they must
    # agree with an inner containment check and with a fresh search
    inner_alg = alg.inner.algebra
    chk = Checker(alg.inner)
    rng = random.Random(46)
    for i in range(400):
        raw = random_raw(rng, inner_alg, 8)
        a = RegexSet(alg, alg.inner.parse(raw_text(raw)))
        if i % 2:  # let the checker fill the memo first on every other set
            holds = chk.check(a.expr, alg.inner.bottom()).holds
            empty = alg.is_empty(a)
        else:
            empty = alg.is_empty(a)
            holds = chk.check(a.expr, alg.inner.bottom()).holds
        assert empty == holds
        if not empty:
            fresh = ExprBuilder(inner_alg)
            assert alg.pick_witness(a) == "".join(shortest_word(fresh, fresh.parse(raw_text(raw))))


def test_inner_fuel_exhaustion_is_an_algebra_error(alg, monkeypatch):
    # a failed inner decision is a fault of the algebra, never an answer
    def exhausted(*args, **kwargs):
        raise FuelExhausted(7, 3)

    a, b = alg.set_of("a*"), alg.set_of("(a|b)*")
    monkeypatch.setattr(regexalg, "shortest_word", exhausted)
    with pytest.raises(AlgebraError, match="^inner emptiness decision failed: fuel exhausted"):
        alg.is_empty(a)
    # inclusion is emptiness of a & !b, so it fails the same way
    with pytest.raises(AlgebraError, match="^inner emptiness decision failed: fuel exhausted"):
        alg.is_subset(a, b)


def test_inner_fuel_exhaustion_in_pick_witness_is_an_algebra_error(alg, monkeypatch):
    def exhausted(*args, **kwargs):
        raise FuelExhausted(7, 3)

    monkeypatch.setattr(regexalg, "shortest_word", exhausted)
    with pytest.raises(AlgebraError, match="^inner emptiness decision failed: fuel exhausted"):
        alg.pick_witness(alg.set_of("a*"))


def test_inclusion_in_itself_or_a_conjunct_takes_no_search(alg, monkeypatch):
    # s & !s, x & y & !x and x & y & !(x & y) hold a member, or all members
    # of an intersection, and its complement, so the inner search answers
    # them empty without a search step
    searched = []
    original = containment.partial_derivatives
    monkeypatch.setattr(
        containment, "partial_derivatives", lambda *a: searched.append(a) or original(*a)
    )
    s, x, y = alg.set_of("(a|b)*a(a|b)"), alg.set_of("a*b"), alg.set_of("(ab)*")
    xy = alg.intersect(x, y)
    assert alg.is_subset(s, s) and alg.is_subset(xy, x) and alg.is_subset(xy, xy)
    assert not searched
    assert not alg.is_subset(x, y) and searched


def test_no_class_syntax(alg):
    with pytest.raises(AlgebraError):
        alg.class_set([(0, 1)], False)


def test_containment_over_word_symbols(alg):
    # access-path style: a path is a sequence of field names, each field
    # name set is an inner expression
    b = ExprBuilder(alg)
    get_fields = b.literal(alg.set_of("a(a|b)*"))  # fields starting with a
    any_field = b.literal(alg.top())
    chk = Checker(b)
    assert chk.check(get_fields, any_field).holds
    assert chk.check(
        b.concat(get_fields, b.star(get_fields)), b.star(any_field)
    ).holds
    verdict = chk.check(any_field, get_fields)
    assert not verdict.holds
    assert isinstance(verdict.witness, tuple)
    assert membership(b, verdict.witness, any_field)
    assert not membership(b, verdict.witness, get_fields)


def test_witness_paths_are_word_tuples(alg):
    b = ExprBuilder(alg)
    one = b.literal(alg.set_of("ab|b"))
    two = b.literal(alg.set_of("b"))
    verdict = Checker(b).check(b.concat(one, two), b.concat(two, two))
    assert not verdict.holds
    assert verdict.witness == ("ab", "b")
    assert alg.format_word(verdict.witness) == "ab/b"


def test_sets_are_immutable_values_of_one_algebra(alg):
    s = alg.set_of("a(a|b)*")
    for field in ("algebra", "expr"):
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(s, field))
    twin = alg.set_of("a(b|a)*")  # the same interned inner expression
    assert twin == s and hash(twin) == hash(s)
    # the same expression under another algebra instance is another set,
    # and the algebra rejects it
    foreign = RegexSet(RegexAlgebra("ab"), s.expr)
    assert foreign != s
    with pytest.raises(AlgebraError):
        alg.union(s, foreign)
    assert str(s) == alg.format_set(s) == "{a.*}"


def test_format_set(alg):
    # (a|b) merges to the full inner class, which renders as '.'
    assert alg.format_set(alg.set_of("a(a|b)*")) == "{a.*}"
    assert alg.format_set(alg.bottom()) == "{[]}"


def test_format_set_does_not_depend_on_what_was_interned_before(alg):
    # ``a`` interned by an unrelated set gets a smaller eid than ``bb`` here,
    # and a larger one in a fresh algebra; the text sorts the members anyway
    # (``b|a`` itself would merge into the one class ``.``)
    alg.set_of("a*")
    warm = alg.format_set(alg.set_of("bb|a"))
    fresh = RegexAlgebra("ab")
    assert warm == fresh.format_set(fresh.set_of("bb|a")) == "{a|bb}"
