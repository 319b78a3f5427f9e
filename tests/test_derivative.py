import random

import pytest

from symre import derivative
from symre.alphabet import AlgebraError, BitsetAlgebra
from symre.derivative import (
    deriv_literal,
    deriv_symbol,
    deriv_word,
    neg_deriv,
    partial_derivatives,
    pos_deriv,
    refines_next,
)
from symre.nextlit import next_literals, partition_union
from symre.oracle import SliceOracle
from symre.syntax import And, Concat, ExprBuilder, Literal, Not, Star, Union, to_text

from exprgen import C3_WEIGHTS, random_raw, random_set, raw_text

N = 6


@pytest.fixture
def b():
    return ExprBuilder(BitsetAlgebra("abc"))


@pytest.fixture
def two():
    return ExprBuilder(BitsetAlgebra("ab"))


# -- symbol derivative ---------------------------------------------------------


def test_symbol_derivative_cases(b):
    a, c = b.char("a"), b.char("c")
    assert deriv_symbol(b, "a", b.concat(a, c)) is c
    assert deriv_symbol(b, "b", b.concat(a, c)) is b.bottom()
    assert deriv_symbol(b, "a", b.epsilon()) is b.bottom()
    assert deriv_symbol(b, "a", b.literal(b.algebra.from_chars("ab"))) is b.epsilon()
    assert deriv_symbol(b, "a", b.star(a)) is b.star(a)
    nullable_head = b.concat(b.star(a), c)
    assert deriv_symbol(b, "c", nullable_head) is b.epsilon()
    assert deriv_symbol(b, "a", b.not_(a)) is b.not_(b.epsilon())


def test_symbol_derivative_intersection_vanishes(b):
    # per-symbol derivatives of (ac)&(bc) collapse to the empty expression
    r = b.parse("(ac)&(bc)")
    assert deriv_symbol(b, "a", r) is b.bottom()
    assert deriv_symbol(b, "b", r) is b.bottom()


def test_symbol_derivative_union_of_concats(b):
    r = b.parse("(ac)|(bc)")
    assert deriv_symbol(b, "a", r) is b.char("c")
    assert deriv_symbol(b, "b", r) is b.char("c")


# -- set derivatives -----------------------------------------------------------


def test_pos_deriv_example(b):
    r = b.parse("(ac)&(bc)")
    a_set = b.algebra.from_chars("ab")
    out = pos_deriv(b, a_set, r)
    assert SliceOracle(b, N).equal(out, b.char("c"))


def test_neg_deriv_example(b):
    r = b.parse("(ac)|(bc)")
    a_set = b.algebra.from_chars("ab")
    out = neg_deriv(b, a_set, r)
    assert SliceOracle(b, N).equal(out, b.bottom())


def test_empty_set_derivatives(b):
    r = b.parse("a*b")
    assert pos_deriv(b, b.algebra.bottom(), r) is b.bottom()
    assert neg_deriv(b, b.algebra.bottom(), r) is b.sigma_star()


def test_neg_deriv_literal_subset_rule(b):
    assert neg_deriv(b, b.algebra.from_chars("a"), b.parse("a|b")) is b.epsilon()
    assert neg_deriv(b, b.algebra.from_chars("ac"), b.parse("a|b")) is b.bottom()


def test_epsilon_cases_are_empty(b):
    a_set = b.algebra.from_chars("ab")
    assert pos_deriv(b, a_set, b.epsilon()) is b.bottom()
    assert neg_deriv(b, a_set, b.epsilon()) is b.bottom()


def test_singleton_sets_agree_with_symbol_derivative(two):
    rng = random.Random(21)
    singleton = two.algebra.from_chars("a")
    for _ in range(1000):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 8)))
        expected = deriv_symbol(two, "a", r)
        assert pos_deriv(two, singleton, r) is expected
        assert neg_deriv(two, singleton, r) is expected


# -- literal derivative ----------------------------------------------------------


def test_deriv_literal_cases(b):
    ab = b.algebra.from_chars("ab")
    star = b.star(b.literal(ab))
    assert deriv_literal(b, ab, star) is star
    assert deriv_literal(b, b.algebra.from_chars("c"), b.parse("(a|b)|c")) is b.epsilon()
    assert deriv_literal(b, b.algebra.from_chars("a"), b.parse("a|b")) is b.epsilon()
    with pytest.raises(AlgebraError, match="^cannot derive by the empty class$"):
        deriv_literal(b, b.algebra.bottom(), star)


def test_refines_next(b):
    r = b.parse("a|b")  # next = {[ab]}
    assert refines_next(b, b.algebra.from_chars("a"), r)
    assert refines_next(b, b.algebra.from_chars("ab"), r)
    assert refines_next(b, b.algebra.from_chars("c"), r)  # disjoint from all
    assert not refines_next(b, b.algebra.from_chars("ac"), r)


def test_refinement_check_fires_on_every_call(b):
    # the memoized answer is checked again on each call
    ac = b.algebra.from_chars("ac")
    r = b.parse("(a|b)*")
    for _ in range(2):
        with pytest.raises(AlgebraError, match=r"does not refine .* partition \{\[ab\]\}"):
            deriv_literal(b, ac, r)


def _recursive_deriv(b, kind, x, r, memo):
    """A derivative as the recursive textbook definition, by the symbol ``x``
    (``kind`` "sym") or by the set ``x`` (``kind`` "pos" or "neg")."""
    key = (kind, x, r.eid)
    if key not in memo:
        alg = b.algebra
        if isinstance(r, Concat):
            head = b.concat(_recursive_deriv(b, kind, x, r.head, memo), r.tail)
            if r.head.nullable:
                head = b.union(head, _recursive_deriv(b, kind, x, r.tail, memo))
            memo[key] = head
        elif isinstance(r, (Union, And)):
            parts = (_recursive_deriv(b, kind, x, m, memo) for m in r.members)
            memo[key] = b.union(*parts) if isinstance(r, Union) else b.and_(*parts)
        elif isinstance(r, Star):
            memo[key] = b.concat(_recursive_deriv(b, kind, x, r.inner, memo), r)
        elif isinstance(r, Not):
            flipped = {"pos": "neg", "neg": "pos"}.get(kind, kind)
            memo[key] = b.not_(_recursive_deriv(b, flipped, x, r.inner, memo))
        elif isinstance(r, Literal):
            if kind == "sym":
                hit = alg.contains(r.symbols, x)
            elif kind == "pos":
                hit = not alg.is_empty(alg.intersect(x, r.symbols))
            else:
                hit = alg.is_empty(alg.intersect(x, alg.complement(r.symbols)))
            memo[key] = b.epsilon() if hit else b.bottom()
        else:
            memo[key] = b.bottom()
    return memo[key]


def test_symbol_derivative_interns_as_the_recursion_does():
    # the loop down a concatenation makes one union of its terms, where the
    # recursion nests a union per nullable head: on one builder the two give
    # the same node; on two builders they render alike, and the loop interns
    # no node that the recursion does not, only fewer (no intermediate
    # union); the set derivatives share that loop
    alg = BitsetAlgebra("ab")
    sets = [alg.from_chars(cs) for cs in ("a", "b", "ab")]
    probes = (
        ("sym", deriv_symbol, "ab", 520, 521),
        ("pos", pos_deriv, sets, 549, 550),
        ("neg", neg_deriv, sets, 541, 542),
    )
    for kind, deriv, xs, looped_size, recursive_size in probes:
        rng = random.Random(23)
        raws = [random_raw(rng, alg, 12) for _ in range(300)]
        one, one_memo = ExprBuilder(alg), {}
        looped, recursive, memo = ExprBuilder(alg), ExprBuilder(alg), {}
        for raw in raws:
            text = raw_text(raw)
            todo = [(one.parse(text), looped.parse(text), recursive.parse(text))]
            for _ in range(3):
                steps = []
                for q, r, s in todo:
                    for x in xs:
                        dq = deriv(one, x, q)
                        assert dq is _recursive_deriv(one, kind, x, q, one_memo), kind
                        dr, ds = deriv(looped, x, r), _recursive_deriv(recursive, kind, x, s, memo)
                        assert to_text(dr) == to_text(ds), kind
                        steps.append((dq, dr, ds))
                todo = steps
        texts = {to_text(n) for n in recursive._table.values()}
        assert all(to_text(n) in texts for n in looped._table.values()), kind
        assert (len(looped._table), len(recursive._table)) == (looped_size, recursive_size), kind


def test_concatenation_derivative_makes_one_entry(b):
    # a chain of nullable heads derives to one union of its terms: one entry
    # for the chain and one per member it derives, none for a suffix, and
    # one new node, the union
    r = b.parse("(a|())(a|())(a|())b")
    entries, nodes = len(b.deriv_cache), len(b._table)
    assert to_text(deriv_symbol(b, "a", r)) == "(()|a)(()|a)b|(()|a)b|b"
    assert (len(b.deriv_cache) - entries, len(b._table) - nodes) == (5, 1)
    suffixes = {r.tail.eid, r.tail.tail.eid}
    assert not any(key[2] in suffixes for key in b.deriv_cache)


def test_symbol_derivative_of_a_long_nullable_chain(two):
    # no probe recurses along the chain, and the singleton sets give the
    # symbol derivative
    chain = [two.char("b")]
    for _ in range(500):
        chain.append(two.concat(two.parse("a|()"), chain[-1]))
    r, alg = chain[-1], two.algebra
    assert deriv_symbol(two, "a", r) is two.union(*chain[:-1])
    assert deriv_symbol(two, "b", r) is two.epsilon()
    for a in "ab":
        singleton = alg.from_chars(a)
        assert pos_deriv(two, singleton, r) is deriv_symbol(two, a, r)
        assert neg_deriv(two, singleton, r) is deriv_symbol(two, a, r)
    both = alg.from_chars("ab")
    assert pos_deriv(two, both, r) is two.union(*chain[:-1], two.epsilon())
    assert neg_deriv(two, both, r) is two.bottom()


def test_chain_derivative_stops_at_a_derived_suffix(two, monkeypatch):
    # deriving the suffixes of a chain of nullable heads innermost first, as
    # the unfolding derives a union of them, walks one head per suffix
    chain = [two.char("b")]
    for _ in range(300):
        chain.append(two.concat(two.parse("a|()"), chain[-1]))
    calls, deriv = [], derivative._deriv
    monkeypatch.setattr(derivative, "_deriv", lambda *args: calls.append(args) or deriv(*args))
    for i in range(1, len(chain)):
        assert deriv_symbol(two, "a", chain[i]) is two.union(*chain[:i])
    assert len(calls) < 2 * len(chain)


# -- partial derivatives -----------------------------------------------------------


def test_partial_derivative_cases(two):
    p = two.parse
    assert partial_derivatives(two, "a", p("()")) == ()
    assert partial_derivatives(two, "a", p("b")) == ()
    assert partial_derivatives(two, "a", p("[ab]")) == (two.epsilon(),)
    assert set(partial_derivatives(two, "a", p("ab|aa"))) == {p("a"), p("b")}
    assert set(partial_derivatives(two, "a", p("(a|())ab"))) == {p("ab"), p("b")}
    assert set(partial_derivatives(two, "a", p("(ab|a)*"))) == {p("b(ab|a)*"), p("(ab|a)*")}
    # an & without ! is the product of its members' terms; ! and an & with
    # a ! member are one term, their symbol derivative
    product = {two.and_(x, y) for x in (p("b"), p("a*")) for y in (p(".*a"), p("()"))}
    assert set(partial_derivatives(two, "a", p("(ab|aa*)&.*a"))) == product
    for text in ("!(ab|aa)", "(ab|aa)&!b", "a&!()"):
        assert partial_derivatives(two, "a", p(text)) == (deriv_symbol(two, "a", p(text)),)
    # ... and none when that is []
    assert deriv_symbol(two, "b", p("a&!()")) is two.bottom()
    assert partial_derivatives(two, "b", p("a&!()")) == ()


def test_partial_derivatives_split_the_symbol_derivative(two):
    # the terms are distinct, none is [], and their union has the language
    # of the symbol derivative
    oracle = SliceOracle(two, 5)
    rng = random.Random(23)
    for _ in range(300):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 10, C3_WEIGHTS)))
        for a in "ab":
            terms = partial_derivatives(two, a, r)
            assert len(set(terms)) == len(terms) and two.bottom() not in terms
            union = frozenset().union(*(oracle.slice(t) for t in terms))
            assert union == oracle.slice(deriv_symbol(two, a, r)), to_text(r)


# -- word derivative ---------------------------------------------------------------


def test_word_derivative(b):
    r = b.parse("ab")
    assert deriv_word(b, "", r) is r
    assert deriv_word(b, "ab", r).nullable
    assert not deriv_word(b, "c", b.parse("a|b")).nullable
    assert deriv_word(b, "ab", b.parse("(ab)*")) is b.parse("(ab)*")


def test_word_inclusion_bounded(two):
    # u in language  iff  the derivative by u is nullable, for all |u| <= N
    oracle = SliceOracle(two, 5)
    rng = random.Random(22)
    for _ in range(200):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 8)))
        words = oracle.slice(r)
        for u in oracle.all_words():
            assert (u in words) == deriv_word(two, u, r).nullable


# -- approximation properties -------------------------------------------------------


def _slice_family(oracle, b, r, chars):
    return [oracle.slice(deriv_symbol(b, a, r)) for a in chars]


def test_set_derivatives_bound_symbol_derivatives(two):
    # positive covers the union, negative is inside the intersection,
    # for arbitrary literals, not just next literals
    oracle = SliceOracle(two, N)
    rng = random.Random(23)
    for _ in range(500):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 8)))
        a_set = random_set(rng, two.algebra)
        members = two.algebra.members(a_set)
        pos = oracle.slice(pos_deriv(two, a_set, r))
        neg = oracle.slice(neg_deriv(two, a_set, r))
        family = _slice_family(oracle, two, r, members)
        union = frozenset().union(*family) if family else frozenset()
        inter = oracle.all_words()
        for s in family:
            inter &= s
        assert union <= pos
        assert neg <= inter


def test_left_quotient_on_refining_classes(two):
    # On next literals the symbol derivative is sandwiched between the two
    # set derivatives, and every symbol of a class derives the same language.
    oracle = SliceOracle(two, N)
    rng = random.Random(24)
    for _ in range(500):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 8)))
        for a_set in next_literals(two, r):
            slices = {
                oracle.slice(deriv_symbol(two, a, r))
                for a in two.algebra.members(a_set)
            }
            assert len(slices) == 1
            (symbol_slice,) = slices
            assert oracle.slice(neg_deriv(two, a_set, r)) <= symbol_slice
            assert symbol_slice <= oracle.slice(pos_deriv(two, a_set, r))


def test_set_derivative_equality_gap_on_collapsed_negation(two):
    """The set derivatives are exact on every next literal of a negation
    whose inner partition collapsed.

    For r = !(a&b) the meet at a&b covers nothing, but its leading literals
    a and b still split the next literals of r: a complement class holding
    both would see them hit by the positive derivative and missed by the
    negative one, and the two would then differ at the empty word.  The
    mirrored example one negation deeper puts the collapsed b&(a|()) under a
    union with !. instead.  On every class, the positive, negative and
    symbol derivatives of each of its symbols have the same language.
    """
    oracle = SliceOracle(two, N)
    alg = two.algebra
    for text in ("!(a&b)", "!.|b&(a|())"):
        r = two.parse(text)
        classes = next_literals(two, r)
        assert partition_union(alg, classes) == alg.top()
        for a_set in classes:
            pos_slice = oracle.slice(pos_deriv(two, a_set, r))
            neg_slice = oracle.slice(neg_deriv(two, a_set, r))
            assert pos_slice == neg_slice, (text, alg.format_set(a_set))
            for a in alg.members(a_set):
                assert oracle.slice(deriv_symbol(two, a, r)) == pos_slice


def test_coverage_directions(two):
    # u in the a-derivative iff some class containing a covers it positively;
    # and any word inside both set derivatives of a class is in the
    # symbol derivative of each of its symbols.
    oracle = SliceOracle(two, N)
    rng = random.Random(25)
    for _ in range(300):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 8)))
        part = next_literals(two, r)
        for a in two.algebra.symbols:
            hosts = [c for c in part if two.algebra.contains(c, a)]
            da = oracle.slice(deriv_symbol(two, a, r))
            for u in da:
                assert any(u in oracle.slice(pos_deriv(two, c, r)) for c in hosts)
            for c in hosts:
                both = oracle.slice(pos_deriv(two, c, r)) & oracle.slice(
                    neg_deriv(two, c, r)
                )
                assert both <= da


def test_symbols_outside_next_have_empty_derivatives(two):
    oracle = SliceOracle(two, N)
    rng = random.Random(26)
    for _ in range(300):
        r = two.parse(raw_text(random_raw(rng, two.algebra, 8)))
        covered = partition_union(two.algebra, next_literals(two, r))
        for a in two.algebra.symbols:
            if not two.algebra.contains(covered, a):
                assert not oracle.slice(deriv_symbol(two, a, r))


def test_derivatives_are_normalized(b):
    # outputs always come back through the smart constructors
    r = b.parse("(ac)&(bc)")
    out = pos_deriv(b, b.algebra.from_chars("ab"), r)
    assert to_text(out) == "c"  # c&c collapses
