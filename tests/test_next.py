import random

import pytest

from symre import containment, derivative, nextlit
from symre.alphabet import AlgebraError, BitsetAlgebra, FiniteCofiniteAlgebra, IntervalAlgebra
from symre.containment import Checker
from symre.derivative import deriv_symbol, refines_next
from symre.nextlit import (
    canonical_partition,
    join,
    left_join,
    meet,
    next_literals,
    next_of_ineq,
    pair_classes,
    partition_union,
    witnessed_left_join,
)
from symre.syntax import And, Concat, Epsilon, ExprBuilder, Literal, Not, Star, Union, width

from exprgen import C3_WEIGHTS, random_partition, random_raw, raw_text


@pytest.fixture
def b():
    return ExprBuilder(BitsetAlgebra("abc"))


def _sets(alg, *groups):
    return tuple(alg.from_chars(g) for g in groups)


# -- join family -----------------------------------------------------------------


def test_join_examples(b):
    alg = b.algebra
    assert join(alg, _sets(alg, "a"), _sets(alg, "b")) == _sets(alg, "a", "b")
    assert join(alg, _sets(alg, "ab"), _sets(alg, "bc")) == _sets(alg, "a", "b", "c")
    assert join(alg, (), _sets(alg, "a")) == _sets(alg, "a")
    assert join(alg, _sets(alg, "a"), ()) == _sets(alg, "a")


def test_left_join_examples(b):
    alg = b.algebra
    assert left_join(alg, _sets(alg, "abc"), _sets(alg, "a", "b")) == _sets(
        alg, "a", "b", "c"
    )
    assert left_join(alg, _sets(alg, "a"), _sets(alg, "b")) == _sets(alg, "a")
    assert left_join(alg, _sets(alg, "a"), ()) == _sets(alg, "a")
    assert left_join(alg, (), _sets(alg, "b")) == ()


def test_meet_examples(b):
    alg = b.algebra
    assert meet(alg, _sets(alg, "a"), _sets(alg, "b")) == ()
    assert meet(alg, _sets(alg, "ab"), _sets(alg, "bc")) == _sets(alg, "b")
    part = _sets(alg, "a", "c")
    assert meet(alg, part, (alg.top(),)) == part


def test_join_idempotent_random():
    alg = BitsetAlgebra("abcdefgh")
    rng = random.Random(31)
    for _ in range(300):
        part = random_partition(rng, alg)
        assert join(alg, part, part) == canonical_partition(alg, part)


def _denote(alg, s):
    return frozenset(alg.members(s))


def _brute_join(alg, l1, l2, keep_left_only=True, keep_right_only=True):
    u1 = frozenset().union(*(_denote(alg, a) for a in l1)) if l1 else frozenset()
    u2 = frozenset().union(*(_denote(alg, a) for a in l2)) if l2 else frozenset()
    out = set()
    for a1 in l1:
        d1 = _denote(alg, a1)
        for a2 in l2:
            out.add(d1 & _denote(alg, a2))
        if keep_left_only:
            out.add(d1 - u2)
    if keep_right_only:
        for a2 in l2:
            out.add(_denote(alg, a2) - u1)
    return frozenset(s for s in out if s)


def test_join_properties_against_brute_force():
    alg = BitsetAlgebra("abcdefgh")
    rng = random.Random(32)
    for _ in range(1000):
        l1, l2 = random_partition(rng, alg), random_partition(rng, alg)
        for op, brute in (
            (join, _brute_join(alg, l1, l2)),
            (left_join, _brute_join(alg, l1, l2, keep_right_only=False)),
            (meet, _brute_join(alg, l1, l2, False, False)),
        ):
            got = op(alg, l1, l2)
            assert frozenset(_denote(alg, s) for s in got) == brute
            # disjointness
            members = [_denote(alg, s) for s in got]
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    assert not (x & y)
            # refinement: overlapping an input literal means contained in it
            for x in members:
                for side in (l1, l2):
                    for a in side:
                        if x & _denote(alg, a):
                            assert x <= _denote(alg, a)
        # coverage items
        u1 = frozenset().union(*(_denote(alg, a) for a in l1))
        u2 = frozenset().union(*(_denote(alg, a) for a in l2))
        assert frozenset().union(
            *(_denote(alg, s) for s in join(alg, l1, l2))
        ) == u1 | u2
        assert frozenset().union(
            *(_denote(alg, s) for s in left_join(alg, l1, l2)), frozenset()
        ) == u1


# -- next literals ------------------------------------------------------------------


def test_next_base_cases(b):
    alg = b.algebra
    assert next_literals(b, b.epsilon()) == ()
    assert next_literals(b, b.bottom()) == ()
    assert next_literals(b, b.char("a")) == _sets(alg, "a")
    assert next_literals(b, b.star(b.char("a"))) == _sets(alg, "a")


def test_next_of_merged_union(b):
    # literal merging yields the single-class partition
    assert next_literals(b, b.parse("(a|b)|c")) == (b.algebra.top(),)


def test_next_of_concat(b):
    alg = b.algebra
    assert next_literals(b, b.parse("ab")) == _sets(alg, "a")
    assert next_literals(b, b.parse("a*b")) == _sets(alg, "a", "b")


def test_next_of_negation(b):
    alg = b.algebra
    assert next_literals(b, b.parse("!(a|b)")) == _sets(alg, "ab", "c")
    # negation of an expression with no next literals covers everything
    assert next_literals(b, b.parse("!()")) == (alg.top(),)
    # a&b covers nothing, yet its leading literals a and b still split the
    # complement member, which would otherwise straddle both
    assert next_literals(b, b.parse("!(a&b)")) == _sets(alg, "a", "b", "c")
    # the same when the ``&`` leads a concatenation under the negation
    assert next_literals(b, b.parse("!((a&c)b)")) == _sets(alg, "a", "b", "c")


def test_next_of_intersection(b):
    alg = b.algebra
    assert next_literals(b, b.parse("a&b")) == ()
    assert next_literals(b, b.parse("(a|b)&(b|c)")) == _sets(alg, "b")
    # the literals a&b drops still split what a concatenation with a nullable
    # head and a union cover, and the coverage stays that of the plain join
    assert next_literals(b, b.parse("(b&a)*.")) == _sets(alg, "a", "b", "c")
    assert next_literals(b, b.parse("[ab]c|a&b")) == _sets(alg, "a", "b")


def test_next_of_long_nullable_chain(b):
    # no recursion along the chain of nullable heads, however long it is
    r = b.parse("(a|())" * 250 + "b")
    assert next_literals(b, r) == _sets(b.algebra, "a", "b")
    assert next_literals(b, b.parse("a*" * 2000)) == _sets(b.algebra, "a")


def test_next_ineq_pinned_forms(b):
    alg = b.algebra
    r, s = b.parse("(a|b)|c"), b.parse("a|b")
    assert next_of_ineq(b, r, s) == _sets(alg, "ab", "c")
    assert next_of_ineq(b, b.char("a"), b.bottom()) == _sets(alg, "a")
    rr = b.parse("a*b")
    refined = next_of_ineq(b, rr, rr)
    assert partition_union(alg, refined) == partition_union(
        alg, next_literals(b, rr)
    )


@pytest.mark.parametrize(
    "alg",
    [BitsetAlgebra("abc"), IntervalAlgebra(), FiniteCofiniteAlgebra()],
    ids=["bitset", "interval", "cofinite"],
)
def test_partition_union_starts_from_the_first_part(alg, monkeypatch):
    # k parts take k - 1 unions, none of them with []; no part gives []
    b = ExprBuilder(alg)
    parts = tuple(b.parse(c).symbols for c in "abc")
    union, calls = alg.union, []
    monkeypatch.setattr(alg, "union", lambda x, y: calls.append((x, y)) or union(x, y))
    assert partition_union(alg, parts) == b.parse("[abc]").symbols
    assert calls == [parts[:2], (b.parse("[ab]").symbols, parts[2])]
    assert partition_union(alg, parts[:1]) is parts[0]
    assert partition_union(alg, ()) == alg.bottom() and len(calls) == 2


def _leading_literals(r):
    """The literals the derivative operators reach from the root of ``r``."""
    if isinstance(r, Literal):
        yield r.symbols
    elif isinstance(r, (Union, And)):
        for m in r.members:
            yield from _leading_literals(m)
    elif isinstance(r, Concat):
        yield from _leading_literals(r.head)
        if r.head.nullable:
            yield from _leading_literals(r.tail)
    elif isinstance(r, (Star, Not)):
        yield from _leading_literals(r.inner)


def _coverage(alg, r):
    """What the partition covers: an ``&`` keeps only the common symbols."""
    if isinstance(r, Literal):
        return r.symbols
    if isinstance(r, Union):
        return partition_union(alg, tuple(_coverage(alg, m) for m in r.members))
    if isinstance(r, And):
        out = alg.top()
        for m in r.members:
            out = alg.intersect(out, _coverage(alg, m))
        return out
    if isinstance(r, Concat):
        if r.head.nullable:
            return alg.union(_coverage(alg, r.head), _coverage(alg, r.tail))
        return _coverage(alg, r.head)
    if isinstance(r, Star):
        return _coverage(alg, r.inner)
    if isinstance(r, Not):
        return alg.top()
    return alg.bottom()


def _brute_minterms(alg, r):
    """Group the symbols by the leading literals they belong to; keep the
    groups inside the coverage."""
    lits = list(_leading_literals(r))
    coverage = _coverage(alg, r)
    groups = {}
    for c in alg.symbols:
        pattern = tuple(alg.contains(lit, c) for lit in lits)
        groups.setdefault(pattern, []).append(c)
    sets = (alg.from_chars(g) for g in groups.values())
    return canonical_partition(alg, (s for s in sets if alg.is_subset(s, coverage)))


def _random_expressions(b):
    rng = random.Random(33)
    return [b.parse(raw_text(random_raw(rng, b.algebra, 9))) for _ in range(500)]


_CLASS_TEMPLATES = [
    "[a-z]*[0-9]",
    ".*[^a-c]x",
    "([^b]|\\u{1f600})*&!(.*b.*)",
    "(()|[a-m])[^x]*|x",
    "!([a-z]*)&[^0-9]*",
]


def test_lead_is_set_when_a_node_is_interned():
    rng = random.Random(28)
    cases = [
        (
            BitsetAlgebra("abc"),
            [raw_text(random_raw(rng, BitsetAlgebra("abc"), 10, C3_WEIGHTS)) for _ in range(300)],
        ),
        (IntervalAlgebra(), _CLASS_TEMPLATES),
        (FiniteCofiniteAlgebra(), _CLASS_TEMPLATES),
    ]
    for alg, texts in cases:
        b = ExprBuilder(alg)
        nodes = [b.parse(t) for t in texts]
        # the checks intern the derivatives of both sides as well
        for r, s in zip(nodes, nodes[1:] + nodes[:1]):
            Checker(b).check(r, s)
        kinds = set()
        leads = {}  # the first lead object met of each value
        for n in b._table.values():
            kinds.add(type(n))
            literals = tuple(dict.fromkeys(_leading_literals(n)))
            assert n.lead == (literals, _coverage(alg, n)), repr(n)
            # leads are interned: nodes with equal leads share one object
            assert leads.setdefault(n.lead, n.lead) is n.lead, repr(n)
            # a slot, as ``nullable`` is: no node keeps a per-instance dict
            assert not hasattr(n, "__dict__"), type(n)
        # one partition per lead object: nodes with the same lead share it
        partitions = {}
        for n in list(b._table.values()):
            part = next_literals(b, n)
            assert partitions.setdefault(id(n.lead), part) is part, repr(n)
        assert len(b.next_cache) == len(partitions) == len(leads)
        if len(texts) > len(_CLASS_TEMPLATES):
            assert kinds == {Epsilon, Literal, Union, Concat, Star, And, Not}
    # a star and a word share the ``lead`` of their head literal, the object
    b = ExprBuilder(BitsetAlgebra("ab"))
    assert b.parse("a*").lead is b.parse("a").lead is b.parse("ab").lead
    # and so does a node whose lead is only equal to theirs
    assert b.parse("a*a").lead is b.parse("a").lead
    assert b.parse("(a|b)*(a|b)").lead is b.parse("b|a").lead


def test_partition_invariants_on_random_expressions():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    for r in _random_expressions(b):
        part = next_literals(b, r)
        for s in part:
            assert not alg.is_empty(s)
        for i, x in enumerate(part):
            for y in part[i + 1 :]:
                assert alg.is_empty(alg.intersect(x, y))
        # canonical order: ascending least members
        keys = [alg.symbol_key(alg.pick_witness(s)) for s in part]
        assert keys == sorted(keys)
        # each member refines every leading literal, and an ``&`` still
        # covers only what its members have in common
        assert partition_union(alg, part) == _coverage(alg, r), repr(r)
        for s in part:
            for lit in _leading_literals(r):
                overlap = alg.intersect(s, lit)
                assert alg.is_empty(overlap) or overlap == s, (repr(r), str(s))
        # and the members are exactly the minterms of the leading literals
        # inside the coverage, so no class is split more finely than needed
        assert part == _brute_minterms(alg, r), repr(r)


def test_pair_classes_carry_witnesses():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    exprs = _random_expressions(b)
    for r, s in list(zip(exprs, exprs[1:])) + list(zip(exprs[1:], exprs)):
        branches = pair_classes(b, r, s)
        left, right = next_literals(b, r), next_literals(b, s)
        assert tuple(c for c, _ in branches) == left_join(alg, left, right)
        for c, w in branches:
            assert w == alg.pick_witness(c)
            assert any(alg.is_subset(c, m) for m in left)
            if not any(alg.is_subset(c, m) for m in right):
                assert alg.is_empty(alg.intersect(c, partition_union(alg, right)))
                assert deriv_symbol(b, w, s) is b.bottom(), (repr(r), repr(s))


def test_witnessed_left_join_matches_left_join():
    alg = BitsetAlgebra("abcdefgh")
    rng = random.Random(47)
    for _ in range(1000):
        left, right = random_partition(rng, alg), random_partition(rng, alg)
        expected = tuple((c, alg.pick_witness(c)) for c in left_join(alg, left, right))
        assert witnessed_left_join(alg, left, right) == expected


def test_refines_next_matches_its_definition():
    # every subset of the alphabet, the empty set included, against the
    # definition: inside one next literal, or outside all of them
    alg = BitsetAlgebra("abc")
    b = ExprBuilder(alg)
    subsets = [alg.from_chars(c for k, c in enumerate("abc") if m >> k & 1) for m in range(8)]
    rng = random.Random(48)
    for _ in range(300):
        r = b.parse(raw_text(random_raw(rng, alg, 10, C3_WEIGHTS)))
        part = next_literals(b, r)
        for a_set in subsets:
            inside_one = any(alg.is_subset(a_set, m) for m in part)
            misses_all = all(alg.is_empty(alg.intersect(a_set, m)) for m in part)
            assert refines_next(b, a_set, r) == (inside_one or misses_all), (repr(r), str(a_set))


def test_finiteness_bound_on_exponential_family():
    # conjunction of n star-guarded two-way unions over complementary
    # bit-slice sets: 2^n next literals, within the 2^width bound
    n = 6
    chars = "".join(chr(0x30 + i) for i in range(1 << n))
    alg = BitsetAlgebra(chars)
    b = ExprBuilder(alg)
    conjuncts = []
    for i in range(n):
        low = alg.from_chars([c for k, c in enumerate(chars) if not (k >> i) & 1])
        conjuncts.append(b.union(b.star(b.literal(low)), b.literal(alg.complement(low))))
    family = b.and_(*conjuncts)
    part = next_literals(b, family)
    assert len(part) == 1 << n
    assert len(part) <= 1 << width(family)


# -- the builder's partition memo --------------------------------------------------


def test_partition_memo_runs_each_combination_once(monkeypatch):
    # the unfolding meets a handful of distinct leads at thousands of
    # pairs; the minterms run once per distinct lead, and the classes once
    # per distinct pair of partitions
    runs = []
    for name in ("join", "left_join", "meet", "minterms", "witnessed_left_join"):
        original = getattr(nextlit, name)

        def counting(alg, left, right, _name=name, _original=original):
            runs.append(_name)
            return _original(alg, left, right)

        monkeypatch.setattr(nextlit, name, counting)
    b = ExprBuilder(BitsetAlgebra("ab"))
    r = b.parse("(a|b)*a" + "(a|b)" * 9)
    s = b.union(r, b.parse("(a|b)*b" + "(a|b)" * 9))
    verdict = Checker(b).check(r, s)
    assert verdict.holds and verdict.stats.visited == 4095
    assert runs == ["minterms", "minterms", "witnessed_left_join"]


def test_pair_classes_are_memoized_by_the_two_leads(monkeypatch):
    # the classes of a pair are looked up by the identities of its two
    # leads, so the memo is bounded by the distinct leads, not by the
    # pairs: all 4095 pairs below have one pair of leads, and only the
    # first asks for the two sides' partitions
    partitions = []
    original = nextlit.next_literals

    def counting(b, r):
        partitions.append(r)
        return original(b, r)

    monkeypatch.setattr(nextlit, "next_literals", counting)
    b = ExprBuilder(BitsetAlgebra("ab"))
    r = b.parse("(a|b)*a" + "(a|b)" * 9)
    s = b.union(r, b.parse("(a|b)*b" + "(a|b)" * 9))
    verdict = Checker(b).check(r, s)
    assert verdict.holds and verdict.stats.visited == 4095
    assert partitions == [r, s]
    # a partition per side's lead, and the classes of the one pair of
    # leads: by the two partitions' values and by the leads' identities
    assert (len(b.next_cache), len(b.partition_cache)) == (2, 2)
    # pairs of nodes with the same two leads share one tuple of classes
    x, y = b.parse("a*a"), b.parse("b*")
    assert nextlit.pair_classes(b, x, y) is nextlit.pair_classes(b, b.parse("a"), b.parse("bb"))


def test_unfolding_branch_takes_two_symbol_derivatives(monkeypatch):
    # a branch reads its witness from the memoized pair classes: no
    # refinement check and no witness search per branch
    alg = BitsetAlgebra("ab")
    calls = []
    inside = []  # open memoized partition operations
    for name in ("deriv_literal", "refines_next"):
        def counting(*args, _name=name, _original=getattr(derivative, name)):
            calls.append(_name)
            return _original(*args)

        for m in (derivative, containment):
            monkeypatch.setattr(m, name, counting, raising=False)
    for name in ("minterms", "witnessed_left_join"):
        def scoped(*args, _original=getattr(nextlit, name)):
            inside.append(True)
            try:
                return _original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(nextlit, name, scoped)
    pick_witness = alg.pick_witness

    def counting_witness(a_set):
        if not inside:
            calls.append("pick_witness")
        return pick_witness(a_set)

    monkeypatch.setattr(alg, "pick_witness", counting_witness)
    b = ExprBuilder(alg)
    r = b.parse("(a|b)*a" + "(a|b)" * 9)
    s = b.union(r, b.parse("(a|b)*b" + "(a|b)" * 9))
    verdict = Checker(b).check(r, s)
    assert verdict.holds and verdict.stats.visited == 4095
    assert calls == []


def test_partition_memo_answers_as_a_fresh_builder():
    alg = BitsetAlgebra("abc")
    rng = random.Random(46)
    raws = [random_raw(rng, alg, 10, C3_WEIGHTS) for _ in range(600)]
    warm = ExprBuilder(alg)
    exprs = [warm.parse(raw_text(raw)) for raw in raws]

    def results(b, r, s):
        classes = next_of_ineq(b, r, s)
        probes = classes + next_literals(b, s)
        return (
            next_literals(b, r),
            classes,
            pair_classes(b, r, s),
            [refines_next(b, a, r) for a in probes],
            [refines_next(b, a, s) for a in probes],
        )

    for r, s in zip(exprs, exprs[1:]):
        results(warm, r, s)
    assert warm.partition_cache
    for raw_r, raw_s, r, s in zip(raws, raws[1:], exprs, exprs[1:]):
        fresh = ExprBuilder(alg)
        expected = results(fresh, fresh.parse(raw_text(raw_r)), fresh.parse(raw_text(raw_s)))
        assert results(warm, r, s) == expected, (repr(r), repr(s))


def test_partition_memo_rejects_foreign_sets():
    # a set of another algebra instance reaches the set operations, which
    # reject it
    b = ExprBuilder(BitsetAlgebra("abc"))
    r = b.parse("a|b")
    assert refines_next(b, b.algebra.from_chars("a"), r)
    with pytest.raises(AlgebraError):
        refines_next(b, BitsetAlgebra("abc").from_chars("a"), r)
