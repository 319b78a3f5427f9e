import random

import pytest
from hypothesis import given, strategies as st

from symre.alphabet import (
    BLOCK_BITS,
    AlgebraError,
    BitsetAlgebra,
    FiniteCofiniteAlgebra,
    IntervalAlgebra,
    merge_intervals,
)
from symre.containment import Checker, membership
from symre.regexalg import RegexAlgebra
from symre.syntax import ExprBuilder, parse_class_text

BITS = BitsetAlgebra("abcdefgh")
IVALS = IntervalAlgebra(0x20, 0x2FF)
FC = FiniteCofiniteAlgebra(ord("a"), ord("z"))

bit_sets = st.sets(st.sampled_from(BITS.symbols)).map(BITS.from_chars)
interval_sets = st.lists(
    st.tuples(st.integers(0x20, 0x2FF), st.integers(0x20, 0x2FF)), max_size=6
).map(lambda ps: IVALS.class_set([(min(a, b), max(a, b)) for a, b in ps], False))
fc_sets = st.tuples(
    st.booleans(), st.sets(st.sampled_from("abcdefghijklmnopqrstuvwxyz"), max_size=6)
).map(lambda t: FC.cofinite(t[1]) if t[0] else FC.finite(t[1]))

law_cases = st.one_of(
    st.tuples(st.just(alg), strat, strat, strat)
    for alg, strat in ((BITS, bit_sets), (IVALS, interval_sets), (FC, fc_sets))
)


@given(law_cases)
def test_boolean_laws(case):
    alg, a, b, c = case
    assert alg.is_equal(alg.union(a, b), alg.union(b, a))
    assert alg.is_equal(alg.intersect(a, b), alg.intersect(b, a))
    assert alg.is_equal(
        alg.union(alg.union(a, b), c), alg.union(a, alg.union(b, c))
    )
    assert alg.is_equal(
        alg.intersect(alg.intersect(a, b), c), alg.intersect(a, alg.intersect(b, c))
    )
    assert alg.is_equal(
        alg.complement(alg.union(a, b)),
        alg.intersect(alg.complement(a), alg.complement(b)),
    )
    assert alg.is_equal(
        alg.complement(alg.intersect(a, b)),
        alg.union(alg.complement(a), alg.complement(b)),
    )
    assert alg.is_equal(alg.complement(alg.complement(a)), a)
    assert alg.is_empty(alg.intersect(a, alg.complement(a)))
    assert alg.is_equal(alg.union(a, alg.complement(a)), alg.top())


@given(law_cases)
def test_canonical_representations(case):
    # Equal denotations built through different op orders compare structurally.
    alg, a, b, _ = case
    x = alg.union(a, b)
    y = alg.complement(alg.intersect(alg.complement(a), alg.complement(b)))
    assert x == y
    assert alg.is_equal(x, y)
    assert hash(x) == hash(y)
    if alg is FC:
        # the finite/cofinite algebra interns its sets
        assert x is y


@given(law_cases)
def test_pick_witness_is_member(case):
    alg, a, _, _ = case
    if alg.is_empty(a):
        with pytest.raises(AlgebraError):
            alg.pick_witness(a)
    else:
        assert alg.contains(a, alg.pick_witness(a))


@given(law_cases)
def test_singleton_is_the_one_member(case):
    # the symbol of a set of exactly one symbol, and None for any other set
    alg, a, _, _ = case
    one = None
    if not alg.is_empty(a):
        x = alg.pick_witness(a)
        rest = alg.intersect(a, alg.complement(alg.class_set([(ord(x), ord(x))], False)))
        one = x if alg.is_empty(rest) else None
    assert alg.singleton(a) == one


def test_singleton_examples():
    abc = BitsetAlgebra("abc")
    assert abc.singleton(abc.from_chars("b")) == "b"
    assert abc.singleton(abc.bottom()) is None
    assert abc.singleton(abc.from_chars("ac")) is None
    lone = BitsetAlgebra("a")
    assert lone.singleton(lone.top()) == "a"
    uni = IntervalAlgebra()
    assert uni.singleton(uni.class_set([(ord("c"), ord("c"))], False)) == "c"
    assert uni.singleton(uni.class_set([(ord("a"), ord("c"))], False)) is None
    assert uni.singleton(uni.class_set([(97, 97), (99, 99)], False)) is None
    assert uni.singleton(uni.bottom()) is None
    point = IntervalAlgebra(0x4E00, 0x4E00)
    assert point.singleton(point.top()) == "\u4e00"
    fc = FiniteCofiniteAlgebra()
    assert fc.singleton(fc.finite("\u4e00")) == "\u4e00"
    assert fc.singleton(fc.finite("\U0001F600")) == "\U0001F600"
    assert fc.singleton(fc.finite("a\u4e00")) is None  # two blocks
    assert fc.singleton(fc.bottom()) is None
    assert fc.singleton(fc.top()) is None
    one = FiniteCofiniteAlgebra(97, 97)
    top = one.top()
    assert top.cofinite and one.singleton(top) == "a"
    regex = RegexAlgebra("ab")
    assert regex.singleton(regex.set_of("a")) is None
    assert regex.singleton(regex.top()) is None


def test_bottom_and_top():
    assert BITS.is_empty(BITS.bottom())
    assert BITS.members(BITS.top()) == BITS.symbols
    top = FC.top()
    assert top.cofinite and not top.members
    assert not FC.is_empty(top)
    assert IVALS.is_empty(IVALS.intersect(IVALS.bottom(), IVALS.top()))


def test_set_op_examples():
    abc = BitsetAlgebra("abc")
    assert abc.members(abc.intersect(abc.from_chars("ab"), abc.from_chars("bc"))) == ("b",)
    # witnesses of finite/cofinite sets are characters
    inv = FC.complement(FC.finite("a"))
    assert inv.cofinite and inv is FC.cofinite("a")
    assert FC.pick_witness(FC.finite("ca")) == "a" and FC.pick_witness(inv) == "b"
    assert FC.is_empty(abc_empty := FC.intersect(FC.finite("a"), FC.finite("b")))
    assert abc.is_subset(abc.from_chars("b"), abc.from_chars("abc"))


def test_interval_union_merges_ranges():
    alg = IntervalAlgebra(0, 0x10FFFF)
    a_m = alg.class_set([(ord("a"), ord("m"))], False)
    k_z = alg.class_set([(ord("k"), ord("z"))], False)
    merged = alg.union(a_m, k_z)
    assert merged.intervals == ((ord("a"), ord("z")),)
    # element-sampling oracle over nearby codepoints
    for cp in range(ord("a") - 4, ord("z") + 5):
        expected = alg.contains(a_m, chr(cp)) or alg.contains(k_z, chr(cp))
        assert alg.contains(merged, chr(cp)) == expected


def test_double_complement_sampled_oracle():
    alg = IntervalAlgebra(0, 0xFFFF)
    rng = random.Random(1)
    probes = [chr(rng.randrange(0x10000)) for _ in range(40)]
    for _ in range(1000):
        items = [
            (lo, min(0xFFFF, lo + rng.randrange(0, 300)))
            for lo in (rng.randrange(0x10000) for _ in range(rng.randrange(4)))
        ]
        a = alg.class_set(items, rng.random() < 0.5)
        back = alg.complement(alg.complement(a))
        assert back == a
        for p in probes:
            assert alg.contains(back, p) == alg.contains(a, p)


def test_contains_examples():
    abc = BitsetAlgebra("abc")
    assert abc.contains(abc.from_chars("ab"), "a")
    assert not abc.contains(abc.from_chars("ab"), "c")
    assert FC.contains(FC.cofinite("a"), "b")
    assert not FC.contains(FC.cofinite("a"), "a")
    alg = IntervalAlgebra()
    assert not alg.contains(alg.class_set([(ord("a"), ord("z"))], False), "0")
    # a cofinite set excludes every symbol outside the universe
    assert not FC.contains(FC.cofinite("a"), "A")
    assert not FC.contains(FC.top(), "{")


def test_pick_witness_examples():
    abc = BitsetAlgebra("abc")
    assert abc.pick_witness(abc.from_chars("ba")) == "a"
    assert FC.pick_witness(FC.cofinite("a")) == "b"
    # independent check: first universe codepoint not excluded
    excluded = FC.cofinite("abd")
    scan = next(
        chr(cp)
        for cp in range(FC.min_codepoint, FC.max_codepoint + 1)
        if chr(cp) not in "abd"
    )
    assert FC.pick_witness(excluded) == scan == "c"
    alg = IntervalAlgebra()
    assert alg.pick_witness(alg.class_set([(ord("k"), ord("z"))], False)) == "k"
    # repeated calls on equal sets return the same symbol
    again = alg.class_set([(ord("k"), ord("z"))], False)
    assert alg.pick_witness(again) == "k"


def test_finite_cofinite_canonical_tag():
    small = FiniteCofiniteAlgebra(ord("a"), ord("d"))
    flipped = small.finite("abc")
    assert flipped.cofinite and flipped is small.cofinite("d")
    assert small.is_equal(flipped, small.complement(small.finite("d")))
    # ties resolve to the finite tag
    half = small.finite("ab")
    assert not half.cofinite
    comp = small.complement(half)
    assert not comp.cofinite and comp is small.finite("cd")


def test_cofinite_never_enumerates_universe():
    alg = FiniteCofiniteAlgebra()
    before = alg.scan_steps
    big = alg.cofinite("abc")
    other = alg.cofinite("bcd")
    alg.union(big, other)
    alg.intersect(big, other)
    alg.complement(big)
    assert alg.scan_steps == before


def test_mixing_algebras_rejected():
    one, two = BitsetAlgebra("ab"), BitsetAlgebra("ab")
    with pytest.raises(AlgebraError):
        one.union(one.top(), two.top())
    # an equal-looking set of another finite/cofinite algebra misses a warm
    # memo and is still rejected
    fc, other = FiniteCofiniteAlgebra(), FiniteCofiniteAlgebra()
    mine, theirs = fc.finite("ab"), other.finite("ab")
    for op in (fc.union, fc.intersect):
        op(mine, mine)
        with pytest.raises(AlgebraError):
            op(mine, theirs)
        with pytest.raises(AlgebraError):
            op(theirs, mine)
    fc.pick_witness(mine)
    with pytest.raises(AlgebraError):
        fc.pick_witness(theirs)


@pytest.mark.parametrize("make, sample", [
    (lambda: BitsetAlgebra("ab"), lambda alg: alg.from_chars("a")),
    (IntervalAlgebra, lambda alg: alg.class_set([(ord("a"), ord("c"))], False)),
    (FiniteCofiniteAlgebra, lambda alg: alg.finite("ab")),
    (FiniteCofiniteAlgebra, lambda alg: alg.cofinite("ab")),
])
def test_sets_are_immutable_values_of_one_algebra(make, sample):
    alg, other = make(), make()
    s = sample(alg)
    for field in s._fields:
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(s, field))
    with pytest.raises(AttributeError):
        s.extra = 1
    # an equal set computed another way hashes equal
    twin = alg.union(alg.bottom(), alg.complement(alg.complement(s)))
    assert twin == s and hash(twin) == hash(s)
    # the same fields over another algebra instance make an unequal set,
    # which the algebra still rejects
    foreign = type(s)(other, *s[1:])
    assert foreign != s and foreign == sample(other)
    with pytest.raises(AlgebraError):
        alg.union(s, foreign)
    with pytest.raises(AlgebraError):
        alg.is_equal(foreign, s)
    assert str(s) == alg.format_set(s)


def test_constructors_reject_bad_input():
    with pytest.raises(AlgebraError, match="^bitset alphabet must not be empty$"):
        BitsetAlgebra("")
    with pytest.raises(AlgebraError, match="^symbol 'z' is not in the alphabet$"):
        BitsetAlgebra("ab").from_chars("z")
    for cls in (IntervalAlgebra, FiniteCofiniteAlgebra):
        for lo, hi in ((5, 4), (-1, 10), (0, 0x110000)):
            with pytest.raises(AlgebraError, match="^invalid codepoint range$"):
                cls(lo, hi)
    # a symbol outside the codepoint range would make a set that contains
    # nothing yet is not empty, and a cofinite set equal to top yet unequal
    for make in (FC.finite, FC.cofinite):
        for chars in ("A", "aA", "{"):
            with pytest.raises(AlgebraError, match="^symbol '[A{]' is not in the alphabet$"):
                make(chars)


@pytest.mark.parametrize("alg", [
    BitsetAlgebra("ab"), IntervalAlgebra(), FiniteCofiniteAlgebra(),
], ids=["bitset", "unicode", "cofinite"])
def test_a_symbol_that_is_not_one_character_is_in_no_set(alg):
    # over every alphabet, as for a symbol outside its universe; neither the
    # codepoint 97 nor the byte b"a" stands in for "a", whatever the
    # representation stores
    a, not_a = alg.class_set([(97, 97)], False), alg.class_set([(97, 97)], True)
    for bad in ("ab", "", 97, b"a", None):
        for s in (a, not_a, alg.top()):
            assert alg.contains(s, bad) is False
    b = ExprBuilder(alg)
    for word in (["ab"], [97], [b"a"], ["a", 97]):
        for text in ("!a", ".*", "!(b.*)"):
            assert not membership(b, word, b.parse(text))
    assert membership(b, ["a"], b.parse("!b"))
    # the constructors from characters refuse it
    makers = [getattr(alg, name) for name in ("from_chars", "finite", "cofinite") if hasattr(alg, name)]
    for make in makers:
        for bad, shown in (("ab", "'ab'"), (97, "97"), (b"a", "b'a'")):
            with pytest.raises(AlgebraError, match=f"^symbol {shown} is not in the alphabet$"):
                make(["a", bad])


def test_subset_via_complement_definition():
    a, b = BITS.from_chars("abc"), BITS.from_chars("ab")
    assert BITS.is_subset(b, a)
    assert not BITS.is_subset(a, b)
    assert BITS.is_subset(b, a) == BITS.is_empty(
        BITS.intersect(b, BITS.complement(a))
    )


def test_format_set():
    abc = BitsetAlgebra("abc")
    assert abc.format_set(abc.bottom()) == "[]"
    assert abc.format_set(abc.top()) == "."
    assert abc.format_set(abc.from_chars("a")) == "a"
    assert abc.format_set(abc.from_chars("ab")) == "[ab]"
    uni = IntervalAlgebra()
    assert uni.format_set(uni.class_set([(ord("a"), ord("b"))], True)) == "[^ab]"
    assert uni.format_set(uni.class_set([(ord("a"), ord("z"))], False)) == "[a-z]"
    assert uni.format_set(uni.class_set([(0, 0)], False)) == "\\u{0}"
    assert FC.format_set(FC.cofinite("ab")) == "[^ab]"
    assert FC.format_set(FC.bottom()) == "[]"
    assert FC.format_set(FC.top()) == "."
    assert FC.format_set(FC.finite("c")) == "c"
    assert FC.format_set(FC.finite("cab")) == "[a-c]"
    # a finite set renders its members even where the complement has fewer
    # intervals; the interval algebra renders the same set by the complement
    small_fc = FiniteCofiniteAlgebra(ord("a"), ord("f"))
    small_iv = IntervalAlgebra(ord("a"), ord("f"))
    assert small_fc.format_set(small_fc.finite("af")) == "[af]"
    assert small_iv.format_set(small_iv.class_set([(97, 97), (102, 102)], False)) == "[^b-e]"


@given(law_cases)
def test_format_set_round_trips(case):
    alg, a, _, _ = case
    assert parse_class_text(alg.format_set(a), alg) == a


def test_class_expansion_limit():
    # There is no limit: the full-range class is accepted, is ``.`` itself,
    # and is stored once.  Its scan steps are its codepoints, then the
    # universe again for the flip to the empty cofinite set.
    alg = FiniteCofiniteAlgebra()
    full = alg.class_set([(0, 0x10FFFF)], False)
    assert full is alg.top() and full.cofinite and full.members == ()
    assert alg.scan_steps == 2 * 0x110000
    assert alg.class_set([(0, 0x10FFFF)], False) is full
    assert alg.scan_steps == 2 * 0x110000 and len(alg._memo) == 2  # the set and its class
    assert parse_class_text("[\\u{0}-\\u{10ffff}]", alg) is full
    assert alg.complement(alg.class_set([(0, 0x10FFFF)], True)) is full


def test_a_class_is_expanded_once_per_algebra():
    alg = FiniteCofiniteAlgebra()
    cjk = parse_class_text("[\\u{4e00}-\\u{9fff}]", alg)
    assert alg.scan_steps == 0x9FFF - 0x4E00 + 1 == 20992
    assert parse_class_text("[\\u{4e00}-\\u{9fff}]", alg) is cjk
    assert alg.scan_steps == 20992
    # the memo key is the merged ranges, however the class spells them
    abc = parse_class_text("[a-c]", alg)
    assert parse_class_text("[cba]", alg) is abc
    assert alg.scan_steps == 20992 + 3
    negated = parse_class_text("[^a-c]", alg)
    assert negated is not abc and negated is alg.complement(abc)
    # another algebra expands the class again
    fresh = FiniteCofiniteAlgebra()
    assert parse_class_text("[\\u{4e00}-\\u{9fff}]", fresh) != cjk
    assert fresh.scan_steps == 20992


def _random_items(rng, lo, hi):
    """One to four codepoint ranges near ``lo..hi``: some cross a multiple of
    ``BLOCK_BITS``, some reach past the universe, and some are wide enough
    that a few of them hold half of it (but never 16000 codepoints)."""
    items = []
    for _ in range(rng.randrange(1, 5)):
        roll = rng.random()
        if roll < 0.4:
            edge = rng.randrange(lo // BLOCK_BITS, hi // BLOCK_BITS + 2) * BLOCK_BITS
            start, end = edge - rng.randrange(1, 40), edge + rng.randrange(40)
        elif roll < 0.5:
            start, end = hi - rng.randrange(40), hi + rng.randrange(3)
        else:
            start = rng.randrange(lo - 2, hi + 1)
            end = start + rng.randrange(3 if roll < 0.75 else min(16000, (hi - lo) // 3))
        items.append((max(start, 0), min(end, 0x10FFFF)))
    return items


def _edges(intervals):
    for lo, hi in intervals:
        for cp in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
            if 0 <= cp <= 0x10FFFF:
                yield chr(cp)


@pytest.mark.parametrize("lo, hi", [(0, 0x10FFFF), (0x4E00, 0x9FFF), (0x3E5, 0x2A11)])
def test_blocked_sets_agree_with_intervals(lo, hi):
    # Differential: the same union/intersect/complement chains over both
    # codepoint algebras, whose set operations share no code.
    rng = random.Random(lo + hi)
    for _ in range(40):
        fc, iv = FiniteCofiniteAlgebra(lo, hi), IntervalAlgebra(lo, hi)
        pool, items = [], []
        for _ in range(4):
            ranges, negate = _random_items(rng, lo, hi), rng.random() < 0.4
            pool.append((fc.class_set(ranges, negate), iv.class_set(ranges, negate)))
            items.extend(ranges)
        for _ in range(30):
            roll = rng.random()
            (x, x2), (y, y2) = rng.choice(pool), rng.choice(pool)
            if roll < 0.4:
                pool.append((fc.union(x, y), iv.union(x2, y2)))
            elif roll < 0.8:
                pool.append((fc.intersect(x, y), iv.intersect(x2, y2)))
            else:
                pool.append((fc.complement(x), iv.complement(x2)))
        probes = set(_edges(items))
        for x, x2 in pool:
            assert fc.is_empty(x) == iv.is_empty(x2)
            # the canonical tag: the stored side is the smaller, ties finite
            denoted = sum(b - a + 1 for a, b in x2.intervals)
            assert x.cofinite == (2 * denoted > fc.size)
            if not iv.is_empty(x2):
                assert fc.pick_witness(x) == iv.pick_witness(x2)
            y, y2 = rng.choice(pool)
            assert fc.is_subset(x, y) == iv.is_subset(x2, y2)
            for c in probes.union(_edges(x2.intervals)):
                assert fc.contains(x, c) == iv.contains(x2, c), hex(ord(c))
            # the rendering lists the runs of the stored side, which may
            # differ from the interval algebra's choice of side
            stored = iv.complement(x2) if x.cofinite else x2
            assert fc._class_items(x) == (x.cofinite, stored.intervals)
            assert parse_class_text(fc.format_set(x), iv) == x2


def test_tag_flips_in_a_four_symbol_universe():
    # every set of a..d, through every operation, against the interval twin
    fc, iv = FiniteCofiniteAlgebra(ord("a"), ord("d")), IntervalAlgebra(ord("a"), ord("d"))
    subsets = ["".join(c for i, c in enumerate("abcd") if mask >> i & 1) for mask in range(16)]
    pairs = [(fc.finite(s), iv.class_set([(ord(c), ord(c)) for c in s], False)) for s in subsets]
    for x, x2 in pairs:
        # the stored part is the smaller side, ties finite
        size = sum(fc.contains(x, c) for c in "abcd")
        assert x.cofinite == (size > 2)
        assert fc.complement(x).cofinite == (size < 2)
        for y, y2 in pairs:
            for got, want in (
                (fc.union(x, y), iv.union(x2, y2)),
                (fc.intersect(x, y), iv.intersect(x2, y2)),
                (fc.complement(x), iv.complement(x2)),
            ):
                assert [fc.contains(got, c) for c in "`abcde"] == [
                    iv.contains(want, c) for c in "`abcde"
                ]
                assert fc.is_empty(got) == iv.is_empty(want)
                assert parse_class_text(fc.format_set(got), iv) == want
                if not iv.is_empty(want):
                    assert fc.pick_witness(got) == iv.pick_witness(want)
    # a tag flip adds the universe size to scan_steps, a cofinite witness
    # its index plus one
    small = FiniteCofiniteAlgebra(ord("a"), ord("d"))
    small.finite("abc")
    assert small.scan_steps == 4
    assert small.pick_witness(small.cofinite("a")) == "b" and small.scan_steps == 4 + 2


def test_blocked_words_are_compact():
    alg = FiniteCofiniteAlgebra()
    assert len(parse_class_text("[\\u{4e00}-\\u{9fff}]", alg).members) == 21
    assert len(parse_class_text("[a\\u{10ffff}]", alg).members) == 2
    not_last = parse_class_text("[^\\u{10ffff}]", alg)
    assert not_last.cofinite and len(not_last.members) == 1
    # and the witness of a cofinite set steps over a full word
    full = alg.class_set([(0, BLOCK_BITS - 1), (BLOCK_BITS + 1, BLOCK_BITS + 1)], True)
    assert alg.pick_witness(full) == chr(BLOCK_BITS)


ASTRAL_QUERIES = [
    ("[\\u{10fff0}-\\u{10ffff}]*", "[\\u{10fff0}-\\u{10fffe}]*"),
    ("[\\u{1f600}-\\u{1f64f}a-z]*&!(.*\\u{1f600}.*)", "[\\u{1f601}-\\u{1f64f}a-z]*"),
    ("[^\\u{10ffff}]*x", ".*[^\\u{10fffe}]"),
    ("(\\u{10ffff}|a)*b", "[^c]*"),
    ("[\\u{1f600}-\\u{1f64f}]+", "[\\u{1f600}-\\u{1f64f}]*"),
    ("(.*[\\u{1f600}-\\u{1f64f}].*)&[a-z\\u{1f600}-\\u{1f64f}]*", "[a-z]*[\\u{1f600}-\\u{1f64f}].*"),
]


@pytest.mark.parametrize("lhs, rhs", ASTRAL_QUERIES)
def test_astral_queries_agree_across_codepoint_algebras(lhs, rhs):
    verdicts = []
    for alg in (IntervalAlgebra(), FiniteCofiniteAlgebra()):
        b = ExprBuilder(alg)
        v = Checker(b).check(b.parse(lhs), b.parse(rhs))
        verdicts.append((v.holds, v.witness))
    assert verdicts[0] == verdicts[1]


def test_merge_intervals():
    assert merge_intervals([(5, 9), (1, 3), (4, 4)]) == ((1, 9),)
    assert merge_intervals([(1, 2), (4, 5)]) == ((1, 2), (4, 5))
    assert merge_intervals([(3, 1)]) == ()
