import random

import pytest

from symre import syntax
from symre.alphabet import AlgebraError, BitsetAlgebra, IntervalAlgebra
from symre.syntax import (
    MAX_NESTING,
    And,
    Concat,
    Epsilon,
    ExprBuilder,
    Literal,
    ParseError,
    Star,
    Union,
    parse_class_text,
    parse_with_metrics,
    size,
    to_text,
    unescape_word,
    width,
)

from symre.cli import make_algebra
from symre.containment import Checker
from symre.oracle import SliceOracle
from symre.regexalg import RegexAlgebra

from exprgen import C3_WEIGHTS, random_raw, raw_text


@pytest.fixture
def b():
    return ExprBuilder(BitsetAlgebra("abc"))


# -- normalization rules -----------------------------------------------------


def test_union_aci_and_literal_merge(b):
    merged = b.union(b.char("a"), b.union(b.char("b"), b.char("a")))
    assert isinstance(merged, Literal)
    assert b.algebra.members(merged.symbols) == ("a", "b")
    assert b.union(b.char("a"), b.char("b")) is b.union(b.char("b"), b.char("a"))


def test_union_drops_empty_literal(b):
    a = b.char("a")
    assert b.union(a, b.bottom()) is a
    assert b.union(b.bottom(), b.bottom()) is b.bottom()


def test_concat_rules(b):
    a, c = b.char("a"), b.char("c")
    assert b.concat(b.bottom(), a) is b.bottom()
    assert b.concat(a, b.bottom()) is b.bottom()
    assert b.concat(b.epsilon(), a) is a
    assert b.concat(a, b.epsilon()) is a
    left = b.concat(b.concat(a, c), a)
    right = b.concat(a, b.concat(c, a))
    assert left is right
    assert isinstance(left, Concat) and not isinstance(left.head, Concat)


def test_star_rules(b):
    a = b.char("a")
    assert b.star(b.star(a)) is b.star(a)
    assert b.star(b.epsilon()) is b.epsilon()
    assert b.star(b.bottom()) is b.epsilon()


def test_and_rules(b):
    a, c = b.char("a"), b.char("c")
    assert b.and_(a, b.bottom()) is b.bottom()
    assert b.and_(a, a) is a
    assert b.and_(a, c) is b.and_(c, a)
    # literals under & are kept separate, unlike union
    both = b.and_(a, c)
    assert isinstance(both, And) and len(both.members) == 2
    # a member beside its complement is [], an intersection's complement
    # once all of the intersection's members are members
    x = b.parse("b*")
    assert b.and_(a, b.not_(a)) is b.bottom()
    assert b.and_(both, b.not_(both)) is b.bottom()
    assert b.and_(b.not_(both), a, c, x) is b.bottom()
    assert b.and_(b.not_(b.and_(a, c, x)), a, c) is not b.bottom()
    assert b.parse("a((a|b)*a&!((a|b)*a))|bb") is b.parse("bb")


def test_double_negation(b):
    a = b.char("a")
    assert b.not_(b.not_(a)) is a


def test_sigma_star_absorbs_in_union(b):
    sigma, a, x, y = b.sigma_star(), b.char("a"), b.parse("a*b"), b.parse("!c")
    assert b.union(sigma, x) is sigma and b.union(x, sigma) is sigma
    assert b.union(a, x, sigma, y) is sigma
    assert b.union(b.union(a, x), b.union(y, sigma)) is sigma
    assert b.parse("a|a*b|.*|!c") is sigma
    assert b.parse("(a|b|c)*|a*b") is sigma


def test_sigma_star_is_neutral_in_and(b):
    sigma, x, y = b.sigma_star(), b.parse("a*b"), b.parse("!c")
    assert b.and_(sigma, x) is x and b.and_(x, sigma) is x
    assert b.and_(x, sigma, y) is b.and_(x, y) is b.and_(b.and_(sigma, y), b.and_(x, sigma))
    assert b.and_(sigma) is sigma and b.and_(sigma, sigma, sigma) is sigma
    assert b.parse("a*b&.*&!c") is b.and_(x, y)


def test_union_beside_complement_is_sigma_star(b):
    sigma, a, x, y = b.sigma_star(), b.char("a"), b.parse("a*b"), b.parse("c*")
    assert b.union(x, b.not_(x)) is sigma and b.union(b.not_(x), x) is sigma
    assert b.union(y, b.not_(x), a, x) is sigma
    assert b.union(a, b.not_(a)) is sigma
    # a union's complement, once all of the union's members are members
    u = b.union(x, y)
    assert b.union(u, b.not_(u)) is sigma and b.union(b.not_(u), u) is sigma
    assert b.union(b.not_(u), y, a, x) is sigma
    assert b.union(b.not_(u), x) is not sigma
    # literal members merge first: a|b|!(a|b) holds the literal [ab] itself
    assert b.union(a, b.char("b"), b.not_(b.parse("a|b"))) is sigma
    assert b.parse("a*b|(c*|!(a*b|c*))") is sigma


def test_complement_of_empty_and_universal(b):
    sigma = b.sigma_star()
    assert b.not_(b.bottom()) is sigma and b.not_(sigma) is b.bottom()
    assert b.parse("!([])") is sigma and b.parse("!(.*)") is b.bottom()
    assert b.parse("!!([])") is b.bottom() and b.parse("!!(.*)") is sigma
    assert b.parse("a(!([])&b)") is b.parse("ab")


def test_operand_rules_intern_nothing_without_sigma_star():
    # a builder interns ``[]``, ``.`` and ``.*`` as it is made; the rules
    # that take ``.*`` as an operand compare against that node, so each call
    # adds its own node and no other
    b = ExprBuilder(BitsetAlgebra("abc"))
    x, y = b.parse("a*b"), b.parse("c*")
    for make in (lambda: b.union(x, y), lambda: b.and_(x, y), lambda: b.not_(x)):
        before = len(b._table)
        node = make()
        assert len(b._table) == before + 1 and make() is node
        assert len(b._table) == before + 1
    assert len(ExprBuilder(BitsetAlgebra("abc"))._table) == 3
    # the rules that return ``.*`` return that node
    assert to_text(b.union(x, b.not_(x))) == ".*"
    assert b.union(x, b.not_(x)) is b.not_(b.bottom()) is b.sigma_star() is b.parse(".*")


def test_canonical_empty_and_universal(b):
    assert b.parse("[]") is b.bottom()
    assert isinstance(b.bottom(), Literal)
    sigma = b.sigma_star()
    assert isinstance(sigma, Star) and isinstance(sigma.inner, Literal)
    assert b.parse(".*") is sigma


def _rebuild(b, r):
    if isinstance(r, Epsilon):
        return b.epsilon()
    if isinstance(r, Literal):
        return b.literal(r.symbols)
    if isinstance(r, Union):
        return b.union(*(_rebuild(b, m) for m in r.members))
    if isinstance(r, And):
        return b.and_(*(_rebuild(b, m) for m in r.members))
    if isinstance(r, Concat):
        return b.concat(_rebuild(b, r.head), _rebuild(b, r.tail))
    if isinstance(r, Star):
        return b.star(_rebuild(b, r.inner))
    return b.not_(_rebuild(b, r.inner))


def test_normalization_idempotent(b):
    rng = random.Random(4)
    for _ in range(400):
        r = b.parse(raw_text(random_raw(rng, b.algebra, 9)))
        assert _rebuild(b, r) is r


def _fold(b, raw):
    """Reference semantics for the parser: the plain recursive binary fold."""
    tag = raw[0]
    if tag == "eps":
        return b.epsilon()
    if tag == "lit":
        return b.literal(raw[1])
    if tag == "star":
        return b.star(_fold(b, raw[1]))
    if tag == "not":
        return b.not_(_fold(b, raw[1]))
    op = {"union": b.union, "concat": b.concat, "and": b.and_}[tag]
    return op(_fold(b, raw[1]), _fold(b, raw[2]))


def _raw_counts(raw):
    """The number of nodes and of literals of a raw tree."""
    nodes = literals = 0
    stack = [raw]
    while stack:
        node = stack.pop()
        nodes += 1
        if node[0] == "lit":
            literals += 1
        else:
            stack.extend(node[1:])
    return nodes, literals


def test_parse_matches_recursive_fold_and_counts(b):
    rng = random.Random(14)
    for _ in range(2000):
        raw = random_raw(rng, b.algebra, 12)
        node, raw_size, raw_width = parse_with_metrics(raw_text(raw), b)
        assert node is _fold(b, raw)
        assert (raw_size, raw_width) == _raw_counts(raw)


# -- linear work on long inputs ----------------------------------------------------


def test_long_word_interns_linearly_many_nodes(b):
    n = 10_000
    rng = random.Random(15)
    before = len(b._table)
    r = b.parse("".join(rng.choice("abc") for _ in range(n)))
    assert len(b._table) - before <= n + 3
    assert size(r) == 2 * n - 1 and width(r) == n


def test_long_union_interns_one_union_node():
    alg = BitsetAlgebra("abcdefghijklmnop")
    b = ExprBuilder(alg)
    words = [x + y + z for x in alg.symbols for y in alg.symbols for z in alg.symbols][:4000]
    r = b.parse("|".join(words))
    assert isinstance(r, Union) and len(r.members) == 4000
    assert sum(isinstance(node, Union) for node in b._table.values()) == 1


# -- language preservation ----------------------------------------------------


def _raw_slice(raw, symbols, n):
    """Independent semantics for raw trees, straight from the set equations."""
    tag = raw[0]
    if tag == "eps":
        return {""}
    if tag == "lit":
        alg = raw[1].algebra
        return {c for c in symbols if alg.contains(raw[1], c)} if n else set()
    if tag == "union":
        return _raw_slice(raw[1], symbols, n) | _raw_slice(raw[2], symbols, n)
    if tag == "and":
        return _raw_slice(raw[1], symbols, n) & _raw_slice(raw[2], symbols, n)
    if tag == "not":
        every = {""}
        for _ in range(n):
            every |= {w + c for w in every for c in symbols}
        return every - _raw_slice(raw[1], symbols, n)
    if tag == "concat":
        left, right = _raw_slice(raw[1], symbols, n), _raw_slice(raw[2], symbols, n)
        return {u + v for u in left for v in right if len(u) + len(v) <= n}
    assert tag == "star"
    base = _raw_slice(raw[1], symbols, n)
    words = {""}
    while True:
        grown = {u + v for u in words for v in base if v and len(u) + len(v) <= n}
        if grown <= words:
            return words
        words |= grown


def test_normalization_preserves_language():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    oracle = SliceOracle(b, 6)
    rng = random.Random(11)
    raws = [random_raw(rng, alg, 9) for _ in range(300)]
    # the shapes the rule X & !X = [] rewrites, around random x and y
    a = ("lit", alg.from_chars("a"))
    for _ in range(20):
        x, y = random_raw(rng, alg, 4), random_raw(rng, alg, 4)
        raws += [
            ("and", ("and", x, ("not", x)), y),
            ("and", ("and", x, y), ("not", ("and", x, y))),
            ("union", ("concat", a, ("and", x, ("not", x))), y),
        ]
    # the shapes the ``.*`` rules rewrite: .* absorbing in |, neutral in &,
    # r | !r (r a union too), !([]) and !(.*)
    sigma = ("star", ("lit", alg.top()))
    for _ in range(20):
        x, y = random_raw(rng, alg, 4), random_raw(rng, alg, 4)
        raws += [
            ("union", ("union", x, sigma), y),
            ("and", ("and", sigma, x), y),
            ("union", ("union", x, y), ("not", x)),
            ("union", ("union", x, y), ("not", ("union", y, x))),
            ("concat", x, ("not", ("lit", alg.bottom()))),
            ("union", ("not", sigma), y),
        ]
    for raw in raws:
        assert oracle.slice(b.parse(raw_text(raw))) == frozenset(_raw_slice(raw, alg.symbols, 6))


def test_normal_forms_do_not_depend_on_when_sigma_star_was_interned():
    # Every builder has ``.*`` from the start, so this checks that normal
    # forms do not depend on a builder's history: a fresh builder has made
    # nothing else, the other every expression before this one.  Each
    # expression gets one text and one slice on both, and the slice of the
    # expression as written.
    alg = BitsetAlgebra("ab")
    early = ExprBuilder(alg)
    oracle = SliceOracle(early, 5)
    rng = random.Random(24)
    for _ in range(2000):
        raw = random_raw(rng, alg, 10, C3_WEIGHTS)
        fresh = ExprBuilder(alg)
        cold, warm = fresh.parse(raw_text(raw)), early.parse(raw_text(raw))
        assert to_text(cold) == to_text(warm)
        assert SliceOracle(fresh, 5).slice(cold) == oracle.slice(warm)
        assert oracle.slice(warm) == frozenset(_raw_slice(raw, alg.symbols, 5))


# -- nullable ------------------------------------------------------------------


def test_nullable_table(b):
    a = b.char("a")
    assert b.epsilon().nullable
    assert not a.nullable
    assert b.star(a).nullable
    assert b.not_(a).nullable
    assert not b.and_(b.epsilon(), a).nullable
    assert b.union(a, b.epsilon()).nullable
    assert not b.concat(a, b.star(a)).nullable
    assert b.concat(b.star(a), b.star(a)).nullable is True


def test_literal_symbol_is_set_when_the_literal_is_interned():
    # ``symbol`` is a node fact: the set's one symbol, or None, found once
    # by the algebra when the builder interns the literal
    texts = ["abc", "a[bc]*c", "[^a]b|c", ".*a.*&!(b*)", "(a|b)*a(a|b)", "()|[]"]
    wide = ["\\u{4e00}[\\u{4e00}-\\u{9fff}]*", "\\u{1f600}|[^x]", "[a-a]x\\u{10ffff}"]
    for spec, more in (("bitset:abc", []), ("unicode", wide), ("cofinite", wide)):
        alg = make_algebra(spec)
        b = ExprBuilder(alg)
        nodes = [b.parse(t) for t in texts + more]
        # the checks intern the derivatives of both sides as well
        for r, s in zip(nodes, nodes[1:] + nodes[:1]):
            Checker(b).check(r, s)
        literals = [n for n in b._table.values() if type(n) is Literal]
        for lit in literals:
            assert lit.symbol == alg.singleton(lit.symbols), (spec, lit)
        assert {lit.symbol for lit in literals} >= {None, "a", "b", "c"}, spec
    regex = RegexAlgebra("ab")
    b = ExprBuilder(regex)
    one, two = b.literal(regex.set_of("ab|b")), b.literal(regex.set_of("b"))
    Checker(b).check(b.concat(one, b.star(two)), b.star(b.union(one, two)))
    literals = [n for n in b._table.values() if type(n) is Literal]
    assert len(literals) >= 4
    for lit in literals:
        assert lit.symbol == regex.singleton(lit.symbols) is None, lit


def test_nullable_matches_slice():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    oracle = SliceOracle(b, 4)
    rng = random.Random(12)
    for _ in range(300):
        r = b.parse(raw_text(random_raw(rng, alg, 8)))
        assert r.nullable == ("" in oracle.slice(r))


# -- metrics -------------------------------------------------------------------


def test_size_and_width(b):
    assert size(b.epsilon()) == 1
    built, raw_size, raw_width = parse_with_metrics("a|b*", b)
    assert raw_size == 4 and raw_width == 2
    assert size(built) == 4 and width(built) == 2
    assert width(b.and_(b.char("a"), b.char("b"))) == 2
    # merging can shrink the normalized metrics relative to the text as written
    merged, raw_size, raw_width = parse_with_metrics("(a|b)|c", b)
    assert raw_size == 5 and raw_width == 3 and size(merged) == 1


# -- parser ---------------------------------------------------------------------


def test_parse_merges_union_literals(b):
    r = b.parse("(a|b)|c")
    assert isinstance(r, Literal)
    assert b.algebra.members(r.symbols) == ("a", "b", "c")


def test_parse_intersection_of_concats(b):
    r = b.parse("(ac)&(bc)")
    assert isinstance(r, And)
    assert all(isinstance(m, Concat) for m in r.members)


def test_parse_precedence(b):
    # postfix * binds tightest, then prefix !, then juxtaposition, & and |
    assert b.parse("!a*") is b.not_(b.star(b.char("a")))
    assert b.parse("!([a-c])*") is b.not_(b.star(b.literal(b.algebra.top())))
    assert b.parse("a|b&c") is b.union(b.char("a"), b.and_(b.char("b"), b.char("c")))
    assert b.parse("ab&c") is b.and_(b.concat(b.char("a"), b.char("b")), b.char("c"))
    assert b.parse("a!b") is b.concat(b.char("a"), b.not_(b.char("b")))


def test_parse_atoms(b):
    assert b.parse("()") is b.epsilon()
    assert b.parse("[]") is b.bottom()
    assert isinstance(b.parse("[^]"), Literal)
    assert b.parse("[^]").symbols == b.algebra.top()
    assert b.parse(".").symbols == b.algebra.top()
    # an escaped symbol outside the alphabet is an error at its backslash,
    # and the symbol itself over an alphabet that holds it
    with pytest.raises(ParseError, match=r"^symbol '\*' is not in the alphabet ") as err:
        b.parse("a\\*")
    assert err.value.position == 1
    star = ExprBuilder(BitsetAlgebra("ab*"))
    assert star.parse("\\*") is star.literal(star.algebra.from_chars("*"))


def test_a_symbol_outside_the_alphabet_is_a_parse_error(b):
    # found at its first appearance: in a run, before a '*' or escaped
    for text, pos in (("a{2}", 1), ("ab(cz)", 4), ("abz*", 2), ("ab\\u{7a}", 2), ("a|zz", 2)):
        with pytest.raises(ParseError, match="^symbol '[{z]' is not in the alphabet") as err:
            b.parse(text)
        assert err.value.position == pos
    # a class is clipped to the alphabet
    assert b.parse("[xyz]") is b.bottom()
    assert b.parse("[^z]") is b.parse(".")
    # over unicode there is no such symbol, and no counted repetition
    assert parse_with_metrics("a{2}", ExprBuilder(IntervalAlgebra()))[1:] == (7, 4)


def test_parse_classes():
    alg = IntervalAlgebra()
    b = ExprBuilder(alg)
    assert b.parse("[a-z]").symbols.intervals == ((ord("a"), ord("z")),)
    assert b.parse("[^a-z]").symbols == alg.class_set([(ord("a"), ord("z"))], True)
    assert b.parse("[a-cx]").symbols.intervals == ((ord("a"), ord("c")), (ord("x"), ord("x")))
    assert b.parse("[\\]]").symbols.intervals == ((ord("]"), ord("]")),)
    assert b.parse("[\\u{41}]").symbols.intervals == ((0x41, 0x41),)
    assert b.parse("\\u{41}") is b.parse("A")


@pytest.mark.parametrize(
    "text,pos",
    [
        ("(a", 2),
        ("a|", 2),
        ("[ab", 3),
        ("a)", 1),
        ("*a", 0),
        ("[a-]", 3),
        ("!\\u{xyz}", 4),
        ("", 0),
        ("ab)", 2),
        ("abc|", 4),
        ("ab]", 2),
        ("ab*|", 4),
        ("a!", 2),
        ("ab\\", 3),
        ("[a\\", 3),
        ("[a-\\u{}]", 6),
        ("a\\u", 3),
        ("a**b)", 4),
        ("ab*c)", 4),
        ("ab\\u{61}*(c", 11),
        ("\\u{+4_1}", 3),
        ("\\u{4_1}", 3),
        ("\\u{ 41 }", 3),
        ("\\u{-1}", 3),
        ("[\\u{-1}]", 4),
        ("\\u{\u0664\u0661}", 3),
    ],
)
def test_parse_errors_carry_position(b, text, pos):
    with pytest.raises(ParseError) as err:
        b.parse(text)
    assert err.value.position == pos


@pytest.mark.parametrize(
    "text,message,pos",
    [
        ("\\u{}", "expected hex digits and '}' after \\u{", 3),
        ("\\u{41", "expected hex digits and '}' after \\u{", 5),
        ("\\u{110000}", "codepoint 110000 out of range", 3),
        ("[-a]", "'-' must be escaped or part of a range", 1),
        ("[z-a]", "empty range z-a", 4),
    ],
)
def test_parse_error_messages(text, message, pos):
    with pytest.raises(ParseError) as err:
        ExprBuilder(IntervalAlgebra()).parse(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.position == pos


def test_builder_rejects_bad_input(b):
    with pytest.raises(AlgebraError, match="^literal set belongs to a different algebra$"):
        b.literal(BitsetAlgebra("abc").top())
    with pytest.raises(TypeError, match=r"^and_\(\) needs at least one operand$"):
        b.and_()


def test_plain_characters_parse_as_general_atoms(b):
    # a bare ``a`` is read as a run of plain characters, ``(a)`` as a group
    tokens = ["a", "b", "c", "*", "!", ".", "(", ")", "|", "&", "[ab]", "\\*"]
    rng = random.Random(16)
    for _ in range(3000):
        picked = rng.choices(tokens, k=rng.randint(1, 14))
        text = "".join(picked)
        wrapped = "".join(f"({t})" if t in ("a", "b", "c") else t for t in picked)
        try:
            parsed = parse_with_metrics(text, b)
        except ParseError:
            with pytest.raises(ParseError):
                parse_with_metrics(wrapped, b)
        else:
            assert parse_with_metrics(wrapped, b) == parsed


def test_word_makes_one_set_per_distinct_character():
    alg = IntervalAlgebra()
    calls = []
    class_set = alg.class_set
    alg.class_set = lambda items, negate: calls.append(items) or class_set(items, negate)
    n = 10_000
    rng = random.Random(17)
    _, raw_size, raw_width = parse_with_metrics(
        "".join(rng.choice("abc") for _ in range(n)), ExprBuilder(alg)
    )
    assert len(calls) <= 3
    assert raw_size == 2 * n - 1 and raw_width == n


FACTORS = {
    "a": lambda b: b.char("a"),
    "b": lambda b: b.char("b"),
    "c": lambda b: b.char("c"),
    "a*": lambda b: b.star(b.char("a")),
    "!b": lambda b: b.not_(b.char("b")),
    "!c**": lambda b: b.not_(b.star(b.char("c"))),
    "[ab]": lambda b: b.literal(b.algebra.from_chars("ab")),
    "\\u{63}": lambda b: b.char("c"),
    "\\b": lambda b: b.char("b"),
}


def test_parse_interns_the_nodes_of_a_fold_in_order():
    # The parse interns each factor's nodes in text order, a character's
    # literal at its first appearance, and then the concatenations of a
    # fold from the right: the same table, in the same order, as building
    # the text by hand, so a parse interns no node that the expression does
    # not need.
    rng = random.Random(26)
    alg = BitsetAlgebra("abc")
    for n in (1, 2, 3, 7, 40, 300, 2000):
        for tokens in (["a", "b", "c"], list(FACTORS)):
            word = rng.choices(tokens, k=n)
            b, ref = ExprBuilder(alg), ExprBuilder(alg)
            node = b.parse("".join(word))
            parts = [FACTORS[t](ref) for t in word]
            folded = parts.pop()
            while parts:
                folded = ref.concat(parts.pop(), folded)
            assert list(b._table) == list(ref._table)
            assert node.eid == folded.eid == len(ref._table) - 1


def test_parse_is_memoized_per_builder(monkeypatch):
    alg = BitsetAlgebra("abc")
    b, other = ExprBuilder(alg), ExprBuilder(alg)
    rng = random.Random(27)
    texts = [raw_text(random_raw(rng, alg, 12, C3_WEIGHTS)) for _ in range(300)]
    nodes = [b.parse(t) for t in texts]
    assert set(b.parse_cache) == set(texts)
    calls = []
    parse = syntax.parse_with_metrics
    monkeypatch.setattr(syntax, "parse_with_metrics", lambda t, bb: calls.append(t) or parse(t, bb))
    for t, node in zip(texts, nodes):
        assert b.parse(t) is node is parse_with_metrics(t, b)[0]
    assert not calls  # every text came from the memo
    # a text that fails makes no entry, and fails alike on every call
    for bad, pos in (("(a", 2), ("a{2}", 1), ("\\u{+61}", 3)):
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                b.parse(bad)
            assert err.value.position == pos
        assert bad not in b.parse_cache
    assert calls == ["(a"] * 3 + ["a{2}"] * 3 + ["\\u{+61}"] * 3
    # another builder parses for itself, into nodes of its own table
    assert not other.parse_cache
    assert other.parse(texts[0]) is not nodes[0]
    assert calls[-1] == texts[0] and list(other.parse_cache) == [texts[0]]


def test_nesting_limit(b):
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert b.parse(deepest) is b.char("a")
    with pytest.raises(ParseError) as err:
        b.parse("(" + deepest + ")")
    assert err.value.position == MAX_NESTING


def test_long_negation_runs(b):
    a = b.char("a")
    assert b.parse("!" * 2000 + "a") is a
    assert b.parse("!" * 2001 + "a") is b.not_(a)
    assert parse_with_metrics("!" * 2000 + "a", b) == (a, 2001, 1)


def test_parse_class_text(b):
    assert parse_class_text("[ab]", b.algebra) == b.algebra.from_chars("ab")
    assert parse_class_text("a", b.algebra) == b.algebra.from_chars("a")
    assert parse_class_text(".", b.algebra) == b.algebra.top()
    with pytest.raises(ParseError):
        parse_class_text("[ab] ", b.algebra)
    with pytest.raises(ParseError) as err:
        parse_class_text("", b.algebra)
    assert str(err.value) == "expected a character class (at position 0)"
    # a bare symbol outside a finite alphabet is rejected as the parser
    # rejects it; a class of such symbols is the empty class
    ab = BitsetAlgebra("ab")
    for text in ("c", "\\c"):
        with pytest.raises(ParseError) as err:
            parse_class_text(text, ab)
        assert str(err.value) == "symbol 'c' is not in the alphabet (at position 0)", text
    assert ab.is_empty(parse_class_text("[c]", ab))


def test_unescape_word():
    assert unescape_word("ab\\u{63}") == "abc"
    assert unescape_word("\\\\") == "\\"
    assert unescape_word("\\u{1F600}\\u{1f600}") == "\U0001f600" * 2
    # only hex digits: no sign, underscore, space or non-ASCII digit
    for text, pos in (("a\\u{+41}", 4), ("\\u{4_1}", 3), ("\\u{ 41}", 3), ("\\u{-1}", 3), ("\\u{\u0664}", 3)):
        with pytest.raises(ParseError) as err:
            unescape_word(text)
        assert str(err.value).startswith("bad hex escape "), text
        assert err.value.position == pos, text


# -- interning and rendering -----------------------------------------------------


def test_interning_is_structural(b):
    assert b.parse("a(b|c)") is b.parse("a(c|b)")
    assert b.parse("a").eid != b.parse("b").eid
    other = ExprBuilder(BitsetAlgebra("abc"))
    assert other.parse("a") is not b.parse("a")


def test_render_parse_round_trip():
    alg = BitsetAlgebra("abc")
    b = ExprBuilder(alg)
    rng = random.Random(13)
    for _ in range(400):
        r = b.parse(raw_text(random_raw(rng, alg, 10)))
        assert b.parse(to_text(r)) is r


def test_rendering_formats_each_literal_once():
    alg = IntervalAlgebra()
    b = ExprBuilder(alg)
    n = 10_000
    rng = random.Random(18)
    word = "".join(rng.choice("abc") for _ in range(n))
    r = b.parse(word)
    calls = []
    format_set = alg.format_set
    alg.format_set = lambda symbols: calls.append(symbols) or format_set(symbols)
    assert to_text(r) == word
    assert len(calls) <= 3


def test_meta_character_renders_escaped():
    b = ExprBuilder(IntervalAlgebra())
    star = b.char("*")
    assert to_text(star) == "\\*"
    assert b.parse(to_text(star)) is star


def test_render_spot_checks(b):
    assert to_text(b.parse("!(ab)*")) == "!(ab)*"
    # the members of | and & in sorted order of their texts
    assert to_text(b.parse("(a|b*)&!c")) == "!c&(a|b*)"
    assert to_text(b.epsilon()) == "()"
    assert to_text(b.bottom()) == "[]"
