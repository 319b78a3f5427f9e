import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from symre import containment, syntax
from symre.alphabet import BitsetAlgebra, FiniteCofiniteAlgebra, IntervalAlgebra
from symre.cli import make_algebra
from symre.containment import (
    Checker,
    CheckStats,
    FuelExhausted,
    membership,
    replay_trace,
    shortest_word,
)
from symre.derivative import deriv_symbol, deriv_word, neg_deriv, pos_deriv
from symre.oracle import SliceOracle
from symre.syntax import MAX_NESTING, ExprBuilder, to_text

from exprgen import C3_WEIGHTS, random_raw, raw_text


@pytest.fixture
def b():
    return ExprBuilder(BitsetAlgebra("abc"))


@pytest.fixture
def chk(b):
    return Checker(b)


# -- the worked counterexample ----------------------------------------------------


def test_containment_counterexample(b, chk):
    verdict = chk.check(b.parse("(a|b)|c"), b.parse("a|b"))
    assert not verdict.holds
    assert verdict.witness == "c"
    assert membership(b, "c", b.parse("(a|b)|c"))
    assert not membership(b, "c", b.parse("a|b"))


def test_trace_of_counterexample(b):
    events = []
    chk = Checker(b, trace=events.append)
    verdict = chk.check(b.parse("(a|b)|c"), b.parse("a|b"))
    unfolds = [e for e in events if e["rule"] == "unfold" and e["depth"] == 0]
    assert [e["literal"] for e in unfolds] == ["[ab]", "c"]
    disproves = [e for e in events if e["rule"] == "disprove"]
    assert disproves == [
        {"rule": "disprove", "lhs": "()", "rhs": "[]", "literal": None, "depth": 1}
    ]
    assert replay_trace(events) == verdict.holds


# -- axioms -------------------------------------------------------------------------


def test_verdicts_read_by_field_name_and_by_position(b, chk):
    verdict = chk.check(b.parse("a|b"), b.parse("a"))
    holds, witness, stats = verdict
    assert (holds, witness, stats) == (verdict.holds, verdict.witness, verdict.stats)
    assert (holds, witness) == (False, "b")
    assert stats == CheckStats(stats.visited, stats.max_depth) == (stats[0], stats[1])
    assert stats.visited >= 1


def test_prove_identity(b, chk):
    r = b.parse("(a|b)*c")
    verdict = chk.check(r, r)
    assert verdict.holds and verdict.stats.visited == 1


def test_prove_empty(b, chk):
    assert chk.check(b.bottom(), b.parse("a")).holds
    assert chk.check(b.parse("[]"), b.parse("[]")).holds


def test_prove_nullable(b, chk):
    assert chk.check(b.epsilon(), b.parse("a*")).holds
    assert not chk.check(b.epsilon(), b.parse("a")).holds


@pytest.mark.parametrize(
    "mode", [{}, {"global_memo": False}, {"use_axioms": False}], ids=["default", "scoped", "bare"]
)
@pytest.mark.parametrize(
    "lhs,rhs,rule",
    [("[]", "a", "unfold"), ("()", "a*", "unfold"), ("[]", ".*", "prove-universal")],
)
def test_left_side_without_next_literals_closes_in_one_visit(mode, lhs, rhs, rule):
    # [] and () have no next literals, so the unfolding closes the pair in
    # the one visit that opens it: a frame without branches
    b = ExprBuilder(BitsetAlgebra("abc"))
    events = []
    verdict = Checker(b, trace=events.append, **mode).check(b.parse(lhs), b.parse(rhs))
    assert verdict == (True, None, CheckStats(1, 0))
    if mode.get("use_axioms") is False:
        rule = "unfold"  # no axiom closes [] <= .* then
    assert events == [{"rule": rule, "lhs": lhs, "rhs": rhs, "literal": None, "depth": 0}]
    assert replay_trace(events) is True


def test_disprove_empty_produces_shortest_witness(b, chk):
    verdict = chk.check(b.parse("ab*c"), b.parse("[]"))
    assert not verdict.holds and verdict.witness == "ac"


def test_empty_intersection_against_empty_holds(b, chk):
    # the left language is empty even though its next literals are not:
    # a naive "non-empty partition refutes r <= []" shortcut would be wrong
    r = b.parse("(ab)&(ac)")
    events = []
    verdict = Checker(b, trace=events.append).check(r, b.bottom())
    assert verdict.holds
    assert "disprove-empty" not in {e["rule"] for e in events}
    assert Checker(b, use_axioms=False).check(r, b.bottom()).holds


# Three languages to intersect, and the complement of a language that
# equals R_LANG but is written differently, so that no constructor cancels it.
A, B, C = "(a|b)*c", "!(.*bb.*)", "a.*"
R_LANG, NOT_R = "(a|b)*a" + "(a|b)" * 9, "!((a*b*)*a" + "(a|b)" * 9 + ")"


def _traced(b, lhs, rhs):
    events = []
    verdict = Checker(b, trace=events.append).check(b.parse(lhs), b.parse(rhs))
    assert replay_trace(events) == verdict.holds
    return verdict, [e["rule"] for e in events]


@pytest.mark.parametrize(
    "lhs,rhs,rule",
    [
        (f"{A}&{B}", A, "prove-conjunct"),
        (f"{A}&{B}&{C}", f"{A}&{C}", "prove-conjunct"),
        (f"{R_LANG}&{NOT_R}", "[]", "prove-empty-language"),
        ("(a!b)" * 50, ".*", "prove-universal"),
        # the word fold rewrites the first pair to the one its word reaches,
        # and that pair is closed in its one visit: () <= ()|.*ab unfolds
        # into no branches; (a|b|c)* is .* over abc, so identity, tried
        # before the universal right side, closes .* <= .*; and the
        # emptiness search finds no word of a&b against []
        ("abcab", ".*ab", "fold unfold"),
        ("abba(a|b|c)*", ".*abba.*", "fold prove-identity"),
        ("c(a&b)", "[ab]*", "fold prove-empty-language"),
    ],
)
def test_axiom_closes_the_root_pair(b, lhs, rhs, rule):
    verdict, rules = _traced(b, lhs, rhs)
    assert verdict.holds and verdict.stats.visited == 1
    assert rules == rule.split()


def test_conjunct_axiom_reads_only_the_left_side_as_a_conjunction(b):
    verdict, rules = _traced(b, A, f"{A}&{B}")
    assert not verdict.holds and not membership(b, verdict.witness, b.parse(B))
    assert "prove-conjunct" not in rules


def test_axioms_only_change_statistics(b):
    cases = [
        ("(a|b)|c", "a|b"),
        ("a*", "(a|b)*"),
        ("ab*c", "[]"),
        ("(ab)&(ac)", "[]"),
        ("!a", "!(a&b)"),
        ("(a|b)*", "!([])"),
        (f"{A}&{B}", A),
        (f"{A}&{B}&{C}", f"{A}&{C}"),
        (A, f"{A}&{B}"),
        (f"{R_LANG}&{NOT_R}", "[]"),
        ("(a!b)" * 50, ".*"),
    ]
    for lhs, rhs in cases:
        with_ax = Checker(b).check(b.parse(lhs), b.parse(rhs))
        without = Checker(b, use_axioms=False).check(b.parse(lhs), b.parse(rhs))
        assert with_ax.holds == without.holds


def test_traced_checks_render_each_node_once(b, monkeypatch):
    # the events of one check share each node's text: every side reads as
    # to_text renders it, and each distinct node under the sides is
    # rendered once, however many events name it; a leading [ab] keeps the
    # word fold off, so the 400-symbol word is unfolded pair by pair, and
    # the plain word is folded to the pair () <= [ab]*: a fold event and
    # that pair's one event
    text_of, render = syntax._text_of, containment.to_text
    for lhs, visited, count in (("[ab]" + "ab" * 200, 402, 402), ("ab" * 200, 1, 2)):
        rendered, sides = [], []
        monkeypatch.setattr(syntax, "_text_of", lambda r, *rest: rendered.append(r) or text_of(r, *rest))
        monkeypatch.setattr(containment, "to_text", lambda r, texts: sides.append(r) or render(r, texts))
        events = []
        verdict = Checker(b, trace=events.append).check(b.parse(lhs), b.parse("[ab]*"))
        assert verdict.holds and (verdict.stats.visited, len(events)) == (visited, count)
        steps = len(rendered)
        distinct, todo = set(), list(sides)
        while todo:
            node = todo.pop()
            if node not in distinct:
                distinct.add(node)
                todo += syntax._parts(node, True)
        assert steps == len(distinct) < 500
        assert [t for e in events for t in (e["lhs"], e["rhs"])] == [to_text(r) for r in sides]


# -- cycles and termination -----------------------------------------------------------


def test_cycle_closes_star_inclusion(b):
    events = []
    chk = Checker(b, trace=events.append)
    assert chk.check(b.parse("a*"), b.parse("(a|b)*")).holds
    assert "cycle" in {e["rule"] for e in events}


def test_checks_terminate_on_negation_nesting(b, chk):
    r = b.parse("!(!(a*b)|c)&!(cb)*")
    s = b.parse("!((b|c)a)")
    verdict = chk.check(r, s)
    assert verdict.stats.visited < 1 << 16


def test_fuel_exhaustion_is_an_error(b):
    with pytest.raises(FuelExhausted) as err:
        Checker(b, fuel=2).check(b.parse("(ab|ba)*"), b.parse("(aa|bb)*"))
    assert err.value.visited == 3


def test_fuel_counts_the_pair_past_it_in_both_memo_modes(b):
    # the root is unfolded; its first branch is the second pair, past fuel 1
    for global_memo in (True, False):
        with pytest.raises(FuelExhausted) as err:
            Checker(b, fuel=1, global_memo=global_memo).check(b.parse("(a|b)*"), b.parse("a*"))
        assert (err.value.visited, err.value.max_depth) == (2, 1)


def test_untraced_checks_render_nothing(b, monkeypatch):
    # without a trace sink no event is built, so no node and no literal is
    # rendered, whichever rule answers a pair
    cases = [
        ("(a|b)|c", "a|b"),
        ("a*", "(a|b)*"),
        ("ab" * 50, "[ab]*"),
        ("(ab|ba)*", "(aa|bb)*"),
        ("a&b*", "a"),
        ("a*b", "[]"),
        ("a*&!a*", "[]"),
        ("c*", ".*"),
    ]
    modes = [(m, x) for m in (True, False) for x in (True, False)]
    expected = [
        Checker(b, global_memo=m, use_axioms=x).check(b.parse(r), b.parse(s))
        for m, x in modes
        for r, s in cases
    ]

    def refuse(*args):
        raise AssertionError("rendered without a trace sink")

    monkeypatch.setattr(containment, "to_text", refuse)
    monkeypatch.setattr(b.algebra, "format_set", refuse)
    fresh = ExprBuilder(b.algebra)
    for builder in (b, fresh):
        answers = [
            Checker(builder, global_memo=m, use_axioms=x).check(builder.parse(r), builder.parse(s))
            for m, x in modes
            for r, s in cases
        ]
        assert answers == expected


def test_shortest_word_fuel_exhaustion_is_an_error(b):
    with pytest.raises(FuelExhausted) as err:
        shortest_word(b, b.parse("abc"), fuel=1)
    assert (err.value.visited, err.value.max_depth) == (2, 1)
    assert str(err.value) == "fuel exhausted after 2 emptiness-search nodes (word length 1)"


@pytest.mark.parametrize(
    "events,message",
    [
        ([], "empty trace"),
        # a second root may follow only a first that holds (an equivalence
        # writes the converse containment then), and no third one
        (
            [{"rule": "disprove", "depth": 0}, {"rule": "cycle", "depth": 0}],
            "trailing trace events at index 1",
        ),
        ([{"rule": "cycle", "depth": 1}], "trace event at index 0 has unexpected depth"),
        (
            [{"rule": "unfold", "lhs": "a", "rhs": "b", "literal": "a", "depth": 0}],
            "trace ends inside an unfolding",
        ),
        ([{"rule": "cycle", "depth": 0}] * 3, "trailing trace events at index 2"),
        ([{"rule": "cycle", "depth": 0}, "cycle"], "trace event at index 1 is malformed"),
        ([{"rule": "cycle"}], "trace event at index 0 is malformed"),
        ([{"rule": "proven", "depth": 0}], "trace event at index 0 is malformed"),
        ([{"rule": ["cycle"], "depth": 0}], "trace event at index 0 is malformed"),
        (
            [
                {"rule": "unfold", "lhs": "a", "rhs": "b", "literal": "a", "depth": 0},
                {"rule": "cycle", "depth": 1},
                {"rule": "unfold", "lhs": "a", "rhs": "b", "depth": 0},
            ],
            "trace event at index 2 is malformed",
        ),
        # a fold opens a root only: not below one, nor inside an unfolding,
        # nor right after the fold that opened it
        ([{"rule": "fold", "depth": 1}], "trace event at index 0 has unexpected depth"),
        (
            [{"rule": "fold", "depth": 0}] * 2 + [{"rule": "cycle", "depth": 0}],
            "fold event at index 1 does not open a root",
        ),
        (
            [
                {"rule": "unfold", "lhs": "a", "rhs": "b", "literal": "a", "depth": 0},
                {"rule": "fold", "lhs": "a", "rhs": "b", "literal": "a", "depth": 1},
            ],
            "fold event at index 1 does not open a root",
        ),
        ([{"rule": "fold", "depth": 0}], "trace ends inside an unfolding"),
    ],
)
def test_replay_trace_rejects_malformed_traces(events, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replay_trace(events)


# -- verdicts against the oracle -------------------------------------------------------


def test_random_verdicts_agree_with_slices():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    chk = Checker(b)
    oracle = SliceOracle(b, 8)
    rng = random.Random(41)
    for _ in range(300):
        r = b.parse(raw_text(random_raw(rng, alg, 10)))
        s = b.parse(raw_text(random_raw(rng, alg, 10)))
        verdict = chk.check(r, s)
        if verdict.holds:
            assert oracle.subset(r, s)
        else:
            w = verdict.witness
            assert membership(b, w, r) and not membership(b, w, s)


def test_modes_agree_on_random_pairs():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    rng = random.Random(42)
    pairs = [
        (b.parse(raw_text(random_raw(rng, alg, 10))), b.parse(raw_text(random_raw(rng, alg, 10))))
        for _ in range(300)
    ]
    default = [Checker(b).check(r, s).holds for r, s in pairs]
    scoped = [Checker(b, global_memo=False).check(r, s).holds for r, s in pairs]
    bare = [Checker(b, use_axioms=False).check(r, s).holds for r, s in pairs]
    assert default == scoped == bare


def test_trace_replay_matches_verdict_on_random_pairs():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    rng = random.Random(43)
    for _ in range(300):
        r = b.parse(raw_text(random_raw(rng, alg, 9)))
        s = b.parse(raw_text(random_raw(rng, alg, 9)))
        events = []
        verdict = Checker(b, trace=events.append).check(r, s)
        assert replay_trace(events) == verdict.holds


@pytest.mark.parametrize("rhs,holds", [("[ab]*", True), ("[ab]*a", False)])
def test_deep_traces_replay_to_their_verdicts(rhs, holds):
    # over abc, [ab]* is not .*, which the universal axiom closes at once;
    # a leading [ab] keeps the word fold off, so the 5000-symbol word is
    # unfolded pair by pair, and the plain word is folded to the pair of ()
    # and what is left of the right side: a fold event and that pair's one
    # event at depth 0
    b = ExprBuilder(BitsetAlgebra("abc"))
    for lhs, visited, count in (("[ab]" + "ab" * 2500, 5002, 5002), ("ab" * 2500, 1, 2)):
        events = []
        verdict = Checker(b, trace=events.append).check(b.parse(lhs), b.parse(rhs))
        assert verdict.holds == holds
        assert (verdict.stats.visited, len(events)) == (visited, count)
        assert events[-1]["depth"] == verdict.stats.max_depth == visited - 1
        assert replay_trace(events) == holds


# -- equivalence --------------------------------------------------------------------


def test_equivalence_cases(b, chk):
    assert chk.equivalent(b.parse("a&!a"), b.parse("[]")).holds
    assert chk.equivalent(b.parse("(a|b)*"), b.parse("(a*b*)*")).holds
    verdict = chk.equivalent(b.parse("a"), b.parse("a|b"))
    assert not verdict.holds and verdict.witness == "b"
    assert chk.equivalent(b.parse("!([])"), b.parse(".*")).holds


def test_equivalence_returns_the_failing_forward_check(b, chk):
    r, s = b.parse("a|b"), b.parse("a")
    verdict = chk.equivalent(r, s)
    assert not verdict.holds and verdict.witness == "b"
    assert verdict == chk.check(r, s)


def test_equivalence_witness_distinguishes(b, chk):
    verdict = chk.equivalent(b.parse("(ab)*"), b.parse("(ab)*|ba"))
    assert not verdict.holds
    w = verdict.witness
    assert membership(b, w, b.parse("(ab)*|ba")) != membership(b, w, b.parse("(ab)*"))


# -- membership ----------------------------------------------------------------------


def test_membership_cases(b):
    assert membership(b, "", b.parse("a*"))
    assert membership(b, "c", b.parse("(a|b)|c"))
    assert not membership(b, "ac", b.parse("(a.c)&(b.c)"))
    assert membership(b, "abc", b.parse("(a.c)&(ab.)"))
    assert not membership(b, "z", b.parse(".*"))  # outside the universe


# Patterns that read the same in this syntax and in Python's ``re``, none of
# which makes ``re`` backtrack more than linearly.
LONG_WORD_PATTERNS = ("[ab]*", ".*abba.*", "(a|bc)*", "[ab]*c[ab]*", "(ab|b|c)*a")


@settings(max_examples=20)
@example(10**4, "ab", 0)
@example(10**4, "abc", 0)
@given(st.integers(0, 10**4), st.sampled_from(["ab", "abc"]), st.integers(0, 2**32))
def test_long_words_get_verdicts(n, letters, seed):
    rng = random.Random(seed)
    word = "".join(rng.choice(letters) for _ in range(n))
    b = ExprBuilder(BitsetAlgebra("abc"))
    verdict = Checker(b).check(b.parse(word or "()"), b.parse("[ab]*"))
    assert verdict.holds == ("c" not in word)
    if not verdict.holds:
        assert verdict.witness == word
    for pattern in LONG_WORD_PATTERNS:
        expected = re.fullmatch(pattern, word) is not None
        assert membership(b, word, b.parse(pattern)) == expected, pattern


def _word_without_abba(n):
    rng = random.Random(27)
    word = ""
    for _ in range(n):
        c = rng.choice("ab")
        word += "b" if word[-3:] + c == "abba" else c
    return word


def test_memo_tables_stay_flat_over_word_length():
    # a word's suffixes derive through their head literal and share its
    # lead, so they add no derivative, next-literal or pair-class entries:
    # the checks and matches below add the same few entries for a word of
    # 10^3 symbols as for one of 10^4, not one entry per suffix.  A leading
    # [ab] keeps the word fold off, so that word is unfolded pair by pair;
    # the plain word is decided by the fold in one pair
    base = _word_without_abba(10**4)
    growth = {}
    for n in (10**3, 10**4):
        word = base[:n]
        for lead, steps, first in (("[ab]", n + 2, "a"), ("", 1, "")):
            # the pattern, whether it matches, and the verdicts of
            # lhs <= pattern and pattern <= lhs with their visited pairs
            for pattern, matched, forward, backward in (
                ("[ab]*", True, (True, None, steps), (False, "", 1)),
                (".*abba.*", False, (False, first + word, steps), (False, "\0abba", 2)),
            ):
                b = ExprBuilder(IntervalAlgebra())
                r, s = b.parse(lead + word), b.parse(pattern)
                assert not b.deriv_cache and not b.next_cache
                chk = Checker(b)
                for lhs, rhs, expected in ((r, s, forward), (s, r, backward)):
                    verdict = chk.check(lhs, rhs)
                    assert (verdict.holds, verdict.witness, verdict.stats.visited) == expected
                assert membership(b, word, s) is matched
                growth[n, lead, pattern] = (len(b.deriv_cache), len(b.next_cache), len(b.partition_cache))
    for lead in ("[ab]", ""):
        for pattern in ("[ab]*", ".*abba.*"):
            assert growth[10**3, lead, pattern] == growth[10**4, lead, pattern]
            assert max(growth[10**3, lead, pattern]) < 50, pattern


def test_long_chain_of_nullable_heads_gets_a_verdict():
    # the leading literals of a concatenation whose heads are all nullable
    # are set as each concatenation is interned, from its head's and its
    # tail's, not by one recursion per factor
    b = ExprBuilder(BitsetAlgebra("ab"))
    verdict = Checker(b).check(b.parse("a*" * 300), b.parse("a*"))
    assert verdict.holds


def test_long_chains_of_nullable_heads_get_answers():
    # the symbol derivative loops down the chain too, so neither the
    # unfolding nor the emptiness search recurses once per factor
    b = ExprBuilder(BitsetAlgebra("ab"))
    verdict = Checker(b).check(b.parse("a*" * 600), b.parse("a*"))
    assert verdict.holds and verdict.stats.visited == 3
    assert shortest_word(b, b.parse("(a|())" * 500 + "b")) == ("b",)


def _ab_word(i):
    return format(i, "b").replace("0", "a").replace("1", "b")


NO_RECURSION_PROBES = [
    ("!a" * 2000, "()"),
    ("(a|b)" * 2000, "[ab]*"),
    ("(a|())" * 800, "()"),
    ("a*" * 1500, "[ab]*"),
    ("[ab]*" * 1500, "[ab]*"),
    ("|".join(_ab_word(i) for i in range(1, 3001)), "[ab]*"),
    ("&".join(_ab_word(i) for i in range(1, 3001)), "[ab]*"),
    ("&".join(f"!({_ab_word(i)})" for i in range(1, 3001)) + "&" + _ab_word(1), "[ab]*"),
    ("!(" * (MAX_NESTING - 1) + "a" + ")" * (MAX_NESTING - 1), "[ab]*"),
]


def test_no_layer_recurses_per_factor_or_member():
    # long chains, wide unions and intersections, and the deepest nesting
    # the parser accepts, through the checker, its trace, the renderer and
    # the emptiness search; over abc, [ab]* is not .*, which the universal
    # axiom closes at once
    for text, rhs in NO_RECURSION_PROBES:
        b = ExprBuilder(BitsetAlgebra("abc"))
        r, s = b.parse(text), b.parse(rhs)
        events = []
        verdict = Checker(b, trace=events.append).check(r, s)
        assert replay_trace(events) == verdict.holds, text[:20]
        if not verdict.holds:
            assert membership(b, verdict.witness, r) and not membership(b, verdict.witness, s)
        assert b.parse(to_text(r)) is r, text[:20]
        word = shortest_word(b, r)
        assert word is None or membership(b, word, r), text[:20]


@settings(max_examples=10)
@given(st.lists(st.sampled_from(["(a|())", "a*", "(b|())", "b*", "()"]), min_size=250, max_size=400))
def test_long_optional_chains(factors):
    # every factor is nullable, so ``b`` is the shortest word and every word
    # ends in ``b``; no operation recurses once per factor
    b = ExprBuilder(BitsetAlgebra("ab"))
    r = b.parse("".join(factors) + "b")
    assert shortest_word(b, r) == ("b",)
    chk = Checker(b)
    assert chk.check(r, b.parse(".*b")).holds
    assert chk.check(b.parse("b"), r).holds
    a = b.algebra.from_chars("a")
    by_a = deriv_symbol(b, "a", r)
    assert pos_deriv(b, a, r) is by_a and neg_deriv(b, a, r) is by_a


@pytest.mark.parametrize(
    "alg", [BitsetAlgebra("ab"), IntervalAlgebra(ord("a"), ord("c"))], ids=["bitset", "interval"]
)
def test_symbols_outside_the_universe_are_in_no_language(alg):
    b = ExprBuilder(alg)
    for text in ("!a", "!(b*)&!a", ".*", "a*|!b"):
        r = b.parse(text)
        assert deriv_symbol(b, "z", r) is b.bottom(), text
        assert not membership(b, "z", r), text
        assert not membership(b, "zz", r), text


# The rests that follow a word on a left side: none, rests that are no word,
# and a rest whose language is empty.
FOLD_RESTS = ("", "(a|b)*", "[ab]", "c*a", "(a&b)")


def test_word_fold_agrees_with_the_unfolding():
    # the fold rewrites a first pair whose left side starts with a word to
    # the pair that a prefix of the word reaches: the check gives the
    # verdict and witness that the unfolding finds along the same pairs, its
    # first event is a fold naming the query's pair and the prefix read, and
    # the rest of it is the check of the reached pair, whose witness follows
    # the prefix; a left side that is one word is always decided in one pair
    rng = random.Random(31)
    gen = BitsetAlgebra("abc")
    rights = list(LONG_WORD_PATTERNS)
    rights += [raw_text(random_raw(rng, gen, 8, C3_WEIGHTS)) for _ in range(12)]
    for spec in ("bitset:abc", "unicode", "cofinite"):
        b = ExprBuilder(make_algebra(spec))
        words = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 12))) for _ in range(8)]
        words.append("".join(rng.choice("ab") for _ in range(1000)))
        folds = dict.fromkeys(FOLD_RESTS, 0)
        for word in words:
            for rest in FOLD_RESTS:
                r = b.parse(word + rest or "()")
                for text in rights:
                    s = b.parse(text)
                    expected = Checker(b, use_axioms=False).check(r, s)
                    for global_memo in (True, False):
                        events = []
                        verdict = Checker(b, global_memo=global_memo, trace=events.append).check(r, s)
                        assert (verdict.holds, verdict.witness) == (expected.holds, expected.witness)
                        assert replay_trace(events) == verdict.holds
                        folded = events[0]["rule"] == "fold"
                        assert (verdict.stats.visited == 1) == (len(events) == 1 + folded)
                        assert all(e["rule"] != "fold" for e in events[1:])
                        if folded:
                            fold = events[0]
                            read = fold["literal"]
                            assert (fold["lhs"], fold["rhs"], fold["depth"]) == (to_text(r), to_text(s), 0)
                            assert read and word.startswith(read)
                            reached = []
                            lhs = b.parse(word[len(read):] + rest or "()")
                            rhs = deriv_word(b, read, s)
                            tail = Checker(b, global_memo=global_memo, trace=reached.append).check(lhs, rhs)
                            assert reached == events[1:] and tail.stats == verdict.stats
                            assert verdict.witness == (None if tail.holds else read + tail.witness)
                        if word and not rest:
                            assert verdict.stats.visited == 1, (spec, word, text)
                        folds[rest] += folded
        assert all(folds.values()), (spec, folds)


@pytest.mark.parametrize("n", [10, 10**4])
def test_word_fold_hands_the_rest_to_the_unfolding(n):
    # w(ab)* <= [ab]*: the fold reads w and leaves (ab)* <= [ab]* to the
    # unfolding, which closes it in three pairs whatever the length of w
    b = ExprBuilder(BitsetAlgebra("abc"))
    word = "".join(random.Random(n).choice("ab") for _ in range(n))
    verdict = Checker(b).check(b.parse(word + "(ab)*"), b.parse("[ab]*"))
    assert verdict == (True, None, CheckStats(3, 2))
    # a refutation found below the reached pair spells the fold's word first
    events = []
    verdict = Checker(b, trace=events.append).check(b.parse("abab(a|b)*c"), b.parse("[ab]*"))
    assert (verdict.holds, verdict.witness) == (False, "ababc")
    assert (events[0]["rule"], events[0]["literal"]) == ("fold", "abab")
    assert replay_trace(events) is False


@pytest.mark.parametrize(
    "spec,lhs,rhs,holds",
    [("cofinite", "0[bB][01][01]*", "0[bB].*", True), ("unicode", "ab" * 500, "[ab]*", True)],
    ids=["cheap-attempt", "long-word"],
)
def test_word_fold_makes_no_algebra_call(spec, lhs, rhs, holds, monkeypatch):
    # the fold reads each head literal's symbol, a node fact set when the
    # literal was interned, so a check asks the algebra for no singleton,
    # whether the fold decides the pair or not
    alg = make_algebra(spec)
    b = ExprBuilder(alg)
    r, s = b.parse(lhs), b.parse(rhs)
    b.sigma_star()  # a builder's first check interns ``.*``, a new literal
    calls = []
    monkeypatch.setattr(alg, "singleton", lambda a: calls.append(a))
    verdict = Checker(b).check(r, s)
    assert verdict.holds is holds
    assert calls == []


def test_fuel_keeps_its_meaning_under_the_word_fold():
    # the fold visits one pair, however long the word; the unfolding counts
    # one pair per symbol
    b = ExprBuilder(BitsetAlgebra("abc"))
    word, pattern = b.parse("ab" * 500), b.parse("[ab]*")
    assert Checker(b, fuel=100).check(word, pattern) == (True, None, CheckStats(1, 0))
    with pytest.raises(FuelExhausted):
        Checker(b, fuel=100, use_axioms=False).check(word, pattern)
    # a rest left to the emptiness search spends that search's fuel, and
    # names its units, as disprove-empty does
    rest = "[ab][ab][ab][ab]*"
    errors = []
    for lhs, rhs in (("c" + rest, "[ab]*"), (rest, "[]")):
        fresh = ExprBuilder(BitsetAlgebra("abc"))
        with pytest.raises(FuelExhausted, match="emptiness-search nodes") as err:
            Checker(fresh, fuel=2).check(fresh.parse(lhs), fresh.parse(rhs))
        errors.append((err.value.visited, err.value.max_depth))
    assert errors[0] == errors[1] == (3, 2)


# -- shortest word -----------------------------------------------------------------


def test_shortest_word(b):
    assert shortest_word(b, b.parse("a*")) == ()
    assert shortest_word(b, b.parse("ab|b")) == ("b",)
    assert shortest_word(b, b.parse("(ba|ab)c")) == ("a", "b", "c")
    assert shortest_word(b, b.parse("a&b")) is None
    assert shortest_word(b, b.parse("!(.*)")) is None

    # the builder's memo never changes an answer: a builder warmed by
    # criterion-3 style checks and by checks against [] answers every
    # expression exactly as a fresh builder does
    alg = BitsetAlgebra("ab")
    warm = ExprBuilder(alg)
    chk = Checker(warm)
    rng = random.Random(44)
    raws = [random_raw(rng, alg, 10) for _ in range(600)]
    exprs = [warm.parse(raw_text(raw)) for raw in raws]
    for r, s in zip(exprs[::2], exprs[1::2]):
        chk.check(r, s)
        chk.check(r, warm.bottom())
    assert warm.word_cache
    for raw, r in zip(raws, exprs):
        fresh = ExprBuilder(alg)
        assert shortest_word(warm, r) == shortest_word(fresh, fresh.parse(raw_text(raw)))


def test_shortest_word_orders_terms_that_share_a_word():
    # ab|aa steps by a to the terms b and a; a search that queued them one by
    # one would find ab before aa
    b = ExprBuilder(BitsetAlgebra("ab"))
    assert shortest_word(b, b.parse("ab|aa")) == ("a", "a")


def test_shortest_word_is_the_least_word_of_the_slice():
    # the slice oracle takes no derivative: wherever the slice up to length 6
    # has a word, the search returns its shortlex-least one, and elsewhere no
    # word of length 6 or less.  One builder, warmed by every earlier search,
    # answers them all
    b = ExprBuilder(BitsetAlgebra("ab"))
    oracle = SliceOracle(b, 6)
    rng = random.Random(0)
    exprs = [b.parse(raw_text(random_raw(rng, b.algebra, 10, C3_WEIGHTS))) for _ in range(600)]
    exprs += [b.and_(r, s) for r, s in zip(exprs, exprs[1:])]
    for r in exprs:
        word = shortest_word(b, r)
        words = oracle.slice(r)
        if words:
            assert word == tuple(min(words, key=lambda w: (len(w), w))), to_text(r)
        else:
            assert word is None or len(word) > 6, to_text(r)


def _count_search_steps(monkeypatch):
    searched = []
    original = containment.partial_derivatives

    def counting(*args):
        searched.append(args)
        return original(*args)

    monkeypatch.setattr(containment, "partial_derivatives", counting)
    return searched


def test_emptiness_cost_is_linear_in_visited_pairs(b, monkeypatch):
    # r & !r' <= [] is one pair: the search for a shortest word of r & !r'
    # finds none, so the empty-language axiom closes it.  r' has r's language
    # but another node, so the search takes one step per class of each term
    # it reaches; an & with a ! member is one term, its symbol derivative:
    # 1025 terms, two classes each
    searched = _count_search_steps(monkeypatch)
    verdict = Checker(b).check(b.parse(f"{R_LANG}&{NOT_R}"), b.bottom())
    assert verdict.holds and verdict.stats.visited == 1
    assert len(searched) == 2050
    # r & !r builds as [], which closes at the root without a search
    r = b.parse(R_LANG)
    assert b.and_(r, b.not_(r)) is b.bottom()
    searched.clear()
    verdict = Checker(b).check(b.and_(r, b.not_(r)), b.bottom())
    assert verdict.holds and verdict.stats.visited == 1
    assert not searched


@pytest.mark.parametrize("n", range(4, 13))
def test_emptiness_search_is_linear_on_intersections_without_complement(n, monkeypatch):
    # With r = (a|b)*a(a|b){n}, a search over symbol derivatives takes
    # 2^(n+1)+4 steps for r & .*b and 2^(n+1)+2 for r & b.*.  The partial
    # derivatives of r are r and its suffixes (a|b){k}, and an & of such a
    # term with one of .*b or b.* is a product of term sets, so the search
    # meets a few new terms per word length.  To a^n b it steps twice at
    # each of the n+1 lengths before it; to b a^(n+1), once at the root
    # (only b starts a word), twice after b, and once after each b a^k,
    # 0 < k <= n, whose only class is [ab]
    b = ExprBuilder(BitsetAlgebra("ab"))
    r = "(a|b)*a" + "(a|b)" * n
    searched = _count_search_steps(monkeypatch)
    assert shortest_word(b, b.parse(f"({r})&.*b")) == ("a",) * n + ("b",)
    assert len(searched) == 2 * n + 2
    searched.clear()
    assert shortest_word(b, b.parse(f"({r})&b.*")) == ("b",) + ("a",) * (n + 1)
    assert len(searched) == n + 3


@pytest.mark.parametrize("alg", [FiniteCofiniteAlgebra(), IntervalAlgebra()])
def test_emptiness_decider_referees_infinite_alphabets(alg):
    # r <= s holds exactly when r & !s is empty; where it fails, the shortest
    # word of r & !s is a counterexample no longer than the checker's.  The
    # slice oracle enumerates the alphabet, so it cannot referee these
    rng = random.Random(16)
    ab = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    chk = Checker(b)
    refuted = 0
    for _ in range(2000):
        r, s = (b.parse(raw_text(random_raw(rng, ab, 10, C3_WEIGHTS))) for _ in "rs")
        verdict = chk.check(r, s)
        word = shortest_word(b, b.and_(r, b.not_(s)))
        assert (word is None) == verdict.holds
        if word is not None:
            refuted += 1
            assert membership(b, word, r) and not membership(b, word, s)
            assert len(word) <= len(verdict.witness)
    assert refuted == 1244


def test_twin_alphabets_agree():
    # One text over three alphabets, where the ``z`` of ``bitset:abz`` stands
    # for every symbol but a and b.  ``unicode`` and ``cofinite`` are one
    # alphabet in two representations, so they give the same answer, witness
    # included; the bitset alphabet gives the same verdict.  The slice oracle
    # cannot referee the two infinite ones, and each builder stays warm.
    rng = random.Random(18)
    ab = BitsetAlgebra("ab")
    specs = ("unicode", "cofinite", "bitset:abz")
    checkers = [Checker(ExprBuilder(make_algebra(spec))) for spec in specs]
    refuted = 0
    for _ in range(1000):
        r, s = (raw_text(random_raw(rng, ab, 10, C3_WEIGHTS)) for _ in "rs")
        uni, cof, bits = (c.check(c.builder.parse(r), c.builder.parse(s)) for c in checkers)
        assert (cof.holds, cof.witness) == (uni.holds, uni.witness)
        assert bits.holds == uni.holds
        refuted += not uni.holds
    assert refuted == 655  # of the 1000 pairs


# Placeholder classes for the wide twin referee: ASCII ranges, one symbol on
# either side of Latin-1, CJK, emoji, and a class spanning both, negated or
# not.
WIDE_CLASSES = (
    "[a-m]", "[k-z]", "[0-9a-f]", "x", "\\u{9fff}", "[\\u{4e00}-\\u{9fff}]",
    "[\\u{1f600}-\\u{1f64f}]", "[\\u{4e00}-\\u{9fff}\\u{1f600}-\\u{1f64f}]",
)


def test_twin_alphabets_agree_on_wide_classes():
    # As above, over classes far above Latin-1, whose characters are fresh
    # objects on every ``chr``.  Each pair is drawn over the placeholders
    # ``abc``; then each placeholder becomes a class of ``WIDE_CLASSES``,
    # negated 30% of the time, a set of placeholders the union of their
    # classes, and ``.`` and ``[]`` stay as they are.
    rng = random.Random(22)
    abc = BitsetAlgebra("abc")
    subsets = [abc.from_chars(c) for k in range(4) for c in itertools.combinations("abc", k)]
    checkers = [Checker(ExprBuilder(make_algebra(spec))) for spec in ("unicode", "cofinite")]
    refuted = wide_witnesses = 0
    for _ in range(500):
        wide = {}
        for p in "abc":
            c = rng.choice(WIDE_CLASSES)
            wide[p] = f"[^{c.strip('[]')}]" if rng.random() < 0.3 else c
        texts = {
            abc.format_set(s): "(" + "|".join(wide[p] for p in abc.members(s)) + ")"
            for s in subsets[1:-1]
        }
        texts.update({".": ".", "[]": "[]"})
        r, s = (
            re.sub(r"\[\^?[abc]*\]|[abc.]", lambda m: texts[m.group()],
                   raw_text(random_raw(rng, abc, 10, C3_WEIGHTS)))
            for _ in "rs"
        )
        uni, cof = (c.check(c.builder.parse(r), c.builder.parse(s)) for c in checkers)
        assert (cof.holds, cof.witness) == (uni.holds, uni.witness), (r, s)
        refuted += not uni.holds
        wide_witnesses += not uni.holds and max(map(ord, uni.witness), default=0) > 0xFF
    assert (refuted, wide_witnesses) == (315, 47)  # of the 500 pairs


# -- other algebras ------------------------------------------------------------------


def test_cofinite_checks_without_enumeration():
    alg = FiniteCofiniteAlgebra()
    b = ExprBuilder(alg)
    chk = Checker(b)
    verdict = chk.check(b.parse("[^a]"), b.parse("[]"))
    assert not verdict.holds and verdict.witness != "a"
    assert chk.check(b.parse(".*a.*"), b.parse(".*")).holds
    verdict = chk.check(b.parse(".*"), b.parse(".*a.*"))
    assert not verdict.holds and verdict.witness == ""
    assert alg.scan_steps < 100


def test_unicode_interval_checks():
    b = ExprBuilder(IntervalAlgebra())
    chk = Checker(b)
    assert chk.check(b.parse("[a-m]+"), b.parse("[a-z][a-z]*")).holds is False  # '+' is a plain char
    assert chk.check(b.parse("[a-m][a-m]*"), b.parse("[a-z][a-z]*")).holds
    verdict = chk.check(b.parse("[a-z]*"), b.parse("[a-y]*"))
    assert not verdict.holds and verdict.witness == "z"
    assert chk.check(b.parse("!([0-9].*)"), b.parse("!(00.*)") ).holds


def test_witness_valid_over_unicode():
    b = ExprBuilder(IntervalAlgebra())
    chk = Checker(b)
    verdict = chk.check(b.parse(".*"), b.parse("[\\u{0}-\\u{10ffff}]"))
    assert not verdict.holds and verdict.witness == ""
    verdict = chk.check(b.parse("..*"), b.parse("[b-z].*"))
    assert not verdict.holds
    assert membership(b, verdict.witness, b.parse("..*"))
    assert not membership(b, verdict.witness, b.parse("[b-z].*"))


# -- verdict metadata -----------------------------------------------------------------


def test_stats_are_populated(b, chk):
    verdict = chk.check(b.parse("(ab)*"), b.parse("((ab)*)|(ba)"))
    assert verdict.stats.visited >= 1
    assert verdict.stats.max_depth >= 1


def test_checker_reuse_across_queries(b, chk):
    assert chk.check(b.parse("a"), b.parse("a|b")).holds
    assert not chk.check(b.parse("b"), b.parse("a")).holds
    assert chk.check(b.parse("a"), b.parse("a|b")).holds
