"""Acceptance suite.

Each test covers one numbered criterion, prints one pass/fail line (run
with ``pytest -s`` to see them), and enforces the stated tolerances and
runtime budgets.
"""

import random
import time

import pytest

from symre.alphabet import BitsetAlgebra, FiniteCofiniteAlgebra
from symre.containment import Checker, membership
from symre.derivative import deriv_symbol, neg_deriv, pos_deriv
from symre.nextlit import join, left_join, next_literals, partition_union
from symre.oracle import SliceOracle
from symre.syntax import ExprBuilder, parse_class_text, size, width

from exprgen import (
    c3_corpus,
    has_extended_ops,
    random_partition,
    random_raw,
    random_set,
    raw_text,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


# -- shared corpora ----------------------------------------------------------------


@pytest.fixture(scope="module")
def c3_data():
    b, raws, pairs = c3_corpus("ab10")
    return b, raws, pairs, SliceOracle(b, 8)


def validate_random_pairs(b, pairs, oracle, **checker_options):
    """Criterion-3 validation; returns the verdict list for mode comparison."""
    chk = Checker(b, **checker_options)
    verdicts = []
    for r, s in pairs:
        v = chk.check(r, s)
        verdicts.append(v.holds)
        if v.holds:
            assert oracle.subset(r, s), f"claimed containment refuted: {r!r} vs {s!r}"
        else:
            w = v.witness
            assert membership(b, w, r) and not membership(b, w, s), (
                f"invalid witness {w!r} for {r!r} vs {s!r}"
            )
            if len(w) <= oracle.max_len:
                assert w in oracle.slice(r) and w not in oracle.slice(s)
    return verdicts


def build_worked_example():
    b = ExprBuilder(BitsetAlgebra("abc"))
    return b, b.parse("(a|b)|c"), b.parse("a|b")


def run_worked_example(**checker_options):
    b, r, s = build_worked_example()
    events = []
    chk = Checker(b, trace=events.append, **checker_options)
    start = time.perf_counter()
    verdict = chk.check(r, s)
    elapsed = time.perf_counter() - start
    return b, verdict, events, elapsed


def build_exponential_family(n=6):
    """Conjunction of star-guarded unions over complementary bit-slice sets.

    With 2**n symbols indexed 0..2**n-1, the i-th conjunct splits the
    alphabet into the symbols with bit i clear versus set (each pair
    disjoint), so the partition of the conjunction has one class per
    symbol: 2**n next literals.  A star guards the left literal of each
    union to keep the two sides from merging into a single class.
    """
    chars = "".join(chr(0x30 + i) for i in range(1 << n))
    alg = BitsetAlgebra(chars)
    b = ExprBuilder(alg)
    conjuncts = []
    for i in range(n):
        low = alg.from_chars([c for k, c in enumerate(chars) if not (k >> i) & 1])
        conjuncts.append(
            b.union(b.star(b.literal(low)), b.literal(alg.complement(low)))
        )
    return b, b.and_(*conjuncts)


def build_nested_negations(seed=0x7E57, count=8):
    """Expressions with negation nesting depth 4 and size at most 12."""
    alg = BitsetAlgebra("abc")
    b = ExprBuilder(alg)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = b.literal(random_nonempty(rng, alg))
        for depth in range(4):
            if depth % 2 == 0:
                t = b.not_(b.concat(t, b.literal(random_nonempty(rng, alg))))
            else:
                t = b.not_(b.star(t))
        if size(t) <= 12:
            out.append(t)
    return b, out


def random_nonempty(rng, alg):
    while True:
        s = random_set(rng, alg)
        if not alg.is_empty(s):
            return s


# -- criterion 1 --------------------------------------------------------------------


def test_criterion_1_worked_counterexample():
    b, verdict, events, elapsed = run_worked_example()
    alg = b.algebra
    ok = not verdict.holds and verdict.witness == "c"
    ok = ok and membership(b, "c", b.parse("(a|b)|c"))
    ok = ok and not membership(b, "c", b.parse("a|b"))
    # the unfolded classes jointly cover {a,b,c}
    unfold_lits = [
        parse_class_text(e["literal"], alg)
        for e in events
        if e["rule"] == "unfold" and e["depth"] == 0 and e["literal"]
    ]
    covered = alg.bottom()
    for lit in unfold_lits:
        covered = alg.union(covered, lit)
    ok = ok and alg.is_equal(covered, alg.from_chars("abc"))
    # the c-branch ends in a disprove on the pair () <= []
    idx = next(
        i for i, e in enumerate(events)
        if e["rule"] == "unfold" and e["literal"] == "c"
    )
    disprove = events[idx + 1]
    ok = ok and disprove["rule"] == "disprove"
    ok = ok and disprove["lhs"] == "()" and disprove["rhs"] == "[]"
    ok = ok and elapsed < 0.010
    assert report("criterion 1", ok, f"witness=c in {elapsed * 1000:.2f} ms")


# -- criterion 2 --------------------------------------------------------------------


def test_criterion_2_set_derivative_examples():
    b = ExprBuilder(BitsetAlgebra("abc"))
    oracle = SliceOracle(b, 6)
    a_set = b.algebra.from_chars("ab")
    meet_expr = b.parse("(ac)&(bc)")
    union_expr = b.parse("(ac)|(bc)")
    start = time.perf_counter()
    positive = pos_deriv(b, a_set, meet_expr)
    negative = neg_deriv(b, a_set, union_expr)
    ok = oracle.equal(positive, b.char("c")) and oracle.equal(negative, b.bottom())
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.010
    assert report("criterion 2", ok, f"{elapsed * 1000:.2f} ms")


# -- criterion 3 --------------------------------------------------------------------


def test_criterion_3_randomized_oracle_agreement(c3_data):
    b, raws, pairs, oracle = c3_data
    extended = sum(
        1 for r, s in raws for raw in (r, s) if has_extended_ops(raw)
    )
    fraction = extended / (2 * len(raws))
    assert fraction >= 0.5, f"extended-operator fraction {fraction:.2f} below half"
    start = time.perf_counter()
    verdicts = validate_random_pairs(b, pairs, oracle)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    assert report(
        "criterion 3",
        ok,
        f"{len(pairs)} pairs, {sum(verdicts)} hold, ext-op fraction "
        f"{fraction:.2f}, {elapsed:.1f} s",
    )


# -- criterion 4 --------------------------------------------------------------------


def test_criterion_4_join_property_suites():
    alg = BitsetAlgebra("abcdefgh")
    rng = random.Random(0xC4)
    universe = frozenset(alg.symbols)

    def denote(s):
        return frozenset(alg.members(s))

    start = time.perf_counter()
    for _ in range(10_000):
        l1, l2 = random_partition(rng, alg), random_partition(rng, alg)
        u1 = frozenset().union(*map(denote, l1))
        u2 = frozenset().union(*map(denote, l2))
        for op, coverage in ((join, u1 | u2), (left_join, u1)):
            got = [denote(s) for s in op(alg, l1, l2)]
            # item 1: coverage, against brute-force set computation
            assert frozenset().union(*got, frozenset()) == coverage
            # item 2: mutual disjointness
            for i, x in enumerate(got):
                for y in got[i + 1 :]:
                    assert not (x & y)
            # item 3: refinement of both inputs
            for x in got:
                for side in (l1, l2):
                    for a in map(denote, side):
                        if x & a:
                            assert x <= a
    elapsed = time.perf_counter() - start
    ok = elapsed < 30
    assert report("criterion 4", ok, f"10000 partition pairs, {elapsed:.1f} s")


# -- criterion 5 --------------------------------------------------------------------


@pytest.fixture(scope="module")
def c5_corpus():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    rng = random.Random(0xC5)
    exprs = [b.parse(raw_text(random_raw(rng, alg, 8))) for _ in range(1000)]
    return b, exprs, SliceOracle(b, 6)


def test_criterion_5_partial_equivalence_and_first(c5_corpus):
    b, exprs, oracle = c5_corpus
    alg = b.algebra
    start = time.perf_counter()
    for r in exprs:
        part = next_literals(b, r)
        covered = partition_union(alg, part)
        for a_set in part:
            slices = {
                oracle.slice(deriv_symbol(b, a, r)) for a in alg.members(a_set)
            }
            assert len(slices) == 1, f"class symbols disagree on {r!r}"
        for a in alg.symbols:
            d_slice = oracle.slice(deriv_symbol(b, a, r))
            if not alg.contains(covered, a):
                assert not d_slice, f"uncovered symbol {a} has non-empty derivative"
            if d_slice:
                assert alg.contains(covered, a), f"first symbol {a} not covered"
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    assert report(
        "criterion 5 (partial equivalence + first)",
        ok,
        f"{len(exprs)} expressions, {elapsed:.1f} s",
    )


def test_criterion_5_left_quotient_equality(c5_corpus):
    """Exact set-derivative equality on next literals, as stated.

    On every class of ``next_literals`` the positive derivative, the
    negative derivative and the symbol derivative of the class's witness
    have the same language.  This holds because every class refines every
    literal at a leading position of the expression, including the ones an
    ``&`` drops from its own partition (see ``symre.nextlit``): a class
    holding symbols both inside and outside such a literal would make the
    positive derivative see it hit and the negative derivative see it
    missed, as a lone complement class of !(a&b) would.
    """
    b, exprs, oracle = c5_corpus
    alg = b.algebra
    violations = []
    start = time.perf_counter()
    for r in exprs:
        for a_set in next_literals(b, r):
            witness = alg.pick_witness(a_set)
            symbol_slice = oracle.slice(deriv_symbol(b, witness, r))
            pos_slice = oracle.slice(pos_deriv(b, a_set, r))
            neg_slice = oracle.slice(neg_deriv(b, a_set, r))
            if not (pos_slice == neg_slice == symbol_slice):
                violations.append((r, alg.format_set(a_set)))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120
    report(
        "criterion 5 (left-quotient equality)",
        ok,
        f"{len(violations)} violating classes in {len(exprs)} expressions, "
        f"{elapsed:.1f} s",
    )
    assert not violations, (
        f"set-derivative equality fails on {len(violations)} classes, "
        f"first on {violations[0][0]!r} class {violations[0][1]}; "
        "see this test's docstring for the analysis"
    )


# -- criterion 6 --------------------------------------------------------------------


def test_criterion_6_inclusions_for_arbitrary_literals():
    alg = BitsetAlgebra("ab")
    b = ExprBuilder(alg)
    oracle = SliceOracle(b, 6)
    rng = random.Random(0xC6)
    start = time.perf_counter()
    for _ in range(1000):
        r = b.parse(raw_text(random_raw(rng, alg, 8)))
        a_set = random_set(rng, alg)
        members = alg.members(a_set)
        pos_slice = oracle.slice(pos_deriv(b, a_set, r))
        neg_slice = oracle.slice(neg_deriv(b, a_set, r))
        family = [oracle.slice(deriv_symbol(b, a, r)) for a in members]
        union = frozenset().union(*family) if family else frozenset()
        inter = oracle.all_words()
        for f in family:
            inter &= f
        assert union <= pos_slice, f"positive derivative misses words on {r!r}"
        assert neg_slice <= inter, f"negative derivative leaks words on {r!r}"
    elapsed = time.perf_counter() - start
    assert report("criterion 6", True, f"1000 (expression, literal) pairs, {elapsed:.1f} s")


# -- criterion 7 --------------------------------------------------------------------


def test_criterion_7_termination_and_finiteness_stress():
    start = time.perf_counter()
    b, family = build_exponential_family(6)
    part = next_literals(b, family)
    ok = len(part) == 64
    ok = ok and len(part) <= 1 << width(family)
    # ``(.|())*`` is every word, but it is not the node ``.*``, so no axiom
    # decides it at the root, and it is its own derivative: the check unfolds
    # every class of the family.
    verdict = Checker(b).check(family, b.parse("(.|())*"))
    ok = ok and verdict.holds and verdict.stats.visited > len(part)

    nb, nested = build_nested_negations()
    worst = 0
    for x in nested:
        assert size(x) <= 12
        for y in nested:
            v = Checker(nb).check(x, y)
            worst = max(worst, v.stats.visited)
    ok = ok and worst < 1 << 16
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    assert report(
        "criterion 7",
        ok,
        f"|next|={len(part)}, nested-negation worst visited={worst}, {elapsed:.1f} s",
    )


# -- criterion 8 --------------------------------------------------------------------


def test_criterion_8_infinite_alphabet_behavior():
    alg = FiniteCofiniteAlgebra()
    b = ExprBuilder(alg)
    chk = Checker(b)
    scans_before = alg.scan_steps
    timings = []

    start = time.perf_counter()
    v1 = chk.check(b.parse("[^a]"), b.parse("[]"))
    timings.append(time.perf_counter() - start)
    ok = not v1.holds and v1.witness != "a" and len(v1.witness) == 1
    ok = ok and alg.contains(alg.complement(alg.finite("a")), v1.witness)

    start = time.perf_counter()
    v2 = chk.check(b.parse(".*a.*"), b.parse(".*"))
    timings.append(time.perf_counter() - start)
    ok = ok and v2.holds

    start = time.perf_counter()
    v3 = chk.check(b.parse(".*"), b.parse(".*a.*"))
    timings.append(time.perf_counter() - start)
    ok = ok and not v3.holds
    ok = ok and membership(b, v3.witness, b.parse(".*"))
    ok = ok and not membership(b, v3.witness, b.parse(".*a.*"))

    # instrumentation: symbol scans stay proportional to the explicit finite
    # parts (a handful of excluded symbols), nowhere near the universe
    scans = alg.scan_steps - scans_before
    ok = ok and scans < 100
    ok = ok and all(t < 0.010 for t in timings)
    assert report(
        "criterion 8",
        ok,
        f"scans={scans}, times={['%.2f ms' % (t * 1000) for t in timings]}",
    )


# -- criterion 9 --------------------------------------------------------------------


def test_criterion_9_mode_equivalence(c3_data):
    b, _, pairs, oracle = c3_data
    base = validate_random_pairs(b, pairs, oracle)
    scoped = validate_random_pairs(b, pairs, oracle, global_memo=False)
    bare = validate_random_pairs(b, pairs, oracle, use_axioms=False)
    ok = base == scoped == bare

    for options in ({"global_memo": False}, {"use_axioms": False}):
        _, verdict, events, _ = run_worked_example(**options)
        ok = ok and not verdict.holds and verdict.witness == "c"

        fb, family = build_exponential_family(6)
        ok = ok and Checker(fb, **options).check(family, fb.not_(fb.bottom())).holds
        nb, nested = build_nested_negations()
        for x in nested:
            for y in nested:
                v = Checker(nb, **options).check(x, y)
                ok = ok and v.stats.visited < 1 << 16
                ref = Checker(nb).check(x, y)
                ok = ok and v.holds == ref.holds
    assert report("criterion 9", ok, "criteria 1, 3, 7 identical across modes")
