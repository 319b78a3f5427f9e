"""Seeded query corpora for the benchmark workloads.

Each workload is a fixed list of queries made from the seed alone.  A run
repeats the list in passes; every pass starts from fresh builders, so no
pass reads a cache warmed by another.  Queries are given as text (or, for
the regex-valued algebra, as a build function), so parsing and
normalization are part of each query's measured cost.

The four workloads load different layers of the engine:

* ``mixed_queries`` -- many small library queries sharing one builder per
  algebra and pass: random extended expressions over ``bitset:abcd``,
  realistic templates over ``unicode`` and ``cofinite``, and a few
  ``RegexAlgebra`` queries.  Per-query overhead, short parses and the
  algebra operations dominate.
* ``suffix_unfold`` -- ``(x|y)*x(x|y){n}`` against its union with the ``y``
  variant, one builder per query.  It unfolds 2^(n+2)-1 distinct pairs,
  each into two branches, so ``CheckStats.visited`` is exactly 2^(n+3)-1;
  it never starts an emptiness search, so it bypasses ``shortest_word``.
* ``emptiness`` -- the same family with ``[]`` on the right, one builder per
  query, so the ``disprove-empty`` axiom's breadth-first searches dominate.
* ``long_words`` -- literal words of 10^2 to 10^4 symbols checked both ways
  against two short patterns and matched against one; parsing dominates.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

Pred = Callable[[str], bool]

WORKLOADS = ("mixed_queries", "suffix_unfold", "emptiness", "long_words")


@dataclass(frozen=True)
class Query:
    kind: str  # "check", "equiv" or "match"
    alphabet: str  # CLI --alphabet spec, or "regex:<inner symbols>"
    lhs: object  # expression text; the word for "match"; a build function for regex
    rhs: object  # expression text; a build function for regex
    expect: Optional[bool] = None  # pinned verdict; None leaves it to the slice oracle
    lhs_pred: Optional[Pred] = None  # independent membership tests for witnesses
    rhs_pred: Optional[Pred] = None
    pairs: Optional[int] = None  # exact visited-pair count the referee demands
    shortest: Optional[str] = None  # the shortest (then least) witness, when pinned


@dataclass
class Workload:
    queries: list[Query]
    builder_per_query: bool  # else one builder per algebra and pass
    cli: list[int] = field(default_factory=list)  # query indices run through the CLI
    setup_code: str = ""  # imports symre and builds the algebras, for setup_s


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's corpus for ``seed``; ``tiny`` shrinks it for self-tests."""
    maker = {
        "mixed_queries": mixed_queries,
        "suffix_unfold": suffix_unfold,
        "emptiness": emptiness,
        "long_words": long_words,
    }[name]
    return maker(random.Random(f"{name}/{seed}"), tiny)


# -- Python-side membership predicates (independent of the engine) ---------------


def rx(pattern: str) -> Pred:
    compiled = re.compile(pattern, re.DOTALL)
    return lambda w: compiled.fullmatch(w) is not None


def both(*preds: Pred) -> Pred:
    return lambda w: all(p(w) for p in preds)


def neg(pred: Pred) -> Pred:
    return lambda w: not pred(w)


# -- mixed_queries ---------------------------------------------------------------

# Criterion-3 operator weights: at least half the trees use & or !.
RANDOM_WEIGHTS = {"lit": 3, "eps": 1, "star": 2, "not": 3, "union": 3, "concat": 3, "and": 3}
RANDOM_LETTERS = "abcd"
RANDOM_SIZE = 10
# Queries per family and pass.  No usage data says how a library user
# weights the four families (random bitset pairs, unicode templates,
# cofinite templates, RegexAlgebra queries), so each gets the same count:
# then each is a quarter of the ranks the percentiles are taken over.
FAMILY_QUERIES = 96
TEMPLATE_ROUNDS = 4  # instantiations of the 24 templates per pass, at most 4
REGEX_INNER = "abcd"  # inner alphabet; its 12 ordered letter pairs x 8 cases

KEYWORDS = (
    "if", "else", "elif", "while", "for", "return", "def", "class", "try",
    "except", "with", "yield", "lambda", "import", "from", "pass", "break",
    "in", "is", "not", "and", "or", "del", "raise", "global",
)


def random_text(rng: random.Random, budget: int) -> str:
    """Random expression text of as-written size at most ``budget``."""
    if budget <= 1:
        return "()" if rng.random() < 0.15 else random_class(rng)
    ops, weights = zip(*RANDOM_WEIGHTS.items())
    op = rng.choices(ops, weights)[0]
    if op == "eps":
        return "()"
    if op == "lit":
        return random_class(rng)
    if op == "star":
        return f"({random_text(rng, budget - 1)})*"
    if op == "not":
        return f"!({random_text(rng, budget - 1)})"
    left = rng.randint(1, budget - 2) if budget > 2 else 1
    x = random_text(rng, left)
    y = random_text(rng, budget - 1 - left)
    sep = {"union": "|", "and": "&", "concat": ")("}[op]
    return f"({x}{sep}{y})"


def random_class(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.05:
        return "[]"
    if roll < 0.12:
        return "."
    chars = [c for c in RANDOM_LETTERS if rng.random() < 0.5] or [rng.choice(RANDOM_LETTERS)]
    return chars[0] if len(chars) == 1 else "[" + "".join(chars) + "]"


def template_queries(rng: random.Random, rounds: int) -> list[tuple]:
    """Realistic patterns as (kind, lhs, rhs, expect, lhs_pred, rhs_pred).

    Each of the 24 templates appears ``rounds`` times.  Its seeded
    parameters differ from round to round, so no round repeats a query that
    an earlier one cached; sizes depend on the round, never on the seed.
    Every pinned verdict holds for all parameters.
    """
    out = []

    def add(kind, lhs, rhs, expect, lp, rp):
        out.append((kind, lhs, rhs, expect, lp, rp))

    def distinct(options):
        return rng.sample(options, rounds)

    keywords = distinct([KEYWORDS[i : i + 4] for i in range(0, 24, 4)])
    centuries = distinct(["(19|20)", "(18|19|20)", "20", "19"])
    seps = distinct([("\\-", "-"), ("/", "/"), ("\\.", "\\."), (":", ":")])
    domains = distinct([(d, t) for d in ("example", "mail", "corp") for t in ("com", "org")])
    banned = distinct(["qwerty", "dragon", "monkey", "secret"])
    quotes = distinct(["\"", "'", "`", "~"])
    digit_sets = distinct(["0-9", "0-7", "1-9", "0-5"])
    # CJK blocks outside U+4E00..U+9FFF, all 0x200 wide, so the seed does not set the cost
    extra_blocks = distinct(["\\u{3400}-\\u{35ff}", "\\u{f900}-\\u{faff}", "\\u{2e80}-\\u{307f}",
                             "\\u{3100}-\\u{32ff}"])
    numbers = distinct(
        [("[xX]", "[0-9a-fA-F]"), ("[oO]", "[0-7]"), ("[bB]", "[01]"), ("[dD]", "[0-9]")]
    )
    letters = rng.sample("abcdefghijklmnopqrstuvwxyz", 2 * rounds)
    for r in range(rounds):
        # identifiers minus keywords
        ident, p_ident = "[a-zA-Z_][a-zA-Z0-9_]*", rx("[a-zA-Z_][a-zA-Z0-9_]*")
        kw = "(" + "|".join(keywords[r]) + ")"
        p_kw = rx("|".join(keywords[r]))
        p_plain = both(p_ident, neg(p_kw))
        add("check", f"{ident}&!{kw}", ident, True, p_plain, p_ident)
        add("check", ident, f"{ident}&!{kw}", False, p_ident, p_plain)
        add("check", kw, ident, True, p_kw, p_ident)
        add("equiv", f"({ident}&!{kw})|{kw}", ident, True, p_ident, p_ident)

        # dates: a strict calendar shape against a loose digit shape
        century, (sep, p_sep) = centuries[r], seps[r]
        strict = f"{century}[0-9][0-9]{sep}(0[1-9]|1[0-2]){sep}(0[1-9]|[12][0-9]|3[01])"
        p_strict = rx(
            f"{century}[0-9][0-9]{p_sep}(0[1-9]|1[0-2]){p_sep}(0[1-9]|[12][0-9]|3[01])"
        )
        loose = f"[0-9][0-9][0-9][0-9]{sep}[0-9][0-9]{sep}[0-9][0-9]"
        p_loose = rx(f"[0-9]{{4}}{p_sep}[0-9]{{2}}{p_sep}[0-9]{{2}}")
        add("check", strict, loose, True, p_strict, p_loose)
        add("check", loose, strict, False, p_loose, p_strict)
        year = rng.choice(century.strip("()").split("|")) + f"{rng.randrange(100):02d}"
        date = f"{year}{p_sep[-1]}{rng.randint(1, 12):02d}{p_sep[-1]}{rng.randint(1, 28):02d}"
        add("match", date, strict, True, None, p_strict)
        add("match", date.replace(p_sep[-1], "_"), strict, False, None, p_strict)

        # e-mail addresses at one domain against the general shape
        dom, tld = domains[r]
        one = f"[a-z][a-z0-9_]*@{dom}\\.{tld}"
        p_one = rx(one)
        general = "[a-z0-9_]*@[a-z][a-z]*\\.[a-z][a-z]*"
        p_general = rx(general)
        add("check", one, general, True, p_one, p_general)
        add("check", general, one, False, p_general, p_one)

        # password policies as intersections
        n = 8 + r
        policy = "." * n + ".*&.*[0-9].*&.*[A-Z].*&.*[a-z].*"
        p_policy = both(rx(f".{{{n},}}"), rx(".*[0-9].*"), rx(".*[A-Z].*"), rx(".*[a-z].*"))
        weak = ".*[0-9].*&.*[A-Za-z].*"
        p_weak = both(rx(".*[0-9].*"), rx(".*[A-Za-z].*"))
        p_banned = rx(f".*{banned[r]}.*")
        add("check", policy, weak, True, p_policy, p_weak)
        add("check", weak, policy, False, p_weak, p_policy)
        add("check", f"({policy})&!(.*{banned[r]}.*)", policy, True,
            both(p_policy, neg(p_banned)), p_policy)

        # complemented classes
        q, digits = quotes[r], digit_sets[r]
        quoted, anything = f"{q}[^{q}\\\\]*{q}", f"{q}.*{q}"
        add("check", quoted, anything, True, rx(quoted), rx(anything))
        add("check", anything, quoted, False, rx(anything), rx(quoted))
        add("equiv", f"[^{digits}]*", f"!(.*[{digits}].*)", True, rx(f"[^{digits}]*"),
            neg(rx(f".*[{digits}].*")))

        # CJK ranges
        lo = 0x4E00 + rng.randrange(0x2000)
        hi = lo + 0x1000
        sub = f"[\\u{{{lo:x}}}-\\u{{{hi:x}}}]"
        p_sub = rx(f"[\\u{lo:04x}-\\u{hi:04x}]+")
        block = "[\\u{4e00}-\\u{9fff}]*"
        p_block = rx("[\\u4e00-\\u9fff]*")
        wide = f"[{extra_blocks[r]}\\u{{4e00}}-\\u{{9fff}}]*"
        p_wide = rx(wide.replace("\\u{", "\\u").replace("}", ""))
        add("check", f"{sub}{sub}*", block, True, p_sub, p_block)
        add("check", block, f"{sub}{sub}*", False, p_block, p_sub)
        add("check", wide, block, False, p_wide, p_block)

        # hexadecimal, octal or binary literals
        prefix, digit = numbers[r]
        number, loose = f"0{prefix}{digit}{digit}*", f"0{prefix}.*"
        add("check", number, loose, True, rx(number), rx(loose))
        add("check", loose, number, False, rx(loose), rx(number))

        # classic equivalences over two seeded letters
        x, y = letters[2 * r : 2 * r + 2]
        add("equiv", f"({x}|{y})*", f"({x}*{y}*)*", True, rx(f"[{x}{y}]*"), rx(f"[{x}{y}]*"))
        add("equiv", f"({x}{y})*{x}", f"{x}({y}{x})*", True, rx(f"({x}{y})*{x}"),
            rx(f"{x}({y}{x})*"))
        add("equiv", f"{x}*{y}*", f"({x}|{y})*", False, rx(f"{x}*{y}*"), rx(f"[{x}{y}]*"))
    return out


def regex_queries(rng: random.Random) -> list[Query]:
    """Queries over RegexAlgebra: symbols are inner words, classes inner expressions.

    Eight cases, each once per ordered pair of inner letters; every pinned
    verdict is invariant under that renaming.
    """
    return [
        query
        for a in REGEX_INNER
        for b in REGEX_INNER
        if a != b
        for query in regex_cases(rng, a, b)
    ]


def regex_cases(rng: random.Random, a: str, b: str) -> list[Query]:
    def t(text: str) -> str:
        return text.translate(str.maketrans("ab", a + b))

    def lit(text):
        return lambda alg, bld: bld.literal(alg.set_of(t(text)))

    def top(alg, bld):
        return bld.literal(alg.top())

    def cat(*parts):
        return lambda alg, bld: _fold_concat(bld, [p(alg, bld) for p in parts])

    def star(part):
        return lambda alg, bld: bld.star(part(alg, bld))

    cases = [
        ("check", lit("a(a|b)*"), top, True),
        ("check", cat(lit("a(a|b)*"), star(lit("a(a|b)*"))), star(top), True),
        ("check", top, lit("a(a|b)*"), False),
        ("check", cat(lit("ab|b"), lit("b")), cat(lit("b"), lit("b")), False),
        ("check", star(lit("a|b")), star(lit("(a|b)*")), True),
        ("check", lit("(ab)*a"), lit("a(ba)*"), True),
        ("equiv", lit("a|b"), lit("b|a"), True),
        ("check", cat(star(top), lit("b")), cat(star(top), lit("b(a|b)*")), True),
    ]
    rng.shuffle(cases)
    return [Query(kind, f"regex:{REGEX_INNER}", lhs, rhs, expect) for kind, lhs, rhs, expect in cases]


def _fold_concat(bld, parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = bld.concat(p, out)
    return out


def mixed_queries(rng: random.Random, tiny: bool) -> Workload:
    queries = [
        Query("check", f"bitset:{RANDOM_LETTERS}", random_text(rng, RANDOM_SIZE),
              random_text(rng, RANDOM_SIZE))
        for _ in range(8 if tiny else FAMILY_QUERIES)
    ]
    for kind, lhs, rhs, expect, lp, rp in template_queries(rng, 1 if tiny else TEMPLATE_ROUNDS):
        for alphabet in ("unicode", "cofinite"):
            queries.append(Query(kind, alphabet, lhs, rhs, expect, lp, rp))
    regex = regex_queries(rng)
    queries.extend(regex[:8] if tiny else regex)
    rng.shuffle(queries)
    textual = [i for i, q in enumerate(queries) if not q.alphabet.startswith("regex:")]
    return Workload(
        queries,
        builder_per_query=False,
        cli=sorted(rng.sample(textual, min(20, len(textual)))) * 2,
        setup_code=(
            "import symre\n"
            "for alg in (symre.BitsetAlgebra('abcd'), symre.IntervalAlgebra(),\n"
            f"            symre.FiniteCofiniteAlgebra(), symre.RegexAlgebra({REGEX_INNER!r})):\n"
            "    symre.Checker(symre.ExprBuilder(alg))\n"
        ),
    )


# -- suffix_unfold and emptiness -----------------------------------------------------


def _suffix_letters(rng: random.Random) -> tuple[str, str, str]:
    """Two seeded letters x < y and a four-letter alphabet holding them."""
    letters = rng.sample("abcdefgh", 4)
    x, y = sorted(letters[:2])
    return x, y, "".join(sorted(letters))


def suffix_text(x: str, y: str, lead: str, n: int) -> str:
    """``(x|y)*lead(x|y){n}``: words whose (n+1)-th symbol from the end is lead."""
    return f"({x}|{y})*{lead}" + f"({x}|{y})" * n


def _bitset_setup(alphabet: str) -> str:
    return (
        "import symre\n"
        f"symre.Checker(symre.ExprBuilder(symre.BitsetAlgebra({alphabet!r})))\n"
    )


SUFFIX_NS = range(5, 10)  # five sizes: the median falls on n = 7, p90 on n = 9
TINY_SUFFIX_NS = range(2, 5)


def suffix_unfold(rng: random.Random, tiny: bool) -> Workload:
    x, y, alphabet = _suffix_letters(rng)
    ns = list(TINY_SUFFIX_NS if tiny else SUFFIX_NS)
    rng.shuffle(ns)
    queries = []
    for n in ns:
        r = suffix_text(x, y, x, n)
        rhs = f"{r}|{suffix_text(x, y, y, n)}"
        queries.append(
            Query("check", f"bitset:{alphabet}", r, rhs, True, pairs=2 ** (n + 3) - 1)
        )
    return Workload(
        queries,
        builder_per_query=True,
        cli=list(range(len(queries))) * 4,
        setup_code=_bitset_setup(alphabet),
    )


EMPTINESS_NS = range(4, 9)  # three queries per size: fifteen per pass


def shortest_member(pred: Pred, x: str, y: str, limit: int) -> Optional[str]:
    """Shortlex-least word over {x, y} satisfying ``pred``, by enumeration."""
    words = [""]
    for _ in range(limit + 1):
        for w in words:
            if pred(w):
                return w
        words = [w + c for w in words for c in (x, y)]
    return None


def emptiness(rng: random.Random, tiny: bool) -> Workload:
    x, y, alphabet = _suffix_letters(rng)
    ns = list(range(2, 4) if tiny else EMPTINESS_NS)
    queries = []
    for n in ns:
        r = suffix_text(x, y, x, n)
        p_r = rx(f"[{x}{y}]*{x}[{x}{y}]{{{n}}}")
        queries.append(Query("check", f"bitset:{alphabet}", f"({r})&!({r})", "[]", True))
        for extra, p_extra in ((f".*{y}", rx(f".*{y}")), (f"{y}.*", rx(f"{y}.*"))):
            p_lhs = both(p_r, p_extra)
            queries.append(
                Query("check", f"bitset:{alphabet}", f"({r})&{extra}", "[]", False,
                      p_lhs, lambda w: False, shortest=shortest_member(p_lhs, x, y, n + 2))
            )
    rng.shuffle(queries)
    return Workload(
        queries,
        builder_per_query=True,
        cli=list(range(len(queries))) * 2,
        setup_code=_bitset_setup(alphabet),
    )


# -- long_words ----------------------------------------------------------------------

# Four per decade, so that the quadratic parse cost of one length is well
# above the parse-and-unfold cost of the length below it.
WORD_LENGTHS = tuple(round(100 * 10 ** (i / 4)) for i in range(9))  # 100 .. 10^4
PATTERNS = (
    ("[ab]*", rx("[ab]*")),
    (".*abba.*", rx(".*abba.*")),
)


def random_word(rng: random.Random, length: int, *, end_c: bool, avoid: str) -> str:
    """A word over {a, b}, optionally avoiding one factor, optionally ending in c.

    A refuting symbol sits at the end, so unfolding a check against the
    word costs the same for every seed.
    """
    out: list[str] = []
    while len(out) < length:
        c = rng.choice("ab")
        if avoid and "".join(out[-len(avoid) + 1 :]) + c == avoid:
            c = "b" if c == "a" else "a"
        out.append(c)
    if end_c:
        out[-1] = "c"
    return "".join(out)


def long_words(rng: random.Random, tiny: bool) -> Workload:
    lengths = WORD_LENGTHS[::4] if tiny else WORD_LENGTHS
    queries = []
    for i, length in enumerate(lengths):
        word = random_word(rng, length, end_c=i % 2 == 0, avoid="abba" if i % 3 == 0 else "")
        p_word = (lambda w0: lambda w: w == w0)(word)
        for pattern, p_pattern in PATTERNS:
            holds = p_pattern(word)
            queries.append(Query("check", "unicode", word, pattern, holds, p_word, p_pattern))
            queries.append(Query("check", "unicode", pattern, word, False, p_pattern, p_word))
        pattern, p_pattern = PATTERNS[i % 2]
        queries.append(Query("match", "unicode", word, pattern, p_pattern(word), None, p_pattern))
    return Workload(
        queries,
        builder_per_query=False,
        cli=[i for i, q in enumerate(queries) if q.kind == "match"] * 2,
        setup_code=(
            "import symre\n"
            "symre.Checker(symre.ExprBuilder(symre.IntervalAlgebra()))\n"
        ),
    )
