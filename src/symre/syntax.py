"""Expression trees, similarity normalization, and the concrete syntax.

Trees are built exclusively through :class:`ExprBuilder`, which hash-conses
every node: structurally equal normalized trees are the *same object*, so
equality tests, context lookups and memo tables all run on identity.  The
constructors apply exactly these language-preserving rewrites:

* union: flattened, sorted, duplicate-free, ``[]`` dropped, literal members
  merged into a single literal (``a|b`` becomes ``[ab]``), ``.*`` absorbs,
  and a member beside its complement is ``.*`` (``r | !r``; when ``r`` is
  itself a union, all of its members are members: ``a* | c* | !(a*|c*)``);
* concatenation: ``[]`` annihilates, ``()`` is dropped, spines lean right;
* star: ``r** = r*``, ``()* = ()``, ``[]* = ()``;
* intersection: flattened, sorted, duplicate-free, ``[]`` annihilates,
  ``.*`` is dropped (``.* & .*`` is ``.*``), and a member beside its
  complement is ``[]`` (``r & !r``; when ``r`` is itself an intersection,
  all of its members are members: ``a & c & !(a&c)``);
* complement: double negation cancels, ``!([])`` is ``.*`` and ``!(.*)`` is
  ``[]``.

The empty expression is represented as the empty-class literal ``[]`` and
the universal language as ``.*``, the star of the literal of the whole
alphabet.  A builder interns ``[]``, ``.`` and ``.*`` as it is made, so the
rules that take ``.*`` as an operand, or return it, compare against or
return that one node and intern nothing.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .alphabet import Algebra, AlgebraError, SymbolSet

Lead = tuple[tuple[SymbolSet, ...], SymbolSet]


class Ere:
    """A normalized expression node; equality and hashing are by identity.

    Besides its parts, a node carries facts found once, when the builder
    interns it: ``nullable``, whether it matches the empty word; ``lead``,
    its distinct leading literals in order of appearance and its coverage
    (see ``nextlit``); and, on a literal only, ``symbol`` (see
    :class:`Literal`).  Leads are interned per builder like the nodes, so
    two nodes with equal leads hold the same ``lead`` object: a star, and a
    concatenation whose head is not nullable, that of the node below them,
    so every suffix of a word shares that of its head literal.
    """

    __slots__ = ("eid", "nullable", "lead")

    def __init__(self, eid: int, nullable: bool):
        self.eid = eid
        self.nullable = nullable

    def __repr__(self) -> str:
        return f"<Ere {self.eid}: {to_text(self)}>"


class Epsilon(Ere):
    __slots__ = ()


class Literal(Ere):
    """A set of symbols; its third node fact ``symbol`` is the set's one
    symbol when it has exactly one, else ``None`` (``Algebra.singleton``),
    so a word's symbols are read off its literals (see the word fold of
    ``Checker.check``)."""

    __slots__ = ("symbols", "symbol")

    def __init__(self, eid: int, nullable: bool, symbols: SymbolSet):
        # The fields are set here, not through ``Ere.__init__``, as in
        # ``Concat``: each new literal also pays for a ``singleton`` call,
        # and a fresh builder makes every literal of a query anew.
        self.eid, self.nullable, self.symbols = eid, nullable, symbols
        self.symbol = symbols.algebra.singleton(symbols)


class _Nary(Ere):
    """A node over a sorted tuple of members: ``Union`` or ``And``."""

    __slots__ = ("members",)

    def __init__(self, eid: int, nullable: bool, members: tuple[Ere, ...]):
        super().__init__(eid, nullable)
        self.members = members


class _Unary(Ere):
    """A node over one operand: ``Star`` or ``Not``."""

    __slots__ = ("inner",)

    def __init__(self, eid: int, nullable: bool, inner: Ere):
        super().__init__(eid, nullable)
        self.inner = inner


class Union(_Nary):
    __slots__ = ()


class Concat(Ere):
    __slots__ = ("head", "tail")

    def __init__(self, eid: int, nullable: bool, head: Ere, tail: Ere):
        # The fields are set here, not through ``Ere.__init__``: a word
        # makes one Concat per symbol.
        self.eid, self.nullable, self.head, self.tail = eid, nullable, head, tail


class Star(_Unary):
    __slots__ = ()


class And(_Nary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class ExprBuilder:
    """Owner of the interning table and the smart constructors.

    A builder is bound to one algebra; expressions from different builders
    must never be mixed.  The table and the memo caches beside it are the
    only mutable state; they are not thread-safe and are meant to be
    confined to a single checker instance.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self._table: dict[tuple, Ere] = {}  # a node's eid is its index here
        # Memo tables used by the parser and by the derivative, next-literal
        # and emptiness operations.  ``parse_cache`` maps a text that parsed,
        # and each character, class and flat group read in one, to its node
        # (see ``parse``).  ``deriv_cache`` maps a probe and an
        # eid to the derivative, and ``next_cache`` the id of a ``lead`` to
        # the next-literal partition of the nodes with that lead, its
        # minterms; as the unfolding steps down a word, its suffixes make
        # no entry in either: each derives through its head literal's
        # entry and shares its lead (see ``derivative`` and ``nextlit``).
        # ``partition_cache`` maps the ids of two leads, and the two
        # partitions by value, to the classes of an inequality between
        # nodes with those leads (see ``nextlit.pair_classes``); ``_leads``
        # maps each lead to its one interned object, and keeps it alive, so
        # its id is never reused while the builder lives.  ``word_cache``
        # maps an eid to its shortest word, or to ``None`` when the
        # language is empty (see ``shortest_word``).
        self.parse_cache: dict[str, Ere] = {}
        self.deriv_cache: dict[tuple, Ere] = {}
        self.next_cache: dict[int, tuple[SymbolSet, ...]] = {}
        self.partition_cache: dict[tuple, object] = {}
        self.word_cache: dict[int, tuple | None] = {}
        self._leads: dict[Lead, Lead] = {}
        self._bottom = self.literal(algebra.bottom())
        self._top = self.star(self.literal(algebra.top()))

    def _intern(self, key: tuple, ctor: Callable, *args, nullable: bool) -> Ere:
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = ctor(len(self._table), nullable, *args)
            node.lead = self._lead(node)
        return node

    def _lead(self, r: Ere) -> Lead:
        """The interned ``lead`` of the new node ``r``, from the ``lead`` of
        its parts; ``concat`` sets a concatenation's itself."""
        alg, kind = self.algebra, type(r)
        if kind is Star:
            return r.inner.lead
        if kind is Literal:
            lead = (r.symbols,), r.symbols
        elif kind is Epsilon:
            lead = (), alg.bottom()
        elif kind is Not:
            lead = r.inner.lead[0], alg.top()
        else:
            lead = _merge(alg.union if kind is Union else alg.intersect, [m.lead for m in r.members])
        return self._leads.setdefault(lead, lead)

    def epsilon(self) -> Ere:
        return self._intern(("eps",), Epsilon, nullable=True)

    def literal(self, symbols: SymbolSet) -> Ere:
        if symbols.algebra is not self.algebra:
            raise AlgebraError("literal set belongs to a different algebra")
        return self._intern(("lit", symbols), Literal, symbols, nullable=False)

    def char(self, c: str) -> Ere:
        return self.literal(_char_set(self.algebra, c))

    def bottom(self) -> Ere:
        """The empty expression ``[]``."""
        return self._bottom

    def sigma_star(self) -> Ere:
        """The universal expression ``.*``, interned with the builder."""
        return self._top

    def union(self, *parts: Ere) -> Ere:
        # One pass flattens, merges the literals and collects the members.
        # The bottom ``[]`` is dropped, and a lone literal is kept as it is.
        bottom = self._bottom
        lit: Ere | None = None  # the literal member, once it is interned
        litset: SymbolSet | None = None  # the merged literal's symbols
        members: dict[int, Ere] = {}
        for p in parts:
            for m in p.members if type(p) is Union else (p,):
                if type(m) is not Literal:
                    members[m.eid] = m
                elif m is not bottom and m is not lit:
                    if litset is None:
                        lit, litset = m, m.symbols
                    else:
                        lit, litset = None, self.algebra.union(litset, m.symbols)
        if litset is not None:
            if lit is None:
                lit = self.literal(litset)
            members[lit.eid] = lit
        elif not members:
            return bottom
        if self._top.eid in members:
            return self._top
        return self._intern_members("union", Union, members, any) or self._top

    def concat(self, r: Ere, s: Ere) -> Ere:
        bottom = self._bottom
        if r is bottom or s is bottom:
            return bottom
        if type(r) is Epsilon:
            return s
        if type(s) is Epsilon:
            return r
        if type(r) is Concat:
            # Re-associate along r's spine, innermost first; no spine member
            # is ``()``, ``[]`` or a Concat, so each call below interns at once.
            heads = []
            while type(r) is Concat:
                heads.append(r.head)
                r = r.tail
            s = self.concat(r, s)
            while heads:
                s = self.concat(heads.pop(), s)
            return s
        table, key = self._table, ("cat", r.eid, s.eid)
        node = table.get(key)
        if node is None:
            node = table[key] = Concat(len(table), r.nullable and s.nullable, r, s)
            if r.nullable:
                lead = _merge(self.algebra.union, (r.lead, s.lead))
                node.lead = self._leads.setdefault(lead, lead)
            else:
                node.lead = r.lead
        return node

    def star(self, r: Ere) -> Ere:
        if type(r) is Star:
            return r
        if type(r) is Epsilon or r is self._bottom:
            return self.epsilon()
        key = ("star", r.eid)
        return self._table.get(key) or self._intern(key, Star, r, nullable=True)

    def and_(self, *parts: Ere) -> Ere:
        if not parts:
            raise TypeError("and_() needs at least one operand")
        bottom, top = self._bottom, self._top
        members: dict[int, Ere] = {}
        for p in parts:
            for m in p.members if type(p) is And else (p,):
                if m is bottom:
                    return bottom
                if m is not top:
                    members[m.eid] = m
        if not members:  # every part is ``.*``
            return top
        return self._intern_members("and", And, members, all) or bottom

    def _intern_members(
        self, tag: str, ctor: Callable, members: dict, nullable: Callable
    ) -> Ere | None:
        """The n-ary node of ``members`` (by eid), or their one member, or
        ``None`` when a member is the complement of another, or of the n-ary
        node of some of them: ``X | !X``, ``x & y & !(x & y)``.

        Only a node not yet in the table is tested, as no node in the table
        has a member beside its complement."""
        eids = sorted(members)
        if len(eids) == 1:
            return members[eids[0]]
        key = (tag, tuple(eids))
        node = self._table.get(key)
        if node is None:
            for m in members.values():
                if type(m) is Not:
                    operands = m.inner.members if type(m.inner) is ctor else (m.inner,)
                    if all(x.eid in members for x in operands):
                        return None
            ordered = tuple([members[e] for e in eids])
            node = self._intern(key, ctor, ordered, nullable=nullable(m.nullable for m in ordered))
        return node

    def not_(self, r: Ere) -> Ere:
        if type(r) is Not:
            return r.inner
        if r is self._bottom:
            return self._top
        if r is self._top:
            return self._bottom
        key = ("not", r.eid)
        return self._table.get(key) or self._intern(key, Not, r, nullable=not r.nullable)

    def parse(self, text: str) -> Ere:
        """The node of ``text`` in the concrete syntax.

        Memoized per builder, as ``re`` caches its compiled patterns: a text
        is parsed on its first call only, and the characters, classes and
        flat groups read in it are memoized too, so a later text takes them
        from ``parse_cache``.  A text that fails to parse makes no entry of
        its own, so it raises the same ``ParseError`` on every call.
        ``parse_with_metrics`` parses every text it is given.
        """
        node = self.parse_cache.get(text)
        if node is None:
            node = self.parse_cache[text] = parse_with_metrics(text, self)[0]
        return node


def _merge(cover: Callable, parts) -> Lead:
    """All the parts' literals, and their coverages combined by ``cover``."""
    literals, coverage = parts[0]
    for lits, c in parts[1:]:
        if lits is not literals:
            literals += tuple(lit for lit in lits if lit not in literals)
        if c is not coverage:
            coverage = cover(coverage, c)
    return literals, coverage


def _occurrences(r: Ere):
    """Every node of the tree under ``r``, a shared node once per occurrence."""
    stack = [r]
    while stack:
        node = stack.pop()
        yield node
        stack += _parts(node, True)


def size(r: Ere) -> int:
    """Number of constructors and literals, counted on the normalized tree
    (an n-ary union or intersection counts as n-1 binary ones)."""
    return sum(
        len(n.members) - 1 if isinstance(n, (Union, And)) else 1 for n in _occurrences(r)
    )


def width(r: Ere) -> int:
    """Total number of literal leaves."""
    return sum(isinstance(n, Literal) for n in _occurrences(r))


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   expr   := alt
#   alt    := and ('|' and)*
#   and    := cat ('&' cat)*
#   cat    := factor+
#   factor := '!'* atom '*'*
#   atom   := '(' expr? ')' | class | char | '.'
#   class  := '[' '^'? items ']'
#
# '()' is the empty word, '[]' the empty set, '.' the full alphabet.
# Postfix '*' binds tightest, then prefix '!', then juxtaposition, then
# '&', then '|'; so  !a*  is  !(a*)  and  a|b&c  is  a|(b&c).  There is no
# counted repetition: '{' is a character like any other.
#
# The parser calls the builder's constructors as it reads, so text becomes
# interned nodes in one pass: the operands of a '|' or '&' chain go to one
# n-ary call, and a concatenation's factors are folded from the right.  It
# is one loop over the text by index, with no token stream and no
# recursion: each open parenthesis keeps the enclosing chains on a list.
# A run of plain characters (bare char atoms, not backslash escapes, the
# last with no '*' after it) is one match of ``_RUN``.
#
# The builder's ``parse_cache`` holds, besides whole texts, every atom text
# the parser reads: a character by its written form (so '\.' is not '.'),
# a '[...]' class, and a flat group, one with no '(', '[' or '\' inside, so
# it ends at its first ')'.  Each key maps to the node that ``parse`` gives
# it, so an atom is read once per builder and then found by one dict
# lookup: a word costs about one lookup per symbol besides its
# concatenation node.  Flat groups are disjoint substrings, so the memo
# grows at most linearly in the text read.  A character whose set is empty,
# one outside a finite alphabet, is a parse error, found when its literal
# is made, before it is stored.  The parser also counts the atoms, stars
# and bangs, for the size and width of the expression as written; a flat
# group from the memo is counted from its text.


# The deepest parenthesis nesting the parser accepts.  The parser itself
# does not recurse; the limit bounds how deep the nodes of a text nest, for
# the engine's passes that recurse over a node's parts.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error with the offending position and what was expected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Tokens that cannot start an atom, so end a concatenation, and the other
# tokens that are not a plain character.  As strings both also hold "",
# the slice of the text at its end.
_ATOM_STOP = "|&)*]"
_ATOM_OPEN = "(![.\\"
# A run of plain characters: none of the tokens above, and no '*' after the
# last, as a '*' binds to that one alone.
_RUN = re.compile(r"[^|&)*\]!(\[.\\]+(?!\*)")
# The digits of a ``\u{hex}`` escape: no sign, underscore or space, which
# ``int(digits, 16)`` alone would take.
_HEX = re.compile("[0-9A-Fa-f]+")


def _char_set(algebra: Algebra, c: str) -> SymbolSet:
    """The set of the one character ``c``."""
    return algebra.class_set([(ord(c), ord(c))], False)


def _char(text: str, pos: int) -> tuple[str, int]:
    """The character at ``pos``, or the escape sequence it starts (``\\c`` is
    ``c`` and ``\\u{hex}`` is that codepoint), and the position after it."""
    if text[pos] != "\\":
        return text[pos], pos + 1
    pos += 1
    if pos == len(text):
        raise ParseError("unexpected end of input", pos)
    if text[pos] != "u":
        return text[pos], pos + 1
    if not text.startswith("{", pos + 1):
        raise ParseError("expected '{'", pos + 1)
    start = pos + 2
    close = text.find("}", start)
    if close <= start:  # no '}', or no digits before it
        where = start if close == start else len(text)
        raise ParseError("expected hex digits and '}' after \\u{", where)
    digits = text[start:close]
    if not _HEX.fullmatch(digits):
        raise ParseError(f"bad hex escape {digits!r}", start)
    cp = int(digits, 16)
    if cp > 0x10FFFF:
        raise ParseError(f"codepoint {digits} out of range", start)
    return chr(cp), close + 1


def _char_literal(b: ExprBuilder, key: str, c: str, pos: int) -> Ere:
    """The literal node of ``c``, written ``key`` at ``pos``: stored in the
    parse memo only once ``c`` is known to be in the alphabet."""
    lit = b.literal(_char_set(b.algebra, c))
    if lit is b.bottom():
        raise ParseError(f"symbol {c!r} is not in the alphabet", pos)
    b.parse_cache[key] = lit
    return lit


def parse_with_metrics(text: str, builder: ExprBuilder) -> tuple[Ere, int, int]:
    """The node of ``text``, with the size and width of the expression as
    written: its nodes before normalization and its literal atoms.

    Every binary operator joins two subtrees, so the size is twice the
    number of leaves (literal and ``()`` atoms), less one, plus the number
    of ``*`` and ``!``.  The whole text is always parsed; its characters,
    classes and flat groups are taken from, or added to, the builder's
    ``parse_cache`` (see ``ExprBuilder.parse``).
    """
    b, memo = builder, builder.parse_cache
    literals = epsilons = unary = 0
    # The '|' operands, the current '&' chain's operands and the current
    # concatenation's factors, and those of each open parenthesis, with
    # the '!'s before it and its memo key when it is flat.
    alts, ands, factors, groups = [], [], [], []
    pos = 0
    while True:
        # One operand: a run of plain characters, or '!'s and an atom.  An
        # open parenthesis puts the chains aside and starts its own.
        node = None
        c = text[pos : pos + 1]
        if c not in _ATOM_OPEN and (m := _RUN.match(text, pos)):
            run = m.group()
            for c in run:
                if c not in memo:
                    _char_literal(b, c, c, pos + run.index(c))
            literals += len(run)
            factors += map(memo.__getitem__, run)
            pos = m.end()
        else:
            start = pos
            while text.startswith("!", pos):
                pos += 1
            bangs = pos - start
            c = text[pos : pos + 1]
            if c in _ATOM_STOP:
                raise ParseError("expected an expression atom", pos)
            if c == "(":
                if len(groups) == MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
                end = text.find(")", pos) + 1
                if end == pos + 2:  # '()'
                    epsilons += 1
                    node, pos = b.epsilon(), end
                else:
                    # A flat group ends at its first ')', and its atoms are
                    # its characters: none is a '(', '[' or '\'.
                    key = text[pos:end]
                    if key.count("(") != 1 or "[" in key or "\\" in key:
                        key = None
                    elif node := memo.get(key):
                        ops = key.count("*") + key.count("!")
                        unary += ops
                        literals += end - pos - 2 - ops - key.count("|") - key.count("&")
                        pos = end
                    if node is None:
                        groups.append((alts, ands, factors, bangs, key))
                        alts, ands, factors = [], [], []
                        pos += 1
                        continue
            elif c in "[.":
                literals += 1
                # No ']' gives the key "", which no parse stores.
                end = pos + 1 if c == "." else text.find("]", pos) + 1
                node = memo.get(text[pos:end])
                if node is None:
                    symbols, end = _set_atom(text, pos, b.algebra)
                    node = memo[text[pos:end]] = b.literal(symbols)
                pos = end
            else:
                literals += 1
                c, after = _char(text, pos)
                key = text[pos:after]
                node = memo.get(key) or _char_literal(b, key, c, pos)
                pos = after
        # An atom takes its stars, then its bangs.  A token that is no
        # operand ends the concatenation, and a ')' also ends its group,
        # whose node is then the atom.
        while True:
            if node is not None:
                stars = pos
                while text.startswith("*", pos):
                    pos += 1
                    node = b.star(node)
                unary += pos - stars + bangs
                for _ in range(bangs):
                    node = b.not_(node)
                factors.append(node)
            c = text[pos : pos + 1]
            if c not in _ATOM_STOP:
                break
            node, concat = factors.pop(), b.concat
            for factor in reversed(factors):
                node = concat(factor, node)
            ands.append(node)
            if c != "&":
                alts.append(b.and_(*ands) if len(ands) > 1 else ands[0])
                ands = []
            if c in ("|", "&"):
                factors = []
                pos += 1
                break
            node = b.union(*alts) if len(alts) > 1 else alts[0]
            if not groups:
                if c:
                    raise ParseError(f"unexpected {c!r}", pos)
                return node, 2 * (literals + epsilons) - 1 + unary, literals
            if c != ")":
                raise ParseError("expected ')'", pos)
            alts, ands, factors, bangs, key = groups.pop()
            if key:
                memo[key] = node
            pos += 1


def parse_class_text(text: str, algebra: Algebra) -> SymbolSet:
    """Parse a standalone symbol set: a ``[...]`` class, ``.``, or one char."""
    if not text:
        raise ParseError("expected a character class", 0)
    out, pos = _set_atom(text, 0, algebra)
    if pos < len(text):
        raise ParseError(f"unexpected {text[pos]!r} after class", pos)
    return out


def unescape_word(text: str) -> str:
    """Decode backslash escapes in a plain word (CLI ``match`` input)."""
    out, pos = [], 0
    while pos < len(text):
        c, pos = _char(text, pos)
        out.append(c)
    return "".join(out)


def _set_atom(text: str, pos: int, algebra: Algebra) -> tuple[SymbolSet, int]:
    """The set of the ``[...]`` class, the ``.`` or the one character at
    ``pos``, and the position after it."""
    if text[pos] == ".":
        return algebra.top(), pos + 1
    if text[pos] != "[":
        c, after = _char(text, pos)
        out = _char_set(algebra, c)
        if algebra.is_empty(out):  # as ``_char_literal`` rejects it
            raise ParseError(f"symbol {c!r} is not in the alphabet", pos)
        return out, after
    pos += 1
    negate = text.startswith("^", pos)
    pos += negate
    items: list[tuple[int, int]] = []
    while (c := text[pos : pos + 1]) != "]":
        if not c:
            raise ParseError("unterminated character class", pos)
        if c == "-":
            raise ParseError("'-' must be escaped or part of a range", pos)
        lo, pos = _char(text, pos)
        hi = lo
        if text.startswith("-", pos):
            pos += 1
            if text[pos : pos + 1] in ("", "]"):
                raise ParseError("expected range end after '-'", pos)
            hi, pos = _char(text, pos)
            if hi < lo:
                raise ParseError(f"empty range {lo}-{hi}", pos)
        items.append((ord(lo), ord(hi)))
    return algebra.class_set(items, negate), pos + 1


# ---------------------------------------------------------------------------
# Rendering


_LEVEL_ALT, _LEVEL_AND, _LEVEL_CAT, _LEVEL_NEG, _LEVEL_POST, _LEVEL_ATOM = 0, 1, 2, 3, 4, 5


def to_text(r: Ere, texts: dict | None = None) -> str:
    """Render a normalized tree in the concrete syntax (parse round-trips).

    The members of ``|`` and ``&`` are joined in sorted order of their
    texts, so the text depends on the node alone, not on the eids its
    builder gave its members: two builders render one expression alike.

    ``texts`` maps each node rendered so far to its text without enclosing
    parentheses.  Calls that share one such dict render each node once
    across all of them, every suffix of a concatenation included: a
    concatenation's text is its head's plus its tail's.  Without it, the
    call renders a concatenation's chain in one step, so the text costs time
    linear in its length.
    """
    shared = texts is not None
    if texts is None:
        texts = {}
    stack = [r]
    while stack:
        node = stack[-1]
        if node in texts:
            stack.pop()
            continue
        parts = _parts(node, shared)
        missing = [p for p in parts if p not in texts]
        if missing:
            stack += missing
            continue
        stack.pop()
        texts[node] = _text_of(node, parts, texts)
    return texts[r]


def _parts(r: Ere, shared: bool) -> tuple:
    """The nodes whose texts make up the text of ``r``: a concatenation's
    head and tail when the texts are shared, else its whole chain."""
    if isinstance(r, Concat):
        if shared:
            return (r.head, r.tail)
        chain = []
        while isinstance(r, Concat):
            chain.append(r.head)
            r = r.tail
        chain.append(r)
        return tuple(chain)
    if isinstance(r, (Union, And)):
        return r.members
    if isinstance(r, (Star, Not)):
        return (r.inner,)
    if isinstance(r, (Epsilon, Literal)):
        return ()
    raise TypeError(r)


def _text_of(r: Ere, parts: tuple, texts: dict) -> str:
    """The text of ``r`` from the texts of its ``parts``."""
    if isinstance(r, Epsilon):
        return "()"
    if isinstance(r, Literal):
        return r.symbols.algebra.format_set(r.symbols)
    if isinstance(r, Union):
        return "|".join(sorted(_at(m, _LEVEL_AND, texts) for m in parts))
    if isinstance(r, And):
        return "&".join(sorted(_at(m, _LEVEL_CAT, texts) for m in parts))
    if isinstance(r, Concat):
        # A non-concatenation last factor is wrapped at the level of a
        # factor or of a concatenation alike; a tail chain is not wrapped.
        heads = "".join(_at(m, _LEVEL_NEG, texts) for m in parts[:-1])
        return heads + _at(parts[-1], _LEVEL_CAT, texts)
    if isinstance(r, Not):
        return "!" + _at(r.inner, _LEVEL_NEG, texts)
    return _at(r.inner, _LEVEL_ATOM, texts) + "*"


_OWN_LEVEL = {
    Union: _LEVEL_ALT,
    And: _LEVEL_AND,
    Concat: _LEVEL_CAT,
    Not: _LEVEL_NEG,
    Star: _LEVEL_POST,
    Epsilon: _LEVEL_ATOM,
    Literal: _LEVEL_ATOM,
}


def _at(r: Ere, level: int, texts: dict) -> str:
    """The text of ``r`` at precedence ``level``, in parentheses if ``r``
    binds more loosely."""
    text = texts[r]
    return "(" + text + ")" if _OWN_LEVEL[type(r)] < level else text
