"""Expression trees, similarity normalization, and the concrete syntax.

Trees are built exclusively through :class:`ExprBuilder`, which hash-conses
every node: structurally equal normalized trees are the *same object*, so
equality tests, context lookups and memo tables all run on identity.  The
constructors apply exactly these language-preserving rewrites:

* union: flattened, sorted, duplicate-free, ``[]`` dropped, literal members
  merged into a single literal (``a|b`` becomes ``[ab]``);
* concatenation: ``[]`` annihilates, ``()`` is dropped, spines lean right;
* star: ``r** = r*``, ``()* = ()``, ``[]* = ()``;
* intersection: flattened, sorted, duplicate-free, ``[]`` annihilates;
* complement: double negation cancels.

The empty expression is represented as the empty-class literal ``[]`` and
the universal language as ``.*``.
"""

from __future__ import annotations

from typing import Callable, Optional

from .alphabet import Algebra, AlgebraError, SymbolSet

# Raw (pre-normalization) parse trees, kept around for metrics on the
# expression as written: ("eps",) | ("lit", SymbolSet) | ("star", raw) |
# ("not", raw) | ("union"|"concat"|"and", raw, raw).
RawExpr = tuple

# Marks a pending constructor call on ``ExprBuilder.build``'s work stack.
_APPLY = object()


def _chain_operands(raw: RawExpr) -> list[RawExpr]:
    """The operands of the maximal chain of ``raw``'s binary operator, in
    source order, however the chain is parenthesized."""
    tag = raw[0]
    operands: list[RawExpr] = []
    stack = [raw]
    while stack:
        node = stack.pop()
        if node[0] == tag:
            stack += (node[2], node[1])
        else:
            operands.append(node)
    return operands


class Ere:
    """A normalized expression node; equality and hashing are by identity."""

    __slots__ = ("eid", "nullable")

    def __init__(self, eid: int, nullable: bool):
        self.eid = eid
        self.nullable = nullable

    def __repr__(self) -> str:
        return f"<Ere {self.eid}: {to_text(self)}>"


class Epsilon(Ere):
    __slots__ = ()


class Literal(Ere):
    __slots__ = ("symbols",)

    def __init__(self, eid: int, nullable: bool, symbols: SymbolSet):
        super().__init__(eid, nullable)
        self.symbols = symbols


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
        super().__init__(eid, nullable)
        self.head = head
        self.tail = tail


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
        self._table: dict[tuple, Ere] = {}
        self._next_id = 0
        # Memo tables used by the derivative, next-literal and emptiness
        # operations.  ``next_cache`` maps an eid to its next-literal
        # partition, and ``lead_cache`` to its leading literals and coverage,
        # the two arguments the partition's minterms are computed from (see
        # ``nextlit``); ``partition_cache`` maps a partition operation and its
        # two arguments, by value, to its result (see ``nextlit._combine``);
        # ``word_cache`` maps an eid to its shortest word, or to ``None`` when
        # the language is empty (see ``shortest_word``).
        self.deriv_cache: dict[tuple, Ere] = {}
        self.next_cache: dict[int, tuple[SymbolSet, ...]] = {}
        self.lead_cache: dict[int, tuple[tuple[SymbolSet, ...], SymbolSet]] = {}
        self.partition_cache: dict[tuple, object] = {}
        self.word_cache: dict[int, Optional[tuple]] = {}
        self._bottom = self.literal(algebra.bottom())

    def _intern(self, key: tuple, ctor: Callable, *args, nullable: bool) -> Ere:
        node = self._table.get(key)
        if node is None:
            node = ctor(self._next_id, nullable, *args)
            self._next_id += 1
            self._table[key] = node
        return node

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
        """The universal expression ``.*``."""
        return self.star(self.literal(self.algebra.top()))

    def union(self, *parts: Ere) -> Ere:
        # One pass flattens, merges the literals and collects the members.
        # The bottom ``[]`` is dropped, and a lone literal is kept as it is.
        bottom = self._bottom
        lit: Optional[Ere] = None  # the literal member, once it is interned
        litset: Optional[SymbolSet] = None  # the merged literal's symbols
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
        return self._intern_members("union", Union, members, any)

    def concat(self, r: Ere, s: Ere) -> Ere:
        if r is self._bottom or s is self._bottom:
            return self._bottom
        if isinstance(r, Epsilon):
            return s
        if isinstance(s, Epsilon):
            return r
        if isinstance(r, Concat):
            # Re-associate along r's spine, innermost first; no spine member
            # is ``()``, ``[]`` or a Concat, so each call below interns at once.
            heads = []
            while isinstance(r, Concat):
                heads.append(r.head)
                r = r.tail
            s = self.concat(r, s)
            while heads:
                s = self.concat(heads.pop(), s)
            return s
        key = ("cat", r.eid, s.eid)
        return self._intern(key, Concat, r, s, nullable=r.nullable and s.nullable)

    def star(self, r: Ere) -> Ere:
        if isinstance(r, Star):
            return r
        if isinstance(r, Epsilon) or r is self._bottom:
            return self.epsilon()
        return self._intern(("star", r.eid), Star, r, nullable=True)

    def and_(self, *parts: Ere) -> Ere:
        if not parts:
            raise TypeError("and_() needs at least one operand")
        bottom = self._bottom
        members: dict[int, Ere] = {}
        for p in parts:
            for m in p.members if type(p) is And else (p,):
                if m is bottom:
                    return bottom
                members[m.eid] = m
        return self._intern_members("and", And, members, all)

    def _intern_members(self, tag: str, ctor: Callable, members: dict, nullable: Callable) -> Ere:
        """The n-ary node of ``members`` (by eid), or their one member."""
        eids = sorted(members)
        if len(eids) == 1:
            return members[eids[0]]
        key = (tag, tuple(eids))
        node = self._table.get(key)
        if node is None:
            ordered = tuple([members[e] for e in eids])
            node = self._intern(key, ctor, ordered, nullable=nullable(m.nullable for m in ordered))
        return node

    def not_(self, r: Ere) -> Ere:
        if isinstance(r, Not):
            return r.inner
        return self._intern(("not", r.eid), Not, r, nullable=not r.nullable)

    def build(self, raw: RawExpr) -> Ere:
        """Fold a raw parse tree through the normalizing constructors.

        One pass with an explicit stack, so the depth of ``raw`` costs no
        recursion.  A chain of one binary operator is folded as a whole: its
        operands are built in source order, a ``concat`` chain is then joined
        from the right (each step O(1), as the right part already leans
        right), and a ``union`` or ``and`` chain goes to one n-ary call, so
        no intermediate node is interned.  An n-symbol word costs O(n).
        A raw literal shared by several leaves (the parser makes one per
        distinct character) is interned once, then found by identity.
        """
        todo: list = [raw]  # raw trees, and ``(_APPLY, tag, arity)`` steps
        done: list[Ere] = []  # built operands, in source order
        push, emit = todo.append, done.append
        lits: dict[int, Ere] = {}  # id of a raw literal -> its node; ``raw`` keeps it alive
        while todo:
            item = todo.pop()
            tag = item[0]
            if tag == "lit":
                node = lits.get(id(item))
                if node is None:
                    node = lits[id(item)] = self.literal(item[1])
                emit(node)
            elif tag is _APPLY:
                _, tag, arity = item
                args = done[-arity:]
                del done[-arity:]
                if tag == "concat":
                    node = args.pop()
                    while args:
                        node = self.concat(args.pop(), node)
                elif tag == "union":
                    node = self.union(*args)
                elif tag == "and":
                    node = self.and_(*args)
                elif tag == "star":
                    node = self.star(args[0])
                else:
                    node = self.not_(args[0])
                emit(node)
            elif tag in ("concat", "union", "and"):
                operands = _chain_operands(item)
                push((_APPLY, tag, len(operands)))
                todo.extend(reversed(operands))
            elif tag in ("star", "not"):
                push((_APPLY, tag, 1))
                push(item[1])
            elif tag == "eps":
                emit(self.epsilon())
            else:
                raise ValueError(f"unknown raw tag {tag!r}")
        return done[0]

    def parse(self, text: str) -> Ere:
        return self.build(parse_raw(text, self.algebra))


def _occurrences(r: Ere):
    """Every node of the tree under ``r``, a shared node once per occurrence."""
    stack = [r]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Concat):
            stack += (node.head, node.tail)
        elif isinstance(node, (Union, And)):
            stack += node.members
        elif isinstance(node, (Star, Not)):
            stack.append(node.inner)
        elif not isinstance(node, (Epsilon, Literal)):
            raise TypeError(node)


def size(r: Ere) -> int:
    """Number of constructors and literals, counted on the normalized tree
    (an n-ary union or intersection counts as n-1 binary ones)."""
    return sum(
        len(n.members) - 1 if isinstance(n, (Union, And)) else 1 for n in _occurrences(r)
    )


def width(r: Ere) -> int:
    """Total number of literal leaves."""
    return sum(isinstance(n, Literal) for n in _occurrences(r))


def _raw_occurrences(raw: RawExpr):
    stack = [raw]
    while stack:
        node = stack.pop()
        yield node
        if node[0] != "lit":
            stack.extend(node[1:])


def raw_size(raw: RawExpr) -> int:
    return sum(1 for _ in _raw_occurrences(raw))


def raw_width(raw: RawExpr) -> int:
    return sum(node[0] == "lit" for node in _raw_occurrences(raw))


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   expr  := alt
#   alt   := and ('|' and)*
#   and   := cat ('&' cat)*
#   cat   := neg+
#   neg   := '!' neg | post
#   post  := atom '*'*
#   atom  := '(' expr? ')' | class | char | '.'
#   class := '[' '^'? items ']'
#
# '()' is the empty word, '[]' the empty set, '.' the full alphabet.
# Postfix '*' binds tightest, then prefix '!', then juxtaposition, then
# '&', then '|'; so  !a*  is  !(a*)  and  a|b&c  is  a|(b&c).
#
# A plain character (a bare char atom, not a backslash escape, with no '*'
# after it) is read by ``_cat``'s own loop, without the descent through ``neg``,
# ``post`` and ``atom``; and one parse makes one raw literal per distinct
# character, so a word costs about one dict lookup per symbol.


# The deepest parenthesis nesting the parser accepts.  Each level costs the
# recursive-descent parser about six Python frames, so this keeps a parse
# well inside the interpreter's default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error with the offending position and what was expected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ATOM_STOP = set("|&)*]")  # tokens that cannot start an atom, so end a concatenation
_ATOM_OPEN = set("(![.\\")  # other tokens that are not a plain character


def _char_set(algebra: Algebra, c: str) -> SymbolSet:
    """The set of the one character ``c``."""
    return algebra.class_set([(ord(c), ord(c))], False)


class _Scanner:
    def __init__(self, text: str, algebra: Algebra):
        self.text = text
        self.pos = 0
        self.algebra = algebra
        self.depth = 0  # open parentheses around the current position
        self.lits: dict[str, RawExpr] = {}  # character -> its raw literal

    def char_lit(self, c: str) -> RawExpr:
        """The raw literal of ``c``, made once per parse and then shared."""
        lit = self.lits.get(c)
        if lit is None:
            lit = self.lits[c] = ("lit", _char_set(self.algebra, c))
        return lit

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        c = self.peek()
        if c is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return c

    def expect(self, c: str) -> None:
        if self.peek() != c:
            raise ParseError(f"expected {c!r}", self.pos)
        self.pos += 1

    def char(self) -> str:
        """Take one character, or the escape sequence it starts: ``\\c`` is
        ``c`` and ``\\u{hex}`` is that codepoint."""
        c = self.take()
        if c != "\\":
            return c
        c = self.take()
        if c != "u":
            return c
        self.expect("{")
        start = self.pos
        while self.peek() not in (None, "}"):
            self.pos += 1
        if self.peek() != "}" or self.pos == start:
            raise ParseError("expected hex digits and '}' after \\u{", self.pos)
        digits = self.text[start : self.pos]
        self.pos += 1
        try:
            cp = int(digits, 16)
        except ValueError:
            raise ParseError(f"bad hex escape {digits!r}", start) from None
        if cp > 0x10FFFF:
            raise ParseError(f"codepoint {digits} out of range", start)
        return chr(cp)


def parse_raw(text: str, algebra: Algebra) -> RawExpr:
    """Parse the concrete syntax into a raw tree; no normalization applied."""
    sc = _Scanner(text, algebra)
    raw = _alt(sc)
    if sc.peek() is not None:
        raise ParseError(f"unexpected {sc.peek()!r}", sc.pos)
    return raw


def parse_class_text(text: str, algebra: Algebra) -> SymbolSet:
    """Parse a standalone symbol set: a ``[...]`` class, ``.``, or one char."""
    sc = _Scanner(text, algebra)
    c = sc.peek()
    if c is None:
        raise ParseError("expected a character class", 0)
    if c == "[":
        out = _class(sc)
    elif c == ".":
        sc.take()
        out = algebra.top()
    else:
        out = _char_set(algebra, sc.char())
    if sc.peek() is not None:
        raise ParseError(f"unexpected {sc.peek()!r} after class", sc.pos)
    return out


def unescape_word(text: str) -> str:
    """Decode backslash escapes in a plain word (CLI ``match`` input)."""
    sc = _Scanner(text, None)  # type: ignore[arg-type]
    out = []
    while sc.peek() is not None:
        out.append(sc.char())
    return "".join(out)


def _alt(sc: _Scanner) -> RawExpr:
    raw = _and(sc)
    while sc.peek() == "|":
        sc.take()
        raw = ("union", raw, _and(sc))
    return raw


def _and(sc: _Scanner) -> RawExpr:
    raw = _cat(sc)
    while sc.peek() == "&":
        sc.take()
        raw = ("and", raw, _cat(sc))
    return raw


def _cat(sc: _Scanner) -> RawExpr:
    """A left-nested concatenation of factors.  A plain character is read
    here from the text, as its shared raw literal; any other factor goes
    down through ``_neg``."""
    text, end = sc.text, len(sc.text)
    raw = _neg(sc)
    while (pos := sc.pos) < end and (c := text[pos]) not in _ATOM_STOP:
        if c in _ATOM_OPEN or text[pos + 1 : pos + 2] == "*":
            raw = ("concat", raw, _neg(sc))
        else:
            sc.pos = pos + 1
            raw = ("concat", raw, sc.char_lit(c))
    return raw


def _neg(sc: _Scanner) -> RawExpr:
    count = 0
    while sc.peek() == "!":
        sc.take()
        count += 1
    raw = _post(sc)
    for _ in range(count):
        raw = ("not", raw)
    return raw


def _post(sc: _Scanner) -> RawExpr:
    raw = _atom(sc)
    while sc.peek() == "*":
        sc.take()
        raw = ("star", raw)
    return raw


def _atom(sc: _Scanner) -> RawExpr:
    c = sc.peek()
    if c is None or c in _ATOM_STOP:
        raise ParseError("expected an expression atom", sc.pos)
    if c == "(":
        if sc.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", sc.pos)
        sc.take()
        if sc.peek() == ")":
            sc.take()
            return ("eps",)
        sc.depth += 1
        raw = _alt(sc)
        sc.depth -= 1
        sc.expect(")")
        return raw
    if c == "[":
        return ("lit", _class(sc))
    if c == ".":
        sc.take()
        return ("lit", sc.algebra.top())
    return sc.char_lit(sc.char())


def _class(sc: _Scanner) -> SymbolSet:
    sc.expect("[")
    negate = False
    if sc.peek() == "^":
        sc.take()
        negate = True
    items: list[tuple[int, int]] = []
    while sc.peek() != "]":
        if sc.peek() is None:
            raise ParseError("unterminated character class", sc.pos)
        if sc.peek() == "-":
            raise ParseError("'-' must be escaped or part of a range", sc.pos)
        lo = sc.char()
        if sc.peek() == "-":
            sc.take()
            if sc.peek() in (None, "]"):
                raise ParseError("expected range end after '-'", sc.pos)
            hi = sc.char()
            if ord(hi) < ord(lo):
                raise ParseError(f"empty range {lo}-{hi}", sc.pos)
            items.append((ord(lo), ord(hi)))
        else:
            items.append((ord(lo), ord(lo)))
    sc.take()
    return sc.algebra.class_set(items, negate)


# ---------------------------------------------------------------------------
# Rendering


_LEVEL_ALT, _LEVEL_AND, _LEVEL_CAT, _LEVEL_NEG, _LEVEL_POST, _LEVEL_ATOM = 0, 1, 2, 3, 4, 5


def to_text(r: Ere) -> str:
    """Render a normalized tree in the concrete syntax (parse round-trips)."""
    return _render(r, _LEVEL_ALT)


def _render(r: Ere, level: int) -> str:
    if isinstance(r, Epsilon):
        return "()"
    if isinstance(r, Literal):
        return r.symbols.algebra.format_set(r.symbols)
    if isinstance(r, Union):
        text, own = "|".join(_render(m, _LEVEL_AND) for m in r.members), _LEVEL_ALT
    elif isinstance(r, And):
        text, own = "&".join(_render(m, _LEVEL_CAT) for m in r.members), _LEVEL_AND
    elif isinstance(r, Concat):
        chain = []
        node: Ere = r
        while isinstance(node, Concat):
            chain.append(node.head)
            node = node.tail
        chain.append(node)
        text, own = "".join(_render(m, _LEVEL_NEG) for m in chain), _LEVEL_CAT
    elif isinstance(r, Not):
        text, own = "!" + _render(r.inner, _LEVEL_NEG), _LEVEL_NEG
    elif isinstance(r, Star):
        text, own = _render(r.inner, _LEVEL_ATOM) + "*", _LEVEL_POST
    else:
        raise TypeError(r)
    if own < level:
        return "(" + text + ")"
    return text
