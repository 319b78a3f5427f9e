"""Symbol-set algebras.

A literal in an expression is not a single character but a set of symbols
drawn from a boolean algebra with decidable emptiness and equality.  Three
representations are provided here:

* :class:`BitsetAlgebra` -- an explicitly enumerated small alphabet, sets
  stored as bit masks.
* :class:`IntervalAlgebra` -- sets of codepoints stored as sorted disjoint
  intervals; scales to the full Unicode range.
* :class:`FiniteCofiniteAlgebra` -- sets stored as an explicit finite set
  of codepoints, one bit mask per block of ``BLOCK_BITS`` codepoints, plus
  a finite/cofinite tag; an operation costs time in proportion to the
  number of non-empty blocks, and cofinite sets never enumerate the
  universe.

A fourth, regex-valued algebra (symbols are words over an inner alphabet)
lives in :mod:`symre.regexalg` because it builds on the containment engine.

All set values are immutable and canonical: two sets with the same
denotation built by the same algebra compare (and hash) equal.  Each is a
named tuple whose field 0 is its algebra, so equality and hashing are
tuple's own: a set equals a plain tuple with the same fields, and sets of
two algebra instances never compare equal.  No memo key of the same shape
can collide with a set: the operation keys of
``FiniteCofiniteAlgebra._memo`` start with a ``str``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

MAX_CODEPOINT = 0x10FFFF

# Characters that must be escaped when printed as a bare atom of the
# expression syntax, respectively inside a [...] class.
_ATOM_META = set("|&!*.()[]^-\\")
_CLASS_META = set("][^-\\")


class AlgebraError(ValueError):
    """A symbol-set operation was used incorrectly (e.g. mixed algebras)."""


class SymbolSet:
    """Base class for algebra-specific set representations."""

    __slots__ = ()
    algebra: "Algebra"

    def __str__(self) -> str:
        return self.algebra.format_set(self)


class Algebra:
    """Boolean algebra over subsets of a fixed universe of symbols.

    Subclasses provide the representation: the Boolean operations,
    emptiness, membership and witnesses, and for the character algebras the
    rendering hooks ``_intervals`` and ``_class_items``.  This base class
    carries the rules derived from them: inclusion as emptiness of
    ``a & !b``, equality, and the canonical textual rendering.  Sets created
    by one algebra instance must not be passed to another.
    """

    def _own(self, *sets: SymbolSet) -> None:
        for s in sets:
            if s.algebra is not self:
                raise AlgebraError("symbol set belongs to a different algebra")

    # -- representation-specific core -------------------------------------

    def bottom(self) -> SymbolSet:
        raise NotImplementedError

    def top(self) -> SymbolSet:
        raise NotImplementedError

    def union(self, a: SymbolSet, b: SymbolSet) -> SymbolSet:
        raise NotImplementedError

    def intersect(self, a: SymbolSet, b: SymbolSet) -> SymbolSet:
        raise NotImplementedError

    def complement(self, a: SymbolSet) -> SymbolSet:
        raise NotImplementedError

    def is_empty(self, a: SymbolSet) -> bool:
        raise NotImplementedError

    def contains(self, a: SymbolSet, symbol) -> bool:
        raise NotImplementedError

    def pick_witness(self, a: SymbolSet):
        """Least symbol of a non-empty set; deterministic for equal sets."""
        raise NotImplementedError

    def symbol_key(self, symbol):
        """Sort key realizing the algebra's total order on symbols; for
        characters, codepoint order."""
        return ord(symbol)

    def class_set(self, items: Sequence[tuple[int, int]], negate: bool) -> SymbolSet:
        """Build a set from parsed ``[...]`` class items (codepoint ranges)."""
        raise NotImplementedError

    # -- derived operations ------------------------------------------------

    def is_equal(self, a: SymbolSet, b: SymbolSet) -> bool:
        self._own(a, b)
        return a == b

    def is_subset(self, a: SymbolSet, b: SymbolSet) -> bool:
        return self.is_empty(self.intersect(a, self.complement(b)))

    def word_of(self, symbols: Sequence):
        """Assemble a word from a symbol sequence (characters join to str)."""
        return "".join(symbols)

    def format_word(self, word) -> str:
        return "".join(escape_char(c, bare=False) for c in word)

    # -- rendering ---------------------------------------------------------

    def _intervals(self, a: SymbolSet) -> tuple[tuple[int, int], ...]:
        """Canonical codepoint intervals of the denotation (char algebras)."""
        raise NotImplementedError

    def _class_items(self, a: SymbolSet) -> tuple[bool, tuple[tuple[int, int], ...]]:
        """Whether ``a`` renders negated, and the intervals its class lists:
        those of the complement when there are fewer of them."""
        direct = self._intervals(a)
        inverse = self._intervals(self.complement(a))
        if len(inverse) < len(direct):
            return True, inverse
        return False, direct

    def format_set(self, a: SymbolSet) -> str:
        self._own(a)
        negated, items = self._class_items(a)
        if not items:
            return "." if negated else "[]"
        if negated:
            return "[^" + format_class_items(items) + "]"
        if len(items) == 1 and items[0][0] == items[0][1]:
            return escape_char(chr(items[0][0]), bare=True)
        return "[" + format_class_items(items) + "]"


def escape_char(c: str, bare: bool) -> str:
    """Render one character for output; non-printables become ``\\u{...}``."""
    cp = ord(c)
    if cp < 0x20 or cp == 0x7F or cp > 0x7E:
        return "\\u{%x}" % cp
    meta = _ATOM_META if bare else _CLASS_META
    if c in meta:
        return "\\" + c
    return c


def format_class_items(intervals: Iterable[tuple[int, int]]) -> str:
    parts = []
    for lo, hi in intervals:
        if hi - lo >= 2:
            parts.append(escape_char(chr(lo), bare=False) + "-" + escape_char(chr(hi), bare=False))
        else:
            parts.extend(escape_char(chr(cp), bare=False) for cp in range(lo, hi + 1))
    return "".join(parts)


def merge_intervals(items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort and fuse overlapping or adjacent inclusive codepoint ranges."""
    out: list[list[int]] = []
    for lo, hi in sorted(items):
        if lo > hi:
            continue
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def _clip(alg, items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge codepoint ranges clipped to ``alg``'s codepoint range."""
    return merge_intervals(
        (max(lo, alg.min_codepoint), min(hi, alg.max_codepoint)) for lo, hi in items
    )


def _gaps(alg, intervals: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The ranges of ``alg``'s codepoint range between sorted disjoint ``intervals``."""
    cursor = alg.min_codepoint
    for lo, hi in intervals:
        if cursor < lo:
            yield cursor, lo - 1
        cursor = hi + 1
    if cursor <= alg.max_codepoint:
        yield cursor, alg.max_codepoint


class _CodepointAlgebra(Algebra):
    """An algebra over the codepoints ``min_codepoint..max_codepoint``."""

    def __init__(self, min_codepoint: int = 0, max_codepoint: int = MAX_CODEPOINT):
        if not 0 <= min_codepoint <= max_codepoint <= MAX_CODEPOINT:
            raise AlgebraError("invalid codepoint range")
        self.min_codepoint = min_codepoint
        self.max_codepoint = max_codepoint

    @staticmethod
    def _codepoint(symbol) -> int:
        """The codepoint of a one-character symbol, and -1 for any other
        symbol (a longer string, an ``int``, a byte), which is in no set."""
        return ord(symbol) if isinstance(symbol, str) and len(symbol) == 1 else -1


# ---------------------------------------------------------------------------
# Bit vectors over a small explicit alphabet


class BitSet(namedtuple("BitSet", "algebra mask"), SymbolSet):
    __slots__ = ()


class BitsetAlgebra(Algebra):
    """Universe given as an explicit string of characters."""

    def __init__(self, symbols: str):
        if not symbols:
            raise AlgebraError("bitset alphabet must not be empty")
        self.symbols: tuple[str, ...] = tuple(sorted(set(symbols)))
        self._index = {c: i for i, c in enumerate(self.symbols)}
        self._full = (1 << len(self.symbols)) - 1

    def bottom(self) -> BitSet:
        return BitSet(self, 0)

    def top(self) -> BitSet:
        return BitSet(self, self._full)

    def from_chars(self, chars: Iterable[str]) -> BitSet:
        mask = 0
        for c in chars:
            try:
                mask |= 1 << self._index[c]
            except KeyError:
                raise AlgebraError(f"symbol {c!r} is not in the alphabet") from None
        return BitSet(self, mask)

    def members(self, a: BitSet) -> tuple[str, ...]:
        self._own(a)
        return tuple(c for i, c in enumerate(self.symbols) if a.mask >> i & 1)

    def union(self, a: BitSet, b: BitSet) -> BitSet:
        self._own(a, b)
        return BitSet(self, a.mask | b.mask)

    def intersect(self, a: BitSet, b: BitSet) -> BitSet:
        self._own(a, b)
        return BitSet(self, a.mask & b.mask)

    def complement(self, a: BitSet) -> BitSet:
        self._own(a)
        return BitSet(self, a.mask ^ self._full)

    def is_empty(self, a: BitSet) -> bool:
        self._own(a)
        return a.mask == 0

    def contains(self, a: BitSet, symbol: str) -> bool:
        self._own(a)
        i = self._index.get(symbol)
        return i is not None and a.mask >> i & 1 == 1

    def pick_witness(self, a: BitSet) -> str:
        self._own(a)
        if a.mask == 0:
            raise AlgebraError("cannot pick a witness from the empty set")
        low = a.mask & -a.mask
        return self.symbols[low.bit_length() - 1]

    def class_set(self, items: Sequence[tuple[int, int]], negate: bool) -> BitSet:
        ivs = merge_intervals(items)
        mask = 0
        for i, c in enumerate(self.symbols):
            cp = ord(c)
            if any(lo <= cp <= hi for lo, hi in ivs):
                mask |= 1 << i
        if negate:
            mask ^= self._full
        return BitSet(self, mask)

    def _intervals(self, a: BitSet) -> tuple[tuple[int, int], ...]:
        return merge_intervals((ord(c), ord(c)) for c in self.members(a))


# ---------------------------------------------------------------------------
# Sorted disjoint codepoint intervals


# ``intervals``: inclusive codepoint ranges, sorted and non-adjacent.
class IntervalSet(namedtuple("IntervalSet", "algebra intervals"), SymbolSet):
    __slots__ = ()


class IntervalAlgebra(_CodepointAlgebra):
    """Codepoint sets over a configurable range (default full Unicode)."""

    def bottom(self) -> IntervalSet:
        return IntervalSet(self, ())

    def top(self) -> IntervalSet:
        return IntervalSet(self, ((self.min_codepoint, self.max_codepoint),))

    def union(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        self._own(a, b)
        return IntervalSet(self, merge_intervals(a.intervals + b.intervals))

    def intersect(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        self._own(a, b)
        out = []
        i = j = 0
        xs, ys = a.intervals, b.intervals
        while i < len(xs) and j < len(ys):
            lo = max(xs[i][0], ys[j][0])
            hi = min(xs[i][1], ys[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if xs[i][1] < ys[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(self, tuple(out))

    def complement(self, a: IntervalSet) -> IntervalSet:
        self._own(a)
        return IntervalSet(self, tuple(_gaps(self, a.intervals)))

    def is_empty(self, a: IntervalSet) -> bool:
        self._own(a)
        return not a.intervals

    def contains(self, a: IntervalSet, symbol: str) -> bool:
        self._own(a)
        cp = self._codepoint(symbol)
        idx = bisect_right(a.intervals, (cp, MAX_CODEPOINT + 1)) - 1
        return idx >= 0 and a.intervals[idx][0] <= cp <= a.intervals[idx][1]

    def pick_witness(self, a: IntervalSet) -> str:
        self._own(a)
        if not a.intervals:
            raise AlgebraError("cannot pick a witness from the empty set")
        return chr(a.intervals[0][0])

    def class_set(self, items: Sequence[tuple[int, int]], negate: bool) -> IntervalSet:
        s = IntervalSet(self, _clip(self, items))
        return self.complement(s) if negate else s

    def _intervals(self, a: IntervalSet) -> tuple[tuple[int, int], ...]:
        return a.intervals


# ---------------------------------------------------------------------------
# Finite / cofinite sets


# Codepoints per block of a finite/cofinite set: bit ``i`` of the word of
# block ``k`` is codepoint ``k * BLOCK_BITS + i``.
BLOCK_BITS = 1024


def _range_words(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The ``(block, word)`` pairs of inclusive codepoint ``ranges``, which
    come sorted by low end, so the blocks come out sorted too."""
    words: dict[int, int] = {}
    for lo, hi in ranges:
        while lo <= hi:
            k, low = divmod(lo, BLOCK_BITS)
            n = min(hi - lo + 1, BLOCK_BITS - low)
            words[k] = words.get(k, 0) | ((1 << n) - 1) << low
            lo += n
    return tuple(words.items())


# Union, intersection and difference of two sets of ``(block, word)`` pairs.
def _or_words(xs: tuple, ys: tuple) -> tuple[tuple[int, int], ...]:
    words = dict(xs)
    for k, w in ys:
        words[k] = words[k] | w if k in words else w
    return tuple(sorted(words.items()))


def _and_words(xs: tuple, ys: tuple) -> tuple[tuple[int, int], ...]:
    other = dict(ys)
    return tuple([(k, v) for k, w in xs if k in other and (v := w & other[k])])


def _minus_words(xs: tuple, ys: tuple) -> tuple[tuple[int, int], ...]:
    other = dict(ys)
    return tuple([(k, v) for k, w in xs if (v := w & ~other[k] if k in other else w)])


# ``members``: the codepoints of a finite set, the excluded ones of a
# cofinite set, as ``(block, word)`` pairs sorted by block, no word 0.
class FcSet(namedtuple("FcSet", "algebra cofinite members"), SymbolSet):
    __slots__ = ()


class FiniteCofiniteAlgebra(_CodepointAlgebra):
    """Explicit finite sets and their complements over a bounded universe.

    A set stores the smaller of its denotation and its complement as
    blocked bit masks: for each block of ``BLOCK_BITS`` codepoints that
    holds any of them, one ``int`` word whose bits are the block's stored
    codepoints, so a CJK class is 21 words and a set of two astral
    codepoints one word per block.  A union, an intersection or a
    complement costs time in proportion to the number of non-empty blocks
    of its operands, never to the number of codepoints, and the tag's
    size is the words' ``int.bit_count``.  Only a tag flip walks the
    universe, one word per block.  Members are converted from and to
    characters only at the boundary (``finite``, ``cofinite``,
    ``contains``, ``pick_witness``).

    ``scan_steps`` counts the symbols a one-by-one enumeration would
    visit, as instrumentation only: a class adds its codepoints, a tag flip
    adds the universe size, and a cofinite witness adds its index in the
    universe plus one.

    The algebra pays for each distinct set and operation once: ``_memo``
    interns every set, so equal denotations are one object, and maps each
    class (by its clipped ranges and negation) and each ``union`` and
    ``intersect`` (by operands) to its result.  It is a plain dict that
    lives as long as the algebra, like the builder's memos, and like the
    builder the algebra is not thread-safe.  A set of another algebra
    never equals a key, so it misses the memo and ``_own`` rejects it.
    There is no limit on a class: the full range is one word per block,
    and is stored as the empty cofinite set.
    """

    def __init__(self, min_codepoint: int = 0, max_codepoint: int = MAX_CODEPOINT):
        super().__init__(min_codepoint, max_codepoint)
        self.size = max_codepoint - min_codepoint + 1
        self.scan_steps = 0
        self._memo: dict = {}

    def _make(self, cofinite: bool, members: tuple) -> FcSet:
        # Canonical tag: the explicitly stored part is the smaller of the
        # set and its complement; ties resolve to the finite tag.  Words too
        # few to hold half the universe need no count.
        if 2 * BLOCK_BITS * len(members) >= self.size:
            explicit = sum([w.bit_count() for _, w in members])
            denoted = self.size - explicit if cofinite else explicit
            if cofinite and denoted <= explicit or not cofinite and self.size - denoted < denoted:
                self.scan_steps += self.size
                universe = _range_words(((self.min_codepoint, self.max_codepoint),))
                cofinite, members = not cofinite, _minus_words(universe, members)
        s = FcSet(self, cofinite, members)
        return self._memo.setdefault(s, s)

    def _symbols(self, chars: Iterable[str]) -> tuple:
        members = frozenset(chars)
        top = self.top()
        for c in members:
            if not self.contains(top, c):
                raise AlgebraError(f"symbol {c!r} is not in the alphabet")
        return _range_words((cp, cp) for cp in sorted(map(ord, members)))

    def bottom(self) -> FcSet:
        return self._make(False, ())

    def top(self) -> FcSet:
        return self._make(True, ())

    def finite(self, chars: Iterable[str]) -> FcSet:
        return self._make(False, self._symbols(chars))

    def cofinite(self, excluded: Iterable[str]) -> FcSet:
        return self._make(True, self._symbols(excluded))

    def union(self, a: FcSet, b: FcSet) -> FcSet:
        key = ("|", a, b)
        out = self._memo.get(key)
        if out is None:
            self._own(a, b)
            if a.cofinite and b.cofinite:
                out = self._make(True, _and_words(a.members, b.members))
            elif a.cofinite:
                out = self._make(True, _minus_words(a.members, b.members))
            elif b.cofinite:
                out = self._make(True, _minus_words(b.members, a.members))
            else:
                out = self._make(False, _or_words(a.members, b.members))
            self._memo[key] = out
        return out

    def intersect(self, a: FcSet, b: FcSet) -> FcSet:
        key = ("&", a, b)
        out = self._memo.get(key)
        if out is None:
            self._own(a, b)
            if a.cofinite and b.cofinite:
                out = self._make(True, _or_words(a.members, b.members))
            elif a.cofinite:
                out = self._make(False, _minus_words(b.members, a.members))
            elif b.cofinite:
                out = self._make(False, _minus_words(a.members, b.members))
            else:
                out = self._make(False, _and_words(a.members, b.members))
            self._memo[key] = out
        return out

    def complement(self, a: FcSet) -> FcSet:
        self._own(a)
        return self._make(not a.cofinite, a.members)

    def is_empty(self, a: FcSet) -> bool:
        self._own(a)
        return not a.cofinite and not a.members

    def contains(self, a: FcSet, symbol: str) -> bool:
        self._own(a)
        cp = self._codepoint(symbol)
        if not self.min_codepoint <= cp <= self.max_codepoint:
            return False
        k, i = divmod(cp, BLOCK_BITS)
        for block, w in a.members:
            if block >= k:
                return (block == k and w >> i & 1 == 1) != a.cofinite
        return a.cofinite

    def pick_witness(self, a: FcSet) -> str:
        self._own(a)
        if self.is_empty(a):
            raise AlgebraError("cannot pick a witness from the empty set")
        if not a.cofinite:
            k, w = a.members[0]
            return chr(k * BLOCK_BITS + (w & -w).bit_length() - 1)
        # The lowest clear bit at or above min_codepoint; a canonical
        # cofinite set has one in the universe.
        cp = self.min_codepoint
        for k, w in a.members:
            i = cp - k * BLOCK_BITS
            if i < 0:  # block k starts above cp, which is clear
                break
            free = ~w >> i
            cp += (free & -free).bit_length() - 1
            if cp < (k + 1) * BLOCK_BITS:
                break
        self.scan_steps += cp - self.min_codepoint + 1
        return chr(cp)

    def class_set(self, items: Sequence[tuple[int, int]], negate: bool) -> FcSet:
        # Any class is accepted: a block of ``BLOCK_BITS`` codepoints is one word.
        ivs = _clip(self, items)
        key = ("[]", ivs, negate)
        out = self._memo.get(key)
        if out is None:
            self.scan_steps += sum(hi - lo + 1 for lo, hi in ivs)
            out = self._memo[key] = self._make(negate, _range_words(ivs))
        return out

    def _class_items(self, a: FcSet) -> tuple[bool, tuple[tuple[int, int], ...]]:
        # The stored part as it is, so rendering never enumerates a
        # complement: each run of set bits is a range, fused across blocks.
        out: list[tuple[int, int]] = []
        for k, w in a.members:
            base = k * BLOCK_BITS
            while w:
                low = (w & -w).bit_length() - 1
                run = w >> low
                n = ((run + 1) & -(run + 1)).bit_length() - 1
                lo, hi = base + low, base + low + n - 1
                if out and out[-1][1] + 1 == lo:
                    out[-1] = (out[-1][0], hi)
                else:
                    out.append((lo, hi))
                w = run >> n << (low + n)
        return a.cofinite, tuple(out)
