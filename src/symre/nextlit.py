"""Next-literal partitions.

``next_literals(b, r)`` computes a finite collection of mutually disjoint,
non-empty symbol sets covering every symbol that can start a word of the
language, such that all symbols inside one member have the same derivative.
Partitions are canonical: members are deduplicated, empty sets are filtered
eagerly, and the collection is ordered by each member's least symbol.

The members are the non-empty minterms of ``r``'s *leading literals* that
lie inside ``r``'s *coverage*.  The leading literals are the literals the
derivative operators reach: those of the first factor of a concatenation,
and of the second too when the first is nullable, through every ``|``,
``&``, ``*`` and ``!``.  A minterm lies inside each of them or misses it,
so on a member the symbol derivative and both set-level derivatives agree
exactly.  The coverage is a literal's set; the union over ``|`` and over a
concatenation with a nullable head; the intersection over ``&``, so an
``&`` never widens what the checker branches on; everything under ``!``;
nothing for ``()``.  Being a boolean combination of leading literals, it
holds every minterm whole or misses it.

Both are found by one walk that loops down concatenations and stars, so a
long concatenation costs no recursion, and are memoized per node
(``ExprBuilder.lead_cache``), except at a star or a concatenation whose
head is not nullable: those have the leading literals and coverage of the
node below them.  So a concatenation whose head is not nullable has its
head's partition, the same object, and ``next_literals`` keeps no entry
for it in ``ExprBuilder.next_cache``: every suffix of a word shares the
entry of its head literal.

The minterms, and the classes of an inequality with their witnesses
(``pair_classes``), are pure functions of a few symbol sets, and the
unfolding meets only a handful of distinct arguments while it visits
thousands of pairs.  They therefore go through ``_combine``,
which memoizes the result per builder (``ExprBuilder.partition_cache``)
keyed by the operation and its two arguments by value.  Symbol sets
compare equal only within one algebra instance, so a set from another
algebra never hits an entry and is still rejected by the operation itself.
The public combinators ``join``, ``left_join`` and ``meet`` stay pure and
unmemoized.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .alphabet import Algebra, SymbolSet
from .syntax import And, Concat, Epsilon, Ere, ExprBuilder, Literal, Not, Star, Union

Partition = tuple[SymbolSet, ...]


def canonical_partition(alg: Algebra, sets: Iterable[SymbolSet]) -> Partition:
    """Drop empty members, deduplicate, and order by least symbol."""
    unique = {s: None for s in sets if not alg.is_empty(s)}
    return tuple(sorted(unique, key=lambda s: alg.symbol_key(alg.pick_witness(s))))


def partition_union(alg: Algebra, parts: Partition) -> SymbolSet:
    out = alg.bottom()
    for s in parts:
        out = alg.union(out, s)
    return out


def join(alg: Algebra, left: Partition, right: Partition) -> Partition:
    """Common refinement covering the union of both sides."""
    outside_left = alg.complement(partition_union(alg, left))
    pieces = _left_pieces(alg, left, right)
    pieces.extend(alg.intersect(outside_left, b) for b in right)
    return canonical_partition(alg, pieces)


def left_join(alg: Algebra, left: Partition, right: Partition) -> Partition:
    """Refinement covering exactly the union of the left side: the classes
    of ``witnessed_left_join``."""
    return tuple(c for c, _ in witnessed_left_join(alg, left, right))


def _left_pieces(alg: Algebra, left: Partition, right: Partition) -> list[SymbolSet]:
    """Each member of ``left`` cut by each member of ``right`` and by what
    ``right`` leaves out."""
    outside_right = alg.complement(partition_union(alg, right))
    pieces = [alg.intersect(a, b) for a in left for b in right]
    pieces.extend(alg.intersect(a, outside_right) for a in left)
    return pieces


def meet(alg: Algebra, left: Partition, right: Partition) -> Partition:
    """All pairwise intersections; covers symbols common to both sides."""
    return canonical_partition(alg, (alg.intersect(a, b) for a in left for b in right))


def minterms(alg: Algebra, coverage: SymbolSet, literals: tuple[SymbolSet, ...]) -> Partition:
    """The non-empty pieces of ``coverage`` that lie inside or outside each literal."""
    pieces = [coverage]
    for lit in literals:
        outside = alg.complement(lit)
        split = []
        for p in pieces:
            if p != lit:
                inside = alg.intersect(p, lit)
                if not alg.is_empty(inside):
                    rest = alg.intersect(p, outside)
                    if not alg.is_empty(rest):
                        split += (inside, rest)
                        continue
            split.append(p)  # the piece itself, not an equal copy
        pieces = split
    return canonical_partition(alg, pieces)


def _combine(b: ExprBuilder, op: Callable, left, right):
    """``op(b.algebra, left, right)``, memoized per builder by value."""
    key = (op, left, right)
    out = b.partition_cache.get(key)
    if out is None:
        out = op(b.algebra, left, right)
        b.partition_cache[key] = out
    return out


def next_literals(b: ExprBuilder, r: Ere) -> Partition:
    if type(r) is Concat and not r.head.nullable:
        r = r.head  # the same leading literals and coverage, so the same partition
    out = b.next_cache.get(r.eid)
    if out is None:
        literals, coverage = _leading(b, r)
        out = _combine(b, minterms, coverage, literals)
        b.next_cache[r.eid] = out
    return out


def _leading(b: ExprBuilder, r: Ere) -> tuple[tuple[SymbolSet, ...], SymbolSet]:
    """``r``'s distinct leading literals, in order of appearance, and its coverage."""
    cache = b.lead_cache
    chain = []  # the concatenations with a nullable head on the way down
    # Stars and concatenations with a head that is not nullable are passed
    # through unmemoized, so that every suffix of a long word costs no entry.
    while r.eid not in cache and isinstance(r, (Concat, Star)):
        if isinstance(r, Star):
            r = r.inner
        elif r.head.nullable:
            chain.append(r)
            r = r.tail
        else:
            r = r.head
    out = cache.get(r.eid)
    if out is None:
        out = cache[r.eid] = _leading_of(b, r)
    for node in reversed(chain):
        out = cache[node.eid] = _merge(b.algebra.union, (_leading(b, node.head), out))
    return out


def _leading_of(b: ExprBuilder, r: Ere) -> tuple[tuple[SymbolSet, ...], SymbolSet]:
    alg = b.algebra
    if isinstance(r, Epsilon):
        return (), alg.bottom()
    if isinstance(r, Literal):
        return (r.symbols,), r.symbols
    if isinstance(r, Not):
        return _leading(b, r.inner)[0], alg.top()
    if isinstance(r, Union):
        return _merge(alg.union, [_leading(b, m) for m in r.members])
    if isinstance(r, And):
        return _merge(alg.intersect, [_leading(b, m) for m in r.members])
    raise TypeError(r)


def _merge(cover: Callable, parts) -> tuple[tuple[SymbolSet, ...], SymbolSet]:
    """All the parts' literals, and their coverages combined by ``cover``."""
    literals, coverage = parts[0]
    for lits, c in parts[1:]:
        if lits is not literals:
            literals += tuple(lit for lit in lits if lit not in literals)
        if c is not coverage:
            coverage = cover(coverage, c)
    return literals, coverage


def next_of_ineq(b: ExprBuilder, r: Ere, s: Ere) -> Partition:
    """Next literals of the inequality ``r`` contained-in ``s``: the classes
    of ``pair_classes(b, r, s)``, which hold ``left_join`` of the two sides'
    partitions.

    Each class lies inside one member of ``r``'s partition, and inside one
    member of ``s``'s partition or outside ``s``'s coverage, so all its
    symbols have one symbol derivative on each side; outside the coverage,
    that of ``s`` is ``[]``.  Such a class may straddle a leading literal of
    ``s`` that an ``&`` in ``s`` leaves out of the coverage, so a set
    derivative of ``s`` by it may differ; the unfolding takes symbol
    derivatives only.
    """
    return tuple(c for c, _ in pair_classes(b, r, s))


Branch = tuple[SymbolSet, object]


def pair_classes(b: ExprBuilder, r: Ere, s: Ere) -> tuple[Branch, ...]:
    """The classes of the inequality ``r`` contained-in ``s``, in order,
    each with its witness symbol (see ``witnessed_left_join``), so that a
    branch of the unfolding derives both sides by that symbol."""
    return _combine(b, witnessed_left_join, next_literals(b, r), next_literals(b, s))


def witnessed_left_join(alg: Algebra, left: Partition, right: Partition) -> tuple[Branch, ...]:
    """The non-empty pieces of ``left`` cut by ``right``, ordered by their
    least symbols, each as ``(class, witness)``.

    Each piece is cut from one member of ``left`` and from one member of
    ``right`` or from what ``right`` leaves out, and the pieces of two
    partitions are disjoint, so none repeats.  Each witness is picked once.
    """
    classes = [(c, alg.pick_witness(c)) for c in _left_pieces(alg, left, right) if not alg.is_empty(c)]
    classes.sort(key=lambda branch: alg.symbol_key(branch[1]))
    return tuple(classes)
