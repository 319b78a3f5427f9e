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

Both are facts of the node, like its nullability: the builder sets them
as ``Ere.lead`` when it interns the node, from the ``lead`` of its
parts, and interns the lead itself, so nodes with equal leads share one
``lead`` object.  A star, and a concatenation whose head is not nullable,
share the ``lead`` of the node below them.  ``next_literals`` therefore
keeps one entry per lead in ``ExprBuilder.next_cache``, keyed by the
lead's identity: every suffix of a word shares the entry of its head
literal.

The classes of an inequality with their witnesses (``pair_classes``) are
a function of the two sides' leads, and the unfolding meets only a
handful of distinct leads while it visits thousands of pairs.
``pair_classes`` keeps them in ``ExprBuilder.partition_cache`` keyed by
the identities of the two leads: a pair whose two leads were met together
before costs one lookup, with no ``next_literals`` call.  On a miss it
looks the two partitions up in the same table by value first, as distinct
leads can have equal partitions (one lead-pair miss in ten hits it over
the ``mixed_queries`` bench corpus).  The public combinators ``join``,
``left_join`` and ``meet`` stay pure and unmemoized.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce

from .alphabet import Algebra, SymbolSet
from .syntax import Ere, ExprBuilder

Partition = tuple[SymbolSet, ...]


def canonical_partition(alg: Algebra, sets: Iterable[SymbolSet]) -> Partition:
    """Drop empty members, deduplicate, and order by least symbol."""
    unique = {s: None for s in sets if not alg.is_empty(s)}
    return tuple(sorted(unique, key=lambda s: alg.symbol_key(alg.pick_witness(s))))


def partition_union(alg: Algebra, parts: Partition) -> SymbolSet:
    """The union of the parts, from the first one on; ``[]`` for none."""
    return reduce(alg.union, parts) if parts else alg.bottom()


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


def next_literals(b: ExprBuilder, r: Ere) -> Partition:
    """The next-literal partition of ``r``: the minterms of its leading
    literals inside its coverage, memoized per lead."""
    out = b.next_cache.get(id(r.lead))
    if out is None:
        literals, coverage = r.lead
        out = b.next_cache[id(r.lead)] = minterms(b.algebra, coverage, literals)
    return out


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
    branch of the unfolding derives both sides by that symbol.

    Memoized by the identities of the two leads, which the builder keeps
    alive (see ``ExprBuilder``), as each side's partition is a function of
    its lead; a miss first looks the two partitions up by value.
    """
    key = (id(r.lead), id(s.lead))
    out = b.partition_cache.get(key)
    if out is None:
        parts = (next_literals(b, r), next_literals(b, s))
        out = b.partition_cache.get(parts)
        if out is None:
            out = b.partition_cache[parts] = witnessed_left_join(b.algebra, *parts)
        b.partition_cache[key] = out
    return out


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
