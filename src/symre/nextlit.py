"""Next-literal partitions.

``next_literals(b, r)`` computes a finite collection of mutually disjoint,
non-empty symbol sets covering every symbol that can start a word of the
language, such that all symbols inside one member have the same derivative.
Partitions are canonical: members are deduplicated, empty sets are filtered
eagerly, and the collection is ordered by each member's least symbol.

Refinement invariant: every member refines every *leading literal* of
``r``, that is every literal the derivative operators reach (the literals
of the first factor of a concatenation, and of the second too when the
first is nullable, through every ``|``, ``&``, ``*`` and ``!``).  A member
lies inside such a literal or misses it, so on a member the symbol
derivative and both set-level derivatives agree exactly.

An ``&`` covers only the symbols common to all its members (their
``meet``), so the leading literals of one side that the other side does
not share drop out of its partition.  The rules that build a member from
the symbols outside a subterm's coverage (the complement member of ``!``,
the outside pieces of ``join`` at ``|`` and at a concatenation with a
nullable head) would let that member straddle a dropped literal.  They
therefore also use the subterm's ``refined_literals``: the partition with
``join`` in place of ``meet`` at every such ``&``, which covers every
leading literal.  ``!`` builds its members from it; ``|`` and the
concatenation split the classes of their plain ``join`` by it with
``left_join``, which keeps the plain coverage, so an ``&`` still never
widens what the checker branches on.  A refined partition is computed only
when one of these rules asks for it, and only for a subterm with an ``&``
at a leading position (``ExprBuilder.and_led``); any other subterm is its
own refined partition and pays nothing for it.

The combinators ``join``, ``left_join`` and ``meet`` are pure functions of
two partitions, and the unfolding meets only a handful of distinct
partitions while it visits thousands of pairs.  Every combination made
here therefore goes through ``_combine``, which memoizes the result per
builder (``ExprBuilder.partition_cache``) keyed by the combinator and the
two partitions by value.  Symbol sets compare equal only within one
algebra instance, so a set from another algebra never hits an entry and is
still rejected by the operation itself.  The public combinators stay pure
and unmemoized.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .alphabet import Algebra, SymbolSet
from .syntax import And, Concat, Epsilon, Ere, ExprBuilder, Literal, Not, Star, Union

Partition = tuple[SymbolSet, ...]


def canonical_partition(alg: Algebra, sets: Iterable[SymbolSet]) -> Partition:
    """Drop empty members, deduplicate, and order by least symbol."""
    unique = {s: None for s in sets if not alg.is_empty(s)}
    return tuple(
        sorted(unique, key=lambda s: alg.symbol_key(alg.pick_witness(s)))
    )


def partition_union(alg: Algebra, parts: Partition) -> SymbolSet:
    out = alg.bottom()
    for s in parts:
        out = alg.union(out, s)
    return out


def join(alg: Algebra, left: Partition, right: Partition) -> Partition:
    """Common refinement covering the union of both sides."""
    outside_right = alg.complement(partition_union(alg, right))
    outside_left = alg.complement(partition_union(alg, left))
    pieces = [alg.intersect(a, b) for a in left for b in right]
    pieces.extend(alg.intersect(a, outside_right) for a in left)
    pieces.extend(alg.intersect(outside_left, b) for b in right)
    return canonical_partition(alg, pieces)


def left_join(alg: Algebra, left: Partition, right: Partition) -> Partition:
    """Refinement covering exactly the union of the left side."""
    outside_right = alg.complement(partition_union(alg, right))
    pieces = [alg.intersect(a, b) for a in left for b in right]
    pieces.extend(alg.intersect(a, outside_right) for a in left)
    return canonical_partition(alg, pieces)


def meet(alg: Algebra, left: Partition, right: Partition) -> Partition:
    """All pairwise intersections; covers symbols common to both sides."""
    return canonical_partition(
        alg, (alg.intersect(a, b) for a in left for b in right)
    )


def _combine(b: ExprBuilder, op: Callable, left, right):
    """``op(b.algebra, left, right)``, memoized per builder by value."""
    key = (op, left, right)
    out = b.partition_cache.get(key)
    if out is None:
        out = op(b.algebra, left, right)
        b.partition_cache[key] = out
    return out


def next_literals(b: ExprBuilder, r: Ere) -> Partition:
    out = b.next_cache.get(r.eid)
    if out is None:
        out = _next_literals(b, r)
        b.next_cache[r.eid] = out
    return out


def refined_literals(b: ExprBuilder, r: Ere) -> Partition:
    """A partition refining every leading literal of ``r``.

    It covers every leading literal and the coverage of
    ``next_literals(b, r)``; each member lies inside that coverage or
    misses it, and the members inside it are ``next_literals(b, r)``.
    """
    if r.eid not in b.and_led:
        return next_literals(b, r)
    out = b.refined_cache.get(r.eid)
    if out is None:
        out = _refined_literals(b, r)
        part = next_literals(b, r)
        if len(out) == len(part):  # the ``&``s below dropped no literal
            out = part
        b.refined_cache[r.eid] = out
    return out


def _refined_literals(b: ExprBuilder, r: Ere) -> Partition:
    if isinstance(r, (And, Union)):
        return _join_all(b, [refined_literals(b, m) for m in r.members])
    if isinstance(r, Concat):
        if r.head.nullable:
            return _combine(b, join, refined_literals(b, r.head), refined_literals(b, r.tail))
        return refined_literals(b, r.head)
    if isinstance(r, Star):
        return refined_literals(b, r.inner)
    raise TypeError(r)


def _join_all(b: ExprBuilder, parts: list[Partition]) -> Partition:
    out = parts[0]
    for p in parts[1:]:
        out = _combine(b, join, out, p)
    return out


def _next_literals(b: ExprBuilder, r: Ere) -> Partition:
    alg = b.algebra
    if isinstance(r, Epsilon):
        return ()
    if isinstance(r, Literal):
        return canonical_partition(alg, (r.symbols,))
    if isinstance(r, Union):
        return _next_of_join(b, r.members)
    if isinstance(r, Concat):
        if r.head.nullable:
            return _next_of_join(b, (r.head, r.tail))
        return next_literals(b, r.head)
    if isinstance(r, Star):
        return next_literals(b, r.inner)
    if isinstance(r, And):
        parts = next_literals(b, r.members[0])
        for m in r.members[1:]:
            parts = _combine(b, meet, parts, next_literals(b, m))
        return parts
    if isinstance(r, Not):
        inner = refined_literals(b, r.inner)
        # The extra member collects all symbols outside every inner literal,
        # the ones an inner ``&`` dropped included, so it straddles none of
        # them; the meet over an empty family is the full alphabet.
        extra = alg.complement(partition_union(alg, inner))
        return canonical_partition(alg, inner + (extra,))
    raise TypeError(r)


def _next_of_join(b: ExprBuilder, members: tuple[Ere, ...]) -> Partition:
    """The ``join`` of the members' partitions, split by the literals they dropped."""
    parts = [next_literals(b, m) for m in members]
    out = _join_all(b, parts)
    for m, part in zip(members, parts):
        fine = refined_literals(b, m)
        if fine is not part:
            # Each class of ``out`` lies inside ``part``'s coverage, where the
            # members of ``fine`` are those of ``part``, or outside it, where
            # ``left_join`` splits it by the literals ``m`` dropped; the
            # coverage stays the same.
            out = _combine(b, left_join, out, fine)
    return out


def next_of_ineq(b: ExprBuilder, r: Ere, s: Ere) -> Partition:
    """Next literals of the inequality ``r`` contained-in ``s``.

    The classes split ``r``'s coverage by ``s``'s plain partition only.  A
    class outside ``s``'s coverage may therefore straddle a literal that an
    ``&`` in ``s`` dropped, and the set derivatives of ``s`` by it may
    differ.  The checker only takes symbol derivatives by each class's
    witness, so no verdict depends on this.
    """
    return _combine(b, left_join, next_literals(b, r), next_literals(b, s))
