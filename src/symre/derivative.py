"""Derivative operators.

``deriv_symbol`` is the classic syntactic left quotient by one symbol.  The
two set-level operators ``pos_deriv`` and ``neg_deriv`` generalize it to a
whole symbol set A: the positive derivative over-approximates the union of
the symbol derivatives over A, the negative derivative under-approximates
their intersection, and the two operators swap places under complement.
On a literal taken from an expression's next-literal partition they agree
exactly, because such a literal refines every literal the operators reach
(see ``nextlit``); that is what ``deriv_literal`` relies on.
"""

from __future__ import annotations

from typing import Iterable

from .alphabet import Algebra, SymbolSet
from .nextlit import Partition, _combine, next_literals
from .syntax import And, Concat, Epsilon, Ere, ExprBuilder, Literal, Not, Star, Union


def deriv_symbol(b: ExprBuilder, a, r: Ere) -> Ere:
    """The derivative of ``r`` by the single symbol ``a``, normalized."""
    key = ("sym", a, r.eid)
    out = b.deriv_cache.get(key)
    if out is None:
        out = _deriv_symbol(b, a, r)
        b.deriv_cache[key] = out
    return out


def _deriv_symbol(b: ExprBuilder, a, r: Ere) -> Ere:
    if isinstance(r, Epsilon):
        return b.bottom()
    if isinstance(r, Literal):
        return b.epsilon() if b.algebra.contains(r.symbols, a) else b.bottom()
    if isinstance(r, Union):
        return b.union(*(deriv_symbol(b, a, m) for m in r.members))
    if isinstance(r, Concat):
        head = b.concat(deriv_symbol(b, a, r.head), r.tail)
        if r.head.nullable:
            return b.union(head, deriv_symbol(b, a, r.tail))
        return head
    if isinstance(r, Star):
        return b.concat(deriv_symbol(b, a, r.inner), r)
    if isinstance(r, And):
        return b.and_(*(deriv_symbol(b, a, m) for m in r.members))
    if isinstance(r, Not):
        return b.not_(deriv_symbol(b, a, r.inner))
    raise TypeError(r)


def pos_deriv(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> Ere:
    """Positive derivative: covers every symbol derivative over ``a_set``."""
    if b.algebra.is_empty(a_set):
        return b.bottom()
    key = ("pos", a_set, r.eid)
    out = b.deriv_cache.get(key)
    if out is None:
        out = _set_deriv(b, a_set, r, positive=True)
        b.deriv_cache[key] = out
    return out


def neg_deriv(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> Ere:
    """Negative derivative: contained in every symbol derivative over ``a_set``."""
    if b.algebra.is_empty(a_set):
        return b.sigma_star()
    key = ("neg", a_set, r.eid)
    out = b.deriv_cache.get(key)
    if out is None:
        out = _set_deriv(b, a_set, r, positive=False)
        b.deriv_cache[key] = out
    return out


def _set_deriv(b: ExprBuilder, a_set: SymbolSet, r: Ere, positive: bool) -> Ere:
    alg = b.algebra
    same = pos_deriv if positive else neg_deriv
    flip = neg_deriv if positive else pos_deriv
    if isinstance(r, Epsilon):
        return b.bottom()
    if isinstance(r, Literal):
        if positive:
            hit = not alg.is_empty(alg.intersect(a_set, r.symbols))
        else:
            hit = alg.is_empty(alg.intersect(a_set, alg.complement(r.symbols)))
        return b.epsilon() if hit else b.bottom()
    if isinstance(r, Union):
        return b.union(*(same(b, a_set, m) for m in r.members))
    if isinstance(r, Concat):
        head = b.concat(same(b, a_set, r.head), r.tail)
        if r.head.nullable:
            return b.union(head, same(b, a_set, r.tail))
        return head
    if isinstance(r, Star):
        return b.concat(same(b, a_set, r.inner), r)
    if isinstance(r, And):
        return b.and_(*(same(b, a_set, m) for m in r.members))
    if isinstance(r, Not):
        return b.not_(flip(b, a_set, r.inner))
    raise TypeError(r)


def deriv_literal(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> Ere:
    """Derivative by a literal that refines ``next_literals(b, r)``.

    Realized as the symbol derivative of the set's witness, whose language
    is that of the derivative by any symbol of a refining literal.  On a
    literal inside one member of the partition it also equals both
    set-level derivatives.  On a literal that misses every member it need
    not: by ``.`` over ``ab``, every symbol derivative of ``a&b`` is ``[]``
    but the positive derivative is ``()``.  The refinement
    precondition is the caller's obligation and is only verified when
    assertions are enabled.
    """
    if b.algebra.is_empty(a_set):
        raise ValueError("cannot take a derivative by the empty literal")
    assert refines_next(b, a_set, r), (
        f"literal {b.algebra.format_set(a_set)} does not refine the "
        f"next-literal partition of the expression"
    )
    return deriv_symbol(b, b.algebra.pick_witness(a_set), r)


def refines_next(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> bool:
    """True when ``a_set`` fits inside one next literal of ``r`` or misses all.

    The answer depends only on ``a_set`` and the partition, so it is
    memoized with the partition combinators (see ``nextlit._combine``).
    """
    return _combine(b, _refines, a_set, next_literals(b, r))


def _refines(alg: Algebra, a_set: SymbolSet, part: Partition) -> bool:
    for member in part:
        if not alg.is_empty(alg.intersect(a_set, member)):
            return alg.is_subset(a_set, member)
    return True


def deriv_word(b: ExprBuilder, word: Iterable, r: Ere) -> Ere:
    """Left fold of the symbol derivative; the empty word is the identity."""
    for a in word:
        r = deriv_symbol(b, a, r)
    return r
