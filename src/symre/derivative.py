"""Derivative operators.

``deriv_symbol`` is the classic syntactic left quotient by one symbol.  The
two set-level operators ``pos_deriv`` and ``neg_deriv`` generalize it to a
whole symbol set A: the positive derivative over-approximates the union of
the symbol derivatives over A, the negative derivative under-approximates
their intersection, and the two operators swap places under complement.
On a literal taken from an expression's next-literal partition they agree
exactly, because such a literal refines every literal the operators reach
(see ``nextlit``); that is what ``deriv_literal`` relies on.

A symbol outside the algebra's universe is in no language, so every
derivative by it is ``[]``, a complement's included.
"""

from __future__ import annotations

from typing import Iterable

from .alphabet import Algebra, SymbolSet
from .nextlit import Partition, _combine, _holder, next_literals
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
        return _deriv_concat(b, a, r)
    if isinstance(r, Star):
        return b.concat(deriv_symbol(b, a, r.inner), r)
    if isinstance(r, And):
        return b.and_(*(deriv_symbol(b, a, m) for m in r.members))
    if isinstance(r, Not):
        # Outside the universe every language misses ``a``, ``!`` included.
        if not b.algebra.contains(b.algebra.top(), a):
            return b.bottom()
        return b.not_(deriv_symbol(b, a, r.inner))
    raise TypeError(r)


def _deriv_concat(b: ExprBuilder, a, r: Concat) -> Ere:
    """``d(head)·tail``, joined by ``|`` with ``d(tail)`` when the head is
    nullable.

    A loop down the chain of nullable heads, so a long chain costs no
    recursion.  It builds and memoizes the same nodes, in the same order, as
    the recursive definition, so eids and traces do not depend on it.
    """
    cache = b.deriv_cache
    chain = []  # the nodes with a nullable head, outermost first, and d(head)·tail
    while True:
        step = b.concat(deriv_symbol(b, a, r.head), r.tail)
        if not r.head.nullable:
            out = cache[("sym", a, r.eid)] = step
            break
        chain.append((r, step))
        r = r.tail
        out = cache.get(("sym", a, r.eid))
        if out is not None:
            break
        if not isinstance(r, Concat):
            out = deriv_symbol(b, a, r)
            break
    for node, step in reversed(chain):
        out = cache[("sym", a, node.eid)] = b.union(step, out)
    return out


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
    precondition is the caller's obligation and is verified on every call
    when assertions are enabled.  The checker does not call this: it reads
    each class's witness from ``nextlit.pair_classes``, which checks the
    same precondition once per partition pair.
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
    k = _holder(alg, a_set, part)
    return k < 0 or alg.is_subset(a_set, part[k])


def deriv_word(b: ExprBuilder, word: Iterable, r: Ere) -> Ere:
    """Left fold of the symbol derivative; the empty word is the identity."""
    for a in word:
        r = deriv_symbol(b, a, r)
    return r
