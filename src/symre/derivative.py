"""Derivative operators.

``deriv_symbol`` is the classic syntactic left quotient by one symbol.  The
two set-level operators ``pos_deriv`` and ``neg_deriv`` generalize it to a
whole symbol set A: the positive derivative over-approximates the union of
the symbol derivatives over A, the negative derivative under-approximates
their intersection, and the two operators swap places under complement.
On a literal taken from an expression's next-literal partition they agree
exactly, because such a literal refines every literal the operators reach
(see ``nextlit``); that is what ``deriv_literal`` relies on, and it checks
that precondition on every call, raising ``AlgebraError`` when it fails.

All three are one memoized walker over a probe: ``"sym"`` with a symbol,
``"pos"`` or ``"neg"`` with a non-empty set.  The probes differ only at a
literal, where each tests the literal its own way, and at ``!``, where
``"pos"`` and ``"neg"`` swap.  No probe recurses along a concatenation, so
a long chain of nullable heads costs no recursion depth: a concatenation
derives to one union of the terms ``d(head)·tail`` down that chain, with
no union nested per head.

The memo keeps one entry per probe and node derived; deriving a chain
makes none for its suffixes, and stops at a suffix that has one.  The one
exception: called on a concatenation whose head is a literal, such as a
suffix of a word or of ``(a|b)(a|b)…``, ``deriv_symbol`` returns the tail
or ``[]``, as the head literal's entry decides, and makes no entry of its
own; ``partial_derivatives`` does the same.  So the unfolding of a word
against a pattern keeps one entry per distinct symbol, not one per suffix.
The walker still memoizes such a node where it meets one inside another:
a union's derivative derives every member, and a memo hit is the cheaper
way there (without those entries, checking ``r`` against ``r|r'`` with
``r = (a|b)*a(a|b){n}`` took 3 to 5% longer).

A symbol outside the algebra's universe (over a character alphabet, a
character outside its range or anything that is not one character) is in
no language, so every derivative by it is ``[]``, a complement's included.

The fourth operator, ``partial_derivatives``, splits the symbol derivative
into Antimirov's terms, with an ``&`` as the product of its members' terms
(Caron, Champarnaud and Mignot, LATA 2011).  The emptiness search steps by
it and never builds the union of the terms: before the shortest word of
``r & .*b`` with ``r = (a|b)*a(a|b){n}``, it meets a few terms per word
length, where a search over symbol derivatives meets about 2^n nodes.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import product

from .alphabet import AlgebraError, SymbolSet
from .nextlit import minterms, next_literals
from .syntax import And, Concat, Epsilon, Ere, ExprBuilder, Literal, Not, Star, Union

_FLIP = {"pos": "neg", "neg": "pos"}


def deriv_symbol(b: ExprBuilder, a, r: Ere) -> Ere:
    """The derivative of ``r`` by the single symbol ``a``, normalized."""
    # The memo is probed here rather than through ``_deriv``: the unfolding
    # calls this twice per branch.  A word suffix, a concatenation with a
    # literal head, derives to its tail or to ``[]``, which the head's
    # memoized derivative decides, and has no entry of its own.
    cache = b.deriv_cache
    if type(r) is Concat and type(r.head) is Literal:
        d = cache.get(("sym", a, r.head.eid)) or _deriv(b, "sym", a, r.head)
        return r.tail if type(d) is Epsilon else d
    key = ("sym", a, r.eid)
    out = cache.get(key)
    if out is None:
        out = cache[key] = _step(b, "sym", a, r)
    return out


def pos_deriv(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> Ere:
    """Positive derivative: covers every symbol derivative over ``a_set``."""
    if b.algebra.is_empty(a_set):
        return b.bottom()
    return _deriv(b, "pos", a_set, r)


def neg_deriv(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> Ere:
    """Negative derivative: contained in every symbol derivative over ``a_set``."""
    if b.algebra.is_empty(a_set):
        return b.sigma_star()
    return _deriv(b, "neg", a_set, r)


def _deriv(b: ExprBuilder, kind: str, x, r: Ere) -> Ere:
    """The derivative of ``r`` by the probe ``(kind, x)``, memoized in
    ``b.deriv_cache`` under ``(kind, x, r.eid)``."""
    key = (kind, x, r.eid)
    out = b.deriv_cache.get(key)
    if out is None:
        out = b.deriv_cache[key] = _step(b, kind, x, r)
    return out


def _step(b: ExprBuilder, kind: str, x, r: Ere) -> Ere:
    if isinstance(r, Epsilon):
        return b.bottom()
    if isinstance(r, Literal):
        alg = b.algebra
        if kind == "sym":
            hit = alg.contains(r.symbols, x)
        elif kind == "pos":
            hit = not alg.is_empty(alg.intersect(x, r.symbols))
        else:
            hit = alg.is_empty(alg.intersect(x, alg.complement(r.symbols)))
        return b.epsilon() if hit else b.bottom()
    if isinstance(r, Union):
        return b.union(*(_deriv(b, kind, x, m) for m in r.members))
    if isinstance(r, Concat):
        return _deriv_concat(b, kind, x, r)
    if isinstance(r, Star):
        return b.concat(_deriv(b, kind, x, r.inner), r)
    if isinstance(r, And):
        return b.and_(*(_deriv(b, kind, x, m) for m in r.members))
    if isinstance(r, Not):
        if kind != "sym":
            return b.not_(_deriv(b, _FLIP[kind], x, r.inner))
        # Outside the universe every language misses ``x``, ``!`` included.
        if not b.algebra.contains(b.algebra.top(), x):
            return b.bottom()
        return b.not_(_deriv(b, kind, x, r.inner))
    raise TypeError(r)


def _deriv_concat(b: ExprBuilder, kind: str, x, r: Concat) -> Ere:
    """The union of the terms ``d(head)·tail`` down the chain of nullable
    heads, and ``d(last)`` when every head is nullable and the chain ends
    in ``last``: Brzozowski's ``d(rs) = d(r)·s | ν(r)·d(s)`` unrolled, as
    ``_split`` builds Antimirov's terms.  ``last`` is the first suffix
    whose derivative is memoized, else the non-concatenation at the end.

    A loop, so a long chain costs no recursion; it builds no intermediate
    union and memoizes no suffix (the caller memoizes ``r``).  Stopping at
    a derived suffix keeps the walk linear where a union derives each
    suffix of a chain in turn, as the unfolding of ``(a|())…(a|())b`` does.
    """
    terms = []
    while True:
        terms.append(b.concat(_deriv(b, kind, x, r.head), r.tail))
        if not r.head.nullable:
            break
        r = r.tail
        out = b.deriv_cache.get((kind, x, r.eid))
        if out is not None or not isinstance(r, Concat):
            terms.append(out or _deriv(b, kind, x, r))
            break
    return terms[0] if len(terms) == 1 else b.union(*terms)


def partial_derivatives(b: ExprBuilder, a, r: Ere) -> tuple[Ere, ...]:
    """The distinct terms, none ``[]``, whose union is the derivative of
    ``r`` by the symbol ``a``.

    ``|`` unites its members' terms, a concatenation and a star put their
    tail after each term of the head, and an ``&`` with no ``!`` member is
    the ``&`` of each combination of its members' terms.  A ``!``, or an
    ``&`` with a ``!`` member, is one term, its symbol derivative, dropped
    when that is ``[]``; ``deriv_symbol`` memoizes it.  A concatenation with
    a literal head has the one term of its tail or none, as the head's symbol
    derivative decides.  The other terms are memoized under
    ``("part", a, r.eid)``.
    """
    if type(r) is Concat and type(r.head) is Literal:
        return (r.tail,) if type(_deriv(b, "sym", a, r.head)) is Epsilon else ()
    if type(r) is Not or type(r) is And and Not in map(type, r.members):
        d = deriv_symbol(b, a, r)
        return () if d is b.bottom() else (d,)
    key = ("part", a, r.eid)
    out = b.deriv_cache.get(key)
    if out is None:
        out = b.deriv_cache[key] = _split(b, a, r)
    return out


def _split(b: ExprBuilder, a, r: Ere) -> tuple[Ere, ...]:
    if isinstance(r, Epsilon):
        return ()
    if isinstance(r, Literal):
        return (b.epsilon(),) if b.algebra.contains(r.symbols, a) else ()
    if isinstance(r, Union):
        terms = [t for m in r.members for t in partial_derivatives(b, a, m)]
    elif isinstance(r, Star):
        return tuple(b.concat(p, r) for p in partial_derivatives(b, a, r.inner))
    elif isinstance(r, And):
        combos = product(*(partial_derivatives(b, a, m) for m in r.members))
        terms = [t for t in (b.and_(*c) for c in combos) if t is not b.bottom()]
    else:
        # A loop down the chain of nullable heads, so it costs no recursion.
        terms = []
        while True:
            terms += [b.concat(p, r.tail) for p in partial_derivatives(b, a, r.head)]
            if not r.head.nullable:
                break
            r = r.tail
            if not isinstance(r, Concat):
                terms += partial_derivatives(b, a, r)
                break
    return tuple(dict.fromkeys(terms))


def deriv_literal(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> Ere:
    """Derivative by a literal that refines ``next_literals(b, r)``.

    Realized as the symbol derivative of the set's witness, whose language
    is that of the derivative by any symbol of a refining literal.  On a
    literal inside one member of the partition it also equals both
    set-level derivatives.  On a literal that misses every member it need
    not: by ``.`` over ``ab``, every symbol derivative of ``a&b`` is ``[]``
    but the positive derivative is ``()``.  The precondition is checked on
    every call: an empty literal, or one that does not refine the
    partition, raises ``AlgebraError``.  The checker does not call this: it
    reads each class's witness from ``nextlit.pair_classes``, whose classes
    meet the same precondition by construction.
    """
    alg = b.algebra
    if alg.is_empty(a_set):
        raise AlgebraError("cannot derive by the empty class")
    if not refines_next(b, a_set, r):
        partition = ", ".join(alg.format_set(s) for s in next_literals(b, r))
        raise AlgebraError(
            f"class {alg.format_set(a_set)} does not refine the next-literal "
            f"partition {{{partition}}}"
        )
    return deriv_symbol(b, alg.pick_witness(a_set), r)


def refines_next(b: ExprBuilder, a_set: SymbolSet, r: Ere) -> bool:
    """True when ``a_set`` fits inside one next literal of ``r`` or misses all.

    That is, when the members of ``r``'s partition cut ``a_set`` into at
    most one minterm; the empty set has none, so it refines vacuously.
    """
    return len(minterms(b.algebra, a_set, next_literals(b, r))) <= 1


def deriv_word(b: ExprBuilder, word: Iterable, r: Ere) -> Ere:
    """Left fold of the symbol derivative; the empty word is the identity."""
    for a in word:
        r = deriv_symbol(b, a, r)
    return r
