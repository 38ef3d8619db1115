"""Buchberger engine for pure-difference binomial ideals.

One loop serves both kinds of order: normal pair selection, Buchberger's two
pair criteria (the coprime-lead skip and the chain criterion), and full
interreduction.  `buchberger` runs it under a global order, and
`standard_basis_local` under a local order on an ideal homogeneous for a
positive weight, which needs no ecart and no extra variable (Greuel and
Pfister, A Singular Introduction to Commutative Algebra, 2nd ed., 1.6-1.7).
Everything stays a pure difference of monomials by construction, so there
is no coefficient arithmetic anywhere.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Optional

from .errors import Frozen, InputError, tick
from .monomials import (
    Binomial,
    BinomialIdeal,
    Order,
    Vec,
    degrevlex,
    divides,
    homogenize,
    lcm_monomial,
    oriented,
    quotient,
    s_pair,
    total_degree,
    vec_add,
)


class GroebnerBasis(Frozen):
    __slots__ = _fields = ("order", "elements")
    order: Order
    elements: tuple[Binomial, ...]

    def __init__(self, order: Order, elements: tuple[Binomial, ...]):
        self._set(order=order, elements=elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def leads(self) -> tuple[Vec, ...]:
        return tuple(b.lead for b in self.elements)


def _elements(basis) -> list[Binomial]:
    els = list(getattr(basis, "elements", basis))
    if not all(isinstance(b, Binomial) for b in els):
        raise InputError("basis must contain Binomial elements")
    return els


def _require_global(order: Order) -> None:
    if order.is_local():
        raise InputError("local order: use standard_basis_local instead")


def normal_form(b: Optional[Binomial], basis, order: Order) -> Optional[Binomial]:
    """Remainder of b on division by the basis; None is the zero marker.

    Deterministic: divisors are tried in basis order, the leading monomial is
    rewritten to a fixpoint before the tail.
    """
    _require_global(order)
    return _reduce(b, _elements(basis), order)


def _reduce(b: Optional[Binomial], els: list[Binomial], order: Order) -> Optional[Binomial]:
    # normal_form on a basis already checked to hold Binomials, under a global
    # order or under a local one on weighted-homogeneous input
    if b is None:
        return None
    cur = oriented(b.lead, b.tail, order)
    if cur is None:
        return None
    while True:
        tick()
        for g in els:
            if divides(g.lead, cur.lead):
                rewritten = vec_add(quotient(cur.lead, g.lead), g.tail)
                cur = oriented(rewritten, cur.tail, order)
                if cur is None:
                    return None
                break
        else:
            break
    progress = True
    while progress:
        tick()
        progress = False
        for g in els:
            if divides(g.lead, cur.tail):
                cur = Binomial(cur.lead, vec_add(quotient(cur.tail, g.lead), g.tail))
                progress = True
                break
    return cur


def _minimalize(els: Iterable[Binomial], order: Order) -> list[Binomial]:
    # divisibility runs against the order for local orders (a proper divisor
    # has lower degree, hence is order-greater), so scan both directions
    by_lead = sorted(els, key=lambda b: order.key(b.lead))
    kept: list[Binomial] = []
    for b in by_lead:
        if any(divides(k.lead, b.lead) for k in kept):
            continue
        kept = [k for k in kept if not divides(b.lead, k.lead)]
        kept.append(b)
    return kept


def _interreduce(kept: list[Binomial], order: Order) -> list[Binomial]:
    out = []
    for i, b in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        nf = _reduce(b, others, order)
        assert nf is not None  # leads are pairwise non-dividing
        out.append(nf)
    return out


def buchberger(gens, order: Order) -> GroebnerBasis:
    """Reduced Groebner basis under a global order.

    Pair selection: smallest lcm total degree first, FIFO on ties, so runs
    are reproducible.  Two criteria skip pairs whose S-pair needs no
    reduction: coprime leads (Buchberger's first criterion), and the chain
    criterion (his second): (i, j) is skipped when some other element k has
    a lead dividing lcm(lead_i, lead_j) and neither (i, k) nor (j, k) is
    still queued.
    """
    _require_global(order)
    return _buchberger(_elements(gens), order)


def _buchberger(gens: Iterable[Binomial], order: Order) -> GroebnerBasis:
    # the loop of `buchberger`, for any order under which _reduce terminates
    basis: list[Binomial] = []
    for g in gens:
        ob = oriented(g.lead, g.tail, order)
        if ob is not None and ob not in basis:
            basis.append(ob)
    heap: list[tuple[int, int, int, int]] = []
    pending: list[set[int]] = []   # pending[i]: the k whose pair with i is queued
    seq = 0
    def push_pairs(j: int) -> None:
        nonlocal seq
        pending.append(set())
        for i in range(j):
            l = lcm_monomial(basis[i].lead, basis[j].lead)
            heapq.heappush(heap, (total_degree(l), seq, i, j))
            pending[i].add(j)
            pending[j].add(i)
            seq += 1
    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        tick()
        _, _, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        l = lcm_monomial(f.lead, g.lead)
        pi, pj = pending[i], pending[j]
        # (i, j) is still marked during the scan, which keeps k = i, j out of it
        skip = vec_add(f.lead, g.lead) == l or any(
            k not in pi and k not in pj and divides(basis[k].lead, l)
            for k in range(len(basis)))
        pi.remove(j)
        pj.remove(i)
        if skip:
            continue
        sp = s_pair(f, g, order)
        nf = _reduce(sp, basis, order)
        if nf is not None:
            basis.append(nf)
            push_pairs(len(basis) - 1)
    kept = _interreduce(_minimalize(basis, order), order)
    kept.sort(key=lambda b: order.key(b.lead))
    return GroebnerBasis(order, tuple(kept))


def is_groebner(candidate, order: Order) -> bool:
    """Buchberger criterion by full reduction of every S-pair (no skips)."""
    _require_global(order)
    els = [oriented(b.lead, b.tail, order) for b in _elements(candidate)]
    if any(b is None for b in els):
        raise InputError("candidate contains a zero binomial")
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            tick()
            sp = s_pair(els[i], els[j], order)
            if _reduce(sp, els, order) is not None:
                return False
    return True


def homogenize_ideal(gb: GroebnerBasis) -> GroebnerBasis:
    """Homogenize a reduced degree-revlex basis elementwise; x0 sits lowest.

    The balancing variable is the fresh slot appended after the existing
    ones.  Leads are unchanged as monomials in the old variables, which is
    asserted: the initial ideal before and after agree.
    """
    if not isinstance(gb, GroebnerBasis):
        raise InputError("homogenize_ideal expects a GroebnerBasis")
    if gb.order.grading != "degree" or gb.order.blocks:
        raise InputError("homogenization needs a degree revlex order without blocks")
    n = gb.order.nvars
    ext_order = degrevlex(n + 1, gb.order.priority + (n,))
    out = []
    for b in gb.elements:
        hb = homogenize(Binomial(b.lead + (0,), b.tail + (0,)), n)
        assert ext_order.key(hb.lead) > ext_order.key(hb.tail)
        assert hb.lead[:n] == b.lead
        out.append(hb)
    return GroebnerBasis(ext_order, tuple(out))


def standard_basis_local(ideal: BinomialIdeal, local_order: Order) -> GroebnerBasis:
    """Reduced standard basis of the ideal under a local order: its leads
    generate the initial ideal.  Elements sorted by lead, as `buchberger`.

    The Buchberger loop runs under the local order itself.  It terminates
    because the ideal is homogeneous for a positive weight w, the coordinate
    sums of its degree map (BinomialIdeal has checked every generator
    homogeneous; this function checks every degree vector is nonnegative and
    nonzero, else it raises InputError):
    - an S-pair of w-homogeneous binomials is w-homogeneous, and each
      reduction step replaces a monomial by an order-smaller one of the same
      w-degree; a w-degree holds finitely many monomials, so reduction stops,
      and its remainder is a normal form with no ecart needed;
    - each nonzero remainder has a lead outside the current lead ideal, so
      the lead ideal grows strictly and, by Dickson's lemma, the loop ends;
    - the interreduced result is the reduced standard basis, which is unique,
      so the output does not depend on the input generators or pair order.
    """
    if not local_order.is_local():
        raise InputError("standard_basis_local needs a negative-degree order")
    if not isinstance(ideal, BinomialIdeal):
        raise InputError("standard_basis_local expects a BinomialIdeal")
    if any(not any(d) or min(d) < 0 for d in ideal.degree_map):
        raise InputError("degree map is not a positive weight: every degree "
                         "vector must be nonnegative and nonzero")
    return _buchberger(ideal.generators, local_order)
