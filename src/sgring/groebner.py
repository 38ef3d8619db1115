"""Buchberger engine for pure-difference binomial ideals.

Global orders get the classic algorithm (normal pair selection, coprime-lead
skip, full interreduction); local orders go through the homogenization route:
append a balancing variable, run the global engine under the degree-first
order, dehomogenize, and minimalize.  Everything stays a pure difference of
monomials by construction, so there is no coefficient arithmetic anywhere.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Optional, Union

from .errors import Deadline, InputError, tick
from .monomials import (
    GT,
    Binomial,
    Order,
    Vec,
    compare,
    divides,
    homogenize,
    dehomogenize,
    lcm_monomial,
    oriented,
    quotient,
    s_pair,
    total_degree,
    vec_add,
)


@dataclass(frozen=True)
class GroebnerBasis:
    order: Order
    elements: tuple[Binomial, ...]
    reduced: bool
    minimal: bool

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


def normal_form(b: Optional[Binomial], basis, order: Order,
                deadline: Optional[Deadline] = None) -> Optional[Binomial]:
    """Remainder of b on division by the basis; None is the zero marker.

    Deterministic: divisors are tried in basis order, the leading monomial is
    rewritten to a fixpoint before the tail.
    """
    _require_global(order)
    if b is None:
        return None
    els = _elements(basis)
    cur = oriented(b.lead, b.tail, order)
    if cur is None:
        return None
    while True:
        tick(deadline)
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
        tick(deadline)
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
    by_lead = sorted(els, key=cmp_to_key(lambda a, b: compare(order, a.lead, b.lead)))
    kept: list[Binomial] = []
    for b in by_lead:
        if any(divides(k.lead, b.lead) for k in kept):
            continue
        kept = [k for k in kept if not divides(b.lead, k.lead)]
        kept.append(b)
    return kept


def _interreduce(kept: list[Binomial], order: Order,
                 deadline: Optional[Deadline]) -> list[Binomial]:
    out = []
    for i, b in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        nf = normal_form(b, others, order, deadline)
        assert nf is not None  # leads are pairwise non-dividing
        out.append(nf)
    return out


def buchberger(gens, order: Order, deadline: Optional[Deadline] = None) -> GroebnerBasis:
    """Reduced Groebner basis under a global order.

    Pair selection: smallest lcm total degree first, FIFO on ties, so runs
    are reproducible.  Pairs with coprime leads are skipped.
    """
    _require_global(order)
    basis: list[Binomial] = []
    for g in _elements(gens):
        ob = oriented(g.lead, g.tail, order)
        if ob is not None and ob not in basis:
            basis.append(ob)
    heap: list[tuple[int, int, int, int]] = []
    seq = 0
    def push_pairs(j: int) -> None:
        nonlocal seq
        for i in range(j):
            l = lcm_monomial(basis[i].lead, basis[j].lead)
            heapq.heappush(heap, (total_degree(l), seq, i, j))
            seq += 1
    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        tick(deadline)
        _, _, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if vec_add(f.lead, g.lead) == lcm_monomial(f.lead, g.lead):
            continue  # coprime leads: S-pair reduces to zero
        sp = s_pair(f, g, order)
        nf = normal_form(sp, basis, order, deadline)
        if nf is not None:
            basis.append(nf)
            push_pairs(len(basis) - 1)
    kept = _interreduce(_minimalize(basis, order), order, deadline)
    kept.sort(key=cmp_to_key(lambda a, b: compare(order, a.lead, b.lead)))
    return GroebnerBasis(order, tuple(kept), reduced=True, minimal=True)


def is_groebner(candidate, order: Order, deadline: Optional[Deadline] = None) -> bool:
    """Buchberger criterion by full reduction of every S-pair (no skips)."""
    _require_global(order)
    els = [oriented(b.lead, b.tail, order) for b in _elements(candidate)]
    if any(b is None for b in els):
        raise InputError("candidate contains a zero binomial")
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            tick(deadline)
            sp = s_pair(els[i], els[j], order)
            if normal_form(sp, els, order, deadline) is not None:
                return False
    return True


def homogenize_ideal(gb: GroebnerBasis, x0: Optional[int] = None) -> GroebnerBasis:
    """Homogenize a reduced degree-revlex basis elementwise; x0 sits lowest.

    The balancing variable is the fresh slot appended after the existing
    ones.  Leads are unchanged as monomials in the old variables, which is
    asserted: the initial ideal before and after agree.
    """
    if not isinstance(gb, GroebnerBasis):
        raise InputError("homogenize_ideal expects a GroebnerBasis")
    if gb.order.grading != "degree" or gb.order.tiebreak != "revlex" or gb.order.blocks:
        raise InputError("homogenization needs a degree-graded revlex order")
    n = gb.order.nvars
    if x0 is not None and x0 != n:
        raise InputError(f"the fresh variable slot is {n}")
    ext_order = Order("degree", "revlex", gb.order.priority + (n,), homog_index=n)
    out = []
    for b in gb.elements:
        hb = homogenize(Binomial(b.lead + (0,), b.tail + (0,)), n)
        assert compare(ext_order, hb.lead, hb.tail) == GT
        assert hb.lead[:n] == b.lead
        out.append(hb)
    return GroebnerBasis(ext_order, tuple(out), gb.reduced, gb.minimal)


def lazard_order(local_order: Order) -> Order:
    """Global order on one extra variable whose restriction computes the local
    order's leads: total degree (balancing variable included) first, then the
    local comparison on the original variables."""
    n = local_order.nvars
    return Order("lazard", local_order.tiebreak, local_order.priority + (n,),
                 homog_index=n)


def standard_basis_local(gens, local_order: Order,
                         deadline: Optional[Deadline] = None) -> GroebnerBasis:
    """Minimal standard basis: leads generate the initial ideal of the local order."""
    if not local_order.is_local():
        raise InputError("standard_basis_local needs a negative-degree order")
    n = local_order.nvars
    ext = []
    for b in _elements(gens):
        if b.lead == b.tail:
            continue
        ext.append(homogenize(Binomial(b.lead + (0,), b.tail + (0,)), n))
    gb = buchberger(ext, lazard_order(local_order), deadline)
    out = []
    for b in gb.elements:
        db = dehomogenize(b, n)
        if db is None:
            continue
        ob = oriented(db.lead[:n], db.tail[:n], local_order)
        assert ob is not None
        if ob not in out:
            out.append(ob)
    kept = _minimalize(out, local_order)
    kept.sort(key=cmp_to_key(lambda a, b: compare(local_order, a.lead, b.lead)))
    return GroebnerBasis(local_order, tuple(kept), reduced=False, minimal=True)


InitialForm = Union[Binomial, Vec]


def initial_forms_ideal(gens, local_order: Order,
                        deadline: Optional[Deadline] = None) -> list[InitialForm]:
    """Least-degree homogeneous parts of a standard basis.

    A part is the bare lead monomial when the two sides have different total
    degrees, the whole binomial when they tie.  Raises when the input's leads
    do not already generate the initial ideal (i.e. it is not a standard basis).
    """
    if not local_order.is_local():
        raise InputError("initial forms are taken under a local order")
    els = []
    for b in _elements(gens):
        ob = oriented(b.lead, b.tail, local_order)
        if ob is not None:
            els.append(ob)
    sb = standard_basis_local(els, local_order, deadline)
    for b in sb.elements:
        if not any(divides(g.lead, b.lead) for g in els):
            raise InputError("input is not a standard basis: its leads miss "
                             f"the initial-ideal generator {b.lead}")
    out: list[InitialForm] = []
    for b in els:
        if total_degree(b.lead) < total_degree(b.tail):
            out.append(b.lead)
        else:
            out.append(b)
    return out
