"""Lazard's route to local standard bases, kept as a test oracle, and the
three-way comparison of monomials that the order tests read.

Homogenize with a balancing variable x0 appended last, run the global
Buchberger engine under an order that compares total degree first and then
the local order on the original variables, set x0 = 1 and minimalize
(Lazard, EUROCAL 1983).  It shares only the global engine with
`groebner.standard_basis_local`, which runs the loop under the local order
itself, so agreeing leads check that route.
"""
from functools import cmp_to_key
from typing import Optional

from sgring.groebner import GroebnerBasis, _minimalize, buchberger
from sgring.monomials import Binomial, Order, homogenize, oriented

LT, EQ, GT = -1, 0, 1


def compare(order: Order, m1, m2) -> int:
    """Total order on monomials by `Order.key`: returns LT, EQ or GT."""
    k1, k2 = order.key(m1), order.key(m2)
    return (k1 > k2) - (k1 < k2)


def lazard_compare(local_order: Order, m1, m2) -> int:
    """The Lazard order on the original variables plus x0 (the last slot):
    total degree first, then the local order with x0 left out."""
    d1, d2 = sum(m1), sum(m2)
    if d1 != d2:
        return GT if d1 > d2 else LT
    return compare(local_order, m1[:-1], m2[:-1])


def lazard_order(local_order: Order) -> Order:
    """A global order equal to `lazard_compare` on monomials of one total
    degree: x0's exponent first (the larger wins, so the smaller degree in
    the original variables wins), then degree and the local order's revlex
    tie-break on the original variables.  Buchberger on homogenized input
    only compares monomials of one total degree, so it runs as under the
    Lazard order."""
    n = local_order.nvars
    return Order("degree", (n,) + local_order.priority, blocks=(1, n))


def dehomogenize(b: Binomial, x0: int) -> Optional[Binomial]:
    """Zero out x0's exponent on both sides; None if the sides then collide."""
    zero = lambda m: tuple(0 if i == x0 else e for i, e in enumerate(m))
    lead, tail = zero(b.lead), zero(b.tail)
    if lead == tail:
        return None
    return Binomial(lead, tail)


def lazard_standard_basis(gens, local_order: Order) -> GroebnerBasis:
    """Minimal standard basis by Lazard's route; tails are not interreduced."""
    n = local_order.nvars
    ext = [homogenize(Binomial(b.lead + (0,), b.tail + (0,)), n)
           for b in gens if b.lead != b.tail]
    gb = buchberger(ext, lazard_order(local_order))
    els = sorted(gb.elements, key=cmp_to_key(
        lambda a, b: lazard_compare(local_order, a.lead, b.lead)))
    out = []
    for b in els:
        db = dehomogenize(b, n)
        if db is None:
            continue
        ob = oriented(db.lead[:n], db.tail[:n], local_order)
        if ob not in out:
            out.append(ob)
    kept = _minimalize(out, local_order)
    kept.sort(key=cmp_to_key(lambda a, b: compare(local_order, a.lead, b.lead)))
    return GroebnerBasis(local_order, tuple(kept))
