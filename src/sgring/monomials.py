"""Exponent vectors, pure-difference binomials, and monomial orders.

A monomial is an exponent tuple over a fixed, ordered variable list; variable
names live with the ideal that owns them, not here.  Coefficients are fixed to
+1/-1 throughout the package (every ideal in scope is a pure-difference
lattice ideal), so a binomial is an ordered pair of exponent tuples and no
field arithmetic exists anywhere.

The same tuples double as points of N^d (semigroup elements and degrees);
`BinomialIdeal` ties a generating set to the degree map it is homogeneous for.

A monomial order is its sort key: `Order.key` maps a monomial to a tuple
whose lexicographic comparison is the order, so callers sort and orient on
keys.  Every order here is graded revlex, globally or block by block:
degree revlex, negative-degree revlex and degree-revlex block orders.
"""
from __future__ import annotations

from operator import add, itemgetter, le, neg, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import Frozen, InputError

Vec = tuple[int, ...]


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError("monomials of different lengths")
    return tuple(map(add, u, v))


def scale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def total_degree(m: Vec) -> int:
    return sum(m)


def lcm_monomial(m1: Vec, m2: Vec) -> Vec:
    if len(m1) != len(m2):
        raise ValueError("monomials of different lengths")
    return tuple(map(max, m1, m2))


def divides(m1: Vec, m2: Vec) -> bool:
    if len(m1) != len(m2):
        raise ValueError("monomials of different lengths")
    return all(map(le, m1, m2))


def quotient(m1: Vec, m2: Vec) -> Vec:
    """m1 / m2, defined only when m2 divides m1."""
    if not divides(m2, m1):
        raise InputError(f"{m2} does not divide {m1}")
    return tuple(map(sub, m1, m2))


class Binomial(NamedTuple):
    """lead - tail with coefficients +1/-1; lead is order-maximal once normalized."""

    lead: Vec
    tail: Vec


# The zero marker is None; every constructor that can cancel returns Optional.


def gamma_degree(m: Vec, degree_map: Sequence[Vec]) -> Vec:
    """Image of a monomial under the monomial map: sum of exponent * variable degree."""
    out = (0,) * len(degree_map[0])
    for e, d in zip(m, degree_map):
        if e:
            out = vec_add(out, scale(e, d))
    return out


class BinomialIdeal(Frozen):
    """Binomial generators over named variables, each checked homogeneous
    for the degree map (one degree vector per variable)."""

    __slots__ = _fields = ("variables", "generators", "degree_map")
    variables: tuple[str, ...]
    generators: tuple[Binomial, ...]
    degree_map: tuple[Vec, ...]

    def __init__(self, variables: tuple[str, ...], generators: tuple[Binomial, ...],
                 degree_map: tuple[Vec, ...]):
        if len(variables) != len(degree_map):
            raise InputError("one degree vector per variable required")
        for b in generators:
            if len(b.lead) != len(variables):
                raise InputError("generator does not match the variable set")
            if gamma_degree(b.lead, degree_map) != gamma_degree(b.tail, degree_map):
                raise InputError(f"generator {b} is not homogeneous for the degree map")
        self._set(variables=variables, generators=generators, degree_map=degree_map)

    def __iter__(self):
        return iter(self.generators)


class Order(Frozen):
    """A graded revlex monomial order: grading and variable priority
    (highest first).

    grading "negdegree" marks a local order (not a well-order); callers must
    route those through the standard-basis machinery, which runs on ideals
    homogeneous for a positive weight.  blocks, when set, splits
    the priority list into consecutive nonempty blocks compared left to
    right; the first block then eliminates.

    Every such order is a matrix order (Robbiano, Term orderings on the
    polynomial ring, EUROCAL 1985): `key` maps a monomial to a tuple whose
    lexicographic comparison is the order, and is the only code that ranks
    monomials.  The constructor builds it once from the three fields; it is
    not one of them, so equality, hash and repr ignore it.
    """

    __slots__ = ("grading", "priority", "blocks", "key")
    _fields = ("grading", "priority", "blocks")
    grading: str
    priority: Vec
    blocks: Optional[Vec]
    key: Callable[[Vec], Vec]

    def __init__(self, grading: str, priority: Vec, blocks: Optional[Vec] = None):
        if grading not in ("degree", "negdegree"):
            raise InputError(f"unknown grading {grading!r}")
        if sorted(priority) != list(range(len(priority))):
            raise InputError("priority must be a permutation of variable indices")
        if blocks is not None and sum(blocks) != len(priority):
            raise InputError("block sizes must cover the priority list")
        if blocks is not None and any(size < 1 for size in blocks):
            raise InputError("block sizes must be at least 1")
        self._set(grading=grading, priority=priority, blocks=blocks,
                  key=_sort_key(grading, priority, blocks))

    @property
    def nvars(self) -> int:
        return len(self.priority)

    def is_local(self) -> bool:
        return self.grading == "negdegree"


def _sort_key(grading: str, priority: Vec, blocks: Optional[Vec]) -> Callable[[Vec], Vec]:
    """`Order.key`: the sort key of m is, block by block, the block's degree
    (negated for "negdegree"), then its exponents negated in reverse
    priority order.  Each block reads its exponents with one getter."""
    nvars = len(priority)
    sign = 1 if grading == "degree" else -1
    picks = []
    pos = 0
    for size in blocks or (nvars,):
        chunk = priority[pos:pos + size][::-1]
        pos += size
        picks.append(itemgetter(*chunk) if size > 1 else
                     (lambda m, i=chunk[0]: (m[i],)) if size else (lambda m: ()))

    def key(m: Vec) -> Vec:
        if len(m) != nvars:
            raise InputError("monomial does not match the order's variable set")
        out: Vec = ()
        for pick in picks:
            part = pick(m)
            out += (sign * sum(part), *map(neg, part))
        return out

    return key


def _natural(nvars: int, priority: Optional[Vec]) -> Vec:
    priority = tuple(range(nvars)) if priority is None else tuple(priority)
    if len(priority) != nvars:
        raise InputError(f"priority {priority} does not order {nvars} variables")
    return priority


def degrevlex(nvars: int, priority: Optional[Vec] = None) -> Order:
    return Order("degree", _natural(nvars, priority))


def negdegrevlex(nvars: int, priority: Optional[Vec] = None) -> Order:
    return Order("negdegree", _natural(nvars, priority))


def elimination_order(nelim: int, nvars: int) -> Order:
    """Block order eliminating the first nelim variables; degrevlex inside blocks."""
    return Order("degree", tuple(range(nvars)), blocks=(nelim, nvars - nelim))


def oriented(lead: Vec, tail: Vec, order: Order) -> Optional[Binomial]:
    """Normalize so lead is order-maximal; None is the zero marker."""
    k1, k2 = order.key(lead), order.key(tail)
    if k1 == k2:
        return None
    return Binomial(lead, tail) if k1 > k2 else Binomial(tail, lead)


def s_pair(f: Binomial, g: Binomial, order: Order) -> Optional[Binomial]:
    """S(f,g) = (lcm/LM(f))*f - (lcm/LM(g))*g, normalized; None when it cancels.

    Unit coefficients keep the result a pure difference: the lcm terms cancel
    exactly and the two cofactored tails either differ or cancel to zero.
    """
    l = lcm_monomial(f.lead, g.lead)
    u = vec_add(quotient(l, f.lead), f.tail)
    v = vec_add(quotient(l, g.lead), g.tail)
    if u == v:
        return None
    return oriented(u, v, order)


def homogenize(b: Binomial, x0: int) -> Binomial:
    """Pad the lower-degree side with x0 so both sides have equal total degree."""
    if b.lead[x0] or b.tail[x0]:
        raise InputError("homogenizing variable already used")
    d = total_degree(b.lead) - total_degree(b.tail)
    if d == 0:
        return b
    pad = lambda m, k: tuple(e + k if i == x0 else e for i, e in enumerate(m))
    if d > 0:
        return Binomial(b.lead, pad(b.tail, d))
    return Binomial(pad(b.lead, -d), b.tail)


def format_monomial(m: Vec, names: tuple[str, ...]) -> str:
    parts = []
    for e, name in zip(m, names, strict=True):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_binomial(b: Optional[Binomial], names: tuple[str, ...]) -> str:
    if b is None:
        return "0"
    return f"{format_monomial(b.lead, names)} - {format_monomial(b.tail, names)}"
