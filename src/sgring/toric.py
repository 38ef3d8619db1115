"""Defining binomial ideals of semigroup rings.

toric_ideal computes the kernel of the monomial map attached to a semigroup,
by one route per semigroup kind.  For a numerical semigroup it links the
connected components of divisor graphs, which yields a minimal generating set
directly (Briales, Campillo, Marijuan, Pison, JPAA 124, 1998; Rosales and
Garcia-Sanchez, Numerical Semigroups, 2009, ch. 7).  Every degree with a
disconnected divisor graph is some w + n_i with w in Ap(S, n_1) and i >= 2,
one per residue mod n_1 and generator.  Within a residue class the graph
only grows with the degree, so the graphs of all n_1 candidates of n_i are
read at once from bit boards, one per vertex and edge, with a lane per
residue; only the degrees whose graph is disconnected are factored.  Time
and memory follow e^2 * n_1 lanes whatever the size of the integers.  For an
affine semigroup it eliminates auxiliary variables through the Buchberger
engine.

The toric ideal, its reduced basis and its local standard basis are built
once per semigroup object; only this module fixes their monomial orders.
"""
from __future__ import annotations

from array import array
from itertools import combinations

from .affine import GluingSpec, iter_bits
from .errors import InputError, tick
from .groebner import GroebnerBasis, _elements, buchberger, standard_basis_local
from .monomials import (
    Binomial,
    BinomialIdeal,
    Order,
    Vec,
    degrevlex,
    elimination_order,
    negdegrevlex,
    oriented,
)
from .semigroups import NumericalSemigroup, Semigroup, artifact


def _canonical(els, order: Order) -> tuple[Binomial, ...]:
    out = [oriented(b.lead, b.tail, order) for b in els]
    if any(b is None for b in out):
        raise InputError("zero binomial in generating set")
    return tuple(sorted(set(out), key=lambda b: (order.key(b.lead), order.key(b.tail))))


def _x_names(e: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(e))


def _toric_by_elimination(vecs: tuple[Vec, ...]) -> list[Binomial]:
    d, e = len(vecs[0]), len(vecs)
    gens = []
    for j, a in enumerate(vecs):
        lead = a + (0,) * e
        tail = (0,) * d + tuple(1 if i == j else 0 for i in range(e))
        gens.append(Binomial(lead, tail))
    gb = buchberger(gens, elimination_order(d, d + e))
    out = []
    for b in gb.elements:
        if not any(b.lead[:d]) and not any(b.tail[:d]):
            out.append(Binomial(b.lead[d:], b.tail[d:]))
    return out


def _toric_by_divisor_graphs(s: NumericalSemigroup) -> list[Binomial]:
    """Link the components of the divisor graph of every degree that has
    more than one.  The graph of b has a vertex i when b - n_i is a member
    and an edge ij when b - n_i - n_j is.  If it has two components, take i
    in one without n_1: then b - n_i is a member while b - n_i - n_1 is not
    (else i and 1 would be adjacent), so b - n_i lies in Ap(S, n_1) and
    i >= 2.  Every disconnected degree is therefore some w + n_i, w in
    Ap(S, n_1), 2 <= i <= e.

    Membership reads Ap(S, n_1): x is a member iff x >= Ap[x mod n_1].  So
    for a shift t (n_j for a vertex, n_j + n_k for an edge) and a residue
    rho, b - t is a member for the degrees b = rho (mod n_1) at or above
    the threshold T_t[rho] = Ap[(rho - t) mod n_1] + t, and for no other:
    along one residue class the graph only gains vertices and edges as b
    grows, and the candidates of generator i are the degrees
    b = T_{n_i}[rho], one per residue.  The graph at such a b has the
    vertices and edges whose thresholds are at most b.

    Every threshold of the class of rho is rho + n_1 * H, so thresholds
    are ordered by their heights H, all below `top`.  The heights of one shift,
    for all residues, are one integer with a lane of `lane` bits per
    residue: the lanes of Ap // n_1, rotated by t mod n_1 lanes, plus
    t // n_1, plus 1 in the lanes below t mod n_1.  A lane keeps its top
    bit free, so (H' + guard) - H carries no borrow between lanes and
    leaves the top bit of lane rho set exactly when H[rho] <= H'[rho]: each
    vertex and edge of every candidate graph of generator i is one
    subtraction, a board with a bit per residue.  The component of vertex i
    grows through the edge boards until it stops; a vertex board's bits
    left outside it are the disconnected degrees, and only those go through
    the union-find and the factorizations below.

    Memory: e + e(e - 1)/2 height integers, plus the edge boards and the
    component of one generator at a time, each of n_1 lanes.  An Apery
    element sums at most n_1 - 1 generators, so `top` is below 2 * n_e + 1
    and a lane has 8 to 64 bits unless n_e passes 2^62.
    """
    gens, ap = s.generators, s._apery_by_residue
    e, n1 = len(gens), gens[0]
    quot = [w // n1 for w in ap]
    top = max(quot) + sum(gens[-2:]) // n1 + 1
    lane = 8
    while top.bit_length() >= lane:
        lane *= 2
    if lane <= 64:
        raw = array({8: "B", 16: "H", 32: "I", 64: "Q"}[lane], quot).tobytes()
    else:
        raw = b"".join(h.to_bytes(lane // 8, "little") for h in quot)
    packed = int.from_bytes(raw, "little")
    del quot, raw
    width = n1 * lane
    full = (1 << width) - 1
    ones = full // ((1 << lane) - 1)
    guard = ones << (lane - 1)

    def heights(t: int) -> int:
        a, r = divmod(t, n1)
        cut = r * lane
        rotated = (packed << cut) & full | packed >> (width - cut)
        return rotated + a * ones + (ones & ((1 << cut) - 1))

    vert = []
    for g in gens:
        tick()
        vert.append(heights(g))
    edges = []
    for j, k in combinations(range(e), 2):
        tick()
        edges.append((j, k, heights(gens[j] + gens[k])))

    def unreached(i: int) -> int:
        """The board of the candidate degrees of generator i whose graph
        leaves a vertex outside the component of i."""
        ceiling = vert[i] + guard
        links = [(j, k, (ceiling - h) & guard) for j, k, h in edges]
        reach = [0] * e
        reach[i] = guard
        grown = True
        while grown:
            tick()
            grown = False
            for j, k, board in links:
                via = (reach[j] | reach[k]) & board
                if via & ~(reach[j] & reach[k]):
                    reach[j] |= via
                    reach[k] |= via
                    grown = True
        lost = 0
        for j, h in enumerate(vert):
            lost |= (ceiling - h) & guard & ~reach[j]
        return lost

    degrees: set[int] = set()
    for i in range(1, e):
        tick()
        for bit in iter_bits(unreached(i), width):
            degrees.add(ap[(bit // lane - gens[i]) % n1] + gens[i])

    def factorization(v: int) -> list[int]:
        # n_1 as often as it goes, down to w = Ap[v mod n_1]; then each step
        # lands on the Apery element of another class: at most n_1 - 1 steps
        w = ap[v % n1]
        fac = [(v - w) // n1] + [0] * (e - 1)
        while w:
            i = next(i for i in range(1, e) if w - gens[i] >= ap[(w - gens[i]) % n1])
            fac[i] += 1
            w -= gens[i]
        return fac

    out: list[Binomial] = []
    for b in sorted(degrees):
        tick()
        verts = [i for i, g in enumerate(gens) if b - g >= ap[(b - g) % n1]]
        comp = {i: i for i in verts}

        def find(i: int) -> int:
            while comp[i] != i:
                comp[i] = comp[comp[i]]
                i = comp[i]
            return i

        for ii, i in enumerate(verts):
            for j in verts[ii + 1:]:
                rest = b - gens[i] - gens[j]
                if rest >= ap[rest % n1]:
                    comp[find(i)] = find(j)
        roots = sorted({find(i) for i in verts})
        reps = []
        for r in roots:
            fac = factorization(b - gens[r])
            fac[r] += 1
            reps.append(tuple(fac))
        out.extend(Binomial(reps[0], rep) for rep in reps[1:])
    return out


@artifact
def toric_ideal(s: Semigroup) -> BinomialIdeal:
    """Generators of the kernel of the monomial map x_i -> t^{a_i}.

    A numerical semigroup gets a minimal generating set from its divisor
    graphs; an affine semigroup gets the elimination basis.
    """
    if isinstance(s, NumericalSemigroup):
        vecs = tuple((g,) for g in s.generators)
        raw = _toric_by_divisor_graphs(s)
    else:
        vecs = s.generators
        raw = _toric_by_elimination(vecs)
    e = len(vecs)
    return BinomialIdeal(_x_names(e), _canonical(raw, degrevlex(e)), vecs)


@artifact
def reduced_basis(s: Semigroup) -> GroebnerBasis:
    """Reduced degree-revlex basis of the toric ideal."""
    return buchberger(toric_ideal(s).generators, degrevlex(len(s.generators)))


@artifact
def local_basis(s: Semigroup) -> GroebnerBasis:
    """Reduced standard basis of the toric ideal under negative-degree revlex
    with x_1 (the multiplicity variable) lowest."""
    e = len(s.generators)
    local = negdegrevlex(e, tuple(range(e - 1, -1, -1)))
    return standard_basis_local(toric_ideal(s), local)


def glued_ideal_generators(spec: GluingSpec, gb1, gb2) -> BinomialIdeal:
    """G1 over the x block, G2 over the y block, and the linking binomial
    rho = x^b - y^a, over the disjoint union of variables."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    pad1 = (0,) * e1
    pad2 = (0,) * e2
    els = [Binomial(b.lead + pad2, b.tail + pad2) for b in _elements(gb1)]
    els += [Binomial(pad1 + b.lead, pad1 + b.tail) for b in _elements(gb2)]
    els.append(Binomial(spec.b + pad2, pad1 + spec.a))
    names = _x_names(e1) + tuple(f"y{j + 1}" for j in range(e2))
    dmap = tuple((spec.q * m,) for m in spec.left.generators)
    dmap += tuple((spec.p * n,) for n in spec.right.generators)
    return BinomialIdeal(names, _canonical(els, degrevlex(e1 + e2)), dmap)


def _align(i: BinomialIdeal, j: BinomialIdeal) -> tuple[Binomial, ...]:
    """Permute j's variables so its degree map matches i's; identity if equal."""
    if i.degree_map == j.degree_map:
        return j.generators
    if sorted(i.degree_map) != sorted(j.degree_map):
        raise InputError("degree maps differ: the ideals live over different rings")
    take = {}
    used: set[int] = set()
    for pos, d in enumerate(j.degree_map):
        for target, dd in enumerate(i.degree_map):
            if target not in used and dd == d:
                take[pos] = target
                used.add(target)
                break
    n = len(i.degree_map)

    def perm(m: Vec) -> Vec:
        out = [0] * n
        for pos, exp in enumerate(m):
            out[take[pos]] = exp
        return tuple(out)

    return tuple(Binomial(perm(b.lead), perm(b.tail)) for b in j.generators)


def ideal_equals(i: BinomialIdeal, j: BinomialIdeal) -> bool:
    """Reduced bases under the canonical degree-revlex order coincide."""
    if len(i.variables) != len(j.variables):
        raise InputError("ideals live in different ambient rings")
    order = degrevlex(len(i.variables))
    gi = buchberger(i.generators, order)
    gj = buchberger(_align(i, j), order)
    return gi.elements == gj.elements
