"""Defining binomial ideals of semigroup rings.

toric_ideal computes the kernel of the monomial map attached to a semigroup,
by one route per semigroup kind.  For a numerical semigroup it links the
connected components of divisor graphs, which yields a minimal generating set
directly (Briales, Campillo, Marijuan, Pison, JPAA 124, 1998).  Only the
degrees w + n_i with w in Ap(S, n_1) and i >= 2 are tested: every degree with
a disconnected divisor graph has that form, so at most n_1 * (e - 1) degrees
are examined whatever the size of the integers.  For an affine semigroup it
eliminates auxiliary variables through the Buchberger engine.

The toric ideal, its reduced basis and its local standard basis are built
once per semigroup object; only this module fixes their monomial orders.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Optional, Sequence, Union

from .errors import Deadline, InputError, tick
from .groebner import GroebnerBasis, _elements, buchberger, standard_basis_local
from .monomials import (
    Binomial,
    Order,
    Vec,
    compare,
    degrevlex,
    elimination_order,
    negdegrevlex,
    oriented,
    scale,
    vec_add,
)
from .semigroups import AffineSemigroup, GluingSpec, NumericalSemigroup, artifact


def gamma_degree(m: Vec, degree_map: Sequence[Vec]) -> Vec:
    """Image of a monomial under the monomial map: sum of exponent * variable degree."""
    out = (0,) * len(degree_map[0])
    for e, d in zip(m, degree_map):
        if e:
            out = vec_add(out, scale(e, d))
    return out


@dataclass(frozen=True)
class BinomialIdeal:
    variables: tuple[str, ...]
    generators: tuple[Binomial, ...]
    degree_map: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.degree_map):
            raise InputError("one degree vector per variable required")
        for b in self.generators:
            if len(b.lead) != len(self.variables):
                raise InputError("generator does not match the variable set")
            if gamma_degree(b.lead, self.degree_map) != gamma_degree(b.tail, self.degree_map):
                raise InputError(f"generator {b} is not homogeneous for the degree map")

    def __iter__(self):
        return iter(self.generators)


def _canonical(els, order: Order) -> tuple[Binomial, ...]:
    def cmp(a: Binomial, b: Binomial) -> int:
        return compare(order, a.lead, b.lead) or compare(order, a.tail, b.tail)

    out = [oriented(b.lead, b.tail, order) for b in els]
    if any(b is None for b in out):
        raise InputError("zero binomial in generating set")
    return tuple(sorted(set(out), key=cmp_to_key(cmp)))


def _x_names(e: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(e))


def _toric_by_elimination(vecs: tuple[Vec, ...], deadline) -> list[Binomial]:
    d, e = len(vecs[0]), len(vecs)
    gens = []
    for j, a in enumerate(vecs):
        lead = a + (0,) * e
        tail = (0,) * d + tuple(1 if i == j else 0 for i in range(e))
        gens.append(Binomial(lead, tail))
    gb = buchberger(gens, elimination_order(d, d + e), deadline)
    out = []
    for b in gb.elements:
        if not any(b.lead[:d]) and not any(b.tail[:d]):
            out.append(Binomial(b.lead[d:], b.tail[d:]))
    return out


def _toric_by_divisor_graphs(s: NumericalSemigroup, deadline) -> list[Binomial]:
    """Link the components of the divisor graph of every degree that can
    have more than one.  The graph of b has a vertex i when b - n_i is a
    member and an edge ij when b - n_i - n_j is.  If it has two components,
    take i in one without n_1: then b - n_i is a member while b - n_i - n_1
    is not (else i and 1 would be adjacent), so b - n_i lies in Ap(S, n_1)
    and i >= 2.  Scanning the degrees w + n_i, w in Ap(S, n_1), 2 <= i <= e,
    all of them members, therefore misses none.
    """
    gens = s.generators
    e = len(gens)

    def factorization(v: int) -> list[int]:
        fac = [0] * e
        while v:
            for i, g in enumerate(gens):
                if v >= g and (v - g) in s:
                    fac[i] += 1
                    v -= g
                    break
            else:  # pragma: no cover - v is always a member here
                raise AssertionError
        return fac

    out: list[Binomial] = []
    for b in sorted({w + g for w in s._apery_by_residue for g in gens[1:]}):
        tick(deadline)
        verts = [i for i, g in enumerate(gens) if b >= g and (b - g) in s]
        if len(verts) < 2:
            continue
        comp = {i: i for i in verts}

        def find(i: int) -> int:
            while comp[i] != i:
                comp[i] = comp[comp[i]]
                i = comp[i]
            return i

        for ii, i in enumerate(verts):
            for j in verts[ii + 1:]:
                rest = b - gens[i] - gens[j]
                if rest >= 0 and rest in s:
                    comp[find(i)] = find(j)
        roots = sorted({find(i) for i in verts})
        if len(roots) < 2:
            continue
        reps = []
        for r in roots:
            fac = factorization(b - gens[r])
            fac[r] += 1
            reps.append(tuple(fac))
        out.extend(Binomial(reps[0], rep) for rep in reps[1:])
    return out


def toric_ideal(s: Union[NumericalSemigroup, AffineSemigroup],
                deadline: Optional[Deadline] = None) -> BinomialIdeal:
    """Generators of the kernel of the monomial map x_i -> t^{a_i}.

    A numerical semigroup gets a minimal generating set from its divisor
    graphs; an affine semigroup gets the elimination basis.  Built once per
    semigroup object.
    """
    def build() -> BinomialIdeal:
        if isinstance(s, NumericalSemigroup):
            vecs = tuple((g,) for g in s.generators)
            raw = _toric_by_divisor_graphs(s, deadline)
        else:
            vecs = s.generators
            raw = _toric_by_elimination(vecs, deadline)
        e = len(vecs)
        return BinomialIdeal(_x_names(e), _canonical(raw, degrevlex(e)), vecs)

    return artifact(s, "toric_ideal", build)


def reduced_basis(s: Union[NumericalSemigroup, AffineSemigroup],
                  deadline: Optional[Deadline] = None) -> GroebnerBasis:
    """Reduced degree-revlex basis of the toric ideal; built once per semigroup object."""
    return artifact(s, "reduced_basis", lambda: buchberger(
        toric_ideal(s, deadline).generators, degrevlex(len(s.generators)), deadline))


def local_basis(s: Union[NumericalSemigroup, AffineSemigroup],
                deadline: Optional[Deadline] = None) -> GroebnerBasis:
    """Minimal standard basis of the toric ideal under negative-degree revlex
    with x_1 (the multiplicity variable) lowest; built once per semigroup object."""
    def build() -> GroebnerBasis:
        e = len(s.generators)
        local = negdegrevlex(e, tuple(range(e - 1, -1, -1)))
        return standard_basis_local(toric_ideal(s, deadline).generators, local, deadline)

    return artifact(s, "local_basis", build)


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


def ideal_equals(i: BinomialIdeal, j: BinomialIdeal,
                 deadline: Optional[Deadline] = None) -> bool:
    """Reduced bases under the canonical degree-revlex order coincide."""
    if len(i.variables) != len(j.variables):
        raise InputError("ideals live in different ambient rings")
    order = degrevlex(len(i.variables))
    gi = buchberger(i.generators, order, deadline)
    gj = buchberger(_align(i, j), order, deadline)
    return gi.elements == gj.elements
