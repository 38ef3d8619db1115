"""Exact linear algebra: ranks, determinants and cones.

No floats anywhere.  Ranks run sparse Gaussian elimination, in integers
while the pivots are ±1 and in `Fraction` otherwise.  Determinants run
Bareiss elimination in integers.  A cone is kept as its integer facet
normals and the equalities of its span (`cone_facets`), so a point test
(`in_cone`) is a few dot products; `nonneg_solve` builds them for one
question.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from operator import mul, neg
from typing import Sequence, Union

from .errors import tick


def rational_rank(rows: Sequence[Union[Sequence[int], Mapping[object, int]]]) -> int:
    """Rank over Q of an integer matrix given as rows: sequences or
    {column: value} maps.  Sparse Gaussian elimination: each step pivots on
    the shortest remaining row, at a ±1 entry when it has one (the update
    stays integral) and else at its first entry, dividing exactly in
    Fraction, and clears that column from the other rows."""
    pending = [{c: v for c, v in (r.items() if isinstance(r, Mapping) else enumerate(r)) if v}
               for r in rows]
    rank = 0
    while pending := [r for r in pending if r]:
        tick()
        row = min(pending, key=len)
        col = next((c for c, v in row.items() if v in (1, -1)), next(iter(row)))
        p = row[col]
        for other in pending:
            a = other.get(col)
            if a and other is not row:
                f = a * p if p in (1, -1) else Fraction(a, p)
                for c, v in row.items():
                    w = other.get(c, 0) - f * v
                    if w:
                        other[c] = w
                    else:
                        del other[c]
        row.clear()
        rank += 1
    return rank


Facets = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination: after
    step k each entry is a minor of order k + 2, so every division is exact."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def normal(vecs: Sequence[tuple[int, ...]], d: int) -> tuple[int, ...]:
    """The primitive integer vector orthogonal to d - 1 vectors of Z^d: their
    signed maximal minors (the generalized cross product), divided by their
    gcd; zero when the vectors are dependent."""
    n = [(-1) ** i * det([v[:i] + v[i + 1:] for v in vecs]) for i in range(d)]
    g = math.gcd(*n)
    return tuple(c // g for c in n) if g else tuple(n)


def cone_facets(cols: Sequence[Sequence[int]]) -> Facets:
    """The cone {sum_j lam_j * cols[j] : lam >= 0} of a nonempty list of
    vectors of Z^d as (N, Q): the primitive inward normals N of its facets
    and integer forms Q that cut out its span.  A point x is in the cone
    iff <q, x> = 0 for every q in Q and <n, x> >= 0 for every n in N
    (`in_cone`): by Minkowski-Weyl a polyhedral cone is its span cut by the
    half-spaces of its facets.

    Why it is exact.  Let B be a basis of the span, taken greedily from
    cols (r = |B|), and U the unit vectors, taken greedily too, that
    complete B to a basis of Q^d.
    - Q holds the normal of B and U - {u}, for each u in U.  It vanishes on
      the span and not on u, so these d - r forms are independent and cut
      out the span.
    - Every facet, a face of dimension r - 1, contains r - 1 independent
      columns T.  The form on the span that vanishes on T is unique up to
      scale, and extended by 0 on U it is the normal of T and U.  So trying
      every (r - 1)-subset of cols finds every facet.
    - Conversely, a nonzero normal of some T and U is nonzero on the span,
      since it would otherwise vanish on the basis B and U.  When every
      column lies on one side of it, it supports a proper face that holds
      the r - 1 independent columns T: a facet.  A normal with columns on
      both sides supports no face and is dropped.
    - When d = 1 the normal of no vectors is (1).  A single ray (r = 1) is
      cut out by Q and the one normal of U.  A cone that does not span Q^d
      has Q nonempty and is otherwise handled alike.
    The build checks the deadline once per candidate subset.
    """
    cols = [tuple(c) for c in cols]
    d = len(cols[0])
    basis: list[tuple[int, ...]] = []
    units: list[tuple[int, ...]] = []
    for v in cols + [tuple(int(i == j) for j in range(d)) for i in range(d)]:
        if rational_rank(basis + units + [v]) > len(basis) + len(units):
            (basis if v in cols else units).append(v)
    eqs = tuple(normal(basis + [v for v in units if v != u], d) for u in units)
    facets = set()
    for face in combinations(cols, len(basis) - 1):
        tick()
        n = normal(list(face) + units, d)
        dots = [sum(map(mul, n, c)) for c in cols]
        if any(n) and (min(dots) >= 0 or max(dots) <= 0):
            facets.add(n if max(dots) > 0 else tuple(map(neg, n)))
    return tuple(sorted(facets)), eqs


def in_cone(facets: Facets, x: Sequence[int]) -> bool:
    """x lies in the cone whose `cone_facets` these are."""
    normals, eqs = facets
    return (all(sum(map(mul, q, x)) == 0 for q in eqs)
            and all(sum(map(mul, n, x)) >= 0 for n in normals))


def nonneg_solve(cols: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Whether sum_j lam_j * cols[j] = target has a solution lam >= 0 over Q,
    that is whether target lies in the cone of cols (the origin alone when
    cols is empty)."""
    return in_cone(cone_facets(cols), target) if cols else not any(target)
