"""Numerical semigroups, and what both semigroup classes share.

Membership, gaps, Apery sets, the max-factorization-length order function
and the Hilbert function of the associated graded ring, in exact integer
arithmetic.  Numerical membership reads the Apery set of the multiplicity;
the order function and the Hilbert function read the Apery table of the
powers of the maximal ideal, stored as runs of its columns (`AperyRuns`)
and built from step changes.  `Semigroup` is the base of both semigroup
classes, and each derived artifact of an instance, Ap(S, E) included, is
declared with `@artifact`, built once and never grown.

This module imports only `errors`, so numerical work loads neither the
monomial nor the linear-algebra layer.  Affine semigroups, the bitboard
member engine and the gluing, extension and join constructions live in
`affine`; `AffineSemigroup`, `glue`, `extend` and `join`, which the
benchmark scripts under `bench/` still import from here, are forwarded to
it on first use.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from functools import wraps
from itertools import compress
from operator import add, index, itemgetter, ne, not_
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .errors import Frozen, InputError, tick

T = TypeVar("T")


def as_int(value) -> int:
    """value as an int by `operator.index`, so 3.7, 2.0 and "3" raise
    InputError naming the value instead of being truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"expected an integer, got {value!r}") from None


class Semigroup(Frozen):
    """Base of `NumericalSemigroup` and `affine.AffineSemigroup`: the
    generators, and the dict of stored results that `artifact` fills."""

    __slots__ = ("generators", "_memo")


def artifact(build: Callable[..., T]) -> Callable[..., T]:
    """Declare build(s) a stored result of semigroup s: kept in the dict
    s._memo, which the constructor makes empty and only this decorator
    fills, under build's name when it first returns and never changed; a
    build cut short by the deadline scope of its thread (`errors.Deadline`)
    raises and stores nothing, so a later call with more time can finish
    it."""
    name = build.__name__

    @wraps(build)
    def stored(s) -> T:
        if not isinstance(s, Semigroup):
            raise InputError(f"expected a semigroup, got {type(s).__name__}")
        memo = s._memo
        if name not in memo:
            memo[name] = build(s)
        return memo[name]

    return stored


# ---------------------------------------------------------------------------
# numerical semigroups


class NumericalSemigroup(Semigroup):
    """Submonoid of N with gcd 1, stored by its minimal generators n_1 < ... < n_e.

    Every numerical question reads one engine, Ap(S, n_1) indexed by residue
    (`_apery_by_residue`), built by the constructor: membership, the
    Frobenius number, the gaps, minimality and the Gorenstein verdict take
    O(n_1) entries whatever the size of the integers.  `ord`, the Hilbert
    function and its stabilization index read the Apery table of the powers
    of the maximal ideal, whose first row is Ap(S, n_1), stored as the runs
    of its columns and its row sums (`AperyRuns`): `ord` bisects a column's
    runs, the Hilbert function reads the row sums and the stabilization
    index their count.  That table and the toric ideal with its bases are
    built once per instance by `artifact`.
    """

    __slots__ = ("_apery_by_residue",)
    _fields = ("generators",)
    generators: tuple[int, ...]

    def __init__(self, generators: Sequence[int]):
        """Sort and deduplicate the generators and check that they are
        coprime and minimal.  Ap(S, n_1) of the given generators, with n_1
        the least, is built under the deadline and decides minimality in e^2
        lookups: g is redundant iff g - h is a member for some generator
        h < g.  If g = h + t with t a member, a factorization of t < g
        cannot use g, so g lies in the semigroup of the other generators;
        conversely a factorization of g by the others uses some h, each of
        its terms is below g, and g - h is a member.  The least generator is
        never redundant, so n_1 is the multiplicity and the table is
        Ap(S, n_1) of the semigroup."""
        gens = tuple(sorted(set(map(as_int, generators))))
        if not gens or gens[0] <= 0:
            raise InputError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise InputError(f"gcd of generators {gens} must be 1")
        n1, apery = gens[0], _least_per_residue(gens, gens[0])
        redundant = [g for g in gens
                     if any(g - h >= apery[(g - h) % n1] for h in gens if h < g)]
        if redundant:
            raise InputError(f"generating set not minimal: {redundant} are redundant")
        self._set(generators=gens, _apery_by_residue=apery, _memo={})

    @property
    def embedding_dim(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    def membership(self, x: int) -> bool:
        """True iff x >= Ap(S, n_1)[x mod n_1], the least member congruent to x."""
        x = as_int(x)
        if x < 0:
            raise InputError("membership is defined on N")
        return x >= self._apery_by_residue[x % self.multiplicity]

    def __contains__(self, x: int) -> bool:
        return self.membership(x)

    def apery(self, m: int) -> list[int]:
        """Least member in each residue class mod m, sorted; m must be a nonzero member."""
        m = as_int(m)
        if m == 0 or not self.membership(m):
            raise InputError(f"{m} is not a nonzero member")
        return sorted(_least_per_residue(self.generators, m))

    def frobenius(self) -> int:
        """Largest integer outside the semigroup; -1 when the semigroup is N."""
        return max(self._apery_by_residue) - self.multiplicity

    def gaps(self) -> list[int]:
        """Sorted gaps: the residue class of each w in Ap(S, n_1) has the
        gaps w - n_1, w - 2 n_1, ... down to w mod n_1."""
        n1 = self.multiplicity
        return sorted(v for w in self._apery_by_residue for v in range(w % n1, w, n1))

    def pf_numeric(self) -> list[int]:
        """Pseudo-Frobenius numbers: integers f outside S with f + n_i in S for
        every generator; [-1] for S = N.

        They are the w - n_1 over the elements w of Ap(S, n_1) maximal in the
        semigroup order (Rosales, Garcia-Sanchez, Numerical Semigroups, 2009,
        Prop. 2.20): no w + n_i, i >= 2, lies in Ap(S, n_1), that is
        w + n_i - n_1 is a member.  O(n_1 * e) membership tests.
        """
        n1, rest = self.multiplicity, self.generators[1:]
        return sorted(w - n1 for w in self._apery_by_residue
                      if all(self.membership(w + g - n1) for g in rest))

    @artifact
    def apery_table(self) -> AperyRuns:
        """The Apery table of the powers of the maximal ideal M (Cortadellas
        Benitez, Jafari, Zarzuela, Semigroup Forum 86, 2013), stored as runs.
        Row l holds m_l(i), the least element of M^l congruent to i mod n_1:
        m_0 = Ap(S, n_1) and m_(l+1)(i) = min over generators g of
        g + m_l(i - g).  The table stops at the reduction number r, the first
        row whose successor is the row plus n_1, and r < n_1.

        Every column steps by 0 or n_1, and column i is flat into row l + 1
        exactly when some generator g != n_1 has slack
        g + m_l(i - g) - m_l(i) = 0 (the slack is never negative).  A slack
        moves by -n_1, 0 or n_1 from one row to the next, and only when
        columns i and i - g step differently.  So the build keeps one slack
        per column and generator, the number of zero slacks per column, and
        per generator the set of columns i that step unlike i - g; each row
        it updates those slacks alone.  A column whose zero count turns to
        or from 0 changes step, which toggles the pairs it belongs to in
        those sets.
        The deadline is checked once per row.
        """
        n1, ap = self.multiplicity, self._apery_by_residue
        shifts = [(g, g % n1) for g in self.generators[1:]]
        # slack[j][i] = g + m(i - g) - m(i) for the j-th generator g > n_1
        slack = [[g + a - b for a, b in zip(ap[n1 - k:] + ap[:n1 - k], ap)]
                 for g, k in shifts]
        zeros = [0] * n1
        for sl in slack:
            zeros = list(map(add, zeros, map(not_, sl)))
        flat = list(map(bool, zeros))
        straddle = [set(compress(range(n1), map(ne, flat, flat[n1 - k:] + flat[:n1 - k])))
                    for _, k in shifts]
        columns = [[(0, v, 0 if f else n1)] for v, f in zip(ap, flat)]
        sums, climbing, row = [sum(ap)], flat.count(False), 0
        while climbing < n1:
            tick()
            sums.append(sums[-1] + n1 * climbing)
            changed = []
            for sl, st in zip(slack, straddle):
                for i in st:
                    if flat[i]:  # i - g climbs: the slack grows
                        if not sl[i]:
                            zeros[i] -= 1
                            if not zeros[i]:
                                changed.append(i)
                        sl[i] += n1
                    else:  # i climbs and i - g is flat: the slack shrinks
                        sl[i] -= n1
                        if not sl[i]:
                            zeros[i] += 1
                            if zeros[i] == 1:
                                changed.append(i)
            row += 1
            for i in changed:
                start, value, step = columns[i][-1]
                f = flat[i] = not flat[i]
                climbing += -1 if f else 1
                columns[i].append((row, value + (row - start) * step, 0 if f else n1))
            flipped = set(changed)
            for st, (_, k) in zip(straddle, shifts):
                st ^= flipped
                st ^= {(c + k) % n1 for c in changed}
        return AperyRuns(tuple(sums), tuple(map(tuple, columns)))

    def ord(self, s: int) -> int:
        """Max factorization length of a member: the last row of the Apery
        table whose entry in the residue of s is at most s.  The last run of
        the column with start value at most s climbs (a flat run is followed
        by a climbing run with the same start value, and the last run climbs
        for ever), so that row is its start row plus one per n_1 of s past
        its start value."""
        s = as_int(s)
        if s < 0 or not self.membership(s):
            raise InputError(f"{s} is not a member")
        n1 = self.multiplicity
        runs = self.apery_table().columns[s % n1]
        start, value, _ = runs[bisect_right(runs, s, key=itemgetter(1)) - 1]
        return start + (s - value) // n1

    def hilbert_gr(self, upto: int) -> list[int]:
        """Hilbert function of the associated graded ring:
        H(l) = #(M^l minus M^(l+1)) = sum over residues of (m_(l+1) - m_l) / n_1,
        read from the row sums through the reduction number r; H(l) = n_1
        for every l >= r."""
        upto = as_int(upto)
        if upto < 0:
            raise InputError("upto must be >= 0")
        sums, n1 = self.apery_table().sums, self.multiplicity
        h = [(b - a) // n1 for a, b in zip(sums, sums[1:])]
        return h[:upto + 1] + [n1] * (upto + 1 - len(h))

    def hilbert_stabilization(self) -> int:
        """Least index from which H equals the multiplicity n_1: the
        reduction number, the last row of the Apery table.  Every column
        step is 0 or n_1, so H(l) < n_1 exactly for l below it."""
        return len(self.apery_table().sums) - 1

    def hilbert_nondecreasing(self) -> bool:
        """True iff H is non-decreasing through its stabilization index, and
        so everywhere: from that index on H is constantly n_1."""
        h = self.hilbert_gr(self.hilbert_stabilization())
        return all(h[i] <= h[i + 1] for i in range(len(h) - 1))

    @artifact
    def axis_apery(self) -> tuple:
        """`affine.axis_apery` of the generators as 1-tuples, read from
        Ap(S, n_1)."""
        return ((self.multiplicity,),), frozenset((w,) for w in self._apery_by_residue)


def _least_per_residue(gens: tuple[int, ...], m: int) -> list[int]:
    """Least member of <gens> in each residue class mod m, indexed by residue
    (Dijkstra on the residues, one edge per generator), checking the
    deadline every 4096 heap pops."""
    dist: list[Optional[int]] = [None] * m
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    pops = 0
    while heap:
        if not pops & 4095:
            tick()
        pops += 1
        d, r = heapq.heappop(heap)
        if dist[r] != d:
            continue
        for g in gens:
            nd, nr = d + g, (r + g) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    assert all(d is not None for d in dist)
    return dist  # type: ignore[return-value]


class AperyRuns(NamedTuple):
    """`NumericalSemigroup.apery_table`: the rows 0..r of the Apery table of
    the powers of M, stored as runs, in memory bounded by the number of
    runs rather than n_1 * (r + 1) cells.  `sums[l]` is the sum of row l.
    `columns[i]` lists the runs of column i as (start row, value at that
    row, step), a run being a maximal stretch of rows l whose step
    m_(l+1)(i) - m_l(i) is the same, 0 or n_1; runs alternate between the
    two steps, and the last one climbs from its start row for ever, since
    every column climbs from row r on."""
    sums: tuple[int, ...]
    columns: tuple[tuple[tuple[int, int, int], ...], ...]


# names that moved to `affine`; bench/run.py and bench/tracing.py import them here
_MOVED = frozenset({"AffineSemigroup", "extend", "glue", "join"})


def __getattr__(name):
    if name in _MOVED:
        from . import affine
        return getattr(affine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
