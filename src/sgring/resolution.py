"""Multigraded Betti degrees of semigroup rings via squarefree divisor complexes.

For b in the semigroup, the divisor complex has one vertex per generator and
a face for every generator subset whose sum can be subtracted from b without
leaving the semigroup; the rank of its reduced homology in degree i-1 is the
Betti number of the ring's minimal free resolution at homological position i
and internal degree b.

The degree scan holds a few big Python ints over the box (one bit per
lattice point): the member board of `affine.member_board` and shifts of
its Apery boards, which drop every point whose complex is a cone over a
vertex.  Exact homology over Q is computed only at the few points left: the
complex is read from the member bytes at the 2^n subset-sum offsets as a
face mask, and each of its faces gives one sparse boundary row for
`linalg.rational_rank`.  `betti_degrees` takes only the semigroup and scans
the one box `betti_box` certifies to hold every Betti degree: it reads the
stored Ap(S, E) when the extremal rays are the coordinate axes, and the
leads of the reduced toric basis otherwise; the same box bounds the
off-axis gap scan of `affine.AffineSemigroup.gap_set`.  `affine.Grid`
holds the scan to its bit budget.  A table read with a gap in its rows, or
with depth above dimension, raises CertificationError.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .affine import AffineSemigroup, Grid, iter_bits, member_board
from .errors import CertificationError, Frozen, InputError, tick
from .linalg import rational_rank
from .monomials import Vec, vec_add
from .semigroups import NumericalSemigroup, Semigroup

Degree = Union[int, Vec]

_MAX_VERTICES = 16          # face masks read 2^n subset offsets
_HELD_BOARDS = 6            # member, grid mask, candidate, reach, two temporaries


def _gen_vectors(s: Semigroup) -> tuple[tuple[Vec, ...], int, bool]:
    """(generators as vectors, ambient dimension, numerical flag)."""
    if isinstance(s, NumericalSemigroup):
        return tuple((g,) for g in s.generators), 1, True
    if isinstance(s, AffineSemigroup):
        return s.generators, s.dim, False
    raise InputError(f"expected a semigroup, got {type(s).__name__}")


# ---------------------------------------------------------------------------
# exact homology of divisor complexes


def _homology_ranks(bits: int, n: int) -> list[int]:
    """Reduced rational homology ranks of the complex on n vertices whose
    faces are the set bits of `bits` (bit k is the vertex subset k); entry i
    is the rank in degree i-1.  The boundary of a face drops one vertex at a
    time, with sign (-1)^(number of its vertices below the dropped one)."""
    levels: list[list[int]] = [[] for _ in range(n + 1)]
    for k in iter_bits(bits, 1 << n):
        levels[k.bit_count()].append(k)
    while not levels[-1]:
        levels.pop()
    boundary_ranks = [0]  # rank of the map out of size-s chains, s = 0 is zero
    for faces in levels[1:]:
        boundary_ranks.append(rational_rank(
            [{k ^ 1 << v: -1 if (k & (1 << v) - 1).bit_count() & 1 else 1
              for v in range(n) if k >> v & 1} for k in faces]))
    boundary_ranks.append(0)
    return [len(faces) - boundary_ranks[s] - boundary_ranks[s + 1]
            for s, faces in enumerate(levels)]


def _member(s: Semigroup, v: Vec, numerical: bool) -> bool:
    if numerical:
        return v[0] >= 0 and v[0] in s
    return all(c >= 0 for c in v) and s.membership(v).ok


# ---------------------------------------------------------------------------
# Betti tables


class BettiTable(Frozen):
    """rows[i] = sorted degrees (with multiplicity) of the i-th free module.

    `betti_degrees` scans a box that provably holds every Betti degree, so
    each table is complete; `certified` is a constant kept for the reports
    that quote it."""
    __slots__ = _fields = ("rows", "nvars")
    rows: tuple[tuple[Degree, ...], ...]
    nvars: int
    certified = True

    def __init__(self, rows: tuple[tuple[Degree, ...], ...], nvars: int):
        if not rows or any(not r for r in rows):
            raise InputError("Betti rows must be contiguous and nonempty")
        zero: Degree = rows[0][0]
        if len(rows[0]) != 1 or (zero if isinstance(zero, int) else any(zero)):
            raise InputError("row 0 must be exactly one copy of degree 0")
        self._set(rows=rows, nvars=nvars)

    @property
    def total(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def pd(self) -> int:
        return len(self.rows) - 1

    @property
    def top_degrees(self) -> tuple[Degree, ...]:
        return self.rows[-1]


class ResolutionSummary(NamedTuple):
    pd: int
    depth: int
    dim: int
    cm: bool
    gorenstein: bool


class SifrReport(NamedTuple):
    holds: bool
    level: Optional[int]          # homological level of the first violation
    pair: Optional[tuple]         # the two Betti degrees whose difference is inside

    def __bool__(self) -> bool:
        return self.holds


# ---------------------------------------------------------------------------
# bitboard scan


def betti_box(s: Semigroup) -> Vec:
    """A box [0, box] proved to hold every Betti degree of s, chosen from
    the input; `betti_degrees` scans it and `AffineSemigroup.gap_set`
    bounds its off-axis scan by it.

    When every extremal ray is a coordinate axis (numerical semigroups,
    their axis embeddings and joins, projective closures), it is
    b_i = max over w in Ap(S, E) of w_i plus the sum of g_i over the
    generators g other than e_i, with E = {e_i} the least generator on each
    axis in use (`axis_apery`).  Proof: a Betti degree b of positive level
    has a divisor complex with reduced homology, so the complex is not a
    cone over e_i; some face F without e_i has b - sum(F) in S but not
    b - sum(F) - e_i, so u = b - sum(F) lies in Ap(S, e_i).  Writing
    u = w + (a combination of E) with w in Ap(S, E), e_i takes no part in
    it, and the other e_j vanish at i, so u_i = w_i and b_i <= w_i + sum(F)_i.
    This box is the tighter one, and it needs no Groebner basis.

    Otherwise the box is A * lcm(leads of `toric.reduced_basis`), where the
    generators are the columns of A.  Proof: A grades the polynomial ring
    positively and the toric ideal I is A-homogeneous, so Betti numbers can
    only grow under Groebner degeneration: beta_{i,b}(S/I) <=
    beta_{i,b}(S/in(I)) in every degree b (Miller and Sturmfels,
    Combinatorial Commutative Algebra, ch. 8).  The Taylor resolution of
    in(I) puts each of its Betti degrees at A * lcm(F) for F a set of
    minimal generators of in(I), which are the leads; A >= 0, so each such
    degree is at most A * lcm(all leads), coordinate by coordinate.

    No generator limit applies here: that limit belongs to the scan.
    """
    gens, d, _ = _gen_vectors(s)
    axis = s.axis_apery()
    if axis is not None:
        extremal, apery = axis
        return tuple(max(w[i] for w in apery) + sum(g[i] for g in gens)
                     - sum(e[i] for e in extremal) for i in range(d))
    from .toric import reduced_basis
    # a free semigroup has no leads, and its box is the origin
    lcm = tuple(map(max, zip(*(b.lead for b in reduced_basis(s).elements))))
    return tuple(sum(c * g[i] for c, g in zip(lcm, gens)) for i in range(d))


def betti_degrees(s: Semigroup) -> BettiTable:
    """Scan the box `betti_box` proves to hold every Betti degree, and sum
    divisor-complex homology.

    More than 16 generators, or a box whose boards would pass the bit
    budget of `affine.Grid`, raise CertificationError before any board
    is built.
    """
    gens = _gen_vectors(s)[0]
    if len(gens) > _MAX_VERTICES:
        raise CertificationError(f"{len(gens)} generators exceed the subset-enumeration limit")
    return _scan(s, betti_box(s))


def _scan(s: Semigroup, box: Vec) -> BettiTable:
    """The Betti table read from the degrees in [0, box]; complete when box
    contains the box `betti_degrees` certifies.

    Cone filter: the complex of b is a cone over v, hence acyclic, unless
    some face F without v misses F + v, i.e. b - sum(F) is in Ap(S, g_v).
    So only members in A_v + (subset sums of the generators other than g_v)
    for every v are evaluated, A_v = M & ~(M << g_v) for the member board M;
    a b - sum(F) with a negative coordinate lands in the zero padding (the
    generator sum) or below index 0.
    """
    gens, _, numerical = _gen_vectors(s)
    n = len(gens)
    grid = Grid(box, tuple(map(sum, zip(*gens))), _HELD_BOARDS)
    members_board = member_board(grid, gens)

    # The cone filter (see above).  Bits that reach past the box never carry
    # back into it, and the AND with the member board drops them.
    shifts = [grid.lin(g) for g in gens]
    candidates = members_board
    for v, sv in enumerate(shifts):
        tick()
        reach = members_board & ~(members_board << sv)
        for sh in shifts[:v] + shifts[v + 1:]:
            reach |= reach << sh
        candidates &= reach
        del reach  # before the next Apery board is built

    offsets = [0] * (1 << n)
    for k in range(1, 1 << n):
        low = k & -k
        offsets[k] = offsets[k ^ low] + shifts[low.bit_length() - 1]
    member_bytes = members_board.to_bytes((grid.total + 7) // 8, "little")
    rows_acc: dict[int, list] = {}
    rank_memo: dict[int, list[int]] = {}
    for idx in iter_bits(candidates, grid.total):
        tick()
        bits = 0
        for k, off in enumerate(offsets):
            at = idx - off
            if at >= 0 and member_bytes[at >> 3] >> (at & 7) & 1:
                bits |= 1 << k
        ranks = rank_memo.get(bits)
        if ranks is None:
            ranks = rank_memo[bits] = _homology_ranks(bits, n)
        b = grid.coords(idx)
        deg: Degree = b[0] if numerical else b
        for i, r in enumerate(ranks):
            if r:
                rows_acc.setdefault(i, []).extend([deg] * r)

    top = max(rows_acc)
    if sorted(rows_acc) != list(range(top + 1)):
        raise CertificationError(f"scan box {box} produced a gap in the rows")
    return BettiTable(tuple(tuple(sorted(rows_acc[i])) for i in range(top + 1)), n)


# ---------------------------------------------------------------------------
# derived invariants


def resolution_summary(s: Semigroup, table: BettiTable) -> ResolutionSummary:
    """Projective dimension, depth (Auslander-Buchsbaum), Krull dimension, flags."""
    gens, d, numerical = _gen_vectors(s)
    if table.nvars != len(gens):
        raise InputError("table does not match the semigroup's generator count")
    pd = table.pd
    depth = len(gens) - pd
    dim = 1 if numerical else rational_rank(gens)
    if depth > dim:
        raise CertificationError(
            f"depth {depth} exceeds dimension {dim}: the table lacks Betti "
            f"degrees of this semigroup")
    cm = depth == dim
    return ResolutionSummary(pd, depth, dim, cm, cm and len(table.rows[-1]) == 1)


def pf_via_betti(s: Semigroup, table: BettiTable) -> list[Degree]:
    """Pseudo-Frobenius elements of a maximal-projective-dimension semigroup:
    top Betti degrees shifted down by the sum of all generators."""
    gens, _, numerical = _gen_vectors(s)
    if table.pd != len(gens) - 1:
        raise InputError(
            f"pd {table.pd} != {len(gens) - 1}: semigroup is not MPD, top Betti "
            f"degrees do not determine pseudo-Frobenius elements")
    gen_sum = tuple(map(sum, zip(*gens)))
    degs = sorted(set(table.rows[-1]))
    if numerical:
        return [b - gen_sum[0] for b in degs]
    return [tuple(c - t for c, t in zip(b, gen_sum)) for b in degs]


def is_prec_symmetric(s: Semigroup, table: BettiTable) -> bool:
    """True iff the unique pseudo-Frobenius element is the graded-lex maximum
    gap: the largest by total degree, ties broken lexicographically.

    For a numerical semigroup that gap is the Frobenius number F, and gaps
    exist exactly when F >= 1; an affine semigroup reads its gap set
    (`AffineSemigroup.gap_set`), whose finiteness is always decided: an
    infinite gap set, the only refusal, raises CertificationError."""
    gens, _, numerical = _gen_vectors(s)
    if table.pd != len(gens) - 1:
        return False
    pf = pf_via_betti(s, table)
    if len(pf) != 1:
        return False
    if numerical:
        f = s.frobenius()
        return f >= 1 and pf[0] == f
    gaps = s.gap_set().all_gaps()
    return bool(gaps) and pf[0] == max(gaps, key=lambda p: (sum(p), p))


def sifr_check(s: Semigroup, table: BettiTable) -> SifrReport:
    """Strong indispensability criterion: within every homological level, no
    difference of two Betti degrees may land in the semigroup (0 included)."""
    _, d, numerical = _gen_vectors(s)
    for i in range(1, table.pd + 1):
        degs = table.rows[i]
        for j in range(len(degs)):
            for k in range(j + 1, len(degs)):
                b, c = degs[j], degs[k]
                diffs = ([b - c, c - b] if numerical else
                         [tuple(x - y for x, y in zip(b, c)),
                          tuple(y - x for x, y in zip(b, c))])
                if any(_member(s, (x,) if numerical else x, numerical) for x in diffs):
                    return SifrReport(False, i, (b, c))
    return SifrReport(True, None, None)


def tensor_betti(t1: BettiTable, t2: BettiTable) -> BettiTable:
    """Betti table of a tensor product of resolutions over disjoint variable
    blocks: row i is the multiset of Minkowski sums over p + q = i."""
    rows = []
    for i in range(t1.pd + t2.pd + 1):
        level: list = []
        for p in range(max(0, i - t2.pd), min(i, t1.pd) + 1):
            for b1 in t1.rows[p]:
                for b2 in t2.rows[i - p]:
                    level.append(_add_degree(b1, b2))
        rows.append(tuple(sorted(level)))
    return BettiTable(tuple(rows), t1.nvars + t2.nvars)


def _add_degree(a: Degree, b: Degree) -> Degree:
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return vec_add(a, b)
    raise InputError("cannot add degrees of different kinds")
