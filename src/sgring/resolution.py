"""Multigraded Betti degrees of semigroup rings via squarefree divisor complexes.

For b in the semigroup, the divisor complex has one vertex per generator and
a face for every generator subset whose sum can be subtracted from b without
leaving the semigroup; the rank of its reduced homology in degree i-1 is the
Betti number of the ring's minimal free resolution at homological position i
and internal degree b.

The degree scan packs the whole box into one big Python int per generator
subset (one bit per lattice point), so membership closure, face flags, and
cone detection run as whole-grid bit operations; exact homology over Q is
computed only at the few points whose complex is not a cone over a vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import BoundInsufficient, CertificationError, Deadline, InputError, tick
from .linalg import rational_rank
from .monomials import Order, Vec, vec_add
from .semigroups import (AffineSemigroup, GapScan, NumericalSemigroup, axis_apery,
                         nd_max, nd_order)

Semigroup = Union[NumericalSemigroup, AffineSemigroup]
Degree = Union[int, Vec]

_MAX_VERTICES = 16          # subset enumeration is 2^n
_MAX_BOARD_BITS = 1 << 31   # total bits across all subset boards


def _gen_vectors(s: Semigroup) -> tuple[tuple[Vec, ...], int, bool]:
    """(generators as vectors, ambient dimension, numerical flag)."""
    if isinstance(s, NumericalSemigroup):
        return tuple((g,) for g in s.generators), 1, True
    if isinstance(s, AffineSemigroup):
        return s.generators, s.dim, False
    raise InputError(f"expected a semigroup, got {type(s).__name__}")


# ---------------------------------------------------------------------------
# exact homology of divisor complexes


def _ranks_from_faces(faces_by_size: list[list[tuple[int, ...]]]) -> list[int]:
    """Reduced rational homology ranks; entry i is dim of homology in degree i-1."""
    index = [{f: i for i, f in enumerate(level)} for level in faces_by_size]
    boundary_ranks = [0]  # rank of the map out of size-s chains, s = 0 is zero
    for s in range(1, len(faces_by_size)):
        rows = []
        for face in faces_by_size[s]:
            row = [0] * len(faces_by_size[s - 1])
            for j in range(s):
                row[index[s - 1][face[:j] + face[j + 1:]]] = -1 if j & 1 else 1
            rows.append(row)
        boundary_ranks.append(rational_rank(rows))
    boundary_ranks.append(0)
    return [len(faces_by_size[s]) - boundary_ranks[s] - boundary_ranks[s + 1]
            for s in range(len(faces_by_size))]


def _member(s: Semigroup, v: Vec, numerical: bool) -> bool:
    if numerical:
        return v[0] >= 0 and v[0] in s
    return all(c >= 0 for c in v) and s.membership(v).ok


# ---------------------------------------------------------------------------
# Betti tables


@dataclass(frozen=True)
class BettiTable:
    """rows[i] = sorted degrees (with multiplicity) of the i-th free module.

    certified is True only when the scan box provably contains every Betti
    degree, which `betti_degrees` proves when every extremal ray of the
    semigroup is a coordinate axis; tables from heuristic boxes carry False
    and callers needing a guarantee must corroborate them."""
    rows: tuple[tuple[Degree, ...], ...]
    nvars: int
    certified: bool = True

    def __post_init__(self):
        if not self.rows or any(not r for r in self.rows):
            raise InputError("Betti rows must be contiguous and nonempty")
        zero: Degree = self.rows[0][0]
        if len(self.rows[0]) != 1 or (zero if isinstance(zero, int) else any(zero)):
            raise InputError("row 0 must be exactly one copy of degree 0")

    @property
    def total(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def pd(self) -> int:
        return len(self.rows) - 1

    @property
    def top_degrees(self) -> tuple[Degree, ...]:
        return self.rows[-1]


@dataclass(frozen=True)
class ResolutionSummary:
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


def _replicate(pattern: int, period: int, total: int) -> int:
    """Tile a one-period bit pattern across a total-bit word."""
    out = pattern
    span = period
    while span < total:
        out |= out << span
        span *= 2
    return out & ((1 << total) - 1)


class _Grid:
    """Row-major linearization of the scan box, padded so that shifting the
    member board by a subset sum never wraps a real point onto a real point."""

    def __init__(self, bound: Vec, pad: Vec):
        self.bound = bound
        self.dims = tuple(b + 1 for b in bound)
        self.pdims = tuple(d + p for d, p in zip(self.dims, pad))
        strides = [1] * len(self.pdims)
        for i in range(len(self.pdims) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.pdims[i + 1]
        self.strides = tuple(strides)
        self.total = self.strides[0] * self.pdims[0]
        real = (1 << self.total) - 1
        for st, d, p in zip(self.strides, self.dims, self.pdims):
            real &= _replicate((1 << d * st) - 1, p * st, self.total)
        self.real = real

    def lin(self, v: Vec) -> int:
        return sum(c * st for c, st in zip(v, self.strides))

    def coords(self, idx: int) -> Vec:
        out = []
        for st in self.strides:
            out.append(idx // st)
            idx %= st
        return tuple(out)


def _iter_bits(x: int, total: int):
    data = x.to_bytes((total + 7) // 8, "little")
    for byte_idx, byte in enumerate(data):
        base = byte_idx * 8
        while byte:
            low = byte & -byte
            yield base + low.bit_length() - 1
            byte ^= low


def _member_board(grid: _Grid, gens: tuple[Vec, ...], deadline) -> int:
    shifts = [grid.lin(g) for g in gens]
    board = 1  # the origin
    while True:
        tick(deadline)
        grown = board
        for sh in shifts:
            grown |= board << sh
        grown &= grid.real
        if grown == board:
            return board
        board = grown


def betti_degrees(s: Semigroup, degree_bound=None,
                  deadline: Optional[Deadline] = None) -> BettiTable:
    """Scan semigroup degrees up to the bound and sum divisor-complex homology.

    When every extremal ray is a coordinate axis (numerical semigroups,
    their axis embeddings and joins, projective closures), the default
    bound is b_i = max over w in Ap(S, E) of w_i plus the sum of g_i over
    the generators g other than e_i, with E = {e_i} the least generator on
    each axis in use (`axis_apery`), and the table is certified: it holds
    every Betti degree.  Proof: a Betti degree b of positive level has a
    divisor complex with reduced homology, so the complex is not a cone
    over e_i; some face F without e_i has b - sum(F) in S but not
    b - sum(F) - e_i, so u = b - sum(F) lies in Ap(S, e_i).  Writing
    u = w + (a combination of E) with w in Ap(S, E), e_i takes no part in
    it, and the other e_j vanish at i, so u_i = w_i and b_i <= w_i + sum(F)_i.
    A given bound must contain that box, or BoundInsufficient names both.

    With a ray off the axes there is no such box, and the bound (default
    (number of generators) * (sum of generators)) is heuristic: a Betti
    degree within one max-generator of the box raises BoundInsufficient as
    probable clipping, but consecutive levels can jump by an arbitrary
    semigroup element, so silence is evidence rather than proof and the
    table returns with certified=False.  A bound is an int or a vector of
    the ambient dimension, and must be nonnegative.
    """
    gens, d, numerical = _gen_vectors(s)
    n = len(gens)
    if n > _MAX_VERTICES:
        raise InputError(f"{n} generators exceed the subset-enumeration limit")
    gen_sum = (0,) * d
    for g in gens:
        gen_sum = vec_add(gen_sum, g)
    if degree_bound is not None:
        bound = ((degree_bound,) if isinstance(degree_bound, int)
                 else tuple(int(c) for c in degree_bound))
        if len(bound) != d or any(c < 0 for c in bound):
            raise InputError(f"degree bound {degree_bound} is not a nonnegative "
                             f"vector of the ambient dimension {d}")
    complete = None
    axis = axis_apery(gens, deadline)
    if axis is not None:
        extremal, apery = axis
        complete = tuple(max(w[i] for w in apery) + gen_sum[i] - sum(e[i] for e in extremal)
                         for i in range(d))
    if degree_bound is None:
        bound = complete if complete is not None else tuple(n * c for c in gen_sum)
    elif complete is not None and any(b < c for b, c in zip(bound, complete)):
        raise BoundInsufficient(f"degree bound {bound} does not contain the "
                                f"certified box {complete}")
    certified = complete is not None

    grid = _Grid(bound, gen_sum)
    if (1 << n) * grid.total > _MAX_BOARD_BITS:
        raise InputError("scan box too large for the subset boards")
    members_board = _member_board(grid, gens, deadline)

    subset_sums: list[Vec] = [(0,) * d] * (1 << n)
    for k in range(1, 1 << n):
        low = k & -k
        subset_sums[k] = vec_add(subset_sums[k ^ low], gens[low.bit_length() - 1])
    boards = [0] * (1 << n)
    for k in range(1 << n):
        tick(deadline)
        if all(c <= b for c, b in zip(subset_sums[k], bound)):
            boards[k] = (members_board << grid.lin(subset_sums[k])) & grid.real

    # A complex that is a cone over vertex v is contractible; keep only points
    # where every vertex has a face whose extension by that vertex is missing.
    candidates = members_board
    full = (1 << grid.total) - 1
    for v in range(n):
        tick(deadline)
        bit = 1 << v
        non_cone = 0
        for k in range(1 << n):
            if not k & bit:
                non_cone |= boards[k] & (boards[k | bit] ^ full)
        candidates &= non_cone

    member_bytes = members_board.to_bytes((grid.total + 7) // 8, "little")
    rows_acc: dict[int, list] = {}
    rank_memo: dict[int, list[int]] = {}
    for idx in _iter_bits(candidates, grid.total):
        tick(deadline)
        b = grid.coords(idx)
        bits = 0
        for k in range(1 << n):
            diff = tuple(c - g for c, g in zip(b, subset_sums[k]))
            if all(c >= 0 for c in diff):
                at = grid.lin(diff)
                if member_bytes[at >> 3] >> (at & 7) & 1:
                    bits |= 1 << k
        ranks = rank_memo.get(bits)
        if ranks is None:
            grouped: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
            for k in _iter_bits(bits, 1 << n):
                face = tuple(i for i in range(n) if k >> i & 1)
                grouped[len(face)].append(face)
            while not grouped[-1]:
                grouped.pop()
            ranks = rank_memo[bits] = _ranks_from_faces(grouped)
        deg: Degree = b[0] if numerical else b
        for i, r in enumerate(ranks):
            if r:
                rows_acc.setdefault(i, []).extend([deg] * r)

    if not certified:
        rim = tuple(max(g[i] for g in gens) for i in range(d))
        for i, degs in rows_acc.items():
            if i == 0:
                continue
            for deg in degs:
                v = (deg,) if numerical else deg
                if any(c + w >= b for c, w, b in zip(v, rim, bound)):
                    raise BoundInsufficient(
                        f"degree bound {bound} insufficient: Betti degree {deg} "
                        f"at level {i} reaches the boundary shell")

    top = max(rows_acc)
    if sorted(rows_acc) != list(range(top + 1)):
        raise BoundInsufficient(f"degree bound {bound} produced a gap in the rows")
    return BettiTable(tuple(tuple(sorted(rows_acc[i])) for i in range(top + 1)),
                      n, certified)


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
        raise BoundInsufficient(
            f"depth {depth} exceeds dimension {dim}: the scan bound behind this "
            f"table must have missed Betti degrees")
    cm = depth == dim
    return ResolutionSummary(pd, depth, dim, cm, cm and len(table.rows[-1]) == 1)


def pf_via_betti(s: Semigroup, table: BettiTable) -> list[Degree]:
    """Pseudo-Frobenius elements of a maximal-projective-dimension semigroup:
    top Betti degrees shifted down by the sum of all generators."""
    gens, d, numerical = _gen_vectors(s)
    if table.pd != len(gens) - 1:
        raise InputError(
            f"pd {table.pd} != {len(gens) - 1}: semigroup is not MPD, top Betti "
            f"degrees do not determine pseudo-Frobenius elements")
    gen_sum = (0,) * d
    for g in gens:
        gen_sum = vec_add(gen_sum, g)
    degs = sorted(set(table.rows[-1]))
    if numerical:
        return [b - gen_sum[0] for b in degs]
    return [tuple(c - t for c, t in zip(b, gen_sum)) for b in degs]


def is_prec_symmetric(s: Semigroup, table: BettiTable,
                      order: Optional[Order] = None,
                      scan: Optional[GapScan] = None) -> bool:
    """True iff the unique pseudo-Frobenius element is the order-maximum gap.

    For a numerical semigroup that gap is the Frobenius number F, and gaps
    exist exactly when F >= 1; an affine semigroup needs the caller's gap
    scan (`AffineSemigroup.gap_set`), which must be shell-clean."""
    gens, d, numerical = _gen_vectors(s)
    if table.pd != len(gens) - 1:
        return False
    pf = pf_via_betti(s, table)
    if len(pf) != 1:
        return False
    if numerical:
        f = s.frobenius()
        return f >= 1 and pf[0] == f
    if scan is None:
        raise InputError("a gap scan is required for an affine semigroup")
    if not scan.shell_clean:
        raise CertificationError(
            "gap set not certifiably finite within box: gaps touch the outer shell")
    if not scan.gaps:
        return False
    return pf[0] == nd_max(order or nd_order("graded-lex", d), scan.gaps)


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
                if any(_member(s, (x,) if numerical else x, numerical)
                       for x in diffs):
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
    return BettiTable(tuple(rows), t1.nvars + t2.nvars,
                      t1.certified and t2.certified)


def _add_degree(a: Degree, b: Degree) -> Degree:
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return vec_add(a, b)
    raise InputError("cannot add degrees of different kinds")
