"""Affine semigroups, the bitboard member engine, and the gluing,
extension and join constructions.

An affine semigroup is a submonoid of N^d given by minimal generators; it
answers membership with a witness, cone membership exactly, its extremal
rays, and the Apery set of its axis generators when its rays are the axes
(`axis_apery`).  One bitboard engine (`member_board`) gives the members of
a box to `members_within`, the gap set and the Betti scan; its `Grid`
refuses a box over the scan bit budget.  The gap set is scanned over a box
that decides its finiteness: the Apery box on the axes, and off them the
certified Betti box of `resolution.betti_box`.  The constructors return
plain semigroups, while `GluingSpec` and `ExtensionSpec` carry the
provenance.
Everything is exact integer or rational arithmetic.  The numerical layer
(`semigroups`) loads without this module.
"""
from __future__ import annotations

import heapq
import math
import re
from operator import add
from typing import NamedTuple, Optional, Sequence

from .errors import CertificationError, Frozen, InputError, tick
from .linalg import nonneg_solve, rational_rank
from .monomials import Vec, scale, vec_add
from .semigroups import NumericalSemigroup, Semigroup, artifact, as_int


# ---------------------------------------------------------------------------
# affine semigroups


class Membership(NamedTuple):
    ok: bool
    witness: Optional[Vec]

    def __bool__(self) -> bool:
        return self.ok


class AffineSemigroup(Semigroup):
    """Submonoid of N^d given by distinct nonzero minimal generators; the
    constructor's minimality search runs under the deadline."""

    __slots__ = ("dim",)
    _fields = ("generators", "dim")
    generators: tuple[Vec, ...]
    dim: int

    def __init__(self, generators: Sequence[Sequence[int]]):
        gens = tuple(tuple(map(as_int, g)) for g in generators)
        if not gens:
            raise InputError("at least one generator required")
        d = len(gens[0])
        if any(len(g) != d for g in gens):
            raise InputError("generators must share a dimension")
        if any(any(c < 0 for c in g) for g in gens):
            raise InputError("generators must lie in N^d")
        if any(not any(g) for g in gens):
            raise InputError("zero vector is not a generator")
        if len(set(gens)) != len(gens):
            raise InputError("generators must be pairwise distinct")
        self._set(generators=gens, dim=d, _memo={})
        bad = [g for g in gens
               if _affine_member(tuple(h for h in gens if h != g), g).ok]
        if bad:
            raise InputError(f"generating set not minimal: {bad} are redundant")

    def membership(self, x: Sequence[int]) -> Membership:
        """Exact DFS with componentwise pruning; returns a witness when inside."""
        x = tuple(map(as_int, x))
        if len(x) != self.dim:
            raise InputError("dimension mismatch")
        if any(c < 0 for c in x):
            return Membership(False, None)
        return _affine_member(self.generators, x)

    def __contains__(self, x: Sequence[int]) -> bool:
        return self.membership(x).ok

    def members_within(self, box: Sequence[int]) -> set[Vec]:
        """All members componentwise below box, decoded from `member_board`."""
        box = tuple(map(as_int, box))
        if len(box) != self.dim or any(c < 0 for c in box):
            raise InputError(f"box {box} is not a nonnegative vector of dimension {self.dim}")
        grid, board = self._board(box)
        return {grid.coords(i) for i in iter_bits(board, grid.total)}

    def _board(self, box: Vec) -> tuple[Grid, int]:
        # padded by the largest entry per axis: one generator shift never wraps
        grid = Grid(box, tuple(max(c) for c in zip(*self.generators)), _GAP_BOARDS)
        return grid, member_board(grid, self.generators)

    @artifact
    def axis_apery(self) -> Optional[tuple]:
        """`axis_apery` of the generators."""
        return axis_apery(self.generators)

    def cone_membership(self, x: Sequence[int]) -> bool:
        """x in {sum lambda_i a_i : lambda_i in Q>=0}, decided exactly."""
        x = tuple(map(as_int, x))
        if len(x) != self.dim:
            raise InputError("dimension mismatch")
        return nonneg_solve(self.generators, x) is not None

    def extremal_rays(self) -> list[Vec]:
        """Primitive directions spanning 1-dimensional faces of the cone."""
        dirs: list[Vec] = []
        for g in self.generators:
            d = math.gcd(*g)
            prim = tuple(c // d for c in g)
            if prim not in dirs:
                dirs.append(prim)
        rays = []
        for r in dirs:
            others = [g for g in self.generators if tuple(c // math.gcd(*g) for c in g) != r]
            if not others or nonneg_solve(others, r) is None:
                rays.append(r)
        return sorted(rays)

    @artifact
    def gap_set(self) -> "GapScan":
        """Cone points outside the semigroup, scanned over a box derived from
        the generators, and whether they are finitely many; the answer is
        always decided.  A gap x escapes when x_j + t_j > box_j on some
        axis j, for a shell thickness t chosen with the box, and the gap set
        is finite exactly when no gap escapes.

        When every extremal ray is a coordinate axis, `axis_apery` gives
        E = {c_j u_j} and Ap(S, E); let M_j = max over w in Ap(S, E) of w_j.
        A cone point x is a member iff some w in Ap(S, E) lies below x and
        agrees with it modulo every c_j, so for x_j >= M_j membership depends
        on x_j only through x_j mod c_j.  The box is M_j + c_j - 1 on each
        axis in use and 0 elsewhere, with t_j = c_j (0 off the axes in use),
        so a gap escapes iff x_j >= M_j: it repeats every c_j along axis j,
        and otherwise every gap has x_j < M_j on every axis, inside the box.

        With a ray off the axes, let B be `resolution.betti_box`, the box
        certified to hold every Betti degree, and H the gap set.  The box is
        max(B, sum of the generators), coordinate by coordinate, with
        t_j = max over generators g of g_j.
        - H finite implies no gap escapes.  Take a maximal gap p, one with
          p + g in S for every generator g, and b = p + (sum of all e
          generators).  Then b - (sum of all of them) = p is not in S, while
          b - sum(F) is p plus a nonempty sum of generators, a member, for
          every proper subset F.  So the divisor complex of b is the
          boundary of the simplex on the generators, whose reduced homology
          in degree e - 2 is Q: b is a Betti degree at level e - 1, and
          b <= B.  When H is finite, every gap walks up, one generator at a
          time, to a maximal gap, so every gap x has x <= B - sum(g), and
          x_j + t_j <= B_j <= box_j since t_j <= sum of the g_j.  (Hence
          with projective dimension below e - 1 the gap set is empty or
          infinite.)
        - No gap escapes implies H finite.  A cone point with x_j > box_j,
          so above the generator sum, has a cone coefficient of at least 1
          at some generator g (Caratheodory), so x - g stays in the cone,
          and is a gap when x is.  A gap outside the box walks down this way
          until it first lands inside the box, within t_j of the top on
          the axis j it last left: that gap escapes.
        An over-budget box is refused by `Grid` before any board is built.
        """
        axis = self.axis_apery()
        if axis is not None:
            extremal, apery = axis
            step = {i: c for e in extremal for i, c in enumerate(e) if c}
            thick = tuple(step.get(i, 0) for i in range(self.dim))
            box = tuple(max(w[i] for w in apery) + t - 1 if t else 0
                        for i, t in enumerate(thick))
            in_cone = lambda pt: True  # the box lies in the cone
        else:
            from .resolution import betti_box
            thick = tuple(map(max, zip(*self.generators)))
            box = tuple(map(max, betti_box(self), map(sum, zip(*self.generators))))
            in_cone = self.cone_membership
        grid, board = self._board(box)
        gaps, escaped = [], False
        # bits run in row-major order, so the gaps come out sorted
        for idx in iter_bits(grid.real ^ board, grid.total):
            pt = grid.coords(idx)
            if in_cone(pt):
                gaps.append(pt)
                escaped = escaped or any(c + t > b for c, t, b in zip(pt, thick, box))
        return GapScan(tuple(gaps), not escaped, box)

    def pf_direct(self) -> list[Vec]:
        """Pseudo-Frobenius elements by the gap-set definition: the gaps f with
        f + g a member for every generator g; the gap set must be finite.
        Then f + g, a cone point, is a member exactly when it is not a gap.
        The lookups check the deadline every 4096 gaps."""
        gaps = self.gap_set().all_gaps()
        holes = set(gaps)
        out = []
        for i, f in enumerate(gaps):
            if not i & 4095:
                tick()
            if not any(tuple(map(add, f, g)) in holes for g in self.generators):
                out.append(f)
        return out


def _affine_member(gens: tuple[Vec, ...], x: Vec) -> Membership:
    """Exact DFS over the generators in order, checking the deadline every
    4096 calls."""
    failed: set[tuple[Vec, int]] = set()
    calls = 0

    def rec(rest: Vec, i: int) -> Optional[list[int]]:
        nonlocal calls
        if not calls & 4095:
            tick()
        calls += 1
        if not any(rest):
            return [0] * (len(gens) - i)
        if i == len(gens):
            return None
        key = (rest, i)
        if key in failed:
            return None
        g = gens[i]
        # no generator is zero: the constructor refuses one before any search
        for k in range(min(r // c for r, c in zip(rest, g) if c), -1, -1):
            sub = rec(tuple(r - k * c for r, c in zip(rest, g)), i + 1)
            if sub is not None:
                return [k] + sub
        failed.add(key)
        return None

    z = rec(x, 0)
    return Membership(z is not None, tuple(z) if z is not None else None)


def axis_apery(gens: Sequence[Vec]) -> Optional[tuple[tuple[Vec, ...], frozenset]]:
    """(E, Ap(S, E)) for S = <gens> when every extremal ray of S is a
    coordinate axis, None otherwise.  E holds the least generator on each
    axis in use, in axis order; Ap(S, E) is the set of members w with no
    w - e in S for e in E.

    The rays are the axes exactly when every coordinate some generator uses
    also carries a generator on its axis.  Removing a generator outside E
    from an element of Ap(S, E) leaves one, so the set is found by a search
    from 0 along those generators in order of coordinate sum.  A popped
    point p is a member; it lies outside Ap(S, E) iff p - e is a member for
    some e in E, that is iff p = w + (a nonzero combination of E) for some
    w in Ap(S, E), and such a w has a smaller coordinate sum, so it was
    found before: p is kept iff no element found so far is componentwise
    below p and agrees with p modulo each axis generator.  No membership
    test is needed.  The deadline is checked on the first pop and every
    256 pops; a search cut short raises and returns nothing.
    """
    d = len(gens[0])
    least: dict[int, Vec] = {}
    for g in gens:
        support = [i for i, c in enumerate(g) if c]
        if len(support) == 1 and (support[0] not in least
                                  or g < least[support[0]]):
            least[support[0]] = g
    if any(g[i] for g in gens for i in range(d) if i not in least):
        return None
    axes = sorted(least)
    extremal = tuple(least[i] for i in axes)
    steps = [g for g in gens if g not in extremal]
    origin = (0,) * d
    found: dict[Vec, list[Vec]] = {}  # residues mod E -> elements
    heap, seen, pops = [(0, origin)], {origin}, 0
    while heap:
        if not pops & 255:
            tick()
        pops += 1
        _, p = heapq.heappop(heap)
        peers = found.setdefault(tuple(p[i] % least[i][i] for i in axes), [])
        if any(all(a <= b for a, b in zip(w, p)) for w in peers):
            continue
        peers.append(p)
        for g in steps:
            q = vec_add(p, g)
            if q not in seen:
                seen.add(q)
                heapq.heappush(heap, (sum(q), q))
    return extremal, frozenset(w for peers in found.values() for w in peers)


# ---------------------------------------------------------------------------
# bitboard member engine


def _replicate(pattern: int, period: int, total: int) -> int:
    """Tile a one-period bit pattern across a total-bit word."""
    out = pattern
    span = period
    while span < total:
        out |= out << span
        span *= 2
    return out & ((1 << total) - 1)


_MAX_BOARD_BITS = 1 << 31   # total bits across the boards a scan holds
# the gap scan peaks at five: mask, member board, shifted copy, two unions of
# a closure round; then mask, member board, non-member board and its bytes
_GAP_BOARDS = 5


class Grid:
    """Row-major bit layout of the box [0, bound], padded by pad on each axis
    so that a shift by a vector at most pad never wraps a real point.  The
    scan bit budget lives here: `boards` boards of the padded box past
    `_MAX_BOARD_BITS` raise CertificationError before the mask is built."""

    def __init__(self, bound: Vec, pad: Vec, boards: int = 1):
        dims = [b + 1 for b in bound]
        pdims = [d + p for d, p in zip(dims, pad)]
        strides = [1] * len(pdims)
        for i in range(len(pdims) - 2, -1, -1):
            strides[i] = strides[i + 1] * pdims[i + 1]
        self.strides = tuple(strides)
        self.total = strides[0] * pdims[0]
        if boards * self.total > _MAX_BOARD_BITS:
            raise CertificationError("scan box too large for the scan boards")
        real = (1 << self.total) - 1
        for st, d, p in zip(strides, dims, pdims):
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


_NONZERO_BYTES = re.compile(rb"[^\x00]+")


def iter_bits(x: int, total: int):
    """Set bits of x in increasing order, checking the deadline per 4 KiB.
    The regex engine skips the runs of zero bytes, which dominate sparse
    boards."""
    data = x.to_bytes((total + 7) // 8, "little")
    for chunk in range(0, len(data), 4096):
        tick()
        for run in _NONZERO_BYTES.finditer(data, chunk, chunk + 4096):
            for byte_idx, byte in enumerate(run.group(), run.start()):
                base = byte_idx * 8
                while byte:
                    low = byte & -byte
                    yield base + low.bit_length() - 1
                    byte ^= low


def member_board(grid: Grid, gens: Sequence[Vec]) -> int:
    """Members of <gens> in the grid's box; the padding must cover each generator."""
    shifts = [grid.lin(g) for g in gens]
    board = 1  # the origin
    while True:
        tick()
        grown = board
        for sh in shifts:
            grown |= board << sh
        grown &= grid.real
        if grown == board:
            return board
        board = grown


class GapScan(NamedTuple):
    """The gaps inside box (`AffineSemigroup.gap_set`); finite is True when
    they are the whole gap set and False when the gap set is infinite."""
    gaps: tuple[Vec, ...]
    finite: bool
    box: Vec

    def all_gaps(self) -> tuple[Vec, ...]:
        """The whole gap set, or CertificationError when it is infinite."""
        if not self.finite:
            raise CertificationError(
                f"gap set is infinite: box {self.box} has a gap in its shell")
        return self.gaps


def embed_axis(s: NumericalSemigroup, dim: int, axis: int) -> AffineSemigroup:
    """Embed a numerical semigroup on one coordinate axis of N^dim."""
    dim, axis = as_int(dim), as_int(axis)
    if not 0 <= axis < dim:
        raise InputError("axis out of range")
    gens = [tuple(g if i == axis else 0 for i in range(dim)) for g in s.generators]
    return AffineSemigroup(gens)


# ---------------------------------------------------------------------------
# gluing


class GluingSpec(Frozen):
    """Glue left (gens m_1<...<m_l) and right (gens n_1<...<n_k) along
    p = sum b_i m_i and q = sum a_j n_j."""

    __slots__ = _fields = ("left", "right", "b", "a")
    left: NumericalSemigroup
    right: NumericalSemigroup
    b: tuple[int, ...]
    a: tuple[int, ...]

    def __init__(self, left, right, b, a):
        self._set(left=left, right=right, b=tuple(map(as_int, b)),
                  a=tuple(map(as_int, a)))
        problems = self.violations()
        if problems:
            raise InputError("invalid gluing: " + "; ".join(problems))

    @property
    def p(self) -> int:
        return sum(c * m for c, m in zip(self.b, self.left.generators))

    @property
    def q(self) -> int:
        return sum(c * n for c, n in zip(self.a, self.right.generators))

    @property
    def glued_generators(self) -> tuple[int, ...]:
        """q*m_1, ..., q*m_l, then p*n_1, ..., p*n_k: the glued order."""
        return (tuple(self.q * m for m in self.left.generators)
                + tuple(self.p * n for n in self.right.generators))

    @property
    def largest_side(self) -> str:
        """The block holding the largest glued generator."""
        right_wins = self.p * self.right.generators[-1] > self.q * self.left.generators[-1]
        return "right" if right_wins else "left"

    @property
    def smallest_side(self) -> str:
        """The block holding the smallest glued generator."""
        right_wins = self.p * self.right.generators[0] < self.q * self.left.generators[0]
        return "right" if right_wins else "left"

    def violations(self) -> list[str]:
        out = []
        if len(self.b) != self.left.embedding_dim:
            out.append("b has wrong length")
        if len(self.a) != self.right.embedding_dim:
            out.append("a has wrong length")
        if any(c < 0 for c in self.b + self.a):
            out.append("witness coefficients must be nonnegative")
        if out:
            return out
        p, q = self.p, self.q
        if p <= 0 or q <= 0:
            out.append("p and q must be positive")
            return out
        if math.gcd(p, q) != 1:
            out.append(f"gcd(p={p}, q={q}) != 1")
        if p in self.left.generators:
            out.append(f"p={p} is a generator of the left factor")
        if q in self.right.generators:
            out.append(f"q={q} is a generator of the right factor")
        left_scaled = {q * m for m in self.left.generators}
        right_scaled = {p * n for n in self.right.generators}
        if left_scaled & right_scaled:
            out.append(f"scaled generator sets overlap: {sorted(left_scaled & right_scaled)}")
        return out


def gluing(left, right, b, a) -> GluingSpec:
    """GluingSpec from raw generator lists."""
    return GluingSpec(NumericalSemigroup(left), NumericalSemigroup(right), b, a)


def glue(spec: GluingSpec) -> NumericalSemigroup:
    """The glued numerical semigroup <q*m_i, p*n_j>.  For a valid spec the
    glued generators are minimal and coprime (Rosales), which the
    NumericalSemigroup constructor checks again."""
    return NumericalSemigroup(spec.glued_generators)


def is_nice_gluing(spec: GluingSpec) -> str:
    """Classify: 'nice' (q = a_1*n_1 with sum b >= a_1), 'generalized_nice'
    (sum b > sum a), or 'neither'."""
    if all(c == 0 for c in spec.a[1:]) and sum(spec.b) >= spec.a[0]:
        return "nice"
    if sum(spec.b) > sum(spec.a):
        return "generalized_nice"
    return "neither"


def is_star_gluing(spec: GluingSpec) -> bool:
    """sum a < sum b, the inequality defining a generalized star gluing."""
    return sum(spec.a) < sum(spec.b)


class ConditionReport(NamedTuple):
    """Literal lcm test of a gluing witness vector against basis lead exponents.

    The test is lcm(w_i, alpha_i) != w_i for every basis lead exponent alpha
    and every position i.  `holds` uses the convention lcm(m, 0) := m;
    `holds_zero_convention` uses integer lcm (lcm(m, 0) = 0).  Both are kept
    because zero exponents make the conventions diverge.

    Against a reduced toric basis `holds` is False whenever the factor has
    two or more generators: each binomial has disjoint lead and tail
    supports and a nonzero tail, so each lead has a zero exponent.  Under
    integer lcm, fixture spread-witness-p11-q14 would have every hypothesis
    hold and its sides disagree: a conflict.
    """

    name: str
    holds: bool
    holds_zero_convention: bool
    violations: tuple[str, ...]
    violations_zero_convention: tuple[str, ...]

    @property
    def conventions_differ(self) -> bool:
        return self.holds != self.holds_zero_convention

    def __bool__(self) -> bool:
        return self.holds


def _condition_check(name: str, weights: tuple[int, ...], gb) -> ConditionReport:
    elements = getattr(gb, "elements", gb)
    bad_m: list[str] = []
    bad_z: list[str] = []
    for f in elements:
        alpha = f.lead[:len(weights)]
        for i, (w, x) in enumerate(zip(weights, alpha)):
            lcm_m = w if x == 0 else (x if w == 0 else math.lcm(w, x))
            lcm_z = 0 if 0 in (w, x) else math.lcm(w, x)
            note = f"lead {f.lead} position {i + 1}: lcm({w},{x})"
            if lcm_m == w:
                bad_m.append(note + f"={lcm_m}")
            if lcm_z == w:
                bad_z.append(note + f"={lcm_z}")
    return ConditionReport(name, not bad_m, not bad_z, tuple(bad_m), tuple(bad_z))


def condition_A(spec: GluingSpec, gb_left) -> ConditionReport:
    """Test the left witness b against every lead exponent of a reduced basis
    of the left factor's defining ideal."""
    return _condition_check("A", spec.b, gb_left)


def condition_B(spec: GluingSpec, gb_right) -> ConditionReport:
    """Same literal test for the right witness a."""
    return _condition_check("B", spec.a, gb_right)


# ---------------------------------------------------------------------------
# extension and join


class ExtensionSpec(Frozen):
    """E = <l*a_1, ..., l*a_n, a> where a = sum u_i a_i is a member of base."""

    __slots__ = _fields = ("base", "l", "u")
    base: AffineSemigroup
    l: int
    u: tuple[int, ...]

    def __init__(self, base, l, u):
        if isinstance(base, NumericalSemigroup):
            base = AffineSemigroup([(g,) for g in base.generators])
        self._set(base=base, l=as_int(l), u=tuple(map(as_int, u)))
        if self.l < 1:
            raise InputError("l must be a positive integer")
        if len(self.u) != len(base.generators) or any(c < 0 for c in self.u):
            raise InputError("u must be a nonnegative witness over the base generators")
        a = self.a
        if not any(a):
            raise InputError("a must be a nonzero member of the base")
        if not any(math.gcd(self.l, c) == 1 for c in a):
            raise InputError(f"l={self.l} is coprime to no component of a={a}")

    @property
    def a(self) -> Vec:
        vecs = self.base.generators
        out = (0,) * self.base.dim
        for c, g in zip(self.u, vecs):
            out = vec_add(out, scale(c, g))
        return out


def extend(spec: ExtensionSpec) -> AffineSemigroup:
    """E = <l*a_1, ..., l*a_n, a>: the scaled base generators, then spec.a."""
    return AffineSemigroup([scale(spec.l, g) for g in spec.base.generators] + [spec.a])


def join(s1: AffineSemigroup, s2: AffineSemigroup) -> AffineSemigroup:
    """Semigroup generated by both factors; extremal rays must stay independent."""
    if s1.dim != s2.dim:
        raise InputError("factors must share an ambient N^d")
    if set(s1.generators) & set(s2.generators):
        raise InputError("factor generator sets must be disjoint")
    rays = s1.extremal_rays() + s2.extremal_rays()
    if rational_rank(rays) != len(rays):
        raise InputError("extremal rays of the factors are linearly dependent over Q")
    joined = AffineSemigroup(s1.generators + s2.generators)
    assert rational_rank(joined.generators) == (rational_rank(s1.generators)
                                                + rational_rank(s2.generators))
    return joined
