"""Numerical and affine semigroups.

Membership, gaps, Apery sets, the max-factorization-length order function and
the Hilbert function of the associated graded ring, cone geometry, and the
gluing / extension / join constructors.  Everything is exact integer or
rational arithmetic.  Numerical membership reads the Apery set of the
multiplicity; the order function and the Hilbert function read the Apery
table of the powers of the maximal ideal.  Each derived artifact of an
instance is built once through `artifact` and never grows.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .errors import CertificationError, Deadline, InputError, tick
from .linalg import nonneg_solve, rational_rank
from .monomials import Order, Vec, compare, scale, vec_add

T = TypeVar("T")


def artifact(s, name: str, build: Callable[[], T]) -> T:
    """The artifact `name` of semigroup s, stored in s._memo when build()
    first returns and never changed; a build cut short by a deadline raises
    and stores nothing, so a later call with more time can finish it."""
    try:
        memo = s._memo
    except AttributeError:
        raise InputError(f"expected a semigroup, got {type(s).__name__}") from None
    if name not in memo:
        memo[name] = build()
    return memo[name]


# ---------------------------------------------------------------------------
# numerical semigroups


@dataclass(frozen=True)
class NumericalSemigroup:
    """Submonoid of N with gcd 1, stored by its minimal generators n_1 < ... < n_e.

    Membership reads the Apery set of n_1; `ord`, the Hilbert function and
    its stabilization index read the Apery table of the powers of the
    maximal ideal, in O(n_1) entries per row whatever the size of the
    integers.  It and the toric ideal with its bases are built once per
    instance by `artifact`.
    """

    generators: tuple[int, ...]

    def __init__(self, generators: Sequence[int]):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or gens[0] <= 0:
            raise InputError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise InputError(f"gcd of generators {gens} must be 1")
        redundant = _redundant_numeric(gens)
        if redundant:
            raise InputError(f"generating set not minimal: {sorted(redundant)} are redundant")
        object.__setattr__(self, "generators", gens)

    @property
    def embedding_dim(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @cached_property
    def _apery_by_residue(self) -> list[int]:
        # Ap(S, n_1) indexed by residue; n_1 is a member, so no check is needed
        return _least_per_residue(self.generators, self.multiplicity)

    def membership(self, x: int) -> bool:
        """True iff x >= Ap(S, n_1)[x mod n_1], the least member congruent to x."""
        if x < 0:
            raise InputError("membership is defined on N")
        return x >= self._apery_by_residue[x % self.multiplicity]

    def __contains__(self, x: int) -> bool:
        return self.membership(x)

    def apery(self, m: int) -> list[int]:
        """Least member in each residue class mod m, sorted; m must be a nonzero member."""
        if m == 0 or not self.membership(m):
            raise InputError(f"{m} is not a nonzero member")
        return sorted(_least_per_residue(self.generators, m))

    def frobenius(self) -> int:
        """Largest integer outside the semigroup; -1 when the semigroup is N."""
        return max(self._apery_by_residue) - self.multiplicity

    def gaps(self) -> list[int]:
        return [v for v in range(1, self.frobenius() + 1) if not self.membership(v)]

    def pf_numeric(self) -> list[int]:
        """Pseudo-Frobenius numbers: gaps f with f + n_i inside for every generator.

        They are the w - n_1 over the elements w of Ap(S, n_1) maximal in the
        semigroup order (Rosales, Garcia-Sanchez, Numerical Semigroups, 2009,
        Prop. 2.20): w > 0 and no w + n_i, i >= 2, lies in Ap(S, n_1), that is
        w + n_i - n_1 is a member.  O(n_1 * e) membership tests.
        """
        n1, rest = self.multiplicity, self.generators[1:]
        return sorted(w - n1 for w in self._apery_by_residue
                      if w and all(self.membership(w + g - n1) for g in rest))

    @cached_property
    def _memo(self) -> dict:
        # finished artifacts by name, filled only through `artifact`
        return {}

    def apery_table(self, deadline: Optional[Deadline] = None) -> tuple[list[int], ...]:
        """Rows m_0, ..., m_r of the Apery table of the powers of the maximal
        ideal M (Cortadellas Benitez, Jafari, Zarzuela, Semigroup Forum 86,
        2013): m_l(i) is the least element of M^l congruent to i mod n_1, so
        m_0 = Ap(S, n_1) and m_l(i) = min over generators g of g + m_{l-1}(i - g).
        Columns step by 0 or n_1; the table stops at the reduction number r,
        the first row whose successor is the row plus n_1, and r < n_1.  It
        is an artifact of the instance, checking the deadline once per row.
        """
        def build() -> tuple[list[int], ...]:
            n1 = self.multiplicity
            rows = [self._apery_by_residue]
            while True:
                tick(deadline)
                prev = rows[-1]
                climbed = [v + n1 for v in prev]
                row = climbed
                for g in self.generators[1:]:
                    k = n1 - g % n1  # rotate so that shifted[i] = prev[(i - g) % n1]
                    row = [a if a <= b + g else b + g
                           for a, b in zip(row, prev[k:] + prev[:k])]
                if row == climbed:
                    return tuple(rows)
                rows.append(row)

        return artifact(self, "apery_table", build)

    def ord(self, s: int) -> int:
        """Max factorization length of a member: the last row of the Apery
        table whose entry in the residue of s is at most s, plus one per n_1
        past the table."""
        if s < 0 or not self.membership(s):
            raise InputError(f"{s} is not a member")
        rows, r = self.apery_table(), s % self.multiplicity
        below = bisect_right(rows, s, key=lambda row: row[r])
        return below - 1 + max(0, s - rows[-1][r]) // self.multiplicity

    def hilbert_gr(self, upto: int, deadline: Optional[Deadline] = None) -> list[int]:
        """Hilbert function of the associated graded ring:
        H(l) = #(M^l minus M^(l+1)) = sum over residues of (m_(l+1) - m_l) / n_1,
        which is n_1 from the reduction number on."""
        if upto < 0:
            raise InputError("upto must be >= 0")
        sums = [sum(row) for row in self.apery_table(deadline)]
        n1 = self.multiplicity
        return [(sums[l + 1] - sums[l]) // n1 if l + 1 < len(sums) else n1
                for l in range(upto + 1)]

    def hilbert_stabilization(self, deadline: Optional[Deadline] = None) -> int:
        """Least index from which H equals the multiplicity n_1: the
        reduction number, the last row of the Apery table.  Every column
        step is 0 or n_1, so H(l) < n_1 exactly for l below it."""
        return len(self.apery_table(deadline)) - 1

    def hilbert_nondecreasing(self, upto: Optional[int] = None) -> bool:
        """True iff H is non-decreasing through its certified stabilization index."""
        stab = self.hilbert_stabilization()
        if upto is None:
            upto = stab
        elif upto < stab:
            raise CertificationError(
                f"window {upto} too small to certify: stabilization at {stab}")
        h = self.hilbert_gr(upto)
        return all(h[i] <= h[i + 1] for i in range(len(h) - 1))


def _least_per_residue(gens: tuple[int, ...], m: int) -> list[int]:
    """Least member of <gens> in each residue class mod m, indexed by residue
    (Dijkstra on the residues, one edge per generator)."""
    dist: list[Optional[int]] = [None] * m
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    while heap:
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


def _redundant_numeric(gens: tuple[int, ...]) -> list[int]:
    out = []
    for g in gens:
        others = [h for h in gens if h != g]
        if not others:
            continue
        reach = [True] + [False] * g
        for v in range(1, g + 1):
            reach[v] = any(v >= h and reach[v - h] for h in others)
        if reach[g]:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# affine semigroups


class Membership(NamedTuple):
    ok: bool
    witness: Optional[Vec]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AffineSemigroup:
    """Submonoid of N^d given by distinct nonzero minimal generators."""

    generators: tuple[Vec, ...]
    dim: int

    def __init__(self, generators: Sequence[Sequence[int]]):
        gens = tuple(tuple(int(c) for c in g) for g in generators)
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
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "dim", d)
        bad = [g for g in gens if _affine_member(tuple(h for h in gens if h != g), g)[0]]
        if bad:
            raise InputError(f"generating set not minimal: {bad} are redundant")

    @cached_property
    def _memo(self) -> dict:
        # finished artifacts by name, filled only through `artifact`
        return {}

    def membership(self, x: Sequence[int]) -> Membership:
        """Exact DFS with componentwise pruning; returns a witness when inside."""
        x = tuple(int(c) for c in x)
        if len(x) != self.dim:
            raise InputError("dimension mismatch")
        if any(c < 0 for c in x):
            return Membership(False, None)
        return _affine_member(self.generators, x)

    def __contains__(self, x: Sequence[int]) -> bool:
        return self.membership(x).ok

    def members_within(self, box: Sequence[int],
                       deadline: Optional[Deadline] = None) -> set[Vec]:
        """All members componentwise below box, by closure from 0."""
        box = tuple(int(c) for c in box)
        seen: set[Vec] = {(0,) * self.dim}
        frontier = [(0,) * self.dim]
        while frontier:
            nxt = []
            for i, pt in enumerate(frontier):
                if not i & 4095:
                    tick(deadline)
                for g in self.generators:
                    q = vec_add(pt, g)
                    if q not in seen and all(a <= b for a, b in zip(q, box)):
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return seen

    def cone_membership(self, x: Sequence[int]) -> bool:
        """x in {sum lambda_i a_i : lambda_i in Q>=0}, decided exactly."""
        x = tuple(int(c) for c in x)
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

    def gap_set(self, box: Sequence[int],
                deadline: Optional[Deadline] = None) -> "GapScan":
        """Cone points below box that are not members, plus a shell-clean flag."""
        box = tuple(int(c) for c in box)
        members = self.members_within(box, deadline)
        thickness = max(max(g) for g in self.generators)
        gaps = []
        shell_clean = True
        for i, pt in enumerate(_box_points(box)):
            if not i & 4095:
                tick(deadline)
            if pt in members or not self.cone_membership(pt):
                continue
            gaps.append(pt)
            if any(c + thickness > b for c, b in zip(pt, box)):
                shell_clean = False
        return GapScan(tuple(sorted(gaps)), shell_clean, box)

    def pf_direct(self, box: Sequence[int],
                  deadline: Optional[Deadline] = None) -> list[Vec]:
        """Pseudo-Frobenius elements by the gap-set definition; needs a clean shell."""
        return self.pf_from_scan(self.gap_set(box, deadline))

    def pf_from_scan(self, scan: "GapScan") -> list[Vec]:
        """The gaps f of a shell-clean gap scan with f + g a member for every generator g."""
        if not scan.shell_clean:
            raise CertificationError(
                "gap set not certifiably finite within box: gaps touch the outer shell")
        return [f for f in scan.gaps
                if all(self.membership(vec_add(f, g)).ok for g in self.generators)]


def _affine_member(gens: tuple[Vec, ...], x: Vec) -> Membership:
    failed: set[tuple[Vec, int]] = set()

    def rec(rest: Vec, i: int) -> Optional[list[int]]:
        if not any(rest):
            return [0] * (len(gens) - i)
        if i == len(gens):
            return None
        key = (rest, i)
        if key in failed:
            return None
        g = gens[i]
        kmax = min((r // c for r, c in zip(rest, g) if c), default=None)
        if kmax is None:  # zero generator cannot happen; defensive
            return None
        for k in range(kmax, -1, -1):
            sub = rec(tuple(r - k * c for r, c in zip(rest, g)), i + 1)
            if sub is not None:
                return [k] + sub
        failed.add(key)
        return None

    z = rec(x, 0)
    return Membership(z is not None, tuple(z) if z is not None else None)


def axis_apery(gens: Sequence[Vec], deadline: Optional[Deadline] = None
               ) -> Optional[tuple[tuple[Vec, ...], frozenset]]:
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
            tick(deadline)
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


def _box_points(box: Vec):
    if len(box) == 1:
        for v in range(box[0] + 1):
            yield (v,)
        return
    for head in range(box[0] + 1):
        for rest in _box_points(box[1:]):
            yield (head,) + rest


@dataclass(frozen=True)
class GapScan:
    gaps: tuple[Vec, ...]
    shell_clean: bool
    box: Vec


def embed_axis(s: NumericalSemigroup, dim: int, axis: int) -> AffineSemigroup:
    """Embed a numerical semigroup on one coordinate axis of N^dim."""
    if not 0 <= axis < dim:
        raise InputError("axis out of range")
    gens = [tuple(g if i == axis else 0 for i in range(dim)) for g in s.generators]
    return AffineSemigroup(gens)


def nd_order(kind: str = "graded-lex", dim: int = 1,
             priority: Optional[Vec] = None) -> Order:
    """Term order on N^d used for picking maxima of gap sets."""
    if kind == "graded-lex":
        return Order("degree", "lex", tuple(priority) if priority else tuple(range(dim)))
    if kind == "lex":
        return Order("none", "lex", tuple(priority) if priority else tuple(range(dim)))
    raise InputError(f"unknown N^d order kind {kind!r}")


def nd_max(order: Order, points: Sequence[Vec]) -> Vec:
    if not points:
        raise InputError("empty point set has no maximum")
    best = points[0]
    for p in points[1:]:
        if compare(order, p, best) > 0:
            best = p
    return best


# ---------------------------------------------------------------------------
# gluing


@dataclass(frozen=True)
class GluingSpec:
    """Glue left (gens m_1<...<m_l) and right (gens n_1<...<n_k) along
    p = sum b_i m_i and q = sum a_j n_j."""

    left: NumericalSemigroup
    right: NumericalSemigroup
    b: tuple[int, ...]
    a: tuple[int, ...]

    def __init__(self, left, right, b, a):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "b", tuple(int(c) for c in b))
        object.__setattr__(self, "a", tuple(int(c) for c in a))
        problems = self.violations()
        if problems:
            raise InputError("invalid gluing: " + "; ".join(problems))

    @property
    def p(self) -> int:
        return sum(c * m for c, m in zip(self.b, self.left.generators))

    @property
    def q(self) -> int:
        return sum(c * n for c, n in zip(self.a, self.right.generators))

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


@dataclass(frozen=True)
class GluedSemigroup:
    """Result of a gluing, with generator provenance."""

    spec: GluingSpec
    left_scaled: tuple[int, ...]   # q*m_1, ..., q*m_l
    right_scaled: tuple[int, ...]  # p*n_1, ..., p*n_k
    semigroup: NumericalSemigroup  # sorted minimal generators

    @property
    def generators(self) -> tuple[int, ...]:
        """Generators in glued order: left block then right block."""
        return self.left_scaled + self.right_scaled

    @property
    def largest_side(self) -> str:
        return "right" if max(self.right_scaled) > max(self.left_scaled) else "left"

    @property
    def smallest_side(self) -> str:
        return "right" if min(self.right_scaled) < min(self.left_scaled) else "left"


def glue(spec: GluingSpec) -> GluedSemigroup:
    """Build the glued numerical semigroup <q*m_i, p*n_j>."""
    q, p = spec.q, spec.p
    left_scaled = tuple(q * m for m in spec.left.generators)
    right_scaled = tuple(p * n for n in spec.right.generators)
    gens = left_scaled + right_scaled
    assert math.gcd(*gens) == 1
    redundant = _redundant_numeric(tuple(sorted(gens)))
    if redundant:
        raise InputError(f"glued generators not minimal: {sorted(redundant)} redundant")
    return GluedSemigroup(spec, left_scaled, right_scaled, NumericalSemigroup(gens))


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


@dataclass(frozen=True)
class ConditionReport:
    """Literal lcm test of a gluing witness vector against basis lead exponents.

    The test is lcm(w_i, alpha_i) != w_i for every basis lead exponent alpha
    and every position i.  `holds` uses the convention lcm(m, 0) := m;
    `holds_zero_convention` uses integer lcm (lcm(m, 0) = 0).  Both are kept
    because zero exponents make the conventions diverge.
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
    if hasattr(gb, "reduced") and not gb.reduced:
        raise InputError("condition test requires a reduced basis")
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


@dataclass(frozen=True)
class ExtensionSpec:
    """E = <l*a_1, ..., l*a_n, a> where a = sum u_i a_i is a member of base."""

    base: AffineSemigroup
    l: int
    u: tuple[int, ...]

    def __init__(self, base, l, u):
        if isinstance(base, NumericalSemigroup):
            base = AffineSemigroup([(g,) for g in base.generators])
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "l", int(l))
        object.__setattr__(self, "u", tuple(int(c) for c in u))
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


@dataclass(frozen=True)
class ExtendedSemigroup:
    spec: ExtensionSpec
    semigroup: AffineSemigroup

    @property
    def scaled_base(self) -> tuple[Vec, ...]:
        return tuple(scale(self.spec.l, g) for g in self.spec.base.generators)

    @property
    def new_generator(self) -> Vec:
        return self.spec.a


def extend(spec: ExtensionSpec) -> ExtendedSemigroup:
    gens = [scale(spec.l, g) for g in spec.base.generators] + [spec.a]
    return ExtendedSemigroup(spec, AffineSemigroup(gens))


@dataclass(frozen=True)
class JoinedSemigroup:
    left: AffineSemigroup
    right: AffineSemigroup
    semigroup: AffineSemigroup
    dim_left: int   # rank of the left factor's span
    dim_right: int


def join(s1: AffineSemigroup, s2: AffineSemigroup) -> JoinedSemigroup:
    """Semigroup generated by both factors; extremal rays must stay independent."""
    if s1.dim != s2.dim:
        raise InputError("factors must share an ambient N^d")
    if set(s1.generators) & set(s2.generators):
        raise InputError("factor generator sets must be disjoint")
    rays = s1.extremal_rays() + s2.extremal_rays()
    if rational_rank(rays) != len(rays):
        raise InputError("extremal rays of the factors are linearly dependent over Q")
    joined = AffineSemigroup(s1.generators + s2.generators)
    r1, r2 = rational_rank(s1.generators), rational_rank(s2.generators)
    assert rational_rank(joined.generators) == r1 + r2
    return JoinedSemigroup(s1, s2, joined, r1, r2)
