"""Betti tables via divisor-complex homology: oracles, fixtures, invariants."""
import random
import time
import tracemalloc
from dataclasses import dataclass
from typing import Sequence

import pytest

from sgring import linalg, theorems, verdicts
from sgring.affine import AffineSemigroup, Grid, axis_apery, embed_axis, join, member_board
from sgring.errors import CertificationError, Deadline, DeadlineExceeded, InputError
from sgring.semigroups import NumericalSemigroup
from sgring.resolution import (
    BettiTable,
    ResolutionSummary,
    _homology_ranks,
    _scan,
    betti_degrees,
    is_prec_symmetric,
    pf_via_betti,
    resolution_summary,
    sifr_check,
    tensor_betti,
)
from sgring.toric import reduced_basis
from sgring.verdicts import closure_resolution, projective_closure_semigroup

from dense_scan_oracle import dense_betti_degrees
from homology_oracle import faces_of_mask, ranks_from_faces
from test_acceptance import CLOSURE_REGRESSIONS

MAT_A = AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])
MAT_B = AffineSemigroup([(6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9)])


# --- divisor complexes, built one point at a time as an oracle ---------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertices 0..n-1; stored by maximal faces.  No facets means just {()}."""
    n: int
    facets: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, facets: Sequence[Sequence[int]]):
        n = int(n)
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        sets = {frozenset(int(v) for v in f) for f in facets}
        for f in sets:
            if any(not 0 <= v < n for v in f):
                raise InputError("facet vertex out of range")
        maximal = [f for f in sets if not any(f < g for g in sets)]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets",
                           tuple(sorted(tuple(sorted(f)) for f in maximal)))

    def faces_by_size(self) -> list[list[tuple[int, ...]]]:
        """All faces (downward closure), grouped by cardinality; size 0 is {()}."""
        seen: set[tuple[int, ...]] = {()}
        for facet in self.facets:
            k = len(facet)
            for mask in range(1, 1 << k):
                seen.add(tuple(facet[i] for i in range(k) if mask >> i & 1))
        top = max(map(len, seen))
        grouped: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
        for f in sorted(seen):
            grouped[len(f)].append(f)
        return grouped


def homology_ranks(k: SimplicialComplex) -> list[int]:
    """Reduced homology ranks over Q; entry i feeds the Betti number at level i."""
    return ranks_from_faces(k.faces_by_size())


def sq_divisor_complex(s, b) -> SimplicialComplex:
    """Faces are generator subsets F with b - sum(F) still in the semigroup."""
    numerical = isinstance(s, NumericalSemigroup)
    gens = [(g,) for g in s.generators] if numerical else list(s.generators)
    bb = (int(b),) if numerical else tuple(int(c) for c in b)

    def member(v):
        if any(c < 0 for c in v):
            return False
        return v[0] in s if numerical else s.membership(v).ok

    if not member(bb):
        raise InputError(f"{b} is not in the semigroup")
    n = len(gens)
    faces = []
    for mask in range(1 << n):
        rest = bb
        for i in range(n):
            if mask >> i & 1:
                rest = tuple(r - g for r, g in zip(rest, gens[i]))
        if member(rest):
            faces.append(mask)
    facets = [[i for i in range(n) if m >> i & 1] for m in faces
              if not any(m != o and m & o == m for o in faces)]
    return SimplicialComplex(n, facets)


def random_numerical(rng, lo=2, hi=30, kmax=4):
    while True:
        cand = sorted(rng.sample(range(lo, hi + 1), rng.randint(2, kmax)))
        try:
            return NumericalSemigroup(cand)
        except InputError:
            continue


def brute_betti_rows(s, bound):
    # independent scan: set-closure membership, per-point subset loops, exact
    # homology on the complex built above; no bitboards anywhere
    if isinstance(s, NumericalSemigroup):
        members = {b for b in range(bound + 1) if b in s}
        points = [(b,) for b in sorted(members)]
        vecs = {(b,) for b in members}
        wrap = lambda v: v[0]
    else:
        vecs = s.members_within(bound)
        points = sorted(vecs)
        wrap = lambda v: v
    rows = {}
    for pt in points:
        ranks = homology_ranks(sq_divisor_complex(s, wrap(pt)))
        for i, r in enumerate(ranks):
            if r:
                rows.setdefault(i, []).extend([wrap(pt)] * r)
    return {i: tuple(sorted(v)) for i, v in rows.items()}


# --- simplicial complexes and homology ---------------------------------------


def test_complex_normalizes_to_facets():
    k = SimplicialComplex(3, [(0, 1), (1,), (0, 1), (2,)])
    assert k.facets == ((0, 1), (2,))
    assert k.faces_by_size() == [[()], [(0,), (1,), (2,)], [(0, 1)]]
    with pytest.raises(InputError):
        SimplicialComplex(2, [(0, 2)])


def test_homology_hand_values():
    # full simplex: contractible
    assert homology_ranks(SimplicialComplex(3, [(0, 1, 2)])) == [0, 0, 0, 0]
    # just the empty face
    assert homology_ranks(SimplicialComplex(0, [()])) == [1]
    # two isolated vertices: one reduced class in degree 0
    assert homology_ranks(SimplicialComplex(2, [(0,), (1,)])) == [0, 1]
    # hollow triangle: a circle
    assert homology_ranks(SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])) == [0, 0, 1]
    # square cycle: still a circle
    sq = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert homology_ranks(sq) == [0, 0, 1]
    # two triangles glued along an edge: contractible
    glued = SimplicialComplex(4, [(0, 1, 2), (1, 2, 3)])
    assert homology_ranks(glued) == [0, 0, 0, 0]
    # hollow tetrahedron: a 2-sphere
    sphere = SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert homology_ranks(sphere) == [0, 0, 0, 1]
    # circle plus an isolated vertex: classes in two degrees
    both = SimplicialComplex(4, [(0, 1), (1, 2), (0, 2), (3,)])
    assert homology_ranks(both) == [0, 1, 1]


def test_divisor_complex_worked():
    s = NumericalSemigroup((3, 5, 7))
    assert sq_divisor_complex(s, 0).facets == ((),)
    assert sq_divisor_complex(s, 3).facets == ((0,),)
    # 10 = 3+7 = 5+5: the x1x3 edge and the lone x2 vertex, disconnected
    k = sq_divisor_complex(s, 10)
    assert k.facets == ((0, 2), (1,))
    assert homology_ranks(k) == [0, 1, 0]
    with pytest.raises(InputError):
        sq_divisor_complex(s, 4)
    assert sq_divisor_complex(MAT_A, (3, 0)).facets == ((0,),)


# --- homology read from face masks ---------------------------------------------


def mask_of(n, tops):
    """Face mask (bit k for the vertex subset k) of the complex whose facets
    are the vertex subsets in tops."""
    return sum(1 << k for k in range(1 << n) if any(k & t == k for t in tops))


# the 6-vertex real projective plane: H_1(Z) = Z/2, reduced rational homology 0
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]


def test_face_mask_homology_of_the_projective_plane():
    edges = [e for f in RP2 for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))]
    assert len(set(edges)) == 15 and all(edges.count(e) == 2 for e in set(edges))
    tris = [sum(1 << v for v in f) for f in RP2]
    bits = mask_of(6, tris)
    assert _homology_ranks(bits, 6) == [0, 0, 0, 0]
    assert ranks_from_faces(faces_of_mask(bits, 6)) == [0, 0, 0, 0]
    # The boundary of the triangles has rank 10 over Q but 9 over GF(2),
    # since H_1(Z) = Z/2.  A run of unit pivots is also an elimination mod 2,
    # so the elimination behind the ranks above met a non-unit pivot.
    assert linalg.rational_rank([{t ^ 1 << v: (-1) ** i for i, v in enumerate(f)}
                                 for t, f in zip(tris, RP2)]) == 10
    basis: dict[int, int] = {}
    for t, f in zip(tris, RP2):
        row = sum(1 << (t ^ 1 << v) for v in f)
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        if row:
            basis[row.bit_length()] = row
    assert len(basis) == 9


def test_face_mask_homology_matches_the_tuple_oracle():
    rng = random.Random(2026)
    homology = 0
    for trial in range(300):
        n = rng.randint(1, 7)
        picks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))]
        if trial % 2:   # near empty: the faces of a few random subsets
            bits = mask_of(n, picks)
        else:           # near full: the simplex less a few faces and their cofaces
            bits = sum(1 << k for k in range(1 << n)
                       if not any(k & g == g for g in picks))
        ranks = _homology_ranks(bits, n)
        assert ranks == ranks_from_faces(faces_of_mask(bits, n)), (n, bin(bits))
        homology += any(ranks)
    assert homology > 50   # nonzero homology is really exercised


# --- betti tables -------------------------------------------------------------


def test_betti_357():
    s = NumericalSemigroup((3, 5, 7))
    t = betti_degrees(s)
    assert t.rows == ((0,), (10, 12, 14), (17, 19))
    assert t.total == (1, 3, 2)
    assert resolution_summary(s, t) == ResolutionSummary(2, 1, 1, True, False)
    assert pf_via_betti(s, t) == [2, 4] == s.pf_numeric()


def test_betti_hypersurface():
    s = NumericalSemigroup((2, 3))
    t = betti_degrees(s)
    assert t.rows == ((0,), (6,))
    summary = resolution_summary(s, t)
    assert (summary.pd, summary.cm, summary.gorenstein) == (1, True, True)


def test_two_generated_principal():
    rng = random.Random(7)
    for _ in range(8):
        while True:
            a, b = sorted(rng.sample(range(2, 30), 2))
            try:
                s = NumericalSemigroup((a, b))
                break
            except InputError:
                continue
        assert betti_degrees(s).rows == ((0,), (a * b,))


def test_betti_matches_brute_oracle_numerical():
    rng = random.Random(11)
    for _ in range(10):
        s = random_numerical(rng)
        t = betti_degrees(s)
        bound = s.frobenius() + sum(s.generators)
        assert brute_betti_rows(s, bound) == {i: r for i, r in enumerate(t.rows)}


def test_betti_matches_brute_oracle_affine():
    t = betti_degrees(MAT_A)
    bound = tuple(5 * c for c in (11, 7))
    assert brute_betti_rows(MAT_A, bound) == {i: r for i, r in enumerate(t.rows)}


def test_matrix_a_paper_values():
    t = betti_degrees(MAT_A)
    assert t.total == (1, 7, 11, 6, 1)
    assert t.top_degrees == ((18, 9),)
    summary = resolution_summary(MAT_A, t)
    assert (summary.pd, summary.depth, summary.dim) == (4, 1, 2)
    assert not summary.cm
    assert pf_via_betti(MAT_A, t) == [(7, 2)]
    # the graded-lex maximum gap, read from the derived, certified gap set,
    # is the pseudo-Frobenius element
    assert max(MAT_A.gap_set().all_gaps(), key=lambda p: (sum(p), p)) == (7, 2)
    assert is_prec_symmetric(MAT_A, t)
    fresh = AffineSemigroup(MAT_A.generators)
    with pytest.raises(DeadlineExceeded), Deadline(-1):  # the gap scan checks the deadline
        is_prec_symmetric(fresh, t)


def test_matrix_b_values():
    t = betti_degrees(MAT_B)
    # the published chain prints these middle coefficients mirrored; the
    # extension law below and the direct count of minimal relations (the seven
    # doubled ones plus y^2 - x^w) both give this order
    assert t.total == (1, 8, 18, 17, 7, 1)
    assert t.top_degrees == ((48, 36),)
    assert pf_via_betti(MAT_B, t) == [(20, 13)]
    summary = resolution_summary(MAT_B, t)
    assert (summary.pd, summary.depth, summary.dim, summary.cm) == (5, 1, 2, False)


def test_extension_betti_law_a_to_b():
    # degrees of the extension: double every degree, plus the shifted copy of
    # the previous row moved by the new generator before doubling
    ta = betti_degrees(MAT_A)
    tb = betti_degrees(MAT_B)
    l, a = 2, (6, 9)
    for i in range(tb.pd + 1):
        level = []
        if i <= ta.pd:
            level += [tuple(l * c for c in b) for b in ta.rows[i]]
        if 1 <= i <= ta.pd + 1:
            level += [tuple(l * (c + d) for c, d in zip(b, a)) for b in ta.rows[i - 1]]
        assert tuple(sorted(level)) == tb.rows[i]


def test_top_row_is_boundary_complexes():
    # level n-1 needs homology in degree n-2: only the full simplex boundary
    s = NumericalSemigroup((3, 5, 7))
    t = betti_degrees(s)
    n = len(s.generators)
    for b in t.rows[-1]:
        k = sq_divisor_complex(s, b)
        assert sorted(map(len, k.facets)) == [n - 1] * n


def test_euler_characteristic_matches_hilbert_series_numerical():
    rng = random.Random(13)
    for s in [NumericalSemigroup((3, 5, 7)), random_numerical(rng), random_numerical(rng)]:
        t = betti_degrees(s)
        upto = max(max(r) for r in t.rows) + 5
        numer = [0] * (upto + 1)
        for i, row in enumerate(t.rows):
            for b in row:
                numer[b] += (-1) ** i
        # multiply the membership series by prod (1 - t^g) term by term
        poly = [1]
        for g in s.generators:
            nxt = [0] * (len(poly) + g)
            for k, c in enumerate(poly):
                nxt[k] += c
                nxt[k + g] -= c
            poly = nxt
        for c in range(upto + 1):
            val = sum(poly[k] for k in range(min(c, len(poly) - 1) + 1)
                      if (c - k) in s)
            assert val == numer[c]


def test_euler_characteristic_matches_hilbert_series_affine():
    t = betti_degrees(MAT_A)
    box = (25, 15)
    members = MAT_A.members_within(box)
    poly = {(0, 0): 1}
    for g in MAT_A.generators:
        nxt = {}
        for k, c in poly.items():
            nxt[k] = nxt.get(k, 0) + c
            kk = (k[0] + g[0], k[1] + g[1])
            nxt[kk] = nxt.get(kk, 0) - c
        poly = nxt
    numer = {}
    for i, row in enumerate(t.rows):
        for b in row:
            numer[b] = numer.get(b, 0) + (-1) ** i
    for cx in range(box[0] + 1):
        for cy in range(box[1] + 1):
            val = sum(c for k, c in poly.items()
                      if k[0] <= cx and k[1] <= cy and (cx - k[0], cy - k[1]) in members)
            assert val == numer.get((cx, cy), 0)


# --- summaries, pf, symmetry, sifr --------------------------------------------


def test_pf_via_betti_requires_mpd():
    j = join(embed_axis(NumericalSemigroup((3, 5)), 2, 0),
             embed_axis(NumericalSemigroup((2, 3)), 2, 1))
    t = betti_degrees(j)
    summary = resolution_summary(j, t)
    assert summary.cm and summary.depth == 2
    with pytest.raises(InputError):
        pf_via_betti(j, t)
    assert not is_prec_symmetric(j, t)


def test_pf_via_betti_equals_direct_on_embedded():
    rng = random.Random(17)
    for _ in range(6):
        s = random_numerical(rng, hi=25, kmax=3)
        e = embed_axis(s, 1, 0)
        t = betti_degrees(e)
        assert pf_via_betti(e, t) == e.pf_direct()
        assert [f[0] for f in pf_via_betti(e, t)] == s.pf_numeric()


def test_prec_symmetric_numerical():
    s = NumericalSemigroup((3, 5, 7))
    assert not is_prec_symmetric(s, betti_degrees(s))  # two PF elements
    sym = NumericalSemigroup((3, 5))
    assert is_prec_symmetric(sym, betti_degrees(sym))  # PF = {7} = max gap


def test_prec_symmetric_uncertifiable_gaps():
    t = betti_degrees(MAT_B)
    with pytest.raises(CertificationError, match="gap set is infinite"):
        is_prec_symmetric(MAT_B, t)


def test_sifr_fixtures():
    s = NumericalSemigroup((3, 5, 7))
    assert sifr_check(s, betti_degrees(s)).holds
    assert sifr_check(NumericalSemigroup((2, 3)), betti_degrees(NumericalSemigroup((2, 3)))).holds
    report = sifr_check(MAT_A, betti_degrees(MAT_A))
    assert not report.holds
    b, c = report.pair
    diff = tuple(abs(x - y) for x, y in zip(b, c))
    assert MAT_A.membership(diff).ok or MAT_A.membership(tuple(y - x for x, y in zip(b, c))).ok


def test_sifr_check_honours_deadline():
    t = betti_degrees(MAT_A)
    with Deadline(60):
        timed = sifr_check(MAT_A, t)
    assert timed == sifr_check(MAT_A, t)
    # the first member test on a nonnegative difference ticks in the DFS
    with pytest.raises(DeadlineExceeded), Deadline(-1):
        sifr_check(MAT_A, t)


def test_tensor_betti():
    t1 = betti_degrees(embed_axis(NumericalSemigroup((3, 5, 7)), 2, 0))
    t2 = betti_degrees(embed_axis(NumericalSemigroup((2, 3)), 2, 1))
    tt = tensor_betti(t1, t2)
    assert tt.total == (1, 4, 5, 2)  # convolution of (1,3,2) and (1,1)
    ident = BettiTable((((0, 0),),), 0)
    assert tensor_betti(t1, ident).rows == t1.rows
    with pytest.raises(InputError):
        tensor_betti(t1, betti_degrees(NumericalSemigroup((2, 3))))


def test_join_equals_tensor():
    pairs = [((3, 5), (2, 3)), ((3, 5, 7), (2, 3)), ((4, 6, 9), (3, 4))]
    for g1, g2 in pairs:
        left = embed_axis(NumericalSemigroup(g1), 2, 0)
        right = embed_axis(NumericalSemigroup(g2), 2, 1)
        direct = betti_degrees(join(left, right))
        tensored = tensor_betti(betti_degrees(left), betti_degrees(right))
        assert direct.rows == tensored.rows


# --- failure detection ---------------------------------------------------------


def test_bounds_must_contain_the_certified_box():
    # matrix A's rays are the axes: its certified box is (18, 9), so a
    # scan to (19, 10) contains it
    assert certified_box(MAT_A) == (18, 9)
    assert _scan(MAT_A, (19, 10)).total == (1, 7, 11, 6, 1)
    # off the axes the box is A * lcm(leads): the one relation x1*x2 - x3^3
    # has lead x3^3, so the box is 3 * (1, 1), the relation's own degree
    s = AffineSemigroup([(1, 2), (2, 1), (1, 1)])
    assert certified_box(s) == (3, 3)
    assert _scan(s, (3, 3)).rows == betti_degrees(s).rows == (((0, 0),), ((3, 3),))


@pytest.mark.parametrize("gens, rows", [
    ([(1, 3), (2, 4), (4, 0)], (((0, 0),), ((12, 24),))),        # x1^8*x3 - x2^6
    ([(2, 1), (3, 0), (1, 3)], (((0, 0),), ((18, 9),))),         # x1^9 - x2^5*x3^3
    ([(3, 1), (1, 2), (2, 2), (5, 0)], (((0, 0),), ((6, 2), (10, 10)), ((16, 12),))),
])
def test_off_axis_tables_are_complete(gens, rows):
    s = AffineSemigroup(gens)
    assert betti_degrees(s).rows == rows
    doubled = tuple(2 * c for c in certified_box(s))
    assert _scan(s, doubled).rows == rows


def test_depth_above_dim_rejected():
    # a table without the degree-15 relation of <3, 5>: depth 2 exceeds dim 1
    e = embed_axis(NumericalSemigroup((3, 5)), 1, 0)
    with pytest.raises(CertificationError, match="depth 2 exceeds dimension 1"):
        resolution_summary(e, BettiTable((((0,),),), 2))


def test_betti_respects_deadline():
    with pytest.raises(DeadlineExceeded), Deadline(0):
        betti_degrees(MAT_B)
    # off the axes the box waits on the elimination basis, about 0.5 s here
    s = AffineSemigroup([(3, 8), (5, 5), (6, 7), (8, 1), (8, 4)])
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded), Deadline(0.05):
        betti_degrees(s)
    assert time.monotonic() - start < 0.3


def test_the_herzog_waldi_scan_honours_the_deadline():
    # its 938 distinct divisor complexes take seconds to rank; every pivot ticks
    s = NumericalSemigroup((30, 35, 42, 47, 148, 153, 157, 169, 181, 193))
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded), Deadline(0.5):
        betti_degrees(s)
    assert time.monotonic() - start < 2


def test_table_validation():
    for rows, message in [
        (((0, 0),), "row 0 must be exactly one copy of degree 0"),  # two copies
        (((3,),), "row 0 must be exactly one copy of degree 0"),
        ((((0, 1),),), "row 0 must be exactly one copy of degree 0"),
        (((0,), ()), "Betti rows must be contiguous and nonempty"),  # empty middle row
        ((), "Betti rows must be contiguous and nonempty"),
    ]:
        with pytest.raises(InputError) as exc:
            BettiTable(rows, 2)
        assert str(exc.value) == message


# --- the cone filter against the dense subset-board scan ----------------------


def fixture_scans(monkeypatch) -> list:
    """Every semigroup that the curated fixtures scan."""
    seen = []

    def record(s):
        seen.append(s)
        return betti_degrees(s)

    for module in (theorems, verdicts):
        monkeypatch.setattr(module, "betti_degrees", record)
    theorems.run_fixtures()
    return seen


def random_off_axis(rng, dim, kmax):
    while True:
        gens = {tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(rng.randint(2, kmax))}
        gens.discard((0,) * dim)
        if not any(sum(1 for c in g if c) > 1 for g in gens):
            continue
        try:
            return AffineSemigroup(sorted(gens))
        except InputError:
            continue


def test_cone_filter_matches_dense_scan_oracle(monkeypatch):
    rng = random.Random(2111)
    cases = [(s, None) for s in fixture_scans(monkeypatch)]
    assert len(cases) >= 10
    cases += [(MAT_A, None), (MAT_B, None)]
    cases += [(projective_closure_semigroup(NumericalSemigroup(g)), None)
              for g in CLOSURE_REGRESSIONS]
    for _ in range(40):
        s = random_numerical(rng, hi=60, kmax=5)
        cases.append((s, None))
        box, = certified_box(embed_axis(s, 1, 0))
        cases.append((s, (box + rng.randint(0, 2 * (s.frobenius() + sum(s.generators))),)))
    for dim in (2, 3):
        for _ in range(6):
            left = random_numerical(rng, hi=15, kmax=3)
            right = random_numerical(rng, hi=15, kmax=3)
            axes = rng.sample(range(dim), 2)
            cases.append((embed_axis(left, dim, axes[0]), None))
            cases.append((join(embed_axis(left, dim, axes[0]),
                               embed_axis(right, dim, axes[1])), None))
    # boxes from the reduced basis: off-axis rays, alone or joined with an
    # axis factor
    for _ in range(12):
        s = random_off_axis(rng, 2, 4)
        cases.append((s, None))
        cases.append((s, tuple(c + rng.randint(1, 8) for c in certified_box(s))))
    cases.append((AffineSemigroup([(1, 2), (2, 1), (1, 1)]), (3, 3)))
    lifted = AffineSemigroup([(1, 2, 0), (2, 1, 0), (1, 1, 0)])
    cases.append((join(lifted, embed_axis(NumericalSemigroup((2, 3)), 3, 2)), None))
    cases.append((random_off_axis(rng, 3, 4), None))
    # explicit boxes at and above certified ones
    cases += [(MAT_A, (18, 9)), (MAT_A, (25, 14)), (MAT_B, (60, 40))]

    oracle_refused = 0
    for s, box in cases:
        try:
            want = dense_betti_degrees(s, box)
        except InputError as exc:
            assert str(exc) == "scan box too large for the subset boards"
            oracle_refused += 1
            continue
        got = betti_degrees(s) if box is None else _scan(s, box)
        assert (got.rows, got.nvars) == (want.rows, want.nvars), (s.generators, box)
    assert oracle_refused == 1  # the (250, 350, 425, 476, 550) closure


# --- certified tables against the K-polynomial --------------------------------


def certified_box(s: AffineSemigroup) -> tuple:
    """The box `betti_degrees` certifies: with the extremal rays on the axes,
    max over Ap(S, E) plus the sum of the generators off E, per coordinate;
    otherwise A * lcm of the reduced basis leads."""
    axis = axis_apery(s.generators)
    if axis is None:
        lcm = [0] * len(s.generators)
        for b in reduced_basis(s).elements:
            lcm = [max(x, y) for x, y in zip(lcm, b.lead)]
        return tuple(sum(c * g[i] for c, g in zip(lcm, s.generators)) for i in range(s.dim))
    extremal, apery = axis
    return tuple(max(w[i] for w in apery) + sum(g[i] for g in s.generators)
                 - sum(e[i] for e in extremal) for i in range(s.dim))


def k_polynomial_planes(grid: Grid, gens, width: int) -> list[int]:
    """sum over members s in the grid's box of t^s, times prod (1 - t^g),
    truncated to the box: one bitboard per two's-complement bit of the
    coefficients, the subtractions done plane by plane with a ripple borrow.
    The grid's padding must cover each generator."""
    planes = [member_board(grid, gens)] + [0] * (width - 1)
    for g in gens:
        shift, borrow = grid.lin(g), 0
        for j, p in enumerate(planes):
            q = p << shift
            x = p ^ q
            planes[j] = (x ^ borrow) & grid.real
            borrow = (q & ~p) | (borrow & ~x)
    return planes


def test_certified_tables_match_the_k_polynomial():
    # the alternating Betti sum is the numerator of the Hilbert series; it
    # shares only the member board with the scan, no cone filter, no homology.
    # Off the axes the series is read over twice the certified box, so a
    # Betti degree past the box would show as a coefficient the table lacks,
    # unless another one cancelled it.
    cases = [(MAT_A, betti_degrees(MAT_A), 1), (MAT_B, betti_degrees(MAT_B), 1)]
    for gens in list(CLOSURE_REGRESSIONS) + [(42, 70, 77, 121), (87, 145, 203, 252, 308)]:
        s = NumericalSemigroup(gens)
        cases.append((projective_closure_semigroup(s), closure_resolution(s)[0], 1))
    rng, off_axis = random.Random(32), []
    while len(off_axis) < 18:
        dim = 2 + len(off_axis) % 2
        s = random_off_axis(rng, dim, 6)
        if len(s.generators) > dim and axis_apery(s.generators) is None:
            off_axis.append(s)
    cases += [(s, betti_degrees(s), 2) for s in off_axis]
    for s, table, scale in cases:
        box = certified_box(s)
        numerator: dict = {}
        for i, row in enumerate(table.rows):
            for b in row:
                assert all(c <= m for c, m in zip(b, box)), (s.generators, b)
                numerator[b] = numerator.get(b, 0) + (-1) ** i
        # two's-complement width holding both sides: a K coefficient is a
        # signed count of 2^n subsets
        width = max(len(s.generators), *(abs(c).bit_length() for c in numerator.values())) + 2
        grid = Grid(tuple(scale * c for c in box),
                    tuple(max(g[i] for g in s.generators) for i in range(len(box))))
        want = [0] * width
        for b, c in numerator.items():
            for j in range(width):
                want[j] |= (c >> j & 1) << grid.lin(b)
        assert k_polynomial_planes(grid, s.generators, width) == want, s.generators


# --- memory --------------------------------------------------------------------


@pytest.mark.parametrize("gens, limit_mib", [
    ((42, 70, 77, 121), 3),              # 1.2 MiB; the subset boards took 7.0
    ((87, 145, 203, 252, 308), 25),      # 10.4 MiB; the subset boards took 110.6
])
def test_closure_scan_memory_stays_within_a_few_boards(gens, limit_mib):
    closure = projective_closure_semigroup(NumericalSemigroup(gens))
    tracemalloc.start()
    try:
        betti_degrees(closure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
