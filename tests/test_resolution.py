"""Betti tables via divisor-complex homology: oracles, fixtures, invariants."""
import random
from dataclasses import dataclass
from typing import Sequence

import pytest

from sgring.errors import BoundInsufficient, CertificationError, Deadline, DeadlineExceeded, InputError
from sgring.semigroups import AffineSemigroup, NumericalSemigroup, embed_axis, join
from sgring.resolution import (
    BettiTable,
    ResolutionSummary,
    _ranks_from_faces,
    betti_degrees,
    is_prec_symmetric,
    pf_via_betti,
    resolution_summary,
    sifr_check,
    tensor_betti,
)

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
    return _ranks_from_faces(k.faces_by_size())


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
    assert is_prec_symmetric(MAT_A, t, scan=MAT_A.gap_set((20, 12)))
    with pytest.raises(InputError):  # an affine semigroup needs the caller's scan
        is_prec_symmetric(MAT_A, t)
    with pytest.raises(DeadlineExceeded):  # the gap scan checks the deadline
        MAT_A.gap_set((20, 12), deadline=Deadline(-1))


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
    t = betti_degrees(j.semigroup)
    summary = resolution_summary(j.semigroup, t)
    assert summary.cm and summary.depth == 2
    with pytest.raises(InputError):
        pf_via_betti(j.semigroup, t)
    assert not is_prec_symmetric(j.semigroup, t, scan=j.semigroup.gap_set((30, 30)))


def test_pf_via_betti_equals_direct_on_embedded():
    rng = random.Random(17)
    for _ in range(6):
        s = random_numerical(rng, hi=25, kmax=3)
        e = embed_axis(s, 1, 0)
        t = betti_degrees(e)
        box = (s.frobenius() + max(s.generators) + 1,)
        assert pf_via_betti(e, t) == e.pf_direct(box)
        assert [f[0] for f in pf_via_betti(e, t)] == s.pf_numeric()


def test_prec_symmetric_numerical():
    s = NumericalSemigroup((3, 5, 7))
    assert not is_prec_symmetric(s, betti_degrees(s))  # two PF elements
    sym = NumericalSemigroup((3, 5))
    assert is_prec_symmetric(sym, betti_degrees(sym))  # PF = {7} = max gap


def test_prec_symmetric_uncertifiable_gaps():
    t = betti_degrees(MAT_B)
    with pytest.raises(CertificationError):
        is_prec_symmetric(MAT_B, t, scan=MAT_B.gap_set((30, 30)))


def test_sifr_fixtures():
    s = NumericalSemigroup((3, 5, 7))
    assert sifr_check(s, betti_degrees(s)).holds
    assert sifr_check(NumericalSemigroup((2, 3)), betti_degrees(NumericalSemigroup((2, 3)))).holds
    report = sifr_check(MAT_A, betti_degrees(MAT_A))
    assert not report.holds
    b, c = report.pair
    diff = tuple(abs(x - y) for x, y in zip(b, c))
    assert MAT_A.membership(diff).ok or MAT_A.membership(tuple(y - x for x, y in zip(b, c))).ok


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
        j = join(embed_axis(NumericalSemigroup(g1), 2, 0),
                 embed_axis(NumericalSemigroup(g2), 2, 1))
        direct = betti_degrees(j.semigroup)
        tensored = tensor_betti(betti_degrees(j.left), betti_degrees(j.right))
        assert direct.rows == tensored.rows


# --- failure detection ---------------------------------------------------------


def test_bound_insufficiency_detected_on_shell():
    # matrix A's rays are the axes: its certified box is (18, 9), so a
    # bound of (19, 10) contains it and the table is certified
    t = betti_degrees(MAT_A, degree_bound=(19, 10))
    assert t.total == (1, 7, 11, 6, 1) and t.certified
    # an off-axis ray leaves only the heuristic box, whose rim is linted
    with pytest.raises(BoundInsufficient):
        betti_degrees(AffineSemigroup([(1, 2), (2, 1), (1, 1)]), degree_bound=(3, 3))


def test_bound_below_the_certified_box_is_refused():
    # the certified box of <3, 5> is (15,), its one relation's degree
    e = embed_axis(NumericalSemigroup((3, 5)), 1, 0)
    with pytest.raises(BoundInsufficient, match=r"\(12,\).*certified box \(15,\)"):
        betti_degrees(e, degree_bound=(12,))


def test_depth_above_dim_rejected():
    # a table without the degree-15 relation of <3, 5>: depth 2 exceeds dim 1
    e = embed_axis(NumericalSemigroup((3, 5)), 1, 0)
    with pytest.raises(BoundInsufficient):
        resolution_summary(e, BettiTable((((0,),),), 2))


def test_betti_respects_deadline():
    with pytest.raises(DeadlineExceeded):
        betti_degrees(MAT_B, deadline=Deadline(0))


def test_table_validation():
    with pytest.raises(InputError):
        BettiTable(((0, 0),), 2)  # two copies of degree zero
    with pytest.raises(InputError):
        BettiTable(((0,), ()), 1)  # empty middle row
