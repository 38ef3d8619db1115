"""Semigroup layer: membership, Apery, ord/Hilbert, gaps, gluing, extension, join."""
import math
import random
import time
import tracemalloc
from functools import cache
from itertools import product
from operator import add
from types import SimpleNamespace

import pytest

from sgring import affine
from sgring.affine import (
    AffineSemigroup,
    ExtensionSpec,
    GapScan,
    GluingSpec,
    axis_apery,
    condition_A,
    condition_B,
    embed_axis,
    extend,
    glue,
    is_nice_gluing,
    is_star_gluing,
    iter_bits,
    join,
)
from sgring.errors import CertificationError, Deadline, DeadlineExceeded, InputError
from sgring.linalg import rational_rank
from sgring.monomials import Binomial
from sgring.resolution import betti_box, betti_degrees
from sgring.semigroups import NumericalSemigroup
from sgring.toric import reduced_basis
from sgring.verdicts import cm_tangent_cone
import cone_oracle
from numerical_oracle import (
    additivity_offender_by_rows,
    apery_rows,
    hilbert_by_rows,
    ord_by_rows,
    redundant_by_reachability,
)
from test_acceptance import CLOSURE_REGRESSIONS, GLUED_INSTANCES
from test_resolution import random_off_axis

# ---------------------------------------------------------------------------
# brute-force oracles: straight enumeration, no shared code with the module


def brute_members(gens, ub):
    sums = {0}
    for g in gens:
        sums = {s + k * g for s in sums for k in range((ub - s) // g + 1)}
    return sums


def brute_ord(gens, s):
    best = -1

    def rec(rest, i, length):
        nonlocal best
        if i == len(gens):
            if rest == 0:
                best = max(best, length)
            return
        for k in range(rest // gens[i] + 1):
            rec(rest - k * gens[i], i + 1, length + k)

    rec(s, 0, 0)
    return best


def brute_affine_members(gens, box):
    ranges = []
    for g in gens:
        ranges.append(range(min(b // c for b, c in zip(box, g) if c) + 1))
    out = set()
    for coeffs in product(*ranges):
        pt = tuple(sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(len(box)))
        if all(c <= b for c, b in zip(pt, box)):
            out.add(pt)
    return out


def random_numerical(rng, lo=2, hi=25, kmax=4):
    while True:
        cand = sorted(rng.sample(range(lo, hi + 1), rng.randint(2, kmax)))
        if math.gcd(*cand) != 1:
            continue
        try:
            return NumericalSemigroup(cand)
        except InputError:
            continue


# ---------------------------------------------------------------------------
# numerical semigroups: constructor and worked values


def test_constructor_normalizes():
    s = NumericalSemigroup([5, 3, 3])
    assert s.generators == (3, 5)
    assert s.embedding_dim == 2 and s.multiplicity == 3


@pytest.mark.parametrize("bad", [(), (0, 3), (-3, 5), (2, 4), (5,), (3, 5, 8), (6, 10, 15, 30)])
def test_constructor_rejects(bad):
    with pytest.raises(InputError):
        NumericalSemigroup(bad)


class Index:
    """An int-like value that is not an int, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_non_integral_input_is_refused_not_truncated():
    for build in (lambda: NumericalSemigroup([3.7, 5]),
                  lambda: NumericalSemigroup([3, 5.0]),
                  lambda: NumericalSemigroup(["3", 5]),
                  lambda: AffineSemigroup([(1.5, 0), (0, 1)]),
                  lambda: AffineSemigroup([(1, 0), (0, 1)]).membership((1.5, 0)),
                  lambda: GluingSpec(NumericalSemigroup((3, 5)), NumericalSemigroup((2, 7)),
                                     (1.5, 0), (1, 0)),
                  lambda: ExtensionSpec(NumericalSemigroup((3, 5)), 2.5, (1, 0))):
        with pytest.raises(InputError, match="expected an integer, got"):
            build()
    assert NumericalSemigroup([Index(5), Index(3)]).generators == (3, 5)
    assert AffineSemigroup([(Index(1), 0), (0, 1)]).membership((2, Index(3)))


def test_numerical_queries_refuse_non_integral_arguments():
    s = NumericalSemigroup([3, 5])
    for query in (s.membership, s.apery, s.ord, s.__contains__, s.hilbert_gr):
        for bad in (2.5, 6.0, "3"):
            with pytest.raises(InputError, match="expected an integer, got"):
                query(bad)
    assert s.membership(Index(8)) and s.apery(Index(5)) == [0, 3, 6, 9, 12]
    assert s.ord(Index(10)) == 2
    assert s.hilbert_gr(Index(2)) == s.hilbert_gr(2) == [1, 2, 3]


def test_embed_axis_refuses_non_integral_arguments():
    s = NumericalSemigroup([3, 5])
    for dim, axis in ((2.0, 0), (2, 1.0), (2.5, 0), ("2", 1), (2, "0")):
        with pytest.raises(InputError, match="expected an integer, got"):
            embed_axis(s, dim, axis)
    assert embed_axis(s, Index(2), Index(1)).generators == ((0, 3), (0, 5))


def test_whole_numbers():
    n = NumericalSemigroup([1])
    assert n.frobenius() == -1
    assert n.gaps() == [] and n.pf_numeric() == [-1]  # Ap(N, 1) = {0}, maximal
    assert n.apery(1) == [0]
    assert n.hilbert_gr(3) == [1, 1, 1, 1]
    assert n.hilbert_stabilization() == 0
    assert n.hilbert_nondecreasing()


def test_357_worked_values():
    s = NumericalSemigroup([3, 5, 7])
    assert [x in s for x in range(9)] == [True, False, False, True, False, True, True, True, True]
    assert s.apery(3) == [0, 5, 7]
    assert s.frobenius() == 4
    assert s.gaps() == [1, 2, 4]
    assert s.pf_numeric() == [2, 4]
    assert s.ord(3) == 1 and s.ord(10) == 2 and s.ord(12) == 4
    assert s.hilbert_gr(4) == [1, 3, 3, 3, 3]
    assert s.hilbert_nondecreasing()


def test_23_and_mcnugget():
    s = NumericalSemigroup([2, 3])
    assert s.frobenius() == 1 and s.gaps() == [1] and s.pf_numeric() == [1]
    assert s.apery(2) == [0, 3]
    m = NumericalSemigroup([6, 9, 20])
    assert m.frobenius() == 43
    assert len(m.gaps()) == 22
    assert m.pf_numeric() == [43]


def test_minimality_matches_reachability_oracle():
    rng = random.Random(2074)
    sets = [(1, 2, 3), (3, 5, 8), (4, 6, 9, 10), (6, 9, 20, 29), (2, 3, 4, 5, 6)]
    while len(sets) < 600:
        gens = tuple(sorted(rng.sample(range(2, 50), rng.randint(2, 6))))
        if math.gcd(*gens) == 1:
            sets.append(gens)
    with_redundant = 0
    for gens in sets:
        redundant = redundant_by_reachability(gens)
        if not redundant:
            assert NumericalSemigroup(gens).generators == gens
            continue
        with_redundant += 1
        with pytest.raises(InputError) as exc:
            NumericalSemigroup(gens)
        assert str(exc.value) == f"generating set not minimal: {redundant} are redundant"
    assert 100 <= with_redundant <= len(sets) - 100


def test_membership_errors():
    s = NumericalSemigroup([3, 5])
    with pytest.raises(InputError):
        s.membership(-1)
    with pytest.raises(InputError):
        s.ord(4)
    with pytest.raises(InputError):
        s.apery(0)
    with pytest.raises(InputError):
        s.apery(4)


def test_constructor_honours_deadline():
    # Ap(S, 300007) takes at least 300,007 heap pops: several tenths of a second
    gens = (300007, 300011, 300017)
    with pytest.raises(DeadlineExceeded), Deadline(0.01):
        NumericalSemigroup(gens)
    built = NumericalSemigroup(gens)
    with Deadline(60):
        timed = NumericalSemigroup(gens)
    assert built._apery_by_residue == timed._apery_by_residue


def test_apery_honours_deadline():
    # Ap(<2, 3>, 300007) takes at least 300,007 heap pops
    s = NumericalSemigroup((2, 3))
    with pytest.raises(DeadlineExceeded), Deadline(0.01):
        s.apery(300007)
    with Deadline(60):
        timed = s.apery(9)
    assert timed == s.apery(9) == [0, 2, 3, 4, 5, 6, 7, 8, 10]


# ---------------------------------------------------------------------------
# numerical semigroups: oracle comparisons


def test_membership_matches_brute():
    rng = random.Random(11)
    for _ in range(25):
        s = random_numerical(rng)
        ub = s.frobenius() + 2 * s.generators[-1] + 2
        mem = brute_members(s.generators, ub)
        assert [x in s for x in range(ub + 1)] == [x in mem for x in range(ub + 1)]


def test_apery_matches_brute():
    rng = random.Random(12)
    for _ in range(20):
        s = random_numerical(rng)
        m = s.generators[rng.randrange(s.embedding_dim)]
        mem = brute_members(s.generators, m * s.generators[-1])
        expected = [min(v for v in mem if v % m == r) for r in range(m)]
        assert s.apery(m) == sorted(expected)


def test_apery_characterizes_membership():
    rng = random.Random(13)
    for _ in range(20):
        s = random_numerical(rng)
        m = s.multiplicity
        ap = s.apery(m)
        by_class = {w % m: w for w in ap}
        for x in range(s.frobenius() + 2 * m + 2):
            assert (x in s) == (x >= by_class[x % m])
    # membership cost does not follow the size of the integer
    s = NumericalSemigroup((1009, 1013, 1019))
    f = s.frobenius()
    assert 10**18 in s
    assert f not in s and f + 1 in s


def test_frobenius_and_gaps_match_brute():
    rng = random.Random(14)
    for _ in range(20):
        s = random_numerical(rng)
        ub = s.generators[0] * s.generators[-1]
        mem = brute_members(s.generators, ub)
        gaps = [v for v in range(1, ub + 1) if v not in mem]
        assert s.frobenius() == max(gaps)
        assert s.gaps() == gaps
        assert len(gaps) >= (max(gaps) + 1) // 2


def test_gaps_match_membership_filter():
    # gaps() reads Ap(S, n_1) class by class; membership tests over [1, F]
    # give the same sorted list
    from test_acceptance import population
    big = NumericalSemigroup((358, 650, 2431))
    assert big.frobenius() == 49419
    for s in population() + [big]:
        f = s.frobenius()
        assert s.gaps() == [v for v in range(1, f + 1) if v not in s]


def test_pf_matches_brute():
    rng = random.Random(15)
    for _ in range(20):
        s = random_numerical(rng)
        ub = s.generators[0] * s.generators[-1] + s.generators[-1]
        mem = brute_members(s.generators, ub)
        gaps = [v for v in range(1, ub) if v not in mem]
        pf = [f for f in gaps if all(f + g in mem for g in s.generators)]
        assert s.pf_numeric() == pf
        assert pf  # any semigroup other than N has a pseudo-Frobenius number


def test_ord_matches_brute():
    rng = random.Random(16)
    for _ in range(12):
        s = random_numerical(rng)
        pts = [x for x in range(0, 90) if x in s][:12]
        for x in pts:
            assert s.ord(x) == brute_ord(s.generators, x)
    big = NumericalSemigroup([1009, 1013, 1019])
    assert big.ord(10**18 + 1009) == big.ord(10**18) + 1
    assert big.ord(3 * 1019) == 3 and big.ord(1009 * 1019) == 1019


def test_ord_superadditive():
    rng = random.Random(17)
    for _ in range(12):
        s = random_numerical(rng)
        members = [x for x in range(1, 120) if x in s]
        for _ in range(15):
            a, b = rng.choice(members), rng.choice(members)
            assert s.ord(a + b) >= s.ord(a) + s.ord(b)


def test_hilbert_stabilizes_at_certified_index():
    rng = random.Random(18)
    for _ in range(15):
        s = random_numerical(rng)
        stab = s.hilbert_stabilization()
        h = s.hilbert_gr(stab + 8)
        assert all(h[n] == s.multiplicity for n in range(stab, stab + 9))
        assert stab == 0 or h[stab - 1] < s.multiplicity  # exact, not a bound


def test_hilbert_honours_deadline():
    # most columns of this table change step every row: its runs number
    # about 3 million, and storing them takes seconds of pure Python
    # (3.5 s on a 2-vCPU host), so the deadline cuts the build short
    big = NumericalSemigroup([3001, 3002, 6005])
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded), Deadline(0.2):
        big.hilbert_stabilization()
    assert time.monotonic() - start < 5
    assert "apery_table" not in big._memo  # a table cut short is not kept
    s = NumericalSemigroup([3, 5, 7])
    with Deadline(0.2):
        assert s.hilbert_gr(s.hilbert_stabilization()) == [1, 3]


def test_apery_runs_take_memory_by_runs_not_cells():
    # 4,001 rows of 4,001 columns, 16 million cells, but 8,001 runs
    s = NumericalSemigroup([4001, 4003])
    tracemalloc.start()
    try:
        assert s.hilbert_stabilization() == 4000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def large_draws(seed):
    """The seeded draws of the benchmark's large-instances workload: one
    semigroup of 3, 4 and 5 generators from [100, 3000] with Frobenius
    number below 100,000, each with 8 offsets in [-500, 500] of its
    membership points around 10^6 (drawn as the benchmark draws them, so
    the next semigroup is the benchmark's too)."""
    rng = random.Random(seed)
    out = []
    for k in (3, 4, 5):
        while True:
            cand = sorted(rng.sample(range(100, 3001), k))
            try:
                s = NumericalSemigroup(cand)
            except InputError:
                continue
            if s.frobenius() < 100_000:
                break
        out.append((s, [10**6 + rng.randint(-500, 500) for _ in range(8)]))
    return out


def test_apery_runs_match_the_cell_by_cell_oracle():
    rng = random.Random(25)
    cases = [(random_numerical(rng, lo=3, hi=150, kmax=5), []) for _ in range(200)]
    cases += [(NumericalSemigroup(g), []) for g in list(CLOSURE_REGRESSIONS) + GLUED_INSTANCES
              + [(105, 252, 119, 136), (1009, 1013, 1019)]]
    cases += [case for seed in (1, 2) for case in large_draws(seed)]
    for s, near_million in cases:
        rows, n1 = apery_rows(s), s.multiplicity
        assert s.apery_table().sums == tuple(sum(row) for row in rows), s
        assert s.hilbert_stabilization() == len(rows) - 1, s
        for upto in (len(rows) // 2, len(rows) + 2):
            assert s.hilbert_gr(upto) == hilbert_by_rows(rows, upto), (s, upto)
        top = max(rows[-1]) + 2 * n1
        points = rng.sample(range(top), min(top, 40)) + near_million
        points += [rng.choice(rng.choice(rows)) for _ in range(10)]  # table cells
        points += [10**18 + rng.randrange(4 * n1) for _ in range(8)]
        for x in points:
            if x in s:
                assert s.ord(x) == ord_by_rows(rows, x), (s, x)
        bad = additivity_offender_by_rows(rows)
        check = cm_tangent_cone(s).cross_checks[0]
        assert check.result is (bad is None), s
        if bad is not None:
            assert check.note == f"ord({bad} + {n1}) != ord({bad}) + 1", s


def test_hilbert_counts_match_ord():
    s = NumericalSemigroup([4, 9])
    h = s.hilbert_gr(6)
    for n in range(7):
        count = sum(1 for x in range(0, 6 * 9 + 1) if x in s and s.ord(x) == n)
        assert h[n] == count


# ---------------------------------------------------------------------------
# affine semigroups


@pytest.mark.parametrize("bad", [
    [],
    [(3, 0), (5,)],
    [(3, -1)],
    [(0, 0), (1, 2)],
    [(1, 2), (1, 2)],
    [(1, 0), (2, 0)],
    [(1, 1), (2, 2), (0, 1)],
])
def test_affine_constructor_rejects(bad):
    with pytest.raises(InputError):
        AffineSemigroup(bad)


MAT_A = AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])
MAT_B = AffineSemigroup([(6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9)])


def test_affine_membership_witness():
    ok = MAT_A.membership((8, 5))
    assert ok
    rebuilt = [sum(k * g[i] for k, g in zip(ok.witness, MAT_A.generators)) for i in range(2)]
    assert tuple(rebuilt) == (8, 5)
    assert not MAT_A.membership((7, 2))
    assert MAT_A.membership((-1, 0)) == (False, None)
    with pytest.raises(InputError):
        MAT_A.membership((1, 2, 3))
    for box in ((1, 2, 3), (1, -1)):
        with pytest.raises(InputError, match="is not a nonnegative vector of dimension 2"):
            MAT_A.members_within(box)


def test_affine_membership_matches_brute():
    rng = random.Random(19)
    cases = []
    while len(cases) < 10:
        cand = rng.sample([(a, b) for a in range(5) for b in range(5) if a or b], rng.randint(2, 4))
        try:
            cases.append((AffineSemigroup(cand), (9, 9)))
        except InputError:
            continue
    # generator entries beyond the box, and boxes of width 0 on one axis:
    # the board's padding must absorb every shift that leaves the box
    skew = AffineSemigroup([(7, 1), (2, 5), (1, 0), (0, 11)])
    cases += [(MAT_A, (4, 2)), (MAT_A, (9, 0)), (MAT_A, (0, 9)),
              (skew, (3, 3)), (skew, (12, 0)), (skew, (0, 12)), (skew, (0, 0))]
    for s, box in cases:
        mem = brute_affine_members(s.generators, box)
        assert s.members_within(box) == mem
        for pt in product(range(box[0] + 1), range(box[1] + 1)):
            got = s.membership(pt)
            assert got.ok == (pt in mem)
            if got.ok:
                rebuilt = [sum(k * g[i] for k, g in zip(got.witness, s.generators)) for i in range(2)]
                assert tuple(rebuilt) == pt


def test_cone_membership_exact():
    s = AffineSemigroup([(2, 1), (1, 2)])
    assert s.cone_membership((1, 1))  # (1,1) = (1/3)(2,1) + (1/3)(1,2)
    assert s.cone_membership((3, 3))
    assert not s.cone_membership((3, 1))
    assert not s.cone_membership((1, 0))
    with pytest.raises(InputError):
        s.cone_membership((1,))


def test_extremal_rays():
    assert AffineSemigroup([(2, 1), (1, 2), (1, 1)]).extremal_rays() == [(1, 2), (2, 1)]
    assert MAT_A.extremal_rays() == [(0, 1), (1, 0)]
    assert MAT_B.extremal_rays() == [(0, 1), (1, 0)]
    assert AffineSemigroup([(4, 6)]).extremal_rays() == [(2, 3)]


def test_cone_solves_check_the_deadline():
    # the facet build ticks once per candidate; a fresh semigroup has no
    # stored facets, so its first cone test builds them under the deadline
    s = AffineSemigroup(MAT_A.generators)
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        s.cone_membership((1, 1))
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        s.extremal_rays()
    assert "facets" not in s._memo   # a build cut short stores nothing
    assert s.cone_membership((1, 1)) and s.extremal_rays() == [(0, 1), (1, 0)]


def random_affine(rng):
    """A semigroup of N^d, d = 1..5: full-dimensional, spanning a proper
    subspace, or on one ray."""
    while True:
        d = rng.randint(1, 5)
        kind = rng.choice(("full", "deficient", "ray"))
        rank = {"full": d, "deficient": rng.randint(1, max(1, d - 1)), "ray": 1}[kind]
        base = [[rng.randint(0, 3) for _ in range(d)] for _ in range(rank)]
        gens = set()
        for _ in range(rng.randint(1, 5)):
            coef = [rng.randint(0, 2) for _ in range(rank)]
            gens.add(tuple(sum(c * b[i] for c, b in zip(coef, base)) for i in range(d)))
        gens.discard((0,) * d)
        try:
            return AffineSemigroup(sorted(gens))
        except InputError:   # empty or not minimal
            continue


def oracle_rays(gens):
    prim = lambda g: tuple(c // math.gcd(*g) for c in g)
    return sorted(r for r in set(map(prim, gens))
                  if cone_oracle.nonneg_solve([g for g in gens if prim(g) != r], r) is None)


def test_cone_membership_and_rays_match_the_simplex_oracle():
    rng = random.Random(37)
    answers, shapes = [0, 0], [0, 0, 0]   # full, rank-deficient, one ray with d >= 2
    for _ in range(120):
        s = random_affine(rng)
        rays = s.extremal_rays()
        assert rays == oracle_rays(s.generators), s.generators
        points = [tuple(rng.randint(0, 6) for _ in range(s.dim)) for _ in range(6)]
        points += [tuple(map(add, g, h)) for g in s.generators for h in s.generators][:6]
        for x in points:
            got = s.cone_membership(x)
            assert got == (cone_oracle.nonneg_solve(s.generators, x) is not None), (s, x)
            answers[got] += 1
        shapes[rational_rank(s.generators) < s.dim] += 1
        shapes[2] += len(rays) == 1 and s.dim > 1
    assert min(answers) > 300 and min(shapes) > 20


GAPS_A = {
    (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
    (4, 0), (4, 1), (4, 2), (7, 0), (7, 1), (7, 2),
}


def test_gap_scan_worked_2d():
    # Ap(S, E) for E = {(3,0), (0,1)} reaches (10, 3), so the box is (12, 3)
    scan = MAT_A.gap_set()
    assert scan.finite is True and scan.box == (12, 3)
    assert set(scan.gaps) == GAPS_A
    assert MAT_A.gap_set() is scan  # an artifact: built once
    members = MAT_A.members_within((30, 30))
    for pt in product(range(31), repeat=2):
        assert (pt in GAPS_A) == (pt not in members)


def test_pf_direct_worked_2d():
    assert MAT_A.pf_direct() == [(7, 2)]


def test_gap_scan_checks_the_deadline_and_stores_nothing_when_cut():
    s = AffineSemigroup(MAT_A.generators)
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        s.gap_set()
    assert s.gap_set().finite is True


def test_an_over_budget_member_box_is_refused_before_any_board():
    # the mask of this 10^12-bit box alone would take about 116 GiB
    tracemalloc.start()
    try:
        with pytest.raises(CertificationError, match="scan box too large for the scan boards"):
            MAT_A.members_within((10**6, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_an_over_budget_gap_scan_raises_and_stores_nothing(monkeypatch):
    s = AffineSemigroup(MAT_A.generators)  # MAT_A may already hold its gap set
    monkeypatch.setattr(affine, "_MAX_BOARD_BITS", 1)
    with pytest.raises(CertificationError, match="scan box too large for the scan boards"):
        s.gap_set()
    assert "gap_set" not in s._memo
    monkeypatch.undo()
    assert s.gap_set() == GapScan(tuple(sorted(GAPS_A)), True, (12, 3))


def test_pf_direct_lookups_check_the_deadline():
    # the gap set is already stored, so only the lookups can see the deadline
    s = AffineSemigroup([(3,), (5,)])
    assert s.gap_set().gaps == ((1,), (2,), (4,), (7,))
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        s.pf_direct()
    assert s.pf_direct() == [(7,)]


def test_extension_gap_set_grows():
    # scaling all but one generator only thins the semigroup out, so the hole
    # set of the extension contains the hole set of the base ...
    scan_a = MAT_A.gap_set()
    scan_b = MAT_B.gap_set()
    assert set(scan_a.gaps) <= set(scan_b.gaps)
    assert (3, 0) in set(scan_b.gaps) - set(scan_a.gaps)
    # ... and here it is infinite: no generator but (6,9) has odd second
    # coordinate, so the whole odd y-axis consists of holes, and the gap
    # (0, 15) at M_2 = 15 repeats every 2 up that axis.
    assert scan_b.box == (31, 16)
    assert all((0, y) in scan_b.gaps for y in range(1, 17, 2))
    assert scan_b.finite is False
    with pytest.raises(CertificationError, match="gap set is infinite"):
        MAT_B.pf_direct()


def test_pf_property_of_extension_candidate():
    # (20,13) is outside, and adding any generator lands inside: the defining
    # pseudo-Frobenius property, checkable on generators alone.
    assert not MAT_B.membership((20, 13))
    for g in MAT_B.generators:
        assert MAT_B.membership((20 + g[0], 13 + g[1]))
    assert not MAT_B.membership((0, 5))  # so (0,3) is a hole but not PF


def test_pf_direct_matches_pf_numeric_on_axis():
    rng = random.Random(20)
    for s in [random_numerical(rng, hi=20) for _ in range(12)] + [NumericalSemigroup((41, 43, 67))]:
        a = AffineSemigroup([(g,) for g in s.generators])
        scan = a.gap_set()
        assert scan.finite is True
        assert list(scan.gaps) == [(v,) for v in s.gaps()]
        assert a.pf_direct() == [(f,) for f in s.pf_numeric()]


def brute_apery(s, extremal, box):
    # Ap(S, E) by its definition over the members inside a box
    members = s.members_within(box)
    return {w for w in members
            if not any(tuple(a - b for a, b in zip(w, e)) in members for e in extremal)}


def test_axis_apery_matches_definition():
    numerical = [(g,) for g in (3, 5, 7)]
    assert axis_apery(numerical) == (((3,),), {(0,), (5,), (7,)})
    # two and three generators on the axes, a third coordinate unused
    for gens, least in [
            ([(5, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (1, 1, 0)],
             ((3, 0, 0), (0, 2, 0))),
            ([(4, 0, 0), (6, 0, 0), (9, 0, 0), (0, 5, 0), (2, 3, 0), (3, 1, 0)],
             ((4, 0, 0), (0, 5, 0)))]:
        s = AffineSemigroup(gens)
        extremal, ap = axis_apery(s.generators)
        assert extremal == least
        assert all(w[0] < 30 and w[1] < 30 for w in ap)  # well inside the box
        assert ap == brute_apery(s, extremal, (60, 60, 0)), gens
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        axis_apery(numerical)


def test_axis_apery_declines_rays_off_the_axes():
    assert axis_apery(((2, 1), (3, 0), (1, 3))) is None
    assert axis_apery(((3, 0), (1, 1))) is None  # no generator on the second axis
    assert axis_apery(MAT_A.generators)[0] == ((3, 0), (0, 1))


def brute_gaps(s, box):
    # cone points within box outside the semigroup: the members are the sums
    # of multiples of each generator in turn, as in brute_members
    members = {(0,) * len(box)}
    for g in s.generators:
        members = {tuple(c + k * e for c, e in zip(m, g)) for m in members
                   for k in range(min((b - c) // e for c, e, b in zip(m, g, box) if e) + 1)}
    return {pt for pt in product(*(range(b + 1) for b in box))
            if pt not in members and cone_oracle.nonneg_solve(s.generators, pt) is not None}


def random_axis_2d(rng):
    # generators on both axes plus some off them, so the rays are the axes
    while True:
        gens = {(a, 0) for a in rng.sample(range(2, 7), rng.randint(1, 2))}
        gens |= {(0, b) for b in rng.sample(range(2, 7), rng.randint(1, 2))}
        gens |= {(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 2))}
        try:
            return AffineSemigroup(sorted(gens))
        except InputError:
            continue


def test_gap_set_matches_brute_oracle():
    rng = random.Random(11)
    join_23 = AffineSemigroup([(2, 0), (3, 0), (0, 2), (0, 3)])
    # c_1 = 1: the gaps (0, odd) reach the box only at y = M_2 = 1
    unit_axis = AffineSemigroup([(1, 0), (0, 2), (1, 1)])
    cases = [MAT_A, MAT_B, join_23, unit_axis]
    cases += [AffineSemigroup([(g,) for g in random_numerical(rng, hi=12, kmax=3).generators])
              for _ in range(20)]
    cases += [random_axis_2d(rng) for _ in range(20)]
    off_axis = [AffineSemigroup([(2, 0), (3, 0), (1, 1), (2, 1)]),  # rays (1,0), (1,1)
                AffineSemigroup([(2, 1), (3, 0), (1, 3)])]
    seen = set()
    for s in cases + off_axis:
        scan = s.gap_set()
        oracle = brute_gaps(s, tuple(2 * b for b in scan.box))
        inside = {g for g in oracle if all(c <= b for c, b in zip(g, scan.box))}
        assert set(scan.gaps) == inside, s.generators
        if scan.finite is True:
            assert oracle == inside, s.generators
        elif scan.finite is False:
            assert oracle - inside, s.generators
        seen.add(scan.finite)
    assert all(s.gap_set().finite is False for s in (MAT_B, join_23, unit_axis))
    assert seen == {True, False}
    assert off_axis[0].gap_set().finite is True and off_axis[0].gap_set().gaps == ((1, 0),)
    # the gaps (k, 0), k = 1, 2 mod 3, run along the axis: (3, 0) is the only
    # generator with second coordinate 0
    scan = off_axis[1].gap_set()
    assert scan.finite is False and scan.box == (18, 9)
    assert {(k, 0) for k in range(19) if k % 3} <= set(scan.gaps)


def cone_family(lo, ray):
    """The lattice points x of the cone spanned by (1, 0) and ray with
    lo <= x_1 + x_2 < 2 lo.  A sum of two has x_1 + x_2 >= 2 lo, so they are
    the minimal generators of the semigroup they span."""
    a, b = ray
    return AffineSemigroup([(x, y) for x in range(2 * lo) for y in range(2 * lo)
                            if lo <= x + y < 2 * lo and a * y <= b * x])


@cache
def off_axis_gap_cases():
    # built once, so the two tests below share each stored gap set
    rng, cases = random.Random(35), []
    while len(cases) < 32:
        dim = 2 if len(cases) < 24 else 3
        s = random_off_axis(rng, dim, 4 if dim == 2 else 3)
        if axis_apery(s.generators) is None:  # a ray off the axes
            cases.append(s)
    # finite and nonempty gap sets, which random draws seldom give
    cases += [cone_family(lo, ray) for lo, ray in
              [(2, (1, 1)), (2, (1, 2)), (3, (2, 1)), (3, (3, 1)), (3, (3, 2)), (3, (1, 2))]]
    # (3, (1, 1)): the diagonal holds (2, 2) but not (3, 3), so its odd
    # multiples of (1, 1) are gaps
    return tuple(cases + [cone_family(3, (1, 1))])


def test_off_axis_gap_sets_are_decided_and_match_brute_oracle():
    # The oracle enumerates the cone to the box plus the largest generator
    # entry per axis, and that decides finiteness by itself: a cone point
    # outside the box lies above the generator sum on some axis, so it has a
    # cone coefficient of at least 1 at some generator g, and x - g is a
    # cone point, a gap when x is; walking an outside gap down this way, the
    # last step before the box is a gap outside it within one generator of it.
    decided = {True: 0, False: 0}
    nonempty_finite = 0
    for s in off_axis_gap_cases():
        scan = s.gap_set()
        assert scan.finite is True or scan.finite is False, s.generators
        reach = tuple(b + max(g[i] for g in s.generators) for i, b in enumerate(scan.box))
        oracle = brute_gaps(s, reach)
        inside = {g for g in oracle if all(c <= b for c, b in zip(g, scan.box))}
        assert set(scan.gaps) == inside, s.generators
        assert scan.finite == (oracle == inside), s.generators
        decided[scan.finite] += 1
        nonempty_finite += bool(scan.finite and scan.gaps)
    assert decided == {True: 10, False: 29}
    assert nonempty_finite == 6


def test_maximal_gaps_are_top_betti_degrees_less_the_generator_sum():
    # a maximal gap p has the boundary of the simplex on all e generators as
    # the divisor complex of p + sum(g): a Betti degree at level e - 1.  So
    # below maximal projective dimension no gap set is finite and nonempty.
    below = checked = 0
    for s in off_axis_gap_cases():
        scan, table = s.gap_set(), betti_degrees(s)
        e, total = len(s.generators), tuple(map(sum, zip(*s.generators)))
        if table.pd < e - 1:
            assert not (scan.finite and scan.gaps), s.generators
            below += 1
        elif scan.finite and scan.gaps:
            pf = s.pf_direct()
            assert pf and all(tuple(map(add, f, total)) in table.rows[e - 1] for f in pf)
            checked += 1
    assert (below, checked) == (30, 6)


def test_a_gap_set_past_the_subset_limit_is_decided():
    # 17 generators: the Betti scan refuses them, but its box needs no scan
    s = cone_family(4, (1, 2))
    assert len(s.generators) == 17
    with pytest.raises(CertificationError, match="exceed the subset-enumeration limit"):
        betti_degrees(s)
    scan = s.gap_set()
    assert scan.box == betti_box(s) == (145, 80)
    # the ray (1, 2) holds the generator (2, 4), but no odd multiple of (1, 2)
    assert scan.finite is False
    assert {(k, 2 * k) for k in range(1, 41, 2)} <= set(scan.gaps)
    with pytest.raises(CertificationError, match=r"box \(145, 80\) has a gap in its shell"):
        s.pf_direct()


def test_an_off_axis_gap_set_in_n3_is_decided_within_seconds():
    # 81,896 non-members of the box, each tested against the stored
    # facets; one exact simplex per point took about half a minute on a
    # 2-vCPU host
    s = AffineSemigroup([(0, 1, 2), (1, 0, 5), (2, 0, 3), (5, 2, 0)])
    with Deadline(5):
        scan = s.gap_set()
    assert scan.finite is False and scan.box == (58, 14, 115)
    assert len(scan.gaps) == 42_521


def byte_loop_bits(x, total):
    """Reference for iter_bits: the set bits of x, one byte at a time."""
    out = []
    for byte_idx, byte in enumerate(x.to_bytes((total + 7) // 8, "little")):
        for k in range(8):
            if byte >> k & 1:
                out.append(byte_idx * 8 + k)
    return out


def test_iter_bits_matches_byte_loop():
    rng = random.Random(4096)
    total = 3 * 8 * 4096 + 5  # over three 4 KiB chunks, ending mid-byte
    sparse = sum(1 << rng.randrange(total) for _ in range(40))
    dense = rng.getrandbits(total)
    boards = [(sparse, total), (dense, total), (0, total), (0, 0),
              (1 << total - 1, total), (1, 1), ((1 << total) - 1, total),
              (sparse | (0xFFFF << 8 * 4095), total)]  # a run across a chunk edge
    for x, n in boards:
        assert list(iter_bits(x, n)) == byte_loop_bits(x, n)
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        next(iter_bits(sparse, total))


def test_embed_axis():
    e = embed_axis(NumericalSemigroup([2, 3]), 3, 1)
    assert e.generators == ((0, 2, 0), (0, 3, 0))
    with pytest.raises(InputError):
        embed_axis(NumericalSemigroup([2, 3]), 2, 2)


# ---------------------------------------------------------------------------
# gluing


def make_spec(left, right, b, a):
    return GluingSpec(NumericalSemigroup(left), NumericalSemigroup(right), b, a)


def test_gluing_fixture_8_19():
    spec = make_spec((3, 5), (7, 12), (1, 1), (1, 1))
    assert (spec.p, spec.q) == (8, 19)
    assert spec.glued_generators == (57, 95, 56, 96)
    assert glue(spec).generators == (56, 57, 95, 96)
    assert spec.largest_side == "right" and spec.smallest_side == "right"
    assert is_nice_gluing(spec) == "neither"
    assert not is_star_gluing(spec)


def test_gluing_fixture_17_50():
    spec = make_spec((5, 7, 11), (25, 28), (2, 1, 0), (2, 0))
    assert (spec.p, spec.q) == (17, 50)
    assert spec.glued_generators == (250, 350, 550, 425, 476)
    assert glue(spec).generators == (250, 350, 425, 476, 550)
    assert is_nice_gluing(spec) == "nice"
    assert is_star_gluing(spec)


def test_gluing_fixtures_14_21_28():
    s14 = make_spec((3, 5, 7), (9, 11), (0, 0, 2), (2, 1))
    assert (s14.p, s14.q) == (14, 29)
    assert s14.glued_generators == (87, 145, 203, 126, 154)
    assert is_nice_gluing(s14) == "neither" and not is_star_gluing(s14)

    s21 = make_spec((3, 5, 7), (9, 11), (7, 0, 0), (2, 1))
    assert (s21.p, s21.q) == (21, 29)
    assert s21.glued_generators == (87, 145, 203, 189, 231)
    assert is_nice_gluing(s21) == "generalized_nice" and is_star_gluing(s21)
    # the classification is witness-driven: 21 = 3*7 gives a shorter left
    # witness and a different verdict for the same glued semigroup
    s21b = make_spec((3, 5, 7), (9, 11), (0, 0, 3), (2, 1))
    assert is_nice_gluing(s21b) == "neither"

    s28 = make_spec((3, 5, 7), (9, 11), (0, 0, 4), (2, 1))
    assert (s28.p, s28.q) == (28, 29)
    assert s28.glued_generators == (87, 145, 203, 252, 308)
    assert is_star_gluing(s28)


@pytest.mark.parametrize("left,right,b,a", [
    ((3, 5), (7, 12), (2, 0), (2, 0)),    # p=6, q=14: gcd 2
    ((3, 5), (7, 12), (1, 0), (1, 1)),    # p=3 is a left generator
    ((3, 5), (7, 12), (1, 1), (1, 0)),    # q=7 is a right generator
    ((3, 5), (7, 12), (1, 1, 1), (1, 1)),  # wrong witness length
    ((3, 5), (7, 12), (1, -1), (1, 1)),   # negative coefficient
    ((3, 5), (7, 12), (0, 0), (1, 1)),    # p = 0
])
def test_gluing_rejects(left, right, b, a):
    with pytest.raises(InputError):
        make_spec(left, right, b, a)


def find_witness(gens, target):
    def rec(rest, i):
        if i == len(gens):
            return [] if rest == 0 else None
        for k in range(rest // gens[i] + 1):
            sub = rec(rest - k * gens[i], i + 1)
            if sub is not None:
                return [k] + sub
        return None

    return rec(target, 0)


def test_glued_frobenius_and_genus_formulas():
    # independent oracle: for a gluing along (p, q) the Frobenius number is
    # q*F(S1) + p*F(S2) + p*q and the genus is q*g1 + p*g2 + (p-1)(q-1)/2
    rng = random.Random(21)
    built = 0
    while built < 8:
        s1 = random_numerical(rng, hi=15, kmax=3)
        s2 = random_numerical(rng, hi=15, kmax=3)
        mem1 = sorted(brute_members(s1.generators, 60))
        mem2 = sorted(brute_members(s2.generators, 60))
        picks = [(p, q) for p in mem1 for q in mem2
                 if p > 1 and q > 1 and math.gcd(p, q) == 1
                 and p not in s1.generators and q not in s2.generators]
        if not picks:
            continue
        p, q = picks[rng.randrange(len(picks))]
        spec = GluingSpec(s1, s2, find_witness(s1.generators, p), find_witness(s2.generators, q))
        g = glue(spec)
        built += 1
        f1, f2 = s1.frobenius(), s2.frobenius()
        assert g.frobenius() == q * f1 + p * f2 + p * q
        g1, g2 = len(s1.gaps()), len(s2.gaps())
        assert len(g.gaps()) == q * g1 + p * g2 + (p - 1) * (q - 1) // 2
        assert p * q in g


def test_gluing_fixture_frobenius_formula():
    spec = make_spec((3, 5), (7, 12), (1, 1), (1, 1))
    assert glue(spec).frobenius() == 19 * 7 + 8 * 65 + 8 * 19


# ---------------------------------------------------------------------------
# witness/lead lcm conditions


IDEAL_357_LEADS = [  # reduced basis of the defining ideal of <3,5,7>
    Binomial((0, 2, 0), (1, 0, 1)),
    Binomial((4, 0, 0), (0, 1, 1)),
    Binomial((3, 1, 0), (0, 0, 2)),
]


def test_condition_conventions_can_differ():
    spec = make_spec((3, 5, 7), (9, 11), (0, 0, 2), (2, 1))
    rep = condition_A(spec, [Binomial((3, 2, 4), (0, 0, 0))])
    # componentwise against w=(0,0,2): lcm(0,3), lcm(0,2), lcm(2,4) never
    # reproduce w under the lcm(0,x)=x convention; the first two do under
    # lcm(0,x)=0
    assert rep.holds and not rep.holds_zero_convention
    assert rep.conventions_differ
    assert bool(rep) is True


def test_condition_both_fail_on_positive_witness():
    # witness (2,3,0) for p=21 over <3,5,7>: every basis lead has a zero in a
    # position where the witness does not (or both vanish), so the literal
    # test fails under either convention
    spec = make_spec((3, 5, 7), (9, 11), (2, 3, 0), (2, 1))
    rep = condition_A(spec, IDEAL_357_LEADS)
    assert not rep.holds and not rep.holds_zero_convention
    assert rep.violations and rep.violations_zero_convention


def test_condition_b_uses_right_witness():
    spec = make_spec((3, 5, 7), (9, 11), (0, 0, 2), (2, 1))
    rep = condition_B(spec, [Binomial((1, 3), (0, 0))])
    # w=(2,1): lcm(2,1)=2=w_1 violates; zero convention sees lcm(2,1)=2 too
    assert not rep.holds and not rep.holds_zero_convention


def test_condition_lcm_m_0_reading_fails_on_every_drawn_gluing():
    # a reduced toric binomial has disjoint lead and tail supports and a
    # nonzero tail, so every lead has a zero exponent; lcm(w, 0) := w then
    # reproduces w there, and `holds` is False for every witness over a
    # factor with two or more generators
    rng = random.Random(36)
    drawn = differ = 0
    while drawn < 40:
        s1 = random_numerical(rng, hi=40, kmax=5)
        s2 = random_numerical(rng, hi=40, kmax=5)
        p, q = rng.randint(2, 120), rng.randint(2, 120)
        b, a = find_witness(s1.generators, p), find_witness(s2.generators, q)
        if b is None or a is None:
            continue
        try:
            spec = GluingSpec(s1, s2, b, a)
        except InputError:
            continue
        drawn += 1
        for rep, s in ((condition_A(spec, reduced_basis(s1)), s1),
                       (condition_B(spec, reduced_basis(s2)), s2)):
            for f in reduced_basis(s).elements:
                assert any(f.tail), f
                assert not any(x and y for x, y in zip(f.lead, f.tail)), f
            assert rep.holds is False and rep.violations, spec
            differ += rep.conventions_differ
    assert differ  # integer lcm does hold on some drawn witnesses


def test_condition_duck_typing():
    spec = make_spec((3, 5, 7), (9, 11), (0, 0, 2), (2, 1))
    basis = SimpleNamespace(elements=IDEAL_357_LEADS)
    assert condition_A(spec, basis).name == "A"


# ---------------------------------------------------------------------------
# extension


def test_extension_worked_2d():
    spec = ExtensionSpec(MAT_A, 2, (1, 0, 3, 1, 1))
    assert spec.a == (6, 9)
    ext = extend(spec)
    assert set(ext.generators) == set(MAT_B.generators)
    # the scaled base generators, then the new generator a
    assert ext.generators == ((6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9))


def test_extension_numerical():
    spec = ExtensionSpec(NumericalSemigroup([3, 5]), 2, (3, 0))
    assert spec.a == (9,)
    ext = extend(spec)
    assert set(ext.generators) == {(6,), (9,), (10,)}
    # PF transfers as l*f + (l-1)*a: 2*7 + 9 = 23
    assert ext.pf_direct() == [(23,)]
    assert NumericalSemigroup([6, 9, 10]).pf_numeric() == [23]


@pytest.mark.parametrize("base,l,u", [
    ((3, 5), 2, (1, 1)),      # a=8 shares the factor 2 with l
    ((3, 5), 0, (3, 0)),      # l must be positive
    ((3, 5), 2, (0, 0)),      # a = 0
    ((3, 5), 2, (3,)),        # wrong witness length
    ((3, 5), 2, (-1, 2)),     # negative witness
])
def test_extension_rejects(base, l, u):
    with pytest.raises(InputError):
        ExtensionSpec(NumericalSemigroup(base), l, u)


def test_extension_trivial_scale_is_redundant():
    spec = ExtensionSpec(NumericalSemigroup([3, 5]), 1, (1, 1))
    with pytest.raises(InputError):
        extend(spec)  # a = 8 already lies in the base, so <3,5,8> is not minimal


# ---------------------------------------------------------------------------
# join


def test_join_of_axes():
    j = join(embed_axis(NumericalSemigroup([3, 5]), 2, 0),
             embed_axis(NumericalSemigroup([2, 3]), 2, 1))
    assert set(j.generators) == {(3, 0), (5, 0), (0, 2), (0, 3)}
    assert rational_rank(j.generators) == 2
    assert j.membership((3, 2))
    assert not j.membership((1, 1))
    # holes of a join fill a full cylinder over each factor gap: never finite
    scan = j.gap_set()
    assert scan.finite is False and scan.box == (12, 4)
    assert all((1, y) in scan.gaps for y in range(5))
    with pytest.raises(CertificationError, match="gap set is infinite"):
        j.pf_direct()


def test_join_members_are_sums():
    j = join(embed_axis(NumericalSemigroup([3, 5]), 2, 0),
             embed_axis(NumericalSemigroup([2, 3]), 2, 1))
    m1 = brute_members((3, 5), 15)
    m2 = brute_members((2, 3), 15)
    got = j.members_within((15, 15))
    assert got == {(x, y) for x in m1 for y in m2}


def test_join_rejects():
    with pytest.raises(InputError):
        join(embed_axis(NumericalSemigroup([3, 5]), 2, 0),
             embed_axis(NumericalSemigroup([2, 3]), 3, 1))
    with pytest.raises(InputError):  # shared generator
        join(AffineSemigroup([(3, 0), (5, 0)]), AffineSemigroup([(3, 0), (7, 0)]))
    with pytest.raises(InputError):  # rays collinear
        join(embed_axis(NumericalSemigroup([3, 5]), 2, 0),
             embed_axis(NumericalSemigroup([2, 7]), 2, 0))
