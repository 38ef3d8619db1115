"""Exact ranks and cones: the sparse elimination rank against a Fraction
elimination oracle, and the stored cone facets against a simplex oracle."""
import random
from itertools import permutations

from sgring.linalg import cone_facets, det, in_cone, nonneg_solve, rational_rank

import cone_oracle
from homology_oracle import fraction_rank

MATRIX_A = ((3, 0), (5, 0), (0, 1), (1, 3), (2, 3))
MATRIX_B = ((6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9))


def random_matrix(rng):
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    bound = rng.choice((1, 3, 50))
    rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    # make some rows integer combinations of others, so ranks fall short
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.3:
            a, b = rng.sample(range(i), 2)
            ca, cb = rng.randint(-4, 4), rng.randint(-4, 4)
            rows[i] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    rng.shuffle(rows)
    return rows


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(1968)
    deficient = 0
    for _ in range(20_000):
        rows = random_matrix(rng)
        r = rational_rank(rows)
        assert r == fraction_rank(rows), rows
        # the same matrix as {column: value} maps, zero entries included
        assert rational_rank([dict(enumerate(row)) for row in rows]) == r, rows
        deficient += r < min(len(rows), len(rows[0]))
    assert deficient > 2_000   # the dependent rows are really exercised


def test_rank_edge_cases():
    cases = [
        [],
        [[]],
        [[0, 0, 0]],
        [[0, 0], [0, 0], [0, 0]],
        [[0], [5], [-10]],
        [[7]],
        [[0, 0, 0, 4, 0, 0, 0, 2]],                 # wide
        [[2, 0], [0, 0], [4, 0], [6, 0], [0, 3]],  # tall, zero row inside
        [[0, 2, 4], [0, 1, 2], [0, 3, 7]],         # leading zero column
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ]
    expect = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    for rows, r in zip(cases, expect):
        assert rational_rank(rows) == r == fraction_rank(rows), rows


def test_rank_of_the_paper_matrices():
    for m in (MATRIX_A, MATRIX_B):
        assert rational_rank(m) == fraction_rank(m) == 2
        transposed = [list(col) for col in zip(*m)]
        assert rational_rank(transposed) == fraction_rank(transposed) == 2


def leibniz_det(rows):
    out = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        term = (-1) ** inversions
        for row, col in zip(rows, perm):
            term *= row[col]
        out += term
    return out


def test_bareiss_det_matches_the_leibniz_formula():
    rng = random.Random(17)
    for _ in range(2_000):
        n = rng.randint(0, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:    # singular: a repeated row
            rows[-1] = list(rows[0])
        assert det(rows) == leibniz_det(rows), rows


def random_cone(rng):
    """Nonzero integer columns in d = 1..5: full-dimensional, spanning a
    proper subspace, or on one ray, with entries of either sign."""
    d = rng.randint(1, 5)
    kind = rng.choice(("full", "deficient", "ray"))
    rank = {"full": d, "deficient": rng.randint(1, max(1, d - 1)), "ray": 1}[kind]
    base = [[rng.randint(-2, 4) for _ in range(d)] for _ in range(rank)]
    base[0][rng.randrange(d)] = rng.randint(1, 4)   # so base[0] is nonzero
    cols = {tuple(base[0])}
    for _ in range(rng.randint(0, 5)):
        coef = [rng.randint(0 if kind == "ray" else -1, 3) for _ in range(rank)]
        cols.add(tuple(sum(c * b[i] for c, b in zip(coef, base)) for i in range(d)))
    return sorted(c for c in cols if any(c)), base


def test_cone_facets_match_the_simplex_oracle():
    rng = random.Random(2024)
    answers, deficient = [0, 0], 0
    seen = set()
    for _ in range(120):
        cols, base = random_cone(rng)
        d = len(cols[0])
        facets = cone_facets(cols)
        seen.add((d, rational_rank(cols)))
        points = [tuple(rng.randint(-3, 6) for _ in range(d)) for _ in range(4)]
        for _ in range(8):   # points of the span, inside the cone or just off it
            coef = [rng.randint(-1, 3) for _ in cols]
            points.append(tuple(sum(c * col[i] for c, col in zip(coef, cols)) for i in range(d)))
        points.append(tuple(sum(b[i] for b in base) for i in range(d)))
        for x in points:
            got = in_cone(facets, x)
            assert got == (cone_oracle.nonneg_solve(cols, x) is not None), (cols, x)
            assert nonneg_solve(cols, x) == got
            answers[got] += 1
        deficient += len(facets[1]) > 0
    assert min(answers) > 450 and deficient > 45   # both answers, and cones that do not span
    assert {(d, r) for d in range(1, 6) for r in range(1, d + 1)} <= seen


def test_cone_facets_worked_examples():
    assert cone_facets([(2, 1), (1, 2)]) == (((-1, 2), (2, -1)), ())
    # a plane in Q^3 (x + y = z), bounded by x >= 0 and y >= 0 within it
    assert cone_facets([(1, 0, 1), (0, 1, 1)]) == (((0, -1, 1), (0, 1, 0)), ((-1, -1, 1),))
    assert cone_facets([(2, 4), (3, 6)]) == (((0, 1),), ((2, -1),))   # one ray
    assert cone_facets([(3,)]) == (((1,),), ()) and cone_facets([(-3,)]) == (((-1,),), ())
    assert nonneg_solve([], (0, 0)) and not nonneg_solve([], (0, 1))
