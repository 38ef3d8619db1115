"""Exact ranks: the integer Bareiss rank against a Fraction elimination oracle."""
import random
from fractions import Fraction

from sgring.linalg import rational_rank

MATRIX_A = ((3, 0), (5, 0), (0, 1), (1, 3), (2, 3))
MATRIX_B = ((6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9))


def fraction_rank(rows):
    """Rank over Q by Gauss-Jordan elimination over Fractions."""
    mat = [[Fraction(a) for a in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        mat[rank] = prow = [a * inv for a in prow]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


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
