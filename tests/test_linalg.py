"""Exact ranks: the sparse elimination rank against a Fraction elimination oracle."""
import random

from sgring.linalg import rational_rank

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
