"""Exact ranks and simplicial homology kept as test oracles.

`fraction_rank` is Gauss-Jordan elimination over Fractions, and
`ranks_from_faces` builds dense boundary rows from tuple faces and ranks
them with it.  Neither imports `sgring.linalg` or `sgring.resolution`, so
they check the sparse rank and the face-mask homology of the package.
"""
from fractions import Fraction


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
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def ranks_from_faces(faces_by_size):
    """Reduced rational homology ranks of a complex given as sorted vertex
    tuples grouped by size (size 0 is [()]); entry i is the rank in degree
    i-1."""
    index = [{f: i for i, f in enumerate(level)} for level in faces_by_size]
    boundary_ranks = [0]  # rank of the map out of size-s chains, s = 0 is zero
    for s in range(1, len(faces_by_size)):
        rows = []
        for face in faces_by_size[s]:
            row = [0] * len(faces_by_size[s - 1])
            for j in range(s):
                row[index[s - 1][face[:j] + face[j + 1:]]] = -1 if j & 1 else 1
            rows.append(row)
        boundary_ranks.append(fraction_rank(rows))
    boundary_ranks.append(0)
    return [len(faces_by_size[s]) - boundary_ranks[s] - boundary_ranks[s + 1]
            for s in range(len(faces_by_size))]


def faces_of_mask(bits, n):
    """The set bits of `bits` (bit k is the vertex subset k of n vertices) as
    sorted vertex tuples grouped by size, trailing empty sizes dropped."""
    grouped = [[] for _ in range(n + 1)]
    for k in range(1 << n):
        if bits >> k & 1:
            face = tuple(i for i in range(n) if k >> i & 1)
            grouped[len(face)].append(face)
    while not grouped[-1]:
        grouped.pop()
    return grouped
