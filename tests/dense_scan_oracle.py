"""The dense subset-board Betti scan, kept as a test oracle.

It shifts the member board into one board per generator subset (2^n boards
over the whole box) and finds the points whose divisor complex is a cone
over no vertex with n * 2^(n-1) AND/XOR steps, then builds each face mask
from per-subset difference tuples, ranked by the tuple-face homology of
`homology_oracle`.  `resolution.betti_degrees` finds the same points from
n Apery boards, reads faces at linear offsets and ranks face masks, so
equal tables check that filter and that homology.  The certified box (the
Apery box when the extremal rays are the axes, A * lcm of the reduced basis
leads otherwise) is repeated here so that the oracle stands alone; a given
box replaces it, as `resolution._scan` takes one.
"""

from sgring.errors import CertificationError, InputError, tick
from sgring.monomials import Vec, vec_add
from sgring.resolution import BettiTable, Degree, Semigroup, _gen_vectors
from sgring.affine import Grid, iter_bits, member_board
from sgring.toric import reduced_basis

from homology_oracle import faces_of_mask, ranks_from_faces

MAX_VERTICES = 16
MAX_BOARD_BITS = 1 << 31   # total bits across all subset boards


def dense_betti_degrees(s: Semigroup, box=None) -> BettiTable:
    """The table of `betti_degrees(s)`, or of `resolution._scan(s, box)` when
    a box is given, by subset boards; its own cap counts 2^n boards and
    raises InputError."""
    gens, d, numerical = _gen_vectors(s)
    n = len(gens)
    if n > MAX_VERTICES:
        raise InputError(f"{n} generators exceed the subset-enumeration limit")
    gen_sum = (0,) * d
    for g in gens:
        gen_sum = vec_add(gen_sum, g)
    if box is None and (axis := s.axis_apery()) is not None:
        extremal, apery = axis
        box = tuple(max(w[i] for w in apery) + gen_sum[i] - sum(e[i] for e in extremal)
                    for i in range(d))
    elif box is None:
        lcm = [0] * n
        for b in reduced_basis(s).elements:
            lcm = [max(x, y) for x, y in zip(lcm, b.lead)]
        box = tuple(sum(c * g[i] for c, g in zip(lcm, gens)) for i in range(d))

    grid = Grid(box, gen_sum)
    if (1 << n) * grid.total > MAX_BOARD_BITS:
        raise InputError("scan box too large for the subset boards")
    members_board = member_board(grid, gens)

    subset_sums: list[Vec] = [(0,) * d] * (1 << n)
    for k in range(1, 1 << n):
        low = k & -k
        subset_sums[k] = vec_add(subset_sums[k ^ low], gens[low.bit_length() - 1])
    boards = [0] * (1 << n)
    for k in range(1 << n):
        tick()
        if all(c <= b for c, b in zip(subset_sums[k], box)):
            boards[k] = (members_board << grid.lin(subset_sums[k])) & grid.real

    # A complex that is a cone over vertex v is contractible; keep only points
    # where every vertex has a face whose extension by that vertex is missing.
    candidates = members_board
    full = (1 << grid.total) - 1
    for v in range(n):
        tick()
        bit = 1 << v
        non_cone = 0
        for k in range(1 << n):
            if not k & bit:
                non_cone |= boards[k] & (boards[k | bit] ^ full)
        candidates &= non_cone

    member_bytes = members_board.to_bytes((grid.total + 7) // 8, "little")
    rows_acc: dict[int, list] = {}
    rank_memo: dict[int, list[int]] = {}
    for idx in iter_bits(candidates, grid.total):
        tick()
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
            ranks = rank_memo[bits] = ranks_from_faces(faces_of_mask(bits, n))
        deg: Degree = b[0] if numerical else b
        for i, r in enumerate(ranks):
            if r:
                rows_acc.setdefault(i, []).extend([deg] * r)

    top = max(rows_acc)
    if sorted(rows_acc) != list(range(top + 1)):
        raise CertificationError(f"scan box {box} produced a gap in the rows")
    return BettiTable(tuple(tuple(sorted(rows_acc[i])) for i in range(top + 1)), n)
