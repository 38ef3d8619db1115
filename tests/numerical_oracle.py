"""Walks over the integers and cell-by-cell tables for numerical
semigroups, kept as test oracles.

`sgring` answers minimality and the Gorenstein verdict from Ap(S, n_1) in
O(n_1) lookups.  These oracles answer the same questions by walking the
integers themselves: a reachability table over [0, g] for each generator g,
which shares no code with the module, and the gap-symmetry loop over
[0, F], which asks only `membership` point by point.  Agreeing answers
check the class-by-class reads.

`sgring` stores the Apery table of the powers of the maximal ideal as runs
built from step changes.  `apery_rows` builds the same table row by row,
every cell from its recurrence, and the readers below it answer `ord`, the
Hilbert function and the order-additivity offender from those rows.
"""
from bisect import bisect_right

from sgring.errors import tick
from sgring.semigroups import NumericalSemigroup
from sgring.verdicts import CrossCheck, Verdict


def redundant_by_reachability(gens) -> list[int]:
    """The generators reachable as sums of the others, by a table over
    [0, g] for each generator g."""
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


def gorenstein_by_gap_walk(s: NumericalSemigroup) -> Verdict:
    """`verdicts.gorenstein_numerical` by walking z over [0, F]: the first z
    with z and F - z both members or both gaps is the witness; N has no z
    to walk."""
    f = s.frobenius()
    bad = None
    for z in range(f + 1):
        if not z & 4095:
            tick()
        if (z in s) == ((f - z) in s):
            bad = z
            break
    pf = s.pf_numeric()
    checks = (CrossCheck("type-one", len(pf) == 1,
                         f"pseudo-Frobenius elements {pf}"),)
    return Verdict("gorenstein-numerical", bad is None, "gap symmetry",
                   None if bad is None else (bad, f - bad), checks)


def apery_rows(s: NumericalSemigroup) -> list[list[int]]:
    """Rows m_0, ..., m_r of the Apery table of the powers of M, cell by
    cell: m_0 = Ap(S, n_1), m_l(i) = min over generators g of
    g + m_(l-1)(i - g), stopping at the first row whose successor is the
    row plus n_1."""
    n1 = s.multiplicity
    rows = [list(s._apery_by_residue)]
    while True:
        tick()
        prev = rows[-1]
        climbed = [v + n1 for v in prev]
        row = climbed
        for g in s.generators[1:]:
            k = n1 - g % n1  # rotate so that shifted[i] = prev[(i - g) % n1]
            row = [a if a <= b + g else b + g
                   for a, b in zip(row, prev[k:] + prev[:k])]
        if row == climbed:
            return rows
        rows.append(row)


def ord_by_rows(rows: list[list[int]], x: int) -> int:
    """The last row whose entry in the residue of the member x is at most
    x, plus one per n_1 past the table."""
    n1, r = len(rows[0]), x % len(rows[0])
    below = bisect_right(rows, x, key=lambda row: row[r])
    return below - 1 + max(0, x - rows[-1][r]) // n1


def hilbert_by_rows(rows: list[list[int]], upto: int) -> list[int]:
    """H(l) = sum over residues of (m_(l+1) - m_l) / n_1, and n_1 past the
    table."""
    n1, sums = len(rows[0]), [sum(row) for row in rows]
    return [(sums[l + 1] - sums[l]) // n1 if l + 1 < len(sums) else n1
            for l in range(upto + 1)]


def additivity_offender_by_rows(rows: list[list[int]]):
    """The least x = m_k(i) whose column climbs into row k + 1 and is flat
    into row k + 2, read from every triple of consecutive rows; None when
    there is none."""
    n1 = len(rows[0])
    return min((a for lo, mid, hi in zip(rows, rows[1:], rows[2:])
                for a, b, c in zip(lo, mid, hi) if a + n1 == b == c), default=None)
