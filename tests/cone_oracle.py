"""Independent cone oracle: a Bland-rule phase-1 simplex over Fractions.
It shares no code with the integer facet normals of `sgring.linalg`, so
the tests check the facets, cone membership and extremal rays against it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from sgring.errors import tick


def nonneg_solve(cols: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[list[Fraction]]:
    """Solve sum_j lam_j * cols[j] = target with lam >= 0 over Q; None if infeasible.

    Phase-1 simplex with Bland's rule (anti-cycling, guaranteed termination),
    checking the deadline once per pivot.
    """
    d = len(target)
    n = len(cols)
    for c in cols:
        assert len(c) == d
    # Tableau rows [A | I | b] with b >= 0; basis starts on the artificials.
    tab: list[list[Fraction]] = []
    for i in range(d):
        row = [Fraction(cols[j][i]) for j in range(n)]
        row += [Fraction(1 if k == i else 0) for k in range(d)]
        row.append(Fraction(target[i]))
        if row[-1] < 0:
            row = [-a for a in row]
        tab.append(row)
    basis = [n + i for i in range(d)]
    width = n + d
    # Reduced costs for minimizing the artificial sum.
    obj = [sum(tab[i][j] for i in range(d)) for j in range(width)]
    obj_rhs = sum(tab[i][-1] for i in range(d))
    while True:
        tick()
        enter = next((j for j in range(width) if obj[j] > 0 and j not in basis), None)
        if enter is None:
            break
        leave_row = None
        best = None
        for i in range(d):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave_row]):
                    best, leave_row = ratio, i
        if leave_row is None:
            # Unbounded below is impossible for a sum of nonnegatives; defensive.
            return None
        piv = tab[leave_row][enter]
        tab[leave_row] = [a / piv for a in tab[leave_row]]
        for i in range(d):
            if i != leave_row and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave_row])]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, tab[leave_row][:-1])]
        obj_rhs -= f * tab[leave_row][-1]
        basis[leave_row] = enter
    if obj_rhs != 0:
        return None
    lam = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            lam[b] = tab[i][-1]
        elif tab[i][-1] != 0:
            # Artificial stuck in the basis at a nonzero level: infeasible.
            return None
    return lam
