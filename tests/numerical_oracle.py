"""Walks over the integers for numerical semigroups, kept as test oracles.

`sgring` answers minimality and the Gorenstein verdict from Ap(S, n_1) in
O(n_1) lookups.  These oracles answer the same questions by walking the
integers themselves: a reachability table over [0, g] for each generator g,
which shares no code with the module, and the gap-symmetry loop over
[0, F], which asks only `membership` point by point.  Agreeing answers
check the class-by-class reads.
"""

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
    with z and F - z both members or both gaps is the witness."""
    if s.frobenius() < 0:
        return Verdict("gorenstein-numerical", True, "gap symmetry", None,
                       (CrossCheck("type-one", None,
                                   "no gaps: polynomial ring, type check skipped"),))
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
