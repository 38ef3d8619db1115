"""Boolean verdicts about semigroup rings, each independently double-checked.

Every verdict records the primary method's answer together with the outcome
of one or more cross-checks computed by a different route.  A cross-check
that completes and disagrees flags the verdict as a conflict; conflicts are
never silently resolved, callers are expected to surface them.  A
cross-check that cannot be certified within its budget reports None with a
note saying why.

The projective-closure verdicts read the Apery set of the closure with
respect to its two extremal generators, enumerated once per semigroup
without a scan box; the closure Betti scan (`closure_resolution`) is kept
for the Betti-totals note of the gluing harness and as a test oracle.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (BoundInsufficient, Deadline, DeadlineExceeded,
                     InputError, tick)
from .monomials import Vec, degrevlex, negdegrevlex, vec_add
from .groebner import buchberger, homogenize_ideal
from .groebner import standard_basis_local
from .semigroups import AffineSemigroup, NumericalSemigroup
from .resolution import betti_degrees, resolution_summary
from .toric import toric_ideal

# Budget for the Betti-table cross-checks (seconds, and doubling retries
# after a too-small certified scan box).
_DEPTH_BUDGET = 20.0
_DEPTH_RETRIES = 6
_EXHAUSTED = "cross-check budget exhausted"


class CrossCheck(NamedTuple):
    name: str
    result: Optional[bool]  # None = did not complete within budget
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    name: str
    result: Optional[bool]  # None = undecided (primary method unavailable)
    method: str
    witness: object = None
    cross_checks: tuple = ()

    @property
    def conflict(self) -> bool:
        return self.result is not None and any(
            c.result is not None and c.result != self.result
            for c in self.cross_checks)

    def __bool__(self) -> bool:
        if self.result is None:
            raise InputError(f"verdict {self.name!r} is undecided")
        return self.result


def projective_closure_semigroup(s: NumericalSemigroup) -> AffineSemigroup:
    """Degree semigroup of the projective monomial curve: (n_i, n_e - n_i)
    for each generator plus (0, n_e) for the point at infinity."""
    if not isinstance(s, NumericalSemigroup):
        raise InputError("projective closure needs a numerical semigroup")
    e = s.generators[-1]
    return AffineSemigroup([(n, e - n) for n in s.generators] + [(0, e)])


def closure_apery(s: NumericalSemigroup,
                  deadline: Optional[Deadline] = None) -> frozenset:
    """Ap(S', E) for the projective closure S' = <(n_i, n_e - n_i), (0, n_e)>
    and its extremal generators E = {(n_e, 0), (0, n_e)}: the members p of
    S' with neither p - (n_e, 0) nor p - (0, n_e) in S'.

    S' is simplicial, so its ring is Cohen-Macaulay iff |Ap(S', E)| = n_e,
    the index of the lattice spanned by E in the group of S'
    (Goto-Suzuki-Watanabe 1976), and a Cohen-Macaulay S' is Gorenstein iff
    Ap(S', E) has one maximal element (Rosales-Garcia-Sanchez 1998).
    Removing a non-extremal generator from an element of Ap(S', E) leaves
    one, so a breadth-first search over those generators from (0, 0)
    enumerates the set without a scan box.  Membership is exact:
    (x, y) is in S' iff n_e divides x + y and x has a factorization in S of
    length at most (x + y) / n_e, the balance being copies of (0, n_e).

    The set is built once per semigroup object; a search cut short by the
    deadline raises and stores nothing.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("the closure Apery set needs a numerical semigroup")
    memo = s._memo
    if "closure_apery" in memo:
        return memo["closure_apery"]
    top = s.generators[-1]
    steps = _closure_steps(s)
    minlen = [0]  # shortest factorization length in S, inf off S

    def member(x: int, y: int) -> bool:
        if x < 0 or y < 0 or (x + y) % top:
            return False
        while len(minlen) <= x:
            v = len(minlen)
            if not v & 4095:
                tick(deadline)
            minlen.append(1 + min((minlen[v - g] for g in s.generators if g <= v),
                                  default=math.inf))
        return minlen[x] <= (x + y) // top

    found = {(0, 0)}
    queue = deque(found)
    pops = 0
    while queue:
        if not pops & 4095:
            tick(deadline)
        pops += 1
        x, y = queue.popleft()
        for dx, dy in steps:
            p = (x + dx, y + dy)
            if p in found or member(p[0] - top, p[1]) or member(p[0], p[1] - top):
                continue
            found.add(p)
            queue.append(p)
    memo["closure_apery"] = frozenset(found)
    return memo["closure_apery"]


def _closure_steps(s: NumericalSemigroup) -> list[Vec]:
    top = s.generators[-1]
    return [(n, top - n) for n in s.generators[:-1]]


def _apery_symmetry(ap: frozenset, top_gen: int) -> tuple[bool, str]:
    """Gorenstein reading from the set alone: n_e elements, and w -> t - w
    maps the set into itself for its single element t of largest degree."""
    if len(ap) != top_gen:
        return False, f"|Ap(closure, E)| = {len(ap)}, not n_e = {top_gen}"
    high = max(map(sum, ap))
    tops = [w for w in ap if sum(w) == high]
    if len(tops) != 1:
        return False, f"{len(tops)} elements of Ap(closure, E) share the top degree"
    t = tops[0]
    odd = next((w for w in sorted(ap) if (t[0] - w[0], t[1] - w[1]) not in ap), None)
    if odd is None:
        return True, f"Ap(closure, E) is symmetric about {t}"
    return False, f"Ap(closure, E) is not symmetric about {t}: {t} - {odd} is missing"


def closure_resolution(s, deadline=None):
    """Betti table and summary of the projective closure semigroup.

    No verdict reads it: they decide from `closure_apery`.  The gluing
    harness quotes its totals, and tests use it as an independent oracle.

    Closure generators sit off the coordinate axes, so no scan box is
    provably complete; a single scan can drop top syzygies without leaving
    a trace in the rows it does find (a level can sit an arbitrary
    semigroup element above the previous one).  A table is therefore
    accepted only once two successive doublings of the box agree on every
    graded row.  Returns (table, summary, note); both are None when no
    stable pair fit the budget, with the note saying why.

    The result is memoized on the semigroup object, so repeated calls scan
    once.  A result cut short by the budget is not stored: a later call
    with more time may still decide.
    """
    memo = getattr(s, "_memo", {})  # other inputs are rejected below
    if "closure_resolution" in memo:
        return memo["closure_resolution"]
    result = _stable_closure_table(projective_closure_semigroup(s), deadline)
    if result[2] != _EXHAUSTED:
        memo["closure_resolution"] = result
    return result


def _stable_closure_table(sbar, deadline):
    budget = _DEPTH_BUDGET
    if deadline is not None:
        budget = min(budget, deadline.remaining)
    sub = Deadline(budget)
    nsum = tuple(sum(c) for c in zip(*sbar.generators))
    bound = tuple(len(sbar.generators) * c for c in nsum)
    prev = None
    prev_bound = bound
    for _ in range(_DEPTH_RETRIES):
        try:
            table = betti_degrees(sbar, degree_bound=bound, deadline=sub)
            summary = resolution_summary(sbar, table)  # depth > dim refutes the scan
        except BoundInsufficient:
            prev = None  # a clipped scan cannot anchor a stable pair
            bound = tuple(2 * c for c in bound)
            continue
        except InputError as exc:
            return None, None, str(exc)
        except DeadlineExceeded:
            tick(deadline)  # re-raise when the caller's own deadline is gone
            return None, None, _EXHAUSTED
        if prev is not None and prev.rows == table.rows:
            return table, summary, f"stable across bounds {prev_bound} and {bound}"
        prev, prev_bound = table, bound
        bound = tuple(2 * c for c in bound)
    return None, None, f"rows not stable across doubled bounds up to {prev_bound}"


def acm_projective_closure(s: NumericalSemigroup,
                           deadline: Optional[Deadline] = None) -> Verdict:
    """Is the projective closure of the monomial curve arithmetically
    Cohen-Macaulay?

    Primary method: reduced Groebner basis of the homogenized curve ideal
    under degree revlex with the balancing variable lowest; the closure is
    arithmetically Cohen-Macaulay exactly when the variable of the largest
    generator divides no lead monomial.

    Cross-checks: (a) rerun Buchberger on the homogenized basis treated as
    mere generators, so the lead-preservation shortcut used by the primary
    route is verified mechanically instead of trusted; (b) "closure-depth":
    the closure ring has depth 2, its dimension, exactly when the Apery set
    of the closure semigroup has n_e elements (see `closure_apery`).  Both
    always decide.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("acm_projective_closure expects a numerical semigroup")
    e = len(s.generators)
    ti = toric_ideal(s, deadline=deadline)
    gb = buchberger(ti.generators, degrevlex(e), deadline=deadline)
    hgb = homogenize_ideal(gb)
    offender = next((b for b in hgb.elements if b.lead[e - 1]), None)
    result = offender is None

    gb2 = buchberger(hgb.elements, hgb.order, deadline=deadline)
    alt = not any(m[e - 1] for m in gb2.leads())
    same = sorted(gb2.leads()) == sorted(hgb.leads())
    checks = [CrossCheck("homogenized-recompute", alt,
                         "lead sets agree" if same else "lead sets differ")]

    ap, top = closure_apery(s, deadline), s.generators[-1]
    checks.append(CrossCheck("closure-depth", len(ap) == top,
                             f"|Ap(closure, E)| = {len(ap)}, n_e = {top}"))
    return Verdict("acm-projective-closure", result,
                   "initial-ideal divisibility by the largest-generator variable",
                   offender, tuple(checks))


def cm_tangent_cone(s: NumericalSemigroup,
                    deadline: Optional[Deadline] = None) -> Verdict:
    """Is the tangent cone at the origin of the monomial curve
    Cohen-Macaulay?

    Primary method: minimal local standard basis under negative-degree
    revlex with the multiplicity variable lowest; the tangent cone is
    Cohen-Macaulay exactly when that variable divides no lead.

    Cross-check: the multiplicity m is a nonzerodivisor on the associated
    graded ring iff order is additive along m: ord(x + m) = ord(x) + 1 for
    every member x.  It is read off the Apery table of the powers of the
    maximal ideal (`NumericalSemigroup.apery_table`), whose columns step by
    0 or m from row to row: x fails exactly when x = m_k(i) for a column i
    that climbs into row k + 1 and is flat into row k + 2.  Past the table
    every column climbs, so additivity holds iff every column is constant
    and then climbs by m per row, and the least failing member is the least
    such m_k(i).
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("cm_tangent_cone expects a numerical semigroup")
    e = len(s.generators)
    ti = toric_ideal(s, deadline=deadline)
    local = negdegrevlex(e, priority=tuple(range(e - 1, -1, -1)))
    sb = standard_basis_local(ti.generators, local, deadline=deadline)
    offender = next((b for b in sb.elements if b.lead[0]), None)
    result = offender is None

    m = s.multiplicity
    rows = s.apery_table(deadline)
    bad = min((a for lo, mid, hi in zip(rows, rows[1:], rows[2:])
               for a, b, c in zip(lo, mid, hi) if a + m == b == c), default=None)
    note = (f"every Apery-table column is constant, then climbs by {m}"
            if bad is None else f"ord({bad} + {m}) != ord({bad}) + 1")
    checks = (CrossCheck("order-additivity", bad is None, note),)
    return Verdict("cm-tangent-cone", result,
                   "local standard basis divisibility by the multiplicity variable",
                   offender if offender is not None else bad, checks)


def gorenstein_numerical(s: NumericalSemigroup,
                         deadline: Optional[Deadline] = None) -> Verdict:
    """Is the numerical semigroup ring Gorenstein?

    Primary method: gap symmetry about the Frobenius number F — for every
    z in [0, F] exactly one of z, F - z belongs to the semigroup.
    Cross-check: the Cohen-Macaulay type equals one, read from Ap(S, n_1) as
    the number of its elements maximal in the semigroup order (the
    pseudo-Frobenius numbers plus n_1).  The full semigroup (F = -1) has no
    gaps and an empty pseudo-Frobenius set; its ring is a polynomial ring,
    so the verdict is True with the type check skipped.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("gorenstein_numerical expects a numerical semigroup")
    if s.frobenius() < 0:
        return Verdict("gorenstein-numerical", True, "gap symmetry", None,
                       (CrossCheck("type-one", None,
                                   "no gaps: polynomial ring, type check skipped"),))
    f = s.frobenius()
    bad = None
    for z in range(f + 1):
        if not z & 4095:
            tick(deadline)
        if (z in s) == ((f - z) in s):
            bad = z
            break
    pf = s.pf_numeric()
    checks = (CrossCheck("type-one", len(pf) == 1,
                         f"pseudo-Frobenius elements {pf}"),)
    return Verdict("gorenstein-numerical", bad is None, "gap symmetry",
                   None if bad is None else (bad, f - bad), checks)


NOT_ACM = "not arithmetically Cohen-Macaulay"


def gorenstein_projective_closure(s: NumericalSemigroup,
                                  deadline: Optional[Deadline] = None) -> Verdict:
    """Is the projective closure's coordinate ring Gorenstein?

    Primary method: the arithmetically Cohen-Macaulay verdict (Groebner
    route) combined with the Apery set of the closure (`closure_apery`)
    having exactly one maximal element in the semigroup order.  Not ACM
    short-circuits to False.  For an ACM closure the witness is the sorted
    maximal elements shifted by the sum of the non-extremal closure
    generators: the top Betti degrees of the closure ring.  Cross-check:
    the Apery set read alone, with n_e elements (depth 2) and symmetric
    about its element of largest degree.  Every answer is decided.
    """
    acm = acm_projective_closure(s, deadline=deadline)
    ap = closure_apery(s, deadline)
    flag = CrossCheck("closure-gorenstein-flag", *_apery_symmetry(ap, s.generators[-1]))
    if acm.result is False:
        return Verdict("gorenstein-projective-closure", False, NOT_ACM,
                       acm.witness, (flag,))
    steps = _closure_steps(s)
    sigma = (sum(g[0] for g in steps), sum(g[1] for g in steps))
    # maximal in the order of the closure semigroup: no non-extremal
    # generator leads from w to another element of the set
    maximal = [w for w in ap if not any(vec_add(w, g) in ap for g in steps)]
    return Verdict("gorenstein-projective-closure", len(maximal) == 1,
                   "arithmetically Cohen-Macaulay and one maximal element "
                   "of the closure Apery set",
                   tuple(sorted(vec_add(w, sigma) for w in maximal)), (flag,))
