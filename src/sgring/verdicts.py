"""Boolean verdicts about semigroup rings, each independently double-checked.

Every verdict records the primary method's answer together with the outcome
of one or more cross-checks computed by a different route.  A cross-check
that completes and disagrees flags the verdict as a conflict; conflicts are
never silently resolved, callers are expected to surface them.  A
cross-check that cannot be certified within its budget reports None with a
note saying why.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (BoundInsufficient, Deadline, DeadlineExceeded,
                     InputError, tick)
from .monomials import degrevlex, negdegrevlex
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


def closure_resolution(s, deadline=None):
    """Betti table and summary of the projective closure semigroup.

    Closure generators sit off the coordinate axes, so no scan box is
    provably complete; a single scan can drop top syzygies without leaving
    a trace in the rows it does find (a level can sit an arbitrary
    semigroup element above the previous one).  A table is therefore
    accepted only once two successive doublings of the box agree on every
    graded row.  Returns (table, summary, note); both are None when no
    stable pair fit the budget, with the note saying why.

    The result is memoized on the semigroup object, so the verdicts that
    share one closure scan it once.  A result cut short by the budget is
    not stored: a later call with more time may still decide.
    """
    memo = getattr(s, "_closure_memo", [])  # other inputs are rejected below
    if memo:
        return memo[0]
    result = _stable_closure_table(projective_closure_semigroup(s), deadline)
    if result[2] != _EXHAUSTED:
        memo.append(result)
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
    route is verified mechanically instead of trusted; (b) depth of the
    closure semigroup ring read off its Betti table (depth 2 is maximal in
    the two-dimensional closure).
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

    table, summary, note = closure_resolution(s, deadline)
    checks.append(CrossCheck("closure-depth",
                             None if summary is None else summary.cm, note))
    return Verdict("acm-projective-closure", result,
                   "initial-ideal divisibility by the largest-generator variable",
                   offender, tuple(checks))


def cm_tangent_cone(s: NumericalSemigroup,
                    deadline: Optional[Deadline] = None,
                    ord_bound: Optional[int] = None) -> Verdict:
    """Is the tangent cone at the origin of the monomial curve
    Cohen-Macaulay?

    Primary method: minimal local standard basis under negative-degree
    revlex with the multiplicity variable lowest; the tangent cone is
    Cohen-Macaulay exactly when that variable divides no lead.

    Cross-check: the multiplicity m is a nonzerodivisor on the associated
    graded ring iff order is additive along m: ord(x + m) = ord(x) + 1 for
    every member x.  Any failure already happens at some
    x <= m * n_e * (e - 1): a failure means every maximal factorization of
    x + m omits m (dropping a copy would certify additivity) and uses each
    other generator fewer than m times (trading m copies of it for more
    copies of m would lengthen the factorization), so x + m <
    m * (sum of the other generators).  Scanning members up to the bound is
    therefore a complete test; ord_bound only widens the audit.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("cm_tangent_cone expects a numerical semigroup")
    e = len(s.generators)
    ti = toric_ideal(s, deadline=deadline)
    local = negdegrevlex(e, priority=tuple(range(e - 1, -1, -1)))
    sb = standard_basis_local(ti.generators, local, deadline=deadline)
    offender = next((b for b in sb.elements if b.lead[0]), None)
    result = offender is None

    m = s.generators[0]
    bound = m * s.generators[-1] * (e - 1) if ord_bound is None else ord_bound
    bad = None
    for x in range(bound + 1):
        if not x & 4095:
            tick(deadline)
        if x in s and s.ord(x + m) != s.ord(x) + 1:
            bad = x
            break
    note = (f"order additive on members up to {bound}" if bad is None
            else f"ord({bad} + {m}) != ord({bad}) + 1")
    checks = (CrossCheck("order-additivity", bad is None, note),)
    return Verdict("cm-tangent-cone", result,
                   "local standard basis divisibility by the multiplicity variable",
                   offender if offender is not None else bad, checks)


def gorenstein_numerical(s: NumericalSemigroup,
                         deadline: Optional[Deadline] = None) -> Verdict:
    """Is the numerical semigroup ring Gorenstein?

    Primary method: gap symmetry about the Frobenius number F — for every
    z in [0, F] exactly one of z, F - z belongs to the semigroup.
    Cross-check: the Cohen-Macaulay type (the number of pseudo-Frobenius
    elements) equals one.  The full semigroup has no gaps and an empty
    pseudo-Frobenius set; its ring is a polynomial ring, so the verdict is
    True with the type check skipped.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("gorenstein_numerical expects a numerical semigroup")
    if not s.gaps():
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


def gorenstein_projective_closure(s: NumericalSemigroup,
                                  deadline: Optional[Deadline] = None) -> Verdict:
    """Is the projective closure's coordinate ring Gorenstein?

    Primary method: the arithmetically Cohen-Macaulay verdict combined with
    the last total Betti number of the closure semigroup being one.  Not
    ACM short-circuits to False; an uncertifiable Betti scan leaves the
    verdict undecided rather than guessed.  Cross-check: the Gorenstein
    flag of the closure's resolution summary, whose depth reading comes
    from the Betti table instead of the Groebner basis.
    """
    acm = acm_projective_closure(s, deadline=deadline)
    table, summary, note = closure_resolution(s, deadline)
    flag = None if summary is None else summary.gorenstein
    if acm.result is False:
        return Verdict("gorenstein-projective-closure", False,
                       "not arithmetically Cohen-Macaulay", acm.witness,
                       (CrossCheck("closure-gorenstein-flag", flag, note),))
    if table is None:
        return Verdict("gorenstein-projective-closure", None,
                       "closure Betti table unavailable", None,
                       (CrossCheck("closure-gorenstein-flag", None, note),))
    result = bool(acm.result) and table.total[-1] == 1
    return Verdict("gorenstein-projective-closure", result,
                   "arithmetically Cohen-Macaulay and last Betti number one",
                   table.top_degrees,
                   (CrossCheck("closure-gorenstein-flag", flag, note),))
