"""Boolean verdicts about semigroup rings, each independently double-checked.

Every verdict records the primary method's answer together with the outcome
of one or more cross-checks computed by a different route.  A cross-check
that completes and disagrees flags the verdict as a conflict; conflicts are
never silently resolved, callers are expected to surface them.  A
cross-check that cannot be certified reports None with a note saying why.

The primary methods read the reduced and local bases of the toric ideal
from `toric`.  The projective-closure verdicts read the Apery set of the
closure with respect to its two extremal generators, enumerated without a
scan box; the closure Betti scan (`closure_resolution`) is kept for the
Betti-totals note of the gluing harness and as a test oracle.  Both are
artifacts of the semigroup object (`semigroups.artifact`), built once.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import Deadline, InputError, tick
from .monomials import Vec, vec_add
from .groebner import buchberger, homogenize_ideal
from .semigroups import AffineSemigroup, NumericalSemigroup, artifact, axis_apery
from .resolution import betti_degrees, resolution_summary
from .toric import local_basis, reduced_basis

class CrossCheck(NamedTuple):
    name: str
    result: Optional[bool]  # None = undecided, the note says why
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

    S' is simplicial with its rays on the axes, so its ring is
    Cohen-Macaulay iff |Ap(S', E)| = n_e, the index of the lattice spanned
    by E in the group of S' (Goto-Suzuki-Watanabe 1976), and a
    Cohen-Macaulay S' is Gorenstein iff Ap(S', E) has one maximal element
    (Rosales-Garcia-Sanchez 1998).  The set is read from `axis_apery` on
    the closure generators, without a scan box.

    The set is built once per semigroup object.
    """
    return artifact(s, "closure_apery", lambda: axis_apery(
        projective_closure_semigroup(s).generators, deadline)[1])


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

    The closure's extremal rays are the coordinate axes, so one scan of the
    certified box of `betti_degrees` finds every Betti degree.  Returns
    (table, summary, note); both are None when the box does not fit the
    subset boards, with the note saying why.

    The result is built once per semigroup object, so repeated calls scan
    once.
    """
    def build():
        sbar = projective_closure_semigroup(s)
        try:
            table = betti_degrees(sbar, deadline=deadline)
            return table, resolution_summary(sbar, table), "certified scan box"
        except InputError as exc:
            return None, None, str(exc)

    return artifact(s, "closure_resolution", build)


def acm_projective_closure(s: NumericalSemigroup,
                           deadline: Optional[Deadline] = None) -> Verdict:
    """Is the projective closure of the monomial curve arithmetically
    Cohen-Macaulay?

    Primary method: the reduced degree-revlex basis (`toric.reduced_basis`)
    homogenized with the balancing variable lowest; the closure is
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
    hgb = homogenize_ideal(reduced_basis(s, deadline))
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

    Primary method: the minimal local standard basis (`toric.local_basis`,
    negative-degree revlex with the multiplicity variable lowest); the tangent cone is
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
    offender = next((b for b in local_basis(s, deadline).elements if b.lead[0]), None)
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
