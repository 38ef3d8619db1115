"""Boolean verdicts about semigroup rings, each independently double-checked.

Every verdict records the primary method's answer together with the outcome
of one or more cross-checks computed by a different route.  A cross-check
that completes and disagrees flags the verdict as a conflict; conflicts are
never silently resolved, callers are expected to surface them.  Every
result is a bool: a route that cannot certify its answer raises instead.

The primary methods read the reduced and local bases of the toric ideal
from `toric`.  The projective-closure verdicts read the Apery set of the
closure with respect to its two extremal generators, enumerated without a
scan box; the closure Betti scan (`closure_resolution`) is kept for the
Betti-totals note of the gluing harness and as a test oracle.  Both are
stored results of the semigroup object (`@semigroups.artifact`).
"""

from typing import NamedTuple

from .errors import CertificationError, InputError, tick
from .monomials import vec_add
from .groebner import buchberger, homogenize_ideal
from .affine import AffineSemigroup
from .semigroups import NumericalSemigroup, artifact
from .resolution import betti_degrees, resolution_summary
from .toric import local_basis, reduced_basis

class CrossCheck(NamedTuple):
    name: str
    result: bool
    note: str = ""


class Verdict(NamedTuple):
    name: str
    result: bool
    method: str
    witness: object = None
    cross_checks: tuple = ()

    @property
    def conflict(self) -> bool:
        return any(c.result != self.result for c in self.cross_checks)

    def __bool__(self) -> bool:
        return self.result


@artifact
def projective_closure_semigroup(s: NumericalSemigroup) -> AffineSemigroup:
    """Degree semigroup of the projective monomial curve: (n_i, n_e - n_i)
    for each generator plus (0, n_e) for the point at infinity; an artifact
    of s, so its own artifacts are shared by every reader of the closure."""
    if not isinstance(s, NumericalSemigroup):
        raise InputError("projective closure needs a numerical semigroup")
    e = s.generators[-1]
    return AffineSemigroup([(n, e - n) for n in s.generators] + [(0, e)])


def closure_apery(s: NumericalSemigroup) -> frozenset:
    """Ap(S', E) for the projective closure S' = <(n_i, n_e - n_i), (0, n_e)>
    and its extremal generators E = {(n_e, 0), (0, n_e)}: the members p of
    S' with neither p - (n_e, 0) nor p - (0, n_e) in S'.

    S' is simplicial with its rays on the axes, so its ring is
    Cohen-Macaulay iff |Ap(S', E)| = n_e, the index of the lattice spanned
    by E in the group of S' (Goto-Suzuki-Watanabe 1976), and a
    Cohen-Macaulay S' is Gorenstein iff Ap(S', E) has one maximal element
    (Rosales-Garcia-Sanchez 1998).  The set is the stored `axis_apery` of
    the closure object, found without a scan box and built once.
    """
    return projective_closure_semigroup(s).axis_apery()[1]


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


@artifact
def closure_resolution(s):
    """Betti table and summary of the projective closure semigroup.

    No verdict reads it: they decide from `closure_apery`.  The gluing
    harness quotes its totals, and tests use it as an independent oracle.

    The closure's extremal rays are the coordinate axes, so one scan of the
    certified box of `betti_degrees` finds every Betti degree.  Returns
    (table, summary, note); both are None when `betti_degrees` refuses the
    closure (too many generators or bits), with the note saying why.
    """
    sbar = projective_closure_semigroup(s)
    try:
        table = betti_degrees(sbar)
        return table, resolution_summary(sbar, table), "certified scan box"
    except CertificationError as exc:
        return None, None, str(exc)


@artifact
def acm_projective_closure(s: NumericalSemigroup) -> Verdict:
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
    always decide.  The verdict is an artifact of s, so
    `gorenstein_projective_closure` reuses it.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("acm_projective_closure expects a numerical semigroup")
    e = len(s.generators)
    hgb = homogenize_ideal(reduced_basis(s))
    offender = next((b for b in hgb.elements if b.lead[e - 1]), None)

    gb2 = buchberger(hgb.elements, hgb.order)
    alt = not any(m[e - 1] for m in gb2.leads())
    same = sorted(gb2.leads()) == sorted(hgb.leads())
    checks = [CrossCheck("homogenized-recompute", alt,
                         "lead sets agree" if same else "lead sets differ")]

    ap, top = closure_apery(s), s.generators[-1]
    checks.append(CrossCheck("closure-depth", len(ap) == top,
                             f"|Ap(closure, E)| = {len(ap)}, n_e = {top}"))
    return Verdict("acm-projective-closure", offender is None,
                   "initial-ideal divisibility by the largest-generator variable",
                   offender, tuple(checks))


def cm_tangent_cone(s: NumericalSemigroup) -> Verdict:
    """Is the tangent cone at the origin of the monomial curve
    Cohen-Macaulay?

    Primary method: the reduced local standard basis (`toric.local_basis`,
    negative-degree revlex with the multiplicity variable lowest); the tangent cone is
    Cohen-Macaulay exactly when that variable divides no lead.

    Cross-check: the multiplicity m is a nonzerodivisor on the associated
    graded ring iff order is additive along m: ord(x + m) = ord(x) + 1 for
    every member x.  It is read off the runs of the Apery table of the
    powers of the maximal ideal (`NumericalSemigroup.apery_table`), whose
    columns step by 0 or m from row to row: x fails exactly when x = m_k(i)
    for a column i that climbs into row k + 1 and is flat into row k + 2,
    that is where a flat run starts at row k + 1 after a climbing run, with
    start value m_k(i) + m.  Runs alternate, so every flat run but a
    column's first is such a change.  Past the table every column climbs,
    so additivity holds iff every column is constant and then climbs by m
    per row, and the least failing member is the least such m_k(i).
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("cm_tangent_cone expects a numerical semigroup")
    offender = next((b for b in local_basis(s).elements if b.lead[0]), None)
    result = offender is None

    m = s.multiplicity
    bad = min((value - m for runs in s.apery_table().columns
               for _, value, step in runs[1:] if not step), default=None)
    note = (f"every Apery-table column is constant, then climbs by {m}"
            if bad is None else f"ord({bad} + {m}) != ord({bad}) + 1")
    checks = (CrossCheck("order-additivity", bad is None, note),)
    return Verdict("cm-tangent-cone", result,
                   "local standard basis divisibility by the multiplicity variable",
                   offender if offender is not None else bad, checks)


def gorenstein_numerical(s: NumericalSemigroup) -> Verdict:
    """Is the numerical semigroup ring Gorenstein?

    Primary method: gap symmetry about the Frobenius number F, read from
    Ap(S, n_1) class by class in O(n_1) (Rosales and Garcia-Sanchez,
    Numerical Semigroups, Springer 2009, section 4).  S is symmetric iff no
    z has z and F - z both gaps (both members would put F in S); the
    witness is the least such pair (z, F - z).  The gaps of the class r
    mod n_1 are r, r + n_1, ..., Ap[r] - n_1.  For such a gap z, F - z >= 0
    lies in the class c = (F - r) mod n_1 and is a gap iff F - z < Ap[c],
    that is z > F - Ap[c]; so the least z of class r is the least
    z = r mod n_1 with z >= max(r, F - Ap[c] + 1), when that z is below
    Ap[r].

    Cross-check: the Cohen-Macaulay type equals one, read from Ap(S, n_1) as
    the number of its elements maximal in the semigroup order (the
    pseudo-Frobenius numbers plus n_1).  The full semigroup N (F = -1) has
    no gaps and the one pseudo-Frobenius number -1: its ring is a polynomial
    ring, and both reads say True.
    """
    if not isinstance(s, NumericalSemigroup):
        raise InputError("gorenstein_numerical expects a numerical semigroup")
    f, n1, ap = s.frobenius(), s.multiplicity, s._apery_by_residue
    bad = None
    for r, top in enumerate(ap):
        if not r & 4095:
            tick()
        low = max(r, f - ap[(f - r) % n1] + 1)
        z = low + (r - low) % n1
        if z < top and (bad is None or z < bad):
            bad = z
    pf = s.pf_numeric()
    checks = (CrossCheck("type-one", len(pf) == 1,
                         f"pseudo-Frobenius elements {pf}"),)
    return Verdict("gorenstein-numerical", bad is None, "gap symmetry",
                   None if bad is None else (bad, f - bad), checks)


NOT_ACM = "not arithmetically Cohen-Macaulay"


def gorenstein_projective_closure(s: NumericalSemigroup) -> Verdict:
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
    acm = acm_projective_closure(s)
    closure = projective_closure_semigroup(s)
    extremal, ap = closure.axis_apery()
    flag = CrossCheck("closure-gorenstein-flag", *_apery_symmetry(ap, s.generators[-1]))
    if acm.result is False:
        return Verdict("gorenstein-projective-closure", False, NOT_ACM,
                       acm.witness, (flag,))
    steps = [g for g in closure.generators if g not in extremal]
    sigma = (sum(g[0] for g in steps), sum(g[1] for g in steps))
    # maximal in the order of the closure semigroup: no non-extremal
    # generator leads from w to another element of the set
    maximal = [w for w in ap if not any(vec_add(w, g) in ap for g in steps)]
    return Verdict("gorenstein-projective-closure", len(maximal) == 1,
                   "arithmetically Cohen-Macaulay and one maximal element "
                   "of the closure Apery set",
                   tuple(sorted(vec_add(w, sigma) for w in maximal)), (flag,))
