"""Agreement harness for the structural statements behind gluings,
extensions and joins.

Each verifier re-checks the hypotheses of one statement on a concrete
instance, derives the predicted conclusion from the instance's shape alone,
recomputes the same quantity with an independent engine, and reports both
sides.  Hypothesis failures are recorded, never raised, and the computation
runs regardless, so applying a statement outside its hypotheses is visible
as a flagged report instead of a silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, NamedTuple, Optional

from .errors import CertificationError, Deadline, InputError, tick
from .monomials import Binomial, Order, degrevlex, homogenize, negdegrevlex, scale, vec_add
from .groebner import buchberger, homogenize_ideal, is_groebner, standard_basis_local
from .toric import glued_ideal_generators, local_basis, reduced_basis
from .semigroups import (AffineSemigroup, ExtensionSpec, GluingSpec, NumericalSemigroup,
                         condition_A, condition_B, embed_axis, extend, glue,
                         is_nice_gluing, is_star_gluing, join, nd_order)
from .resolution import betti_degrees, is_prec_symmetric, pf_via_betti, sifr_check
from .verdicts import (NOT_ACM, acm_projective_closure, closure_resolution,
                       cm_tangent_cone, gorenstein_projective_closure)


class HypothesisCheck(NamedTuple):
    name: str
    holds: Optional[bool]  # None = could not be decided
    note: str = ""


@dataclass(frozen=True)
class TheoremReport:
    """One statement checked on one instance: hypotheses, both sides, notes."""

    theorem: str
    instance: str
    hypotheses_checked: tuple[HypothesisCheck, ...]
    predicted: object
    computed: object
    notes: tuple[str, ...] = ()

    @property
    def hypotheses_hold(self) -> bool:
        return all(h.holds for h in self.hypotheses_checked)

    @property
    def agree(self) -> bool:
        return self.predicted == self.computed


# ---------------------------------------------------------------------------
# shared plumbing


def _describe_gluing(spec: GluingSpec) -> str:
    return (f"left={spec.left.generators} right={spec.right.generators} "
            f"b={spec.b} a={spec.a} (p={spec.p}, q={spec.q})")


def _condition_hypothesis(name: str, rep) -> HypothesisCheck:
    note = "" if rep.holds else "; ".join(rep.violations)
    if rep.conventions_differ:
        other = "holds" if rep.holds_zero_convention else "fails too"
        extra = f"under integer lcm (lcm(m,0)=0) the test {other}"
        note = f"{note} | {extra}" if note else extra
    return HypothesisCheck(name, rep.holds, note)


def _verdict_notes(tag: str, verdict) -> list[str]:
    out = []
    if verdict.conflict:
        out.append(f"CONFLICT: {tag} cross-checks disagree with the primary method")
    for c in verdict.cross_checks:
        if c.result is None and c.note:
            out.append(f"{tag}: cross-check {c.name} incomplete ({c.note})")
    return out


# ---------------------------------------------------------------------------
# assembled homogeneous basis of a glued closure


def verify_glued_basis_homogeneous(spec: GluingSpec,
                                   deadline: Optional[Deadline] = None) -> TheoremReport:
    """The factor bases homogenized plus the bridging binomial
    x^b - x0^(sum b - sum a) y^a form a Groebner basis of the glued closure
    ideal under degree revlex with x0 lowest, whichever block comes first."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    n = e1 + e2
    gb1, gb2 = reduced_basis(spec.left, deadline), reduced_basis(spec.right, deadline)
    hyps = (
        HypothesisCheck("generalized-nice", sum(spec.b) > sum(spec.a),
                        f"classification: {is_nice_gluing(spec)}"),
        _condition_hypothesis("condition-A", condition_A(spec, gb1)),
    )
    union = [homogenize(Binomial(b.lead + (0,) * (e2 + 1), b.tail + (0,) * (e2 + 1)), n)
             for b in gb1.elements]
    union += [homogenize(Binomial((0,) * e1 + b.lead + (0,), (0,) * e1 + b.tail + (0,)), n)
              for b in gb2.elements]
    bridge = homogenize(Binomial(spec.b + (0,) * (e2 + 1), (0,) * e1 + spec.a + (0,)), n)
    union.append(bridge)
    x_first = Order("degree", "revlex", tuple(range(n + 1)), homog_index=n)
    y_first = Order("degree", "revlex",
                    tuple(range(e1, n)) + tuple(range(e1)) + (n,), homog_index=n)
    ok_x = is_groebner(union, x_first, deadline)
    ok_y = is_groebner(union, y_first, deadline)
    notes = [f"x-block-first order: {'a' if ok_x else 'NOT a'} Groebner basis",
             f"y-block-first order: {'a' if ok_y else 'NOT a'} Groebner basis"]
    glued_gb = buchberger(glued_ideal_generators(spec, gb1, gb2).generators,
                          degrevlex(n), deadline)
    closure = homogenize_ideal(glued_gb)
    union_gb = buchberger(union, x_first, deadline)
    if set(union_gb.elements) == set(closure.elements):
        notes.append("the union generates the closure ideal")
    else:
        notes.append("the union does NOT generate the closure ideal")
    notes.append(_bridge_variant_note(spec, union[:-1], bridge, x_first, deadline))
    if not (ok_x and ok_y):
        alt = _alternative_witness_note(spec, union[:-1], x_first, y_first, deadline)
        if alt:
            notes.append(alt)
    return TheoremReport("glued-basis-homogeneous", _describe_gluing(spec),
                         hyps, True, ok_x and ok_y, tuple(notes))


def _witness_vectors(p: int, gens: tuple[int, ...]):
    """All nonnegative coefficient vectors representing p over the generators."""
    def rec(rest: int, i: int):
        if i == len(gens) - 1:
            if rest % gens[i] == 0:
                yield (rest // gens[i],)
            return
        for c in range(rest // gens[i] + 1):
            for tail in rec(rest - c * gens[i], i + 1):
                yield (c,) + tail
    yield from rec(p, 0)


def _alternative_witness_note(spec: GluingSpec, hom_factors, x_first: Order,
                              y_first: Order, deadline) -> str:
    """When the stated witness fails, say whether some other representation of
    the same p makes the assembled union a Groebner basis."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    n = e1 + e2
    seen = 0
    for b in _witness_vectors(spec.p, spec.left.generators):
        if b == spec.b:
            continue
        seen += 1
        if seen > 200:  # the note is best-effort; never let it dominate
            return ""
        tick(deadline)
        bridge = homogenize(Binomial(b + (0,) * (e2 + 1), (0,) * e1 + spec.a + (0,)), n)
        if is_groebner(list(hom_factors) + [bridge], x_first, deadline):
            both = is_groebner(list(hom_factors) + [bridge], y_first, deadline)
            return (f"alternative witness b={b} for the same p={spec.p} makes the "
                    "union a Groebner basis under the x-block-first order"
                    + (" and the y-block-first order" if both else
                       " (x-block-first only)"))
    return ""


def _bridge_variant_note(spec: GluingSpec, hom_factors, bridge: Binomial,
                         ext_order: Order, deadline) -> str:
    """Status of the single-variable display form x_l^b_l - x0^(b_l-sum a) y^a,
    which only matches the bridging binomial when b is concentrated in x_l."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    b_l = spec.b[-1]
    drop = b_l - sum(spec.a)
    if drop < 0:
        return ("discrepancy: the single-variable display form "
                f"x_l^{b_l} - x0^({drop}) y^a is ill-formed (negative balancing "
                "exponent); the verified bridging binomial uses the full witness "
                "exponent x^b")
    variant = Binomial((0,) * (e1 - 1) + (b_l,) + (0,) * (e2 + 1),
                       (0,) * e1 + spec.a + (drop,))
    if variant == bridge:
        return ("the single-variable display form coincides with the bridging "
                "binomial (b is concentrated in its last position)")
    ok = is_groebner(list(hom_factors) + [variant], ext_order, deadline)
    return ("discrepancy: the single-variable display form differs from the "
            "verified bridging binomial; the union built from it is "
            f"{'still' if ok else 'NOT'} a Groebner basis")


# ---------------------------------------------------------------------------
# arithmetically Cohen-Macaulay closure of a gluing


def verify_glued_closure_acm(spec: GluingSpec,
                             deadline: Optional[Deadline] = None) -> TheoremReport:
    """Whether the glued closure is arithmetically Cohen-Macaulay, predicted
    purely by which block carries the largest glued generator (right: yes,
    left: no)."""
    left_acm = acm_projective_closure(spec.left, deadline)
    right_acm = acm_projective_closure(spec.right, deadline)
    hyps = (
        HypothesisCheck("generalized-nice", sum(spec.b) > sum(spec.a),
                        f"classification: {is_nice_gluing(spec)}"),
        _condition_hypothesis("condition-A",
                              condition_A(spec, reduced_basis(spec.left, deadline))),
        HypothesisCheck("left-closure-acm", left_acm.result, left_acm.method),
        HypothesisCheck("right-closure-acm", right_acm.result, right_acm.method),
    )
    glued = glue(spec)
    predicted = glued.largest_side == "right"
    verdict = acm_projective_closure(glued.semigroup, deadline)
    notes = [f"glued generators {glued.generators}; largest "
             f"{max(glued.generators)} sits in the {glued.largest_side} block"]
    notes += _verdict_notes("closure", verdict)
    if verdict.result is False:
        notes.append(f"offending homogenized lead: {verdict.witness.lead}")
    return TheoremReport("glued-closure-acm", _describe_gluing(spec),
                         hyps, predicted, verdict.result, tuple(notes))


# ---------------------------------------------------------------------------
# Cohen-Macaulay tangent cone of a gluing


def _local_block_order(e1: int, e2: int, lowest_left: bool) -> Order:
    # the block holding the smallest glued generator supplies the lowest
    # variable, matching the single-factor convention (variable 1 lowest)
    x_desc = tuple(range(e1 - 1, -1, -1))
    y_desc = tuple(range(e1 + e2 - 1, e1 - 1, -1))
    priority = (y_desc + x_desc) if lowest_left else (x_desc + y_desc)
    return negdegrevlex(e1 + e2, priority)


def _assembled_local_note(spec: GluingSpec, glued, deadline) -> str:
    """Compare the glued ideal's minimal standard-basis leads with the union
    of the factor standard-basis leads plus the bridge lead y^a."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    expected = {b.lead + (0,) * e2 for b in local_basis(spec.left, deadline).elements}
    expected |= {(0,) * e1 + b.lead for b in local_basis(spec.right, deadline).elements}
    expected.add((0,) * e1 + spec.a)
    order = _local_block_order(e1, e2, glued.smallest_side == "left")
    gens = glued_ideal_generators(spec, reduced_basis(spec.left, deadline),
                                  reduced_basis(spec.right, deadline))
    sb = standard_basis_local(gens.generators, order, deadline)
    got = set(sb.leads())
    if got == expected:
        return ("assembled union: the glued ideal's minimal standard basis has "
                "exactly the factor leads plus the bridge lead y^a")
    parts = []
    extra = sorted(got - expected)
    missing = sorted(expected - got)
    if extra:
        parts.append(f"needs extra leads {extra} beyond the assembled union")
    if missing:
        parts.append(f"drops assembled leads {missing}")
    return ("discrepancy: the glued ideal's minimal standard basis "
            + " and ".join(parts)
            + "; the assembled union alone is not a standard basis")


def verify_glued_tangent_cone(spec: GluingSpec,
                              deadline: Optional[Deadline] = None) -> TheoremReport:
    """Whether the glued tangent cone is Cohen-Macaulay, predicted purely by
    which block carries the smallest glued generator (left: yes, right: no)."""
    left_cm = cm_tangent_cone(spec.left, deadline)
    right_cm = cm_tangent_cone(spec.right, deadline)
    hyps = (
        HypothesisCheck("star-gluing", is_star_gluing(spec),
                        f"sum a = {sum(spec.a)}, sum b = {sum(spec.b)}"),
        _condition_hypothesis("condition-B",
                              condition_B(spec, reduced_basis(spec.right, deadline))),
        HypothesisCheck("left-tangent-cm", left_cm.result, left_cm.method),
        HypothesisCheck("right-tangent-cm", right_cm.result, right_cm.method),
    )
    glued = glue(spec)
    predicted = glued.smallest_side == "left"
    verdict = cm_tangent_cone(glued.semigroup, deadline)
    notes = [f"glued generators {glued.generators}; smallest "
             f"{min(glued.generators)} sits in the {glued.smallest_side} block"]
    notes += _verdict_notes("tangent-cone", verdict)
    notes.append(_assembled_local_note(spec, glued, deadline))
    return TheoremReport("glued-tangent-cone", _describe_gluing(spec),
                         hyps, predicted, verdict.result, tuple(notes))


# ---------------------------------------------------------------------------
# Gorenstein closure of a gluing


def verify_glued_closure_gorenstein(spec: GluingSpec,
                                    deadline: Optional[Deadline] = None) -> TheoremReport:
    """Gluing two factors whose closures are Gorenstein is predicted to keep
    the glued closure Gorenstein."""
    left_g = gorenstein_projective_closure(spec.left, deadline)
    right_g = gorenstein_projective_closure(spec.right, deadline)
    hyps = (
        HypothesisCheck("generalized-nice", sum(spec.b) > sum(spec.a),
                        f"classification: {is_nice_gluing(spec)}"),
        _condition_hypothesis("condition-A",
                              condition_A(spec, reduced_basis(spec.left, deadline))),
        HypothesisCheck("left-closure-gorenstein", left_g.result, left_g.method),
        HypothesisCheck("right-closure-gorenstein", right_g.result, right_g.method),
    )
    glued = glue(spec)
    verdict = gorenstein_projective_closure(glued.semigroup, deadline)
    notes = [f"glued generators {glued.generators}"]
    notes += _verdict_notes("glued-closure", verdict)
    if verdict.result is False:
        if verdict.method == NOT_ACM:
            notes.append("the glued closure is not arithmetically Cohen-Macaulay, "
                         "so the Gorenstein conclusion fails with it")
        else:
            table, _, why = closure_resolution(glued.semigroup, deadline)
            if table is None:
                notes.append(f"closure Betti table unavailable: {why}")
            else:
                notes.append(f"the glued closure is arithmetically Cohen-Macaulay but "
                             f"has Betti totals {table.total}: homogenizing inflates "
                             f"the generator count beyond a complete intersection")
    return TheoremReport("glued-closure-gorenstein", _describe_gluing(spec),
                         hyps, True, verdict.result, tuple(notes))


# ---------------------------------------------------------------------------
# pseudo-Frobenius elements of an extension


def verify_extension_pf(spec: ExtensionSpec, box,
                        deadline: Optional[Deadline] = None) -> TheoremReport:
    """PF(E) = { l*f + (l-1)*a : f in PF(base) } for an extension E, plus the
    maximal-projective-dimension transfer, the levelwise Betti-degree law
    B_i(E) = l*B_i(base) + l*(B_{i-1}(base) + a), and order-symmetry transfer
    when it can be certified on both sides."""
    base = spec.base
    box = tuple(int(c) for c in box)
    t_base = betti_degrees(base, deadline=deadline)
    mpd = t_base.pd == len(base.generators) - 1
    scan = base.gap_set(box, deadline)
    hyps = (
        HypothesisCheck("base-mpd", mpd,
                        f"pd = {t_base.pd} over {len(base.generators)} generators"),
        HypothesisCheck("base-gaps-certified", scan.shell_clean,
                        f"{len(scan.gaps)} gaps within box {box}"),
    )
    ext = extend(spec)
    t_ext = betti_degrees(ext.semigroup, deadline=deadline)
    ext_scan = ext.semigroup.gap_set(box, deadline)
    notes: list[str] = []
    predicted: dict = {"mpd": True, "betti-law": True}
    computed: dict = {"mpd": t_ext.pd == len(ext.semigroup.generators) - 1}

    if mpd:
        pf_base = pf_via_betti(base, t_base)
        predicted["pf"] = sorted(vec_add(scale(spec.l, f), scale(spec.l - 1, spec.a))
                                 for f in pf_base)
    else:
        predicted["pf"] = None
        notes.append("base is not of maximal projective dimension; the formula "
                     "predicts nothing (computation still recorded)")
    try:
        computed["pf"] = sorted(pf_via_betti(ext.semigroup, t_ext))
    except InputError as exc:
        computed["pf"] = None
        notes.append(f"top-Betti pseudo-Frobenius read-off unavailable: {exc}")

    law_ok = t_ext.pd == t_base.pd + 1
    for i in range(1, t_base.pd + 2):
        same = t_base.rows[i] if i <= t_base.pd else ()
        lower = t_base.rows[i - 1]
        want = sorted([scale(spec.l, b) for b in same] +
                      [scale(spec.l, vec_add(b, spec.a)) for b in lower])
        if sorted(t_ext.rows[i]) != want:
            law_ok = False
            notes.append(f"level-{i} Betti degrees differ from the scaled union law")
    computed["betti-law"] = law_ok

    try:
        direct = sorted(ext.semigroup.pf_from_scan(ext_scan))
        if computed["pf"] is not None and direct != computed["pf"]:
            notes.append(f"CONFLICT: direct gap-set pseudo-Frobenius set {direct} "
                         f"disagrees with the top-Betti read-off {computed['pf']}")
        else:
            notes.append("direct gap-set computation matches the top-Betti read-off")
    except CertificationError as exc:
        notes.append(f"direct gap-set computation unavailable: {exc}")
        wit = next((pt for pt in product(*(range(c + 1) for c in box))
                    if any(pt) and base.membership(pt).ok
                    and not ext.semigroup.membership(pt).ok), None)
        if wit is not None:
            notes.append(f"base member {wit} is outside the extension, so the "
                         "extension's gap region is not contained in the base's; "
                         "the reverse containment (base gaps inside extension "
                         "gaps) is the one that holds")

    order = nd_order("graded-lex", base.dim)
    if mpd and scan.shell_clean:
        base_sym = is_prec_symmetric(base, t_base, order, scan)
        if base_sym:
            try:
                predicted["prec-symmetric"] = True
                computed["prec-symmetric"] = is_prec_symmetric(
                    ext.semigroup, t_ext, order, ext_scan)
            except CertificationError as exc:
                del predicted["prec-symmetric"]
                computed.pop("prec-symmetric", None)
                notes.append("symmetry transfer not independently certifiable: "
                             f"{exc}; recorded as undecided rather than agreed")
        else:
            notes.append("base is not order-symmetric at the graded-lex order; "
                         "the transfer clause predicts nothing")
    instance = f"base={base.generators} l={spec.l} a={spec.a}"
    return TheoremReport("extension-pf", instance, hyps,
                         predicted, computed, tuple(notes))


# ---------------------------------------------------------------------------
# strong indispensability across a join


def verify_join_sifr(s1: AffineSemigroup, s2: AffineSemigroup,
                     deadline: Optional[Deadline] = None) -> TheoremReport:
    """The join has a strongly indispensable resolution exactly when both
    factors do; computed directly on the join, never through the tensor
    construction."""
    instance = f"left={s1.generators} right={s2.generators}"
    try:
        joined = join(s1, s2)
    except InputError as exc:
        hyp = (HypothesisCheck("join-defined", False, str(exc)),)
        return TheoremReport("join-sifr", instance, hyp, None, None,
                             ("factors do not form a join; nothing computed",))
    hyps = (HypothesisCheck("join-defined", True,
                            f"ray ranks {joined.dim_left}+{joined.dim_right}"),)
    notes = []
    reports = {}
    for tag, s in (("left", s1), ("right", s2), ("join", joined.semigroup)):
        reports[tag] = sifr_check(s, betti_degrees(s, deadline=deadline))
        if not reports[tag].holds:
            notes.append(f"{tag}: level-{reports[tag].level} degrees "
                         f"{reports[tag].pair} differ by a member")
    predicted = reports["left"].holds and reports["right"].holds
    return TheoremReport("join-sifr", instance, hyps,
                         predicted, reports["join"].holds, tuple(notes))


# ---------------------------------------------------------------------------
# curated instances


class FixtureSpec(NamedTuple):
    theorem: str
    label: str
    run: Callable[[Optional[Deadline]], TheoremReport]


def gluing(left, right, b, a) -> GluingSpec:
    """GluingSpec from raw generator lists."""
    return GluingSpec(NumericalSemigroup(left), NumericalSemigroup(right), b, a)


_STAR_CATALOGUED = (87, 145, 203, 189, 231)


def _star_instance(deadline: Optional[Deadline]) -> TheoremReport:
    spec = gluing((3, 5, 7), (9, 11), (0, 0, 4), (2, 1))
    report = verify_glued_tangent_cone(spec, deadline)
    got = glue(spec).generators
    if got != _STAR_CATALOGUED:
        note = (f"discrepancy: the catalogued generator list {_STAR_CATALOGUED} "
                f"does not match the constructed gluing {got}; the catalogued "
                "list reproduces the b=(2,3,0), a=(2,1) instance instead")
    else:
        note = "constructed generators match the catalogued list"
    return replace(report, notes=report.notes + (note,))


def _mat_a() -> AffineSemigroup:
    return AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])


def _hypersurface_join_base() -> AffineSemigroup:
    return join(embed_axis(NumericalSemigroup((2, 3)), 2, 0),
                embed_axis(NumericalSemigroup((2, 3)), 2, 1)).semigroup


FIXTURES: tuple[FixtureSpec, ...] = (
    FixtureSpec("glued-basis-homogeneous", "bridge-p21-q29",
                lambda d: verify_glued_basis_homogeneous(
                    gluing((3, 5, 7), (9, 11), (2, 3, 0), (2, 1)), d)),
    FixtureSpec("glued-basis-homogeneous", "bridge-p28-q29",
                lambda d: verify_glued_basis_homogeneous(
                    gluing((3, 5, 7), (9, 11), (0, 0, 4), (2, 1)), d)),
    FixtureSpec("glued-basis-homogeneous", "bridge-p8-q19",
                lambda d: verify_glued_basis_homogeneous(
                    gluing((3, 5), (7, 12), (1, 1), (1, 1)), d)),
    FixtureSpec("glued-closure-acm", "largest-left-p14",
                lambda d: verify_glued_closure_acm(
                    gluing((3, 5, 7), (9, 11), (3, 1, 0), (2, 1)), d)),
    FixtureSpec("glued-closure-acm", "largest-right-p21",
                lambda d: verify_glued_closure_acm(
                    gluing((3, 5, 7), (9, 11), (2, 3, 0), (2, 1)), d)),
    FixtureSpec("glued-closure-acm", "largest-left-p17",
                lambda d: verify_glued_closure_acm(
                    gluing((5, 7, 11), (25, 28), (2, 1, 0), (2, 0)), d)),
    FixtureSpec("glued-closure-acm", "equal-sums-p8-q19",
                lambda d: verify_glued_closure_acm(
                    gluing((3, 5), (7, 12), (1, 1), (1, 1)), d)),
    FixtureSpec("glued-tangent-cone", "star-p28-q29", _star_instance),
    FixtureSpec("glued-tangent-cone", "smallest-right-p21-q17",
                lambda d: verify_glued_tangent_cone(
                    gluing((7, 8), (5, 12), (3, 0), (1, 1)), d)),
    FixtureSpec("glued-tangent-cone", "equal-sums-p8-q25",
                lambda d: verify_glued_tangent_cone(
                    gluing((3, 5), (11, 14), (1, 1), (1, 1)), d)),
    FixtureSpec("glued-closure-gorenstein", "two-hypersurfaces-p15-q22",
                lambda d: verify_glued_closure_gorenstein(
                    gluing((3, 5), (9, 11), (0, 3), (0, 2)), d)),
    FixtureSpec("glued-closure-gorenstein", "two-hypersurfaces-p9-q8",
                lambda d: verify_glued_closure_gorenstein(
                    gluing((2, 3), (4, 5), (0, 3), (2, 0)), d)),
    FixtureSpec("glued-closure-gorenstein", "spread-witness-p11-q14",
                lambda d: verify_glued_closure_gorenstein(
                    gluing((3, 5), (7, 11), (2, 1), (2, 0)), d)),
    FixtureSpec("glued-closure-gorenstein", "equal-sums-p8-q19",
                lambda d: verify_glued_closure_gorenstein(
                    gluing((3, 5), (7, 12), (1, 1), (1, 1)), d)),
    FixtureSpec("extension-pf", "planar-5-to-6-generators",
                lambda d: verify_extension_pf(
                    ExtensionSpec(_mat_a(), 2, (1, 0, 3, 1, 1)), (20, 20), d)),
    FixtureSpec("extension-pf", "numerical-3-5-doubled",
                lambda d: verify_extension_pf(
                    ExtensionSpec(NumericalSemigroup((3, 5)), 2, (2, 1)), (40,), d)),
    FixtureSpec("extension-pf", "non-mpd-base",
                lambda d: verify_extension_pf(
                    ExtensionSpec(_hypersurface_join_base(), 2, (1, 1, 0, 0)),
                    (12, 12), d)),
    FixtureSpec("join-sifr", "axes-357-23",
                lambda d: verify_join_sifr(
                    embed_axis(NumericalSemigroup((3, 5, 7)), 2, 0),
                    embed_axis(NumericalSemigroup((2, 3)), 2, 1), d)),
    FixtureSpec("join-sifr", "two-hypersurfaces",
                lambda d: verify_join_sifr(
                    embed_axis(NumericalSemigroup((2, 3)), 2, 0),
                    embed_axis(NumericalSemigroup((4, 5)), 2, 1), d)),
    FixtureSpec("join-sifr", "non-sifr-factor",
                lambda d: verify_join_sifr(
                    embed_axis(NumericalSemigroup((4, 6, 9)), 2, 0),
                    embed_axis(NumericalSemigroup((2, 3)), 2, 1), d)),
    FixtureSpec("join-sifr", "dependent-rays",
                lambda d: verify_join_sifr(
                    embed_axis(NumericalSemigroup((2, 3)), 2, 0),
                    embed_axis(NumericalSemigroup((4, 5)), 2, 0), d)),
)

THEOREM_IDS: tuple[str, ...] = tuple(dict.fromkeys(f.theorem for f in FIXTURES))


def run_fixtures(theorem: Optional[str] = None,
                 deadline: Optional[Deadline] = None) -> list[tuple[FixtureSpec, TheoremReport]]:
    """Run the curated instances, all of them or one statement's worth."""
    picked = [f for f in FIXTURES if theorem is None or f.theorem == theorem]
    if not picked:
        raise InputError(f"unknown check id {theorem!r}; known ids: "
                         f"{', '.join(THEOREM_IDS)}")
    return [(f, f.run(deadline)) for f in picked]
