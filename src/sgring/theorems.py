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

from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import CertificationError, InputError
from .linalg import rational_rank
from .monomials import Binomial, Order, degrevlex, homogenize, negdegrevlex, scale, vec_add
from .groebner import buchberger, homogenize_ideal, is_groebner, standard_basis_local
from .toric import glued_ideal_generators, local_basis, reduced_basis
from .affine import (AffineSemigroup, ExtensionSpec, GluingSpec, condition_A,
                     condition_B, embed_axis, extend, glue, gluing, is_nice_gluing,
                     is_star_gluing, join)
from .semigroups import NumericalSemigroup
from .resolution import betti_degrees, is_prec_symmetric, pf_via_betti, sifr_check
from .verdicts import (NOT_ACM, acm_projective_closure, closure_resolution,
                       cm_tangent_cone, gorenstein_projective_closure)


class HypothesisCheck(NamedTuple):
    name: str
    holds: bool
    note: str = ""


class TheoremReport(NamedTuple):
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


def _nice_hypotheses(spec: GluingSpec) -> tuple[HypothesisCheck, ...]:
    """The generalized-nice classification and condition A on the left basis."""
    return (
        HypothesisCheck("generalized-nice", sum(spec.b) > sum(spec.a),
                        f"classification: {is_nice_gluing(spec)}"),
        _condition_hypothesis("condition-A", condition_A(spec, reduced_basis(spec.left))),
    )


def _glued_verdict(spec: GluingSpec, check, name: str, gluing_hyps):
    """The hypotheses `gluing_hyps` plus both factor verdicts of `check` as
    left-/right-`name`, the glued semigroup, and `check` on it."""
    left, right = check(spec.left), check(spec.right)
    hyps = gluing_hyps + (HypothesisCheck(f"left-{name}", left.result, left.method),
                          HypothesisCheck(f"right-{name}", right.result, right.method))
    glued = glue(spec)
    return hyps, glued, check(glued)


def _verdict_notes(tag: str, verdict) -> list[str]:
    if verdict.conflict:
        return [f"CONFLICT: {tag} cross-checks disagree with the primary method"]
    return []


# ---------------------------------------------------------------------------
# assembled homogeneous basis of a glued closure


def verify_glued_basis_homogeneous(spec: GluingSpec) -> TheoremReport:
    """The factor bases homogenized plus the bridging binomial
    x^b - x0^(sum b - sum a) y^a form a Groebner basis of the glued closure
    ideal under degree revlex with x0 lowest, whichever block comes first."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    n = e1 + e2
    gb1, gb2 = reduced_basis(spec.left), reduced_basis(spec.right)
    hyps = _nice_hypotheses(spec)
    union = [homogenize(Binomial(b.lead + (0,) * (e2 + 1), b.tail + (0,) * (e2 + 1)), n)
             for b in gb1.elements]
    union += [homogenize(Binomial((0,) * e1 + b.lead + (0,), (0,) * e1 + b.tail + (0,)), n)
              for b in gb2.elements]
    bridge = homogenize(Binomial(spec.b + (0,) * (e2 + 1), (0,) * e1 + spec.a + (0,)), n)
    union.append(bridge)
    x_first = degrevlex(n + 1)
    y_first = degrevlex(n + 1, tuple(range(e1, n)) + tuple(range(e1)) + (n,))
    ok_x = is_groebner(union, x_first)
    ok_y = is_groebner(union, y_first)
    notes = [f"x-block-first order: {'a' if ok_x else 'NOT a'} Groebner basis",
             f"y-block-first order: {'a' if ok_y else 'NOT a'} Groebner basis"]
    glued_gb = buchberger(glued_ideal_generators(spec, gb1, gb2).generators, degrevlex(n))
    closure = homogenize_ideal(glued_gb)
    union_gb = buchberger(union, x_first)
    if set(union_gb.elements) == set(closure.elements):
        notes.append("the union generates the closure ideal")
    else:
        notes.append("the union does NOT generate the closure ideal")
    notes.append(_bridge_variant_note(spec, union[:-1], bridge, x_first))
    return TheoremReport("glued-basis-homogeneous", _describe_gluing(spec),
                         hyps, True, ok_x and ok_y, tuple(notes))


def _bridge_variant_note(spec: GluingSpec, hom_factors, bridge: Binomial,
                         ext_order: Order) -> str:
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
    ok = is_groebner(list(hom_factors) + [variant], ext_order)
    return ("discrepancy: the single-variable display form differs from the "
            "verified bridging binomial; the union built from it is "
            f"{'still' if ok else 'NOT'} a Groebner basis")


# ---------------------------------------------------------------------------
# arithmetically Cohen-Macaulay closure of a gluing


def verify_glued_closure_acm(spec: GluingSpec) -> TheoremReport:
    """Whether the glued closure is arithmetically Cohen-Macaulay, predicted
    purely by which block carries the largest glued generator (right: yes,
    left: no)."""
    hyps, _, verdict = _glued_verdict(spec, acm_projective_closure, "closure-acm",
                                      _nice_hypotheses(spec))
    gens = spec.glued_generators
    notes = [f"glued generators {gens}; largest {max(gens)} sits in the "
             f"{spec.largest_side} block"]
    notes += _verdict_notes("closure", verdict)
    if verdict.result is False:
        notes.append(f"offending homogenized lead: {verdict.witness.lead}")
    return TheoremReport("glued-closure-acm", _describe_gluing(spec),
                         hyps, spec.largest_side == "right", verdict.result, tuple(notes))


# ---------------------------------------------------------------------------
# Cohen-Macaulay tangent cone of a gluing


def _local_block_order(e1: int, e2: int, lowest_left: bool) -> Order:
    # the block holding the smallest glued generator supplies the lowest
    # variable, matching the single-factor convention (variable 1 lowest)
    x_desc = tuple(range(e1 - 1, -1, -1))
    y_desc = tuple(range(e1 + e2 - 1, e1 - 1, -1))
    priority = (y_desc + x_desc) if lowest_left else (x_desc + y_desc)
    return negdegrevlex(e1 + e2, priority)


def _assembled_local_note(spec: GluingSpec) -> str:
    """Compare the glued ideal's minimal standard-basis leads with the union
    of the factor standard-basis leads plus the bridge lead y^a."""
    e1 = spec.left.embedding_dim
    e2 = spec.right.embedding_dim
    expected = {b.lead + (0,) * e2 for b in local_basis(spec.left).elements}
    expected |= {(0,) * e1 + b.lead for b in local_basis(spec.right).elements}
    expected.add((0,) * e1 + spec.a)
    order = _local_block_order(e1, e2, spec.smallest_side == "left")
    gens = glued_ideal_generators(spec, reduced_basis(spec.left), reduced_basis(spec.right))
    sb = standard_basis_local(gens, order)
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


def verify_glued_tangent_cone(spec: GluingSpec) -> TheoremReport:
    """Whether the glued tangent cone is Cohen-Macaulay, predicted purely by
    which block carries the smallest glued generator (left: yes, right: no)."""
    star = (
        HypothesisCheck("star-gluing", is_star_gluing(spec),
                        f"sum a = {sum(spec.a)}, sum b = {sum(spec.b)}"),
        _condition_hypothesis("condition-B", condition_B(spec, reduced_basis(spec.right))),
    )
    hyps, _, verdict = _glued_verdict(spec, cm_tangent_cone, "tangent-cm", star)
    gens = spec.glued_generators
    notes = [f"glued generators {gens}; smallest {min(gens)} sits in the "
             f"{spec.smallest_side} block"]
    notes += _verdict_notes("tangent-cone", verdict)
    notes.append(_assembled_local_note(spec))
    return TheoremReport("glued-tangent-cone", _describe_gluing(spec),
                         hyps, spec.smallest_side == "left", verdict.result, tuple(notes))


# ---------------------------------------------------------------------------
# Gorenstein closure of a gluing


def verify_glued_closure_gorenstein(spec: GluingSpec) -> TheoremReport:
    """Gluing two factors whose closures are Gorenstein is predicted to keep
    the glued closure Gorenstein."""
    hyps, glued, verdict = _glued_verdict(spec, gorenstein_projective_closure,
                                          "closure-gorenstein",
                                          _nice_hypotheses(spec))
    notes = [f"glued generators {spec.glued_generators}"]
    notes += _verdict_notes("glued-closure", verdict)
    if verdict.result is False:
        if verdict.method == NOT_ACM:
            notes.append("the glued closure is not arithmetically Cohen-Macaulay, "
                         "so the Gorenstein conclusion fails with it")
        else:
            table, _, why = closure_resolution(glued)
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


def verify_extension_pf(spec: ExtensionSpec) -> TheoremReport:
    """PF(E) = { l*f + (l-1)*a : f in PF(base) } for an extension E, plus the
    maximal-projective-dimension transfer, the levelwise Betti-degree law
    B_i(E) = l*B_i(base) + l*(B_{i-1}(base) + a), and order-symmetry transfer
    when it can be certified on both sides."""
    base = spec.base
    t_base = betti_degrees(base)
    mpd = t_base.pd == len(base.generators) - 1
    scan = base.gap_set()
    try:
        gaps_note = f"{len(scan.all_gaps())} gaps, all within the derived box {scan.box}"
    except CertificationError as exc:
        gaps_note = str(exc)
    hyps = (
        HypothesisCheck("base-mpd", mpd,
                        f"pd = {t_base.pd} over {len(base.generators)} generators"),
        HypothesisCheck("base-gaps-certified", scan.finite, gaps_note),
    )
    ext = extend(spec)
    t_ext = betti_degrees(ext)
    notes: list[str] = []
    predicted: dict = {"mpd": True, "betti-law": True}
    computed: dict = {"mpd": t_ext.pd == len(ext.generators) - 1}

    if mpd:
        pf_base = pf_via_betti(base, t_base)
        predicted["pf"] = sorted(vec_add(scale(spec.l, f), scale(spec.l - 1, spec.a))
                                 for f in pf_base)
    else:
        predicted["pf"] = None
        notes.append("base is not of maximal projective dimension; the formula "
                     "predicts nothing (computation still recorded)")
    try:
        computed["pf"] = sorted(pf_via_betti(ext, t_ext))
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
        direct = sorted(ext.pf_direct())
        if computed["pf"] is not None and direct != computed["pf"]:
            notes.append(f"CONFLICT: direct gap-set pseudo-Frobenius set {direct} "
                         f"disagrees with the top-Betti read-off {computed['pf']}")
        else:
            notes.append("direct gap-set computation matches the top-Betti read-off")
    except CertificationError as exc:
        notes.append(f"direct gap-set computation unavailable: {exc}")
        # the extension's cone is the base's: such base members are its gaps
        wit = next((pt for pt in ext.gap_set().gaps if base.membership(pt).ok), None)
        if wit is not None:
            notes.append(f"base member {wit} is outside the extension, so the "
                         "extension's gap region is not contained in the base's; "
                         "the reverse containment (base gaps inside extension "
                         "gaps) is the one that holds")

    if mpd and scan.finite:
        if is_prec_symmetric(base, t_base):
            try:
                predicted["prec-symmetric"] = True
                computed["prec-symmetric"] = is_prec_symmetric(ext, t_ext)
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


def verify_join_sifr(s1: AffineSemigroup, s2: AffineSemigroup) -> TheoremReport:
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
    ranks = f"{rational_rank(s1.generators)}+{rational_rank(s2.generators)}"
    hyps = (HypothesisCheck("join-defined", True, f"ray ranks {ranks}"),)
    notes = []
    reports = {}
    for tag, s in (("left", s1), ("right", s2), ("join", joined)):
        reports[tag] = sifr_check(s, betti_degrees(s))
        if not reports[tag].holds:
            notes.append(f"{tag}: level-{reports[tag].level} degrees "
                         f"{reports[tag].pair} differ by a member")
    predicted = reports["left"].holds and reports["right"].holds
    return TheoremReport("join-sifr", instance, hyps,
                         predicted, reports["join"].holds, tuple(notes))


# ---------------------------------------------------------------------------
# curated instances


class FixtureSpec(NamedTuple):
    """One curated instance: build() makes its input (a gluing or extension
    spec, or a pair of join factors) and run(build) builds it and checks the
    statement."""
    theorem: str
    label: str
    build: Callable[[], object]
    run: Callable[[Callable[[], object]], TheoremReport]


_STAR_CATALOGUED = (87, 145, 203, 189, 231)


def _star_instance(build: Callable[[], GluingSpec]) -> TheoremReport:
    spec = build()
    report = verify_glued_tangent_cone(spec)
    got = spec.glued_generators
    if got != _STAR_CATALOGUED:
        note = (f"discrepancy: the catalogued generator list {_STAR_CATALOGUED} "
                f"does not match the constructed gluing {got}; the catalogued "
                "list reproduces the b=(2,3,0), a=(2,1) instance instead")
    else:
        note = "constructed generators match the catalogued list"
    return report._replace(notes=report.notes + (note,))


def _mat_a() -> AffineSemigroup:
    return AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])


def _axes(left, right, right_axis: int = 1) -> tuple[AffineSemigroup, AffineSemigroup]:
    """Join factors: `left` on the first axis of N^2, `right` on `right_axis`."""
    return (embed_axis(NumericalSemigroup(left), 2, 0),
            embed_axis(NumericalSemigroup(right), 2, right_axis))


def _gluings(theorem: str, run, *cases) -> tuple[FixtureSpec, ...]:
    """One fixture per (label, left, right, b, a) case, each checked by run."""
    return tuple(FixtureSpec(theorem, label, partial(gluing, left, right, b, a), run)
                 for label, left, right, b, a in cases)


# Each run names its verifier inside a lambda, so that it calls whatever the
# module binds to that name when the fixture runs, a wrapped function included.
FIXTURES: tuple[FixtureSpec, ...] = (
    *_gluings("glued-basis-homogeneous", lambda build: verify_glued_basis_homogeneous(build()),
              ("bridge-p21-q29", (3, 5, 7), (9, 11), (2, 3, 0), (2, 1)),
              ("bridge-p28-q29", (3, 5, 7), (9, 11), (0, 0, 4), (2, 1)),
              ("bridge-p8-q19", (3, 5), (7, 12), (1, 1), (1, 1))),
    *_gluings("glued-closure-acm", lambda build: verify_glued_closure_acm(build()),
              ("largest-left-p14", (3, 5, 7), (9, 11), (3, 1, 0), (2, 1)),
              ("largest-right-p21", (3, 5, 7), (9, 11), (2, 3, 0), (2, 1)),
              ("largest-left-p17", (5, 7, 11), (25, 28), (2, 1, 0), (2, 0)),
              ("equal-sums-p8-q19", (3, 5), (7, 12), (1, 1), (1, 1))),
    *_gluings("glued-tangent-cone", _star_instance,
              ("star-p28-q29", (3, 5, 7), (9, 11), (0, 0, 4), (2, 1))),
    *_gluings("glued-tangent-cone", lambda build: verify_glued_tangent_cone(build()),
              ("smallest-right-p21-q17", (7, 8), (5, 12), (3, 0), (1, 1)),
              ("equal-sums-p8-q25", (3, 5), (11, 14), (1, 1), (1, 1))),
    *_gluings("glued-closure-gorenstein", lambda build: verify_glued_closure_gorenstein(build()),
              ("two-hypersurfaces-p15-q22", (3, 5), (9, 11), (0, 3), (0, 2)),
              ("two-hypersurfaces-p9-q8", (2, 3), (4, 5), (0, 3), (2, 0)),
              ("spread-witness-p11-q14", (3, 5), (7, 11), (2, 1), (2, 0)),
              ("equal-sums-p8-q19", (3, 5), (7, 12), (1, 1), (1, 1))),
    FixtureSpec("extension-pf", "planar-5-to-6-generators",
                lambda: ExtensionSpec(_mat_a(), 2, (1, 0, 3, 1, 1)),
                lambda build: verify_extension_pf(build())),
    FixtureSpec("extension-pf", "numerical-3-5-doubled",
                lambda: ExtensionSpec(NumericalSemigroup((3, 5)), 2, (2, 1)),
                lambda build: verify_extension_pf(build())),
    FixtureSpec("extension-pf", "non-mpd-base",
                lambda: ExtensionSpec(join(*_axes((2, 3), (2, 3))), 2, (1, 1, 0, 0)),
                lambda build: verify_extension_pf(build())),
    FixtureSpec("join-sifr", "axes-357-23", lambda: _axes((3, 5, 7), (2, 3)),
                lambda build: verify_join_sifr(*build())),
    FixtureSpec("join-sifr", "two-hypersurfaces", lambda: _axes((2, 3), (4, 5)),
                lambda build: verify_join_sifr(*build())),
    FixtureSpec("join-sifr", "non-sifr-factor", lambda: _axes((4, 6, 9), (2, 3)),
                lambda build: verify_join_sifr(*build())),
    FixtureSpec("join-sifr", "dependent-rays", lambda: _axes((2, 3), (4, 5), 0),
                lambda build: verify_join_sifr(*build())),
)

THEOREM_IDS: tuple[str, ...] = tuple(dict.fromkeys(f.theorem for f in FIXTURES))


def run_fixtures(theorem: Optional[str] = None) -> list[tuple[FixtureSpec, TheoremReport]]:
    """Run the curated instances, all of them or one statement's worth."""
    picked = [f for f in FIXTURES if theorem is None or f.theorem == theorem]
    if not picked:
        raise InputError(f"unknown check id {theorem!r}; known ids: "
                         f"{', '.join(THEOREM_IDS)}")
    return [(f, f.run(f.build)) for f in picked]
