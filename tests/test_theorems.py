import pytest

from sgring import theorems, toric
from sgring.errors import InputError
from sgring.groebner import standard_basis_local
from sgring.semigroups import ExtensionSpec, NumericalSemigroup, embed_axis
from sgring.theorems import (
    FIXTURES,
    THEOREM_IDS,
    TheoremReport,
    gluing,
    run_fixtures,
    verify_extension_pf,
    verify_glued_basis_homogeneous,
    verify_glued_closure_acm,
    verify_glued_closure_gorenstein,
    verify_glued_tangent_cone,
    verify_join_sifr,
)


def by_label(reports, label):
    for fx, rep in reports:
        if fx.label == label:
            return rep
    raise AssertionError(f"no fixture labelled {label}")


def note_with(rep, fragment):
    hits = [n for n in rep.notes if fragment in n]
    assert hits, f"no note containing {fragment!r} in {rep.notes}"
    return hits[0]


ALL = run_fixtures()


def test_theorem_ids_cover_fixtures():
    assert THEOREM_IDS == (
        "glued-basis-homogeneous",
        "glued-closure-acm",
        "glued-tangent-cone",
        "glued-closure-gorenstein",
        "extension-pf",
        "join-sifr",
    )
    assert {f.theorem for f in FIXTURES} == set(THEOREM_IDS)
    # labels are unique within a theorem family
    seen = set()
    for f in FIXTURES:
        assert (f.theorem, f.label) not in seen
        seen.add((f.theorem, f.label))


def test_unknown_theorem_id_rejected():
    with pytest.raises(InputError):
        run_fixtures("no-such-theorem")


def test_report_mechanics():
    for _, rep in ALL:
        assert isinstance(rep, TheoremReport)
        assert rep.agree == (rep.predicted == rep.computed)
        assert rep.hypotheses_hold == all(h.holds for h in rep.hypotheses_checked)
        assert all(isinstance(n, str) and n for n in rep.notes)


def test_no_unexcused_disagreement():
    # the harness's soundness gate: every disagreement is excused by a failed
    # or undecidable hypothesis
    for fx, rep in ALL:
        if not rep.agree:
            assert not rep.hypotheses_hold, (fx.theorem, fx.label)


def test_every_theorem_has_an_excused_counter_instance():
    # removing the hypothesis bookkeeping would turn at least one fixture per
    # family into an unexcused violation
    for theorem in THEOREM_IDS:
        rows = [rep for fx, rep in ALL if fx.theorem == theorem]
        assert any((not rep.agree or rep.computed is None)
                   and not rep.hypotheses_hold for rep in rows), theorem


def test_hypothesis_names_fixed_per_family():
    expected = {
        "glued-basis-homogeneous": ("generalized-nice", "condition-A"),
        "glued-closure-acm": ("generalized-nice", "condition-A",
                              "left-closure-acm", "right-closure-acm"),
        "glued-tangent-cone": ("star-gluing", "condition-B",
                               "left-tangent-cm", "right-tangent-cm"),
        "glued-closure-gorenstein": ("generalized-nice", "condition-A",
                                     "left-closure-gorenstein",
                                     "right-closure-gorenstein"),
        "extension-pf": ("base-mpd", "base-gaps-certified"),
        "join-sifr": ("join-defined",),
    }
    for fx, rep in ALL:
        names = tuple(h.name for h in rep.hypotheses_checked)
        assert names == expected[fx.theorem], (fx.theorem, fx.label)


# ---------------------------------------------------------------------------
# glued-basis-homogeneous


def test_bridge_p21_q29_spread_witness_fails():
    rep = by_label(ALL, "bridge-p21-q29")
    assert rep.predicted is True and rep.computed is False
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags == {"generalized-nice": True, "condition-A": False}
    note_with(rep, "x-block-first order: NOT a Groebner basis")
    note_with(rep, "y-block-first order: NOT a Groebner basis")
    note_with(rep, "does NOT generate the closure ideal")
    # the displayed single-variable bridge has exponent b_l - sum(a) = -3 here
    note_with(rep, "ill-formed (negative balancing exponent)")
    note_with(rep, "alternative witness b=(0, 0, 3)")


def test_bridge_p28_q29_concentrated_witness_works():
    rep = by_label(ALL, "bridge-p28-q29")
    assert rep.agree and rep.computed is True
    note_with(rep, "x-block-first order: a Groebner basis")
    note_with(rep, "y-block-first order: a Groebner basis")
    note_with(rep, "the union generates the closure ideal")
    note_with(rep, "concentrated in its last position")


def test_bridge_p8_q19_equal_sums_fails_both_orders():
    rep = by_label(ALL, "bridge-p8-q19")
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags["generalized-nice"] is False
    assert rep.computed is False


def test_equal_sum_witness_flips_bridge_lead():
    # with sum(b) == sum(a) the bridge carries no balancing x0, so the
    # y-block-first revlex comparison flips its lead to y^a and only the
    # x-block-first order can survive
    rep = verify_glued_basis_homogeneous(gluing((3, 5, 7), (9, 11), (0, 0, 3), (2, 1)))
    assert rep.computed is False
    note_with(rep, "x-block-first order: a Groebner basis")
    note_with(rep, "y-block-first order: NOT a Groebner basis")
    note_with(rep, "the union generates the closure ideal")


# ---------------------------------------------------------------------------
# glued-closure-acm


def test_largest_right_closure_acm():
    rep = by_label(ALL, "largest-right-p21")
    assert rep.agree and rep.computed is True
    note_with(rep, "(87, 145, 203, 189, 231)")
    note_with(rep, "largest 231 sits in the right block")


def test_largest_left_closures_not_acm():
    for label, gens in [("largest-left-p14", "(87, 145, 203, 126, 154)"),
                        ("largest-left-p17", "(250, 350, 550, 425, 476)")]:
        rep = by_label(ALL, label)
        assert rep.agree and rep.computed is False, label
        note_with(rep, gens)
        note_with(rep, "offending homogenized lead")


def test_equal_sums_acm_counter_instance():
    rep = by_label(ALL, "equal-sums-p8-q19")
    assert not rep.agree and rep.predicted is True and rep.computed is False
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags["generalized-nice"] is False


# ---------------------------------------------------------------------------
# glued-tangent-cone


def test_star_gluing_tangent_cone_cm():
    rep = by_label(ALL, "star-p28-q29")
    assert rep.agree and rep.computed is True
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags["star-gluing"] is True
    # the catalogued generator list reproduces a different instance
    note_with(rep, "catalogued generator list (87, 145, 203, 189, 231)")
    note_with(rep, "constructed gluing (87, 145, 203, 252, 308)")
    # the assembled union misses one standard-basis element
    note_with(rep, "extra leads [(0, 0, 0, 13, 0)]")


def test_smallest_right_tangent_cone_not_cm():
    rep = by_label(ALL, "smallest-right-p21-q17")
    assert rep.agree and rep.computed is False
    note_with(rep, "smallest 105 sits in the right block")


def test_non_star_tangent_counter_instance():
    rep = by_label(ALL, "equal-sums-p8-q25")
    assert not rep.agree and rep.predicted is True and rep.computed is False
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags["star-gluing"] is False
    assert flags["left-tangent-cm"] is True and flags["right-tangent-cm"] is True
    note_with(rep, "smallest 75 sits in the left block")


# ---------------------------------------------------------------------------
# glued-closure-gorenstein


def test_concentrated_witness_gorenstein_closures():
    for label in ["two-hypersurfaces-p15-q22", "two-hypersurfaces-p9-q8"]:
        rep = by_label(ALL, label)
        assert rep.agree and rep.computed is True, label


def test_spread_witness_breaks_gorenstein_closure():
    rep = by_label(ALL, "spread-witness-p11-q14")
    assert not rep.agree and rep.computed is False
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    # only the condition hypothesis fails: the conclusion genuinely needs it
    assert flags["generalized-nice"] is True
    assert flags["condition-A"] is False
    assert flags["left-closure-gorenstein"] is True
    assert flags["right-closure-gorenstein"] is True
    note_with(rep, "Betti totals (1, 6, 9, 4)")
    note_with(rep, "beyond a complete intersection")


def test_equal_sums_gorenstein_counter_instance():
    rep = by_label(ALL, "equal-sums-p8-q19")  # acm family label reused
    reps = [r for f, r in ALL
            if f.theorem == "glued-closure-gorenstein" and f.label == "equal-sums-p8-q19"]
    assert len(reps) == 1
    rep = reps[0]
    assert not rep.agree and rep.computed is False
    note_with(rep, "not arithmetically Cohen-Macaulay")


# ---------------------------------------------------------------------------
# extension-pf


def test_planar_extension_pf_and_betti_law():
    rep = by_label(ALL, "planar-5-to-6-generators")
    assert rep.agree
    assert rep.predicted == {"mpd": True, "betti-law": True, "pf": [(20, 13)]}
    assert rep.computed == {"mpd": True, "pf": [(20, 13)], "betti-law": True}
    assert "prec-symmetric" not in rep.predicted
    note_with(rep, "direct gap-set computation unavailable")
    note_with(rep, "base gaps inside extension gaps")
    note_with(rep, "recorded as undecided rather than agreed")


def test_numerical_extension_pf_fully_certified():
    rep = by_label(ALL, "numerical-3-5-doubled")
    assert rep.agree
    assert rep.predicted["pf"] == [(25,)]
    assert rep.predicted["prec-symmetric"] is True
    assert rep.computed["prec-symmetric"] is True
    note_with(rep, "direct gap-set computation matches the top-Betti read-off")


def test_non_mpd_base_counter_instance():
    rep = by_label(ALL, "non-mpd-base")
    assert not rep.agree
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags["base-mpd"] is False
    assert rep.computed["mpd"] is False and rep.computed["pf"] is None
    note_with(rep, "the formula predicts nothing")


def test_extension_rejects_shared_factor():
    # candidate generators 2*<3,5> plus 8 would share the factor 2
    with pytest.raises(InputError):
        ExtensionSpec(NumericalSemigroup((3, 5)), 2, (1, 1))


def test_extension_pf_formula_on_fresh_instance():
    spec = ExtensionSpec(NumericalSemigroup((4, 5)), 3, (1, 2))
    rep = verify_extension_pf(spec, (60,))
    assert rep.agree
    # PF(E) = l*f + (l-1)*a with f = 11, a = 14
    assert rep.predicted["pf"] == [(3 * 11 + 2 * 14,)]


# ---------------------------------------------------------------------------
# join-sifr


def test_join_sifr_both_factors_sifr():
    for label in ["axes-357-23", "two-hypersurfaces"]:
        rep = by_label(ALL, label)
        assert rep.agree and rep.computed is True, label


def test_join_sifr_non_sifr_factor():
    rep = by_label(ALL, "non-sifr-factor")
    assert rep.agree and rep.predicted is False and rep.computed is False
    note_with(rep, "left: level-1 degrees ((12, 0), (18, 0)) differ by a member")
    note_with(rep, "join: level-1 degrees")


def test_join_undefined_records_nothing():
    rep = by_label(ALL, "dependent-rays")
    assert rep.predicted is None and rep.computed is None
    flags = {h.name: h.holds for h in rep.hypotheses_checked}
    assert flags == {"join-defined": False}
    note_with(rep, "factors do not form a join")


def test_join_sifr_fresh_equivalence():
    # equivalence holds on a fresh pair: non-SIFR right factor breaks the join
    left = embed_axis(NumericalSemigroup((2, 3)), 2, 0)
    right = embed_axis(NumericalSemigroup((6, 8, 9)), 2, 1)
    rep = verify_join_sifr(left, right)
    assert rep.agree and rep.computed is False
    note_with(rep, "right: level-1 degrees")


# ---------------------------------------------------------------------------
# input validation on the public helpers


def test_gluing_helper_validates():
    with pytest.raises(InputError):
        gluing((3, 5), (9, 11), (0, 2), (1, 0))  # q = 9 is a generator
    with pytest.raises(InputError):
        gluing((2, 3), (9, 11), (0, 2), (1, 0))  # gcd(p, q) != 1
    spec = gluing((3, 5), (9, 11), (0, 3), (0, 2))
    assert spec.p == 15 and spec.q == 22


def test_tangent_cone_verifier_builds_each_local_basis_once(monkeypatch):
    # one local basis each for the left factor, the right factor and the
    # glued semigroup, plus the block-order basis of the assembled note
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return standard_basis_local(*args, **kwargs)

    monkeypatch.setattr(toric, "standard_basis_local", counted)
    monkeypatch.setattr(theorems, "standard_basis_local", counted)
    verify_glued_tangent_cone(gluing((3, 5, 7), (9, 11), (0, 0, 4), (2, 1)))
    assert len(calls) == 4
