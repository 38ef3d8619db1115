"""Acceptance gate: one test per criterion, '-v' gives one pass/fail line each.

Criterion 3 states the catalogued totals for matrix B literally; the computed
table disagrees with the catalogued tuple (it is its mirror image), so that
criterion fails honestly rather than restating the computation as the
expectation.  Every other criterion is expected green.
"""

import random
import time

from sgring.affine import AffineSemigroup, embed_axis, join
from sgring.errors import InputError
from sgring.groebner import buchberger, homogenize_ideal
from sgring.monomials import degrevlex
from sgring.resolution import betti_degrees, pf_via_betti, sifr_check, tensor_betti
from sgring.semigroups import NumericalSemigroup
from sgring.theorems import run_fixtures, verify_join_sifr
from sgring.toric import toric_ideal
from sgring.verdicts import acm_projective_closure, cm_tangent_cone

MATRIX_A = ((3, 0), (5, 0), (0, 1), (1, 3), (2, 3))
MATRIX_B = ((6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9))  # 2*A plus (6,9)

CLOSURE_REGRESSIONS = {
    (57, 95, 56, 96): False,
    (250, 350, 550, 425, 476): False,
    (87, 145, 203, 126, 154): False,
    (87, 145, 203, 189, 231): True,
}

GLUED_INSTANCES = [
    (87, 145, 203, 252, 308), (66, 110, 135, 165), (16, 24, 36, 45),
    (42, 70, 77, 121), (75, 125, 88, 112), (57, 95, 56, 96),
]


def random_numerical(rng, max_gens=4, max_val=40):
    while True:
        k = rng.randint(2, max_gens)
        cand = sorted(rng.sample(range(2, max_val + 1), k))
        try:
            return NumericalSemigroup(cand)
        except InputError:
            continue


_POP = None


def population():
    global _POP
    if _POP is None:
        rng = random.Random(2026)
        _POP = [random_numerical(rng) for _ in range(50)]
    return _POP


def test_criterion_1_projective_closure_regressions():
    for gens, want in CLOSURE_REGRESSIONS.items():
        t0 = time.monotonic()
        v = acm_projective_closure(NumericalSemigroup(gens))
        elapsed = time.monotonic() - t0
        assert v.result is want, (gens, v.result)
        assert not v.conflict, (gens, v)
        assert elapsed < 30, (gens, elapsed)


def test_criterion_2_tangent_cone_regressions():
    for gens, want in [((105, 252, 119, 136), False), ((3, 5, 7), True)]:
        t0 = time.monotonic()
        v = cm_tangent_cone(NumericalSemigroup(gens))
        elapsed = time.monotonic() - t0
        assert v.result is want, (gens, v.result)
        assert not v.conflict, (gens, v)
        assert elapsed < 10, (gens, elapsed)


def test_criterion_3_mpd_betti_fixtures():
    failures = []

    def check(label, stated, computed):
        if stated != computed:
            failures.append(f"{label}: stated {stated}, computed {computed}")

    t0 = time.monotonic()
    a = AffineSemigroup(MATRIX_A)
    ta = betti_degrees(a)
    pf_a = pf_via_betti(a, ta)
    assert time.monotonic() - t0 < 300
    check("matrix A totals", (1, 7, 11, 6, 1), ta.total)
    check("matrix A top degree", ((18, 9),), tuple(ta.top_degrees))
    check("matrix A PF", [(7, 2)], pf_a)

    t0 = time.monotonic()
    b = AffineSemigroup(MATRIX_B)
    tb = betti_degrees(b)
    pf_b = pf_via_betti(b, tb)
    assert time.monotonic() - t0 < 300
    check("matrix B totals", (1, 7, 17, 18, 8, 1), tb.total)
    check("matrix B top degree", ((48, 36),), tuple(tb.top_degrees))
    check("matrix B PF", [(20, 13)], pf_b)

    # extension formula l*f + (l-1)*a with l=2, a=(6,9)
    formula = tuple(2 * f + 1 * s for f, s in zip(pf_a[0], (6, 9)))
    check("extension formula", (20, 13), formula)
    check("formula matches matrix B PF", [formula], pf_b)
    assert not failures, "; ".join(failures)


def test_criterion_4_oracle_equivalence_suites():
    t0 = time.monotonic()
    for s in population():  # (a) GB-criterion ACM verdict vs depth of the closure
        v = acm_projective_closure(s)
        assert not v.conflict, (s.generators, v)
        depth = {c.name: c for c in v.cross_checks}["closure-depth"]
        assert depth.result == v.result, (s.generators, depth)
    for s in population():  # (b) local-GB tangent-cone verdict vs ord oracle
        v = cm_tangent_cone(s)
        assert not v.conflict, (s.generators, v)
        assert v.cross_checks[0].result == v.result, s.generators
    for s in population():  # (c) top-Betti PF read-off vs direct gap scan
        via = pf_via_betti(s, betti_degrees(s))
        direct = AffineSemigroup([(g,) for g in s.generators]).pf_direct()
        assert [(f,) for f in via] == direct, s.generators
    assert time.monotonic() - t0 < 600


def test_criterion_5_homogenized_lead_identity():
    for s in population():
        e = len(s.generators)
        gb = buchberger(toric_ideal(s).generators, degrevlex(e))
        hgb = homogenize_ideal(gb)
        redone = buchberger(hgb.elements, hgb.order)
        assert sorted(redone.leads()) == sorted(hgb.leads()), s.generators


def test_criterion_6_join_kuenneth_and_sifr():
    rng = random.Random(64)
    pairs = 0
    outcomes = set()
    while pairs < 20:
        left = random_numerical(rng, max_gens=3, max_val=20)
        right = random_numerical(rng, max_gens=3, max_val=20)
        l2 = embed_axis(left, 2, 0)
        r2 = embed_axis(right, 2, 1)
        joined = join(l2, r2)
        tl, tr = betti_degrees(l2), betti_degrees(r2)
        tj = betti_degrees(joined)
        assert tj.rows == tensor_betti(tl, tr).rows, (left.generators,
                                                      right.generators)
        both = sifr_check(l2, tl).holds and sifr_check(r2, tr).holds
        computed = sifr_check(joined, tj).holds
        assert computed == both, (left.generators, right.generators)
        # the theorem harness on the same pair reaches the same verdict
        rep = verify_join_sifr(l2, r2)
        hyps = [(h.name, h.holds) for h in rep.hypotheses_checked]
        assert hyps == [("join-defined", True)], rep
        assert rep.computed == computed and rep.agree, rep
        outcomes.add(computed)
        pairs += 1
    assert outcomes == {True, False}


def test_criterion_7_theorem_harness():
    reports = run_fixtures()
    for fx, rep in reports:
        if not rep.agree:  # disagreement only where a hypothesis failed
            assert not rep.hypotheses_hold, (fx.label, rep)
    star = next(r for f, r in reports if f.label == "star-p28-q29")
    assert any("catalogued generator list (87, 145, 203, 189, 231)" in n
               for n in star.notes)
    bridge = next(r for f, r in reports if f.label == "bridge-p21-q29")
    assert any("ill-formed (negative balancing exponent)" in n
               for n in bridge.notes)


def test_criterion_8_hilbert_nondecreasing_on_cm_fixtures():
    instances = (list(CLOSURE_REGRESSIONS) + GLUED_INSTANCES
                 + [(105, 252, 119, 136), (3, 5, 7)])
    checked = 0
    for gens in instances:
        s = NumericalSemigroup(gens)
        if cm_tangent_cone(s).result:
            assert s.hilbert_nondecreasing(), gens
            checked += 1
    assert checked >= 5  # the fixture list genuinely exercises the implication
