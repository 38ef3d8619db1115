import random

import pytest

from sgring import verdicts
from sgring.errors import InputError
from sgring.semigroups import AffineSemigroup, NumericalSemigroup
from sgring.verdicts import (
    CrossCheck,
    Verdict,
    acm_projective_closure,
    closure_resolution,
    cm_tangent_cone,
    gorenstein_numerical,
    gorenstein_projective_closure,
    projective_closure_semigroup,
)


def random_numerical(rng, max_gens=4, max_val=40):
    while True:
        k = rng.randint(2, max_gens)
        cand = sorted(rng.sample(range(2, max_val + 1), k))
        try:
            return NumericalSemigroup(cand)
        except InputError:
            continue


def test_verdict_mechanics():
    v = Verdict("demo", True, "m", None, (CrossCheck("a", False, "why"),))
    assert v.conflict
    assert bool(v) is True
    agreeing = Verdict("demo", False, "m", None,
                       (CrossCheck("a", False, ""), CrossCheck("b", None, "skipped")))
    assert not agreeing.conflict
    undecided = Verdict("demo", None, "m")
    assert not undecided.conflict
    with pytest.raises(InputError):
        bool(undecided)


def test_closure_semigroup():
    sbar = projective_closure_semigroup(NumericalSemigroup([2, 3]))
    assert sbar.generators == ((2, 1), (3, 0), (0, 3))
    with pytest.raises(InputError):
        projective_closure_semigroup(AffineSemigroup([(2, 1), (3, 0)]))


def test_acm_regression_fixtures():
    # closures of the glued families: only the last one is arithmetically CM
    expected = {
        (57, 95, 56, 96): False,
        (250, 350, 550, 425, 476): False,
        (87, 145, 203, 126, 154): False,
        (87, 145, 203, 189, 231): True,
    }
    for gens, want in expected.items():
        v = acm_projective_closure(NumericalSemigroup(gens))
        assert v.result is want, gens
        assert not v.conflict, (gens, v)
        by_name = {c.name: c for c in v.cross_checks}
        assert by_name["homogenized-recompute"].result is want
        assert by_name["homogenized-recompute"].note == "lead sets agree"
        depth = by_name["closure-depth"]
        assert depth.result is want or depth.result is None


def test_acm_witness_is_offending_lead():
    s = NumericalSemigroup([57, 95, 56, 96])
    v = acm_projective_closure(s)
    e = len(s.generators)
    assert v.witness is not None and v.witness.lead[e - 1] > 0
    assert acm_projective_closure(NumericalSemigroup([87, 145, 203, 189, 231])).witness is None


def test_cm_tangent_cone_fixtures():
    bad = cm_tangent_cone(NumericalSemigroup([105, 252, 119, 136]))
    assert bad.result is False and not bad.conflict
    assert bad.witness.lead[0] > 0  # multiplicity variable divides this lead
    for gens in [(3, 5, 7), (2, 3), (5, 7, 9)]:
        v = cm_tangent_cone(NumericalSemigroup(gens))
        assert v.result is True and not v.conflict, gens
        assert v.witness is None


def test_cm_tangent_cone_short_audit_flags_conflict():
    # an ord audit cut off below the certified bound misses the failure;
    # the disagreement must surface as a conflict, not vanish
    v = cm_tangent_cone(NumericalSemigroup([105, 252, 119, 136]), ord_bound=10)
    assert v.result is False
    assert v.cross_checks[0].result is True
    assert v.conflict


def test_gorenstein_numerical_fixtures():
    assert gorenstein_numerical(NumericalSemigroup([3, 5])).result is True
    assert gorenstein_numerical(NumericalSemigroup([2, 3])).result is True
    assert gorenstein_numerical(NumericalSemigroup([4, 6, 9])).result is True
    v = gorenstein_numerical(NumericalSemigroup([3, 5, 7]))
    assert v.result is False and not v.conflict
    z, w = v.witness  # a gap pair summing to the Frobenius number
    s = NumericalSemigroup([3, 5, 7])
    assert z + w == s.frobenius() and z not in s and w not in s


def test_gorenstein_numerical_whole_line():
    v = gorenstein_numerical(NumericalSemigroup([1]))
    assert v.result is True and not v.conflict
    assert v.cross_checks[0].result is None


def test_gorenstein_numerical_matches_type_on_randoms():
    rng = random.Random(7)
    for _ in range(25):
        s = random_numerical(rng)
        v = gorenstein_numerical(s)
        assert not v.conflict, s.generators
        assert v.result == (len(s.pf_numeric()) == 1)


def test_gorenstein_projective_closure_fixtures():
    assert gorenstein_projective_closure(NumericalSemigroup([2, 3])).result is True
    assert gorenstein_projective_closure(NumericalSemigroup([3, 5])).result is True
    # ACM but type two
    v = gorenstein_projective_closure(NumericalSemigroup([3, 5, 7]))
    assert v.result is False and not v.conflict
    # not ACM at all
    w = gorenstein_projective_closure(NumericalSemigroup([57, 95, 56, 96]))
    assert w.result is False
    assert w.method == "not arithmetically Cohen-Macaulay"


def test_acm_primary_agrees_with_depth_on_randoms():
    rng = random.Random(19)
    for _ in range(15):
        s = random_numerical(rng)
        v = acm_projective_closure(s)
        assert not v.conflict, (s.generators, v)
        depth = {c.name: c for c in v.cross_checks}["closure-depth"]
        assert depth.result == v.result, (s.generators, v)


def test_cm_primary_agrees_with_ord_oracle_on_randoms():
    rng = random.Random(23)
    for _ in range(15):
        s = random_numerical(rng)
        v = cm_tangent_cone(s)
        assert not v.conflict, (s.generators, v)
        assert v.cross_checks[0].result == v.result


def test_verdicts_reject_affine_input():
    aff = AffineSemigroup([(2, 1), (3, 0)])
    for fn in (acm_projective_closure, cm_tangent_cone,
               gorenstein_numerical):
        with pytest.raises(InputError):
            fn(aff)


def _count_betti_scans(monkeypatch):
    calls = []
    scan = verdicts.betti_degrees

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(verdicts, "betti_degrees", counted)
    return calls


def test_closure_resolution_is_scanned_once_per_object(monkeypatch):
    calls = _count_betti_scans(monkeypatch)
    closure_resolution(NumericalSemigroup((57, 95, 56, 96)))
    once = len(calls)
    calls.clear()
    # the ACM verdict and the Gorenstein reading share one closure scan
    gorenstein_projective_closure(NumericalSemigroup((57, 95, 56, 96)))
    assert once > 0 and len(calls) == once


def test_exhausted_closure_budget_is_not_memoized(monkeypatch):
    s = NumericalSemigroup((3, 5, 7))
    monkeypatch.setattr(verdicts, "_DEPTH_BUDGET", 0.0)
    table, summary, note = closure_resolution(s)
    assert (table, summary, note) == (None, None, "cross-check budget exhausted")
    monkeypatch.undo()
    table, summary, note = closure_resolution(s)
    assert table is not None and summary is not None, note
    assert closure_resolution(s)[0] is table
