import math
import random
from collections import deque

import pytest

from sgring import verdicts
from sgring.affine import AffineSemigroup, axis_apery, glue, gluing
from sgring.errors import Deadline, DeadlineExceeded, InputError
from sgring.resolution import _scan
from sgring.semigroups import AperyRuns, NumericalSemigroup
from sgring.theorems import run_fixtures
from sgring.verdicts import (
    CrossCheck,
    Verdict,
    acm_projective_closure,
    closure_apery,
    closure_resolution,
    cm_tangent_cone,
    gorenstein_numerical,
    gorenstein_projective_closure,
    projective_closure_semigroup,
)
from numerical_oracle import gorenstein_by_gap_walk
from test_acceptance import CLOSURE_REGRESSIONS, GLUED_INSTANCES, population


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
                       (CrossCheck("a", False, ""), CrossCheck("b", False, "agrees")))
    assert not agreeing.conflict
    assert bool(agreeing) is False
    assert not Verdict("demo", True, "m").conflict


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
        assert depth.result is want, (gens, depth)


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


def test_cm_tangent_cone_short_audit_flags_conflict(monkeypatch):
    # an order-additivity audit that reads only the first row of the Apery
    # table misses the failure; the disagreement must surface as a
    # conflict, not vanish
    full = NumericalSemigroup.apery_table

    def first_row(self):
        table = full(self)
        return AperyRuns(table.sums[:1], tuple(runs[:1] for runs in table.columns))

    monkeypatch.setattr(NumericalSemigroup, "apery_table", first_row)
    v = cm_tangent_cone(NumericalSemigroup([105, 252, 119, 136]))
    assert v.result is False
    assert v.cross_checks[0].result is True
    assert v.conflict


def brute_ord_table(gens, upto):
    # longest factorization length by dynamic programming, -1 off S
    tab = [0] + [-1] * upto
    for v in range(1, upto + 1):
        best = max((tab[v - g] for g in gens if g <= v), default=-1)
        tab[v] = best + 1 if best >= 0 else -1
    return tab


@pytest.mark.parametrize("gens", [(105, 252, 119, 136), (14, 18, 33), (21, 22, 30),
                                  (4, 9), (3, 5, 7)])
def test_order_additivity_names_the_least_failing_member(gens):
    s = NumericalSemigroup(gens)
    m, top, e = s.multiplicity, s.generators[-1], len(gens)
    bound = m * top * (e - 1)  # a first failure sits at or below it
    tab = brute_ord_table(s.generators, bound + m)
    bad = next((x for x in range(bound + 1)
                if tab[x] >= 0 and tab[x + m] != tab[x] + 1), None)
    check = cm_tangent_cone(s).cross_checks[0]
    assert check.result is (bad is None)
    if bad is not None:
        assert check.note == f"ord({bad} + {m}) != ord({bad}) + 1"


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
    assert v.cross_checks[0].result is True
    assert v.cross_checks[0].note == "pseudo-Frobenius elements [-1]"


def test_gorenstein_numerical_matches_gap_walk_oracle():
    rng = random.Random(1155)
    sems = [NumericalSemigroup(g) for g in CLOSURE_REGRESSIONS]
    sems += [random_numerical(rng, max_gens=5, max_val=60) for _ in range(500)]
    sems += [NumericalSemigroup(g) for g in
             ((1,), (2, 3), (6, 9, 20), (4, 6, 9), (8, 10, 12, 13), (13, 19), (97, 101))]
    symmetric = 0
    for s in sems:
        got, want = gorenstein_numerical(s), gorenstein_by_gap_walk(s)
        assert got == want, s.generators
        symmetric += got.result
    assert 50 <= symmetric <= len(sems) - 50


def test_gorenstein_numerical_under_deadline():
    for gens in ((4001, 4003), (5, 10**7 + 1)):
        s = NumericalSemigroup(gens)
        with Deadline(1):
            v = gorenstein_numerical(s)
        assert v.result is True and not v.conflict, gens


def test_gorenstein_numerical_matches_type_on_randoms():
    rng = random.Random(7)
    for _ in range(25):
        s = random_numerical(rng)
        v = gorenstein_numerical(s)
        assert not v.conflict, s.generators
        assert v.result == (len(s.pf_numeric()) == 1)


def test_rossi_question_on_glued_symmetric_factors():
    # Rossi: is the Hilbert function of a one-dimensional Gorenstein local
    # ring nondecreasing?  Two-generated semigroups are symmetric, and so is
    # every gluing of symmetric ones; a non-CM tangent cone is where the
    # answer is open
    rng = random.Random(5)
    specs = []
    while len(specs) < 40:
        left, right = (sorted(rng.sample(range(3, 40), 2)) for _ in range(2))
        b, a = (tuple(rng.randint(0, 6) for _ in range(2)) for _ in range(2))
        try:
            specs.append(gluing(left, right, b, a))
        except InputError:
            continue
    open_cases = 0
    for spec in specs:
        s = glue(spec)
        cm = cm_tangent_cone(s)
        assert not cm.conflict, s.generators
        if cm.result:
            continue
        open_cases += 1
        gorenstein = gorenstein_numerical(s)
        assert gorenstein.result and not gorenstein.conflict, s.generators
        assert s.hilbert_nondecreasing(), s.generators
    assert open_cases >= 1  # 23 of the 40


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


def test_gorenstein_closure_decided_where_the_scan_box_was_too_large():
    # ACM closures whose Betti scan box never fit the subset boards
    for gens in [(87, 145, 203, 189, 231), (87, 145, 203, 252, 308)]:
        v = gorenstein_projective_closure(NumericalSemigroup(gens))
        assert v.result is False and not v.conflict, (gens, v)
        assert len(v.witness) == 2, (gens, v.witness)
        (flag,) = v.cross_checks
        assert flag.name == "closure-gorenstein-flag" and flag.result is False


def test_gorenstein_witness_matches_closure_betti_top_degrees():
    # the stable closure Betti scan is an independent oracle for the
    # certificate: top Betti degrees = maximal Apery elements + sigma
    instances = [NumericalSemigroup(g) for g in
                 [(66, 110, 135, 165), (16, 24, 36, 45), (42, 70, 77, 121), (3, 5, 7),
                  (56, 57, 95, 96), (87, 126, 145, 154, 203),
                  (87, 145, 189, 203, 231), (87, 145, 203, 252, 308)]]
    compared = 0
    for s in instances + population()[:20]:
        v = gorenstein_projective_closure(s)
        table, _, note = closure_resolution(s)
        if v.method == verdicts.NOT_ACM or table is None:
            continue
        assert v.witness == table.top_degrees, (s.generators, note)
        assert v.result == (table.total[-1] == 1), s.generators
        compared += 1
    assert compared >= 10


def test_closure_apery_counts_and_is_built_once():
    s = NumericalSemigroup((3, 5, 7))
    ap = closure_apery(s)
    # (10, 4) = (3, 4) + (7, 0) drops out; 3 * (3, 4) and 2 * (3, 4) + (5, 2) stay
    assert ap == {(0, 0), (3, 4), (5, 2), (6, 8), (8, 6), (9, 12), (11, 10)}
    assert closure_apery(s) is ap
    for gens, want in [((57, 95, 56, 96), 225), ((87, 145, 203, 189, 231), 231)]:
        assert len(closure_apery(NumericalSemigroup(gens))) == want
    with pytest.raises(InputError):
        closure_apery(AffineSemigroup([(2, 1), (3, 0)]))


class _Countdown(Deadline):
    """Passes a fixed number of checks, then reports the deadline gone."""

    def __init__(self, checks):
        super().__init__(None)
        self.left = checks

    def check(self):
        self.left -= 1
        if self.left < 0:
            raise DeadlineExceeded("countdown over")


def test_closure_apery_honours_deadline_and_keeps_no_partial_set():
    s = NumericalSemigroup((250, 350, 550, 425, 476))
    projective_closure_semigroup(s)  # so the scopes below fire in the search
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        closure_apery(s)
    # one check passes in the search; the length table checks at entry 4096
    with pytest.raises(DeadlineExceeded), _Countdown(1):
        closure_apery(s)
    full = closure_apery(s)
    assert len(full) == 600
    with Deadline(-1.0):
        assert closure_apery(s) is full  # the finished set is stored


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


def test_every_reported_answer_is_a_bool():
    # no verdict, cross-check or hypothesis has an undecided state
    rng = random.Random(36)
    for _ in range(15):
        s = random_numerical(rng)
        for check in (acm_projective_closure, cm_tangent_cone,
                      gorenstein_numerical, gorenstein_projective_closure):
            v = check(s)
            assert type(v.result) is bool, (s.generators, v)
            assert all(type(c.result) is bool for c in v.cross_checks), (s.generators, v)
    for fx, rep in run_fixtures():
        assert all(type(h.holds) is bool for h in rep.hypotheses_checked), fx.label


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
    s = NumericalSemigroup((57, 95, 56, 96))
    first = closure_resolution(s)
    assert len(calls) == 1 and closure_resolution(s) is first and len(calls) == 1
    calls.clear()
    # the closure verdicts decide from the Apery set and never scan
    gorenstein_projective_closure(NumericalSemigroup((57, 95, 56, 96)))
    assert calls == []


def test_acm_verdict_is_built_once_per_object(monkeypatch):
    # the reduced basis and the homogenized recompute run once, although
    # the Gorenstein closure verdict asks for the ACM verdict again
    from sgring import toric
    calls = []
    for mod in (toric, verdicts):
        engine = mod.buchberger

        def counted(*args, _engine=engine, **kwargs):
            calls.append(args)
            return _engine(*args, **kwargs)

        monkeypatch.setattr(mod, "buchberger", counted)
    s = NumericalSemigroup((57, 95, 56, 96))
    acm = acm_projective_closure(s)
    gor = gorenstein_projective_closure(s)
    assert len(calls) == 2
    assert acm_projective_closure(s) is acm and gor.result is False
    assert gor.witness == acm.witness


def test_exhausted_closure_budget_is_not_memoized():
    # an expired caller deadline raises and stores nothing, so a later call
    # with time left still returns the table
    s = NumericalSemigroup((3, 5, 7))
    projective_closure_semigroup(s)  # so the deadline fires in the scan
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        closure_resolution(s)
    assert "closure_resolution" not in s._memo
    table, summary, note = closure_resolution(s)
    assert table is not None and summary is not None, note
    assert table.total == (1, 3, 2) and table.certified
    assert closure_resolution(s)[0] is table


def test_a_refused_closure_scan_is_the_note(monkeypatch):
    # the scan's refusals are resource bounds; the closure records them
    from sgring import affine
    monkeypatch.setattr(affine, "_MAX_BOARD_BITS", 1)
    assert closure_resolution(NumericalSemigroup((3, 5, 7))) == (
        None, None, "scan box too large for the scan boards")
    assert closure_resolution(NumericalSemigroup(range(17, 34))) == (
        None, None, "18 generators exceed the subset-enumeration limit")


def length_table_closure_apery(s):
    """Ap(S', E) of the projective closure by a breadth-first search over
    the non-extremal generators, with membership read from a table of
    shortest factorization lengths in S: (x, y) is in S' iff n_e divides
    x + y and x has a factorization of length at most (x + y) / n_e."""
    top = s.generators[-1]
    minlen = [0]

    def member(x, y):
        if x < 0 or y < 0 or (x + y) % top:
            return False
        while len(minlen) <= x:
            v = len(minlen)
            minlen.append(1 + min((minlen[v - g] for g in s.generators if g <= v),
                                  default=math.inf))
        return minlen[x] <= (x + y) // top

    found = {(0, 0)}
    queue = deque(found)
    while queue:
        x, y = queue.popleft()
        for n in s.generators[:-1]:
            p = (x + n, y + top - n)
            if p in found or member(p[0] - top, p[1]) or member(p[0], p[1] - top):
                continue
            found.add(p)
            queue.append(p)
    return found


def test_closure_apery_matches_length_table_oracle():
    gens = [s.generators for s in population()]
    gens += [tuple(sorted(g)) for g in list(CLOSURE_REGRESSIONS) + GLUED_INSTANCES]
    for g in gens:
        s = NumericalSemigroup(g)
        top = s.generators[-1]
        extremal, ap = axis_apery(projective_closure_semigroup(s).generators)
        assert extremal == ((top, 0), (0, top)), g
        assert ap == length_table_closure_apery(s) == closure_apery(s), g


def certified_box(sbar):
    # b_i = max over Ap(S, E) of w_i + sum of g_i over the generators g != e_i
    extremal, ap = axis_apery(sbar.generators)
    return tuple(max(w[i] for w in ap) + sum(g[i] for g in sbar.generators)
                 - sum(e[i] for e in extremal) for i in range(sbar.dim))


@pytest.mark.parametrize("gens", [(3, 5, 7), (16, 24, 36, 45), (42, 70, 77, 121)]
                         + [s.generators for s in population()[:8]])
def test_certified_closure_table_is_stable_under_doubling(gens):
    s = NumericalSemigroup(gens)
    table, _, note = closure_resolution(s)
    assert table is not None and table.certified, note
    sbar = projective_closure_semigroup(s)
    doubled = _scan(sbar, tuple(2 * c for c in certified_box(sbar)))
    assert doubled.certified and doubled.rows == table.rows


def test_closure_tables_of_the_regressions():
    expected = {
        (56, 57, 95, 96): (1, 17, 45, 42, 13),
        (87, 126, 145, 154, 203): (1, 7, 18, 21, 11, 2),
        (87, 145, 189, 203, 231): (1, 5, 9, 7, 2),
        (87, 145, 203, 252, 308): (1, 5, 9, 7, 2),
    }
    for gens, totals in expected.items():
        table, summary, note = closure_resolution(NumericalSemigroup(gens))
        assert table is not None and table.certified, (gens, note)
        assert table.total == totals, gens
        assert summary.pd == len(totals) - 1
    # an 85.6 M-bit grid: the cone filter holds a few boards of it, where
    # 2^5 subset boards were over the bit cap
    table, summary, note = closure_resolution(NumericalSemigroup((250, 350, 425, 476, 550)))
    assert table is not None and table.certified, note
    assert table.total == (1, 6, 13, 13, 6, 1)
    assert summary.depth == 1
