"""Defining ideals: kernel computation, closures, glued generators, equality."""
import random

import pytest

from sgring import toric
from sgring.errors import Deadline, DeadlineExceeded, InputError
from sgring.monomials import Binomial, degrevlex
from sgring.groebner import buchberger, homogenize_ideal, is_groebner
from sgring.semigroups import (
    AffineSemigroup,
    GluingSpec,
    NumericalSemigroup,
    embed_axis,
    join,
)
from sgring.toric import (
    BinomialIdeal,
    _canonical,
    _toric_by_elimination,
    _x_names,
    gamma_degree,
    glued_ideal_generators,
    ideal_equals,
    local_basis,
    reduced_basis,
    toric_ideal,
)
from test_acceptance import CLOSURE_REGRESSIONS, GLUED_INSTANCES, population


def random_numerical(rng, lo=3, hi=30, kmax=4):
    while True:
        cand = sorted(rng.sample(range(lo, hi + 1), rng.randint(2, kmax)))
        try:
            return NumericalSemigroup(cand)
        except InputError:
            continue


def projective_closure_ideal(s: NumericalSemigroup) -> BinomialIdeal:
    """Ideal of the projective closure: homogenize the reduced degree-revlex
    basis with the fresh variable sitting lowest."""
    if not isinstance(s, NumericalSemigroup):
        raise InputError("projective closure is defined for numerical semigroups")
    e = s.embedding_dim
    gb = buchberger(toric_ideal(s).generators, degrevlex(e))
    hgb = homogenize_ideal(gb)
    top = s.generators[-1]
    dmap = tuple((g, top - g) for g in s.generators) + ((0, top),)
    return BinomialIdeal(_x_names(e) + ("x0",), hgb.elements, dmap)


def elimination_ideal(s: NumericalSemigroup) -> BinomialIdeal:
    """The toric ideal by variable elimination, as an oracle for the
    divisor-graph route."""
    vecs = tuple((g,) for g in s.generators)
    return BinomialIdeal(_x_names(len(vecs)), tuple(_toric_by_elimination(vecs, None)), vecs)


def window_scan_generators(s: NumericalSemigroup) -> tuple[Binomial, ...]:
    """The toric ideal by testing the divisor graph of every degree from 2*n_1
    to frobenius + 2*n_e, past which every divisor graph is connected: an
    oracle for the Apery-set scan of toric_ideal."""
    gens = s.generators
    e = len(gens)

    def factorization(v: int) -> list[int]:
        fac = [0] * e
        while v:
            i = next(i for i, g in enumerate(gens) if v >= g and (v - g) in s)
            fac[i] += 1
            v -= gens[i]
        return fac

    out = []
    for b in range(2 * gens[0], s.frobenius() + 2 * gens[-1] + 1):
        if b not in s:
            continue
        verts = [i for i, g in enumerate(gens) if b >= g and (b - g) in s]
        if len(verts) < 2:
            continue
        comp = {i: i for i in verts}

        def find(i: int) -> int:
            while comp[i] != i:
                i = comp[i]
            return i

        for ii, i in enumerate(verts):
            for j in verts[ii + 1:]:
                rest = b - gens[i] - gens[j]
                if rest >= 0 and rest in s:
                    comp[find(i)] = find(j)
        roots = sorted({find(i) for i in verts})
        if len(roots) < 2:
            continue
        reps = []
        for r in roots:
            fac = factorization(b - gens[r])
            fac[r] += 1
            reps.append(tuple(fac))
        out.extend(Binomial(reps[0], rep) for rep in reps[1:])
    return _canonical(out, degrevlex(e))


def apery_route_instances() -> list[NumericalSemigroup]:
    """The acceptance population and regressions, small classics, and one
    seeded draw of 3, 4 and 5 generators in [100, 3000]."""
    out = list(population())
    out += [NumericalSemigroup(g) for g in list(CLOSURE_REGRESSIONS) + GLUED_INSTANCES]
    out += [NumericalSemigroup(g) for g in [(2, 3), (3, 5, 7), (6, 9, 20)]]
    rng = random.Random(8)
    for k in (3, 4, 5):
        while True:
            try:
                s = NumericalSemigroup(rng.sample(range(100, 3001), k))
            except InputError:
                continue
            if s.frobenius() < 100_000:
                out.append(s)
                break
    return out


def test_toric_ideal_matches_window_scan():
    for s in apery_route_instances():
        assert toric_ideal(s).generators == window_scan_generators(s), s.generators


def test_pf_numeric_matches_gap_scan():
    for s in apery_route_instances():
        pf = [f for f in s.gaps() if all(f + g in s for g in s.generators)]
        assert s.pf_numeric() == pf, s.generators


def test_toric_ideal_cost_follows_multiplicity():
    # the window scan would test about 10^8 degrees here; the Apery scan tests 10007
    ideal = toric_ideal(NumericalSemigroup((10007, 10009)), Deadline(2.0))
    assert ideal.generators == (Binomial((10009, 0), (0, 10007)),)


@pytest.mark.parametrize("accessor, make", [
    (toric_ideal, lambda: NumericalSemigroup((3, 5, 7))),
    (reduced_basis, lambda: NumericalSemigroup((3, 5, 7))),
    (local_basis, lambda: NumericalSemigroup((3, 5, 7))),
    (toric_ideal, lambda: AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])),
    (reduced_basis, lambda: AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])),
], ids=["toric-numerical", "reduced-numerical", "local-numerical",
        "toric-affine", "reduced-affine"])
def test_artifacts_are_built_once_per_object(monkeypatch, accessor, make):
    s = make()
    # a build cut short by its deadline raises and stores nothing
    with pytest.raises(DeadlineExceeded):
        accessor(s, Deadline(-1.0))
    assert accessor.__name__ not in s._memo
    first = accessor(s)

    def rebuilt(*args, **kwargs):
        raise AssertionError("artifact rebuilt")

    for name in ("_toric_by_divisor_graphs", "_toric_by_elimination",
                 "buchberger", "standard_basis_local"):
        monkeypatch.setattr(toric, name, rebuilt)
    assert accessor(s) is first
    assert s._memo[accessor.__name__] is first


def test_gamma_degree():
    dmap = ((3,), (5,))
    assert gamma_degree((5, 0), dmap) == (15,)
    assert gamma_degree((0, 3), dmap) == (15,)
    assert gamma_degree((0, 0), dmap) == (0,)


def test_binomial_ideal_validates():
    with pytest.raises(InputError):
        BinomialIdeal(("x1", "x2"), (Binomial((1, 0), (0, 1)),), ((3,), (5,)))
    with pytest.raises(InputError):
        BinomialIdeal(("x1",), (), ((3,), (5,)))
    with pytest.raises(InputError):
        BinomialIdeal(("x1", "x2"), (Binomial((1, 0, 0), (0, 1, 0)),), ((3,), (5,)))


def test_toric_35():
    ideal = toric_ideal(NumericalSemigroup((3, 5)))
    assert ideal.variables == ("x1", "x2")
    assert ideal.generators == (Binomial((5, 0), (0, 3)),)
    assert ideal.degree_map == ((3,), (5,))


def test_toric_357_canonical():
    ideal = toric_ideal(NumericalSemigroup((3, 5, 7)))
    assert ideal.generators == (
        Binomial((0, 2, 0), (1, 0, 1)),
        Binomial((3, 1, 0), (0, 0, 2)),
        Binomial((4, 0, 0), (0, 1, 1)),
    )


def test_toric_methods_agree():
    rng = random.Random(41)
    for _ in range(15):
        s = random_numerical(rng)
        assert ideal_equals(toric_ideal(s), elimination_ideal(s))
    with pytest.raises(InputError):
        toric_ideal([3, 5])


def test_toric_complete_intersection_vs_elimination_sizes():
    # the divisor-graph route returns a minimal generating set; elimination
    # may return more elements of the same ideal
    s = NumericalSemigroup((6, 9, 20))
    graph = toric_ideal(s)
    elim = elimination_ideal(s)
    assert len(graph.generators) == 2
    assert len(elim.generators) >= 2
    assert ideal_equals(graph, elim)


def test_three_generated_count_is_two_or_three():
    # minimal relation count of a 3-generated numerical semigroup is 2
    # (complete intersection) or 3, never more
    rng = random.Random(42)
    for _ in range(20):
        s = random_numerical(rng, kmax=3)
        if s.embedding_dim != 3:
            continue
        n = len(toric_ideal(s).generators)
        assert n in (2, 3)


def test_toric_generators_vanish():
    rng = random.Random(43)
    for _ in range(8):
        s = random_numerical(rng)
        ideal = toric_ideal(s)
        for b in ideal.generators:
            assert gamma_degree(b.lead, ideal.degree_map) == gamma_degree(b.tail, ideal.degree_map)
            v = gamma_degree(b.lead, ideal.degree_map)[0]
            assert v in s


def test_toric_affine_worked():
    mat_a = AffineSemigroup([(3, 0), (5, 0), (0, 1), (1, 3), (2, 3)])
    ideal = toric_ideal(mat_a)
    assert ideal.degree_map == mat_a.generators
    assert len(ideal.generators) >= 3
    assert is_groebner(buchberger(ideal.generators, degrevlex(5)).elements, degrevlex(5))


def test_projective_closure_23():
    p = projective_closure_ideal(NumericalSemigroup((2, 3)))
    assert p.variables == ("x1", "x2", "x0")
    assert p.generators == (Binomial((3, 0, 0), (0, 2, 1)),)
    assert p.degree_map == ((2, 1), (3, 0), (0, 3))
    with pytest.raises(InputError):
        projective_closure_ideal(AffineSemigroup([(2,), (3,)]))


def test_projective_closure_dehomogenizes_back():
    s = NumericalSemigroup((3, 5, 7))
    p = projective_closure_ideal(s)
    affine = buchberger(toric_ideal(s).generators, degrevlex(3)).elements
    stripped = tuple(Binomial(b.lead[:3], b.tail[:3]) for b in p.generators)
    assert stripped == affine


def test_glued_generators_fixture():
    spec = GluingSpec(NumericalSemigroup((3, 5)), NumericalSemigroup((7, 12)), (1, 1), (1, 1))
    g1 = toric_ideal(NumericalSemigroup((3, 5))).generators
    g2 = toric_ideal(NumericalSemigroup((7, 12))).generators
    ideal = glued_ideal_generators(spec, g1, g2)
    assert ideal.variables == ("x1", "x2", "y1", "y2")
    assert ideal.generators == (
        Binomial((1, 1, 0, 0), (0, 0, 1, 1)),     # rho = x1x2 - y1y2
        Binomial((5, 0, 0, 0), (0, 3, 0, 0)),
        Binomial((0, 0, 12, 0), (0, 0, 0, 7)),
    )
    assert ideal.degree_map == ((57,), (95,), (56,), (96,))
    assert ideal_equals(ideal, toric_ideal(NumericalSemigroup((56, 57, 95, 96))))


def test_glued_generators_star_rho():
    spec = GluingSpec(NumericalSemigroup((3, 5, 7)), NumericalSemigroup((9, 11)), (0, 0, 4), (2, 1))
    g1 = toric_ideal(NumericalSemigroup((3, 5, 7))).generators
    g2 = toric_ideal(NumericalSemigroup((9, 11))).generators
    ideal = glued_ideal_generators(spec, g1, g2)
    # the linking binomial, canonically oriented with the x-side leading
    assert Binomial((0, 0, 4, 0, 0), (0, 0, 0, 2, 1)) in ideal.generators
    assert ideal_equals(ideal, toric_ideal(NumericalSemigroup((87, 145, 203, 252, 308))))


def test_glued_cross_oracle_on_regressions():
    fixtures = [
        ((5, 7, 11), (25, 28), (2, 1, 0), (2, 0), (250, 350, 550, 425, 476)),
        ((3, 5, 7), (9, 11), (0, 0, 2), (2, 1), (87, 145, 203, 126, 154)),
        ((3, 5, 7), (9, 11), (7, 0, 0), (2, 1), (87, 145, 203, 189, 231)),
    ]
    for left, right, b, a, glued_gens in fixtures:
        spec = GluingSpec(NumericalSemigroup(left), NumericalSemigroup(right), b, a)
        ideal = glued_ideal_generators(
            spec,
            toric_ideal(NumericalSemigroup(left)).generators,
            toric_ideal(NumericalSemigroup(right)).generators,
        )
        assert ideal_equals(ideal, toric_ideal(NumericalSemigroup(glued_gens)))


def test_join_ideal_is_union():
    j = join(embed_axis(NumericalSemigroup((3, 5)), 2, 0),
             embed_axis(NumericalSemigroup((2, 3)), 2, 1))
    whole = toric_ideal(j.semigroup)
    g1 = toric_ideal(NumericalSemigroup((3, 5))).generators
    g2 = toric_ideal(NumericalSemigroup((2, 3))).generators
    union = tuple(Binomial(b.lead + (0, 0), b.tail + (0, 0)) for b in g1)
    union += tuple(Binomial((0, 0) + b.lead, (0, 0) + b.tail) for b in g2)
    assembled = BinomialIdeal(whole.variables, union, j.semigroup.generators)
    assert ideal_equals(whole, assembled)


def test_ideal_equals_rejects_and_aligns():
    i35 = toric_ideal(NumericalSemigroup((3, 5)))
    i357 = toric_ideal(NumericalSemigroup((3, 5, 7)))
    with pytest.raises(InputError):
        ideal_equals(i35, i357)
    with pytest.raises(InputError):
        ideal_equals(i35, toric_ideal(NumericalSemigroup((3, 7))))
    assert ideal_equals(i35, i35)
    # alignment: same ideal written with permuted variables
    permuted = BinomialIdeal(("a", "b"), (Binomial((3, 0), (0, 5)),), ((5,), (3,)))
    assert ideal_equals(i35, permuted)
    different = BinomialIdeal(("x1", "x2"), (), ((3,), (5,)))
    assert not ideal_equals(i35, different)
