"""Buchberger engine: normal forms, reduced bases, homogenization, local orders."""
import random
from itertools import product
from math import comb

import pytest

from sgring.errors import Deadline, DeadlineExceeded, InputError
from sgring.monomials import (
    Binomial,
    deglex,
    degrevlex,
    elimination_order,
    divides,
    negdegrevlex,
    total_degree,
)
from sgring.groebner import (
    GroebnerBasis,
    buchberger,
    homogenize_ideal,
    initial_forms_ideal,
    is_groebner,
    normal_form,
    standard_basis_local,
)

O2 = degrevlex(2)
O3 = degrevlex(3)

# defining ideal of <3,5,7>, appearing all over as a known-good basis
G357 = (
    Binomial((0, 2, 0), (1, 0, 1)),   # x2^2 - x1x3
    Binomial((3, 1, 0), (0, 0, 2)),   # x1^3x2 - x3^2
    Binomial((4, 0, 0), (0, 1, 1)),   # x1^4 - x2x3
)


def local3():
    # tangent-cone order: x1 carries the smallest generator and sits lowest
    return negdegrevlex(3, priority=(2, 1, 0))


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_self_is_zero():
    f = Binomial((5, 0), (0, 3))
    assert normal_form(f, [f], O2) is None


def test_normal_form_single_rewrite_to_zero():
    # x1^7 - x1^2x2^3 is x1^2 times the divisor, so one rewrite cancels
    b = Binomial((7, 0), (2, 3))
    assert normal_form(b, [Binomial((5, 0), (0, 3))], O2) is None


def test_normal_form_rewrites_lead_then_tail():
    # lead x1^6 -> x1x2^3; remainder is fully reduced and nonzero
    b = Binomial((6, 0), (0, 1))
    nf = normal_form(b, [Binomial((5, 0), (0, 3))], O2)
    assert nf == Binomial((1, 3), (0, 1))
    # divisor applies to the tail only
    b2 = Binomial((0, 7), (6, 0))
    nf2 = normal_form(b2, [Binomial((5, 0), (0, 3))], O2)
    assert nf2 == Binomial((0, 7), (1, 3))


def test_normal_form_zero_in_zero_out():
    assert normal_form(None, [Binomial((5, 0), (0, 3))], O2) is None


def test_normal_form_rejects_local_order():
    with pytest.raises(InputError):
        normal_form(Binomial((1, 0, 0), (0, 1, 0)), [], local3())


# ---------------------------------------------------------------------------
# buchberger


def test_principal_ideal_is_its_own_basis():
    gb = buchberger([Binomial((0, 3), (5, 0))], O2)  # input deliberately misoriented
    assert gb.elements == (Binomial((5, 0), (0, 3)),)
    assert gb.reduced and gb.minimal
    assert gb.order == O2


def test_357_reduced_basis():
    # start from a redundant, shuffled generating set
    gens = [G357[2], G357[0], G357[1],
            Binomial((1, 2, 0), (2, 0, 1))]  # x1 * first generator
    gb = buchberger(gens, O3)
    assert gb.elements == (G357[0], G357[1], G357[2])
    assert set(gb.leads()) == {(0, 2, 0), (3, 1, 0), (4, 0, 0)}


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(31)
    gens = list(G357) + [Binomial((8, 0, 0), (0, 2, 2))]
    expect = buchberger(gens, O3).elements
    for _ in range(6):
        rng.shuffle(gens)
        assert buchberger(gens, O3).elements == expect


def test_reduced_basis_invariants():
    gb = buchberger(list(G357), O3)
    for i, b in enumerate(gb.elements):
        for j, other in enumerate(gb.elements):
            if i != j:
                assert not all(x <= y for x, y in zip(other.lead, b.lead))
                assert not all(x <= y for x, y in zip(other.lead, b.tail))


def test_buchberger_rejects_local_order():
    with pytest.raises(InputError):
        buchberger(list(G357), local3())


# ---------------------------------------------------------------------------
# is_groebner


def test_reduced_basis_passes_criterion():
    assert is_groebner(G357, O3)


def test_dropping_an_element_fails_criterion():
    assert not is_groebner(G357[:2], O3)   # an S-pair of the first two survives
    assert not is_groebner(G357[1:], O3)
    # dropping the middle element leaves a set that happens to be a basis of
    # the smaller ideal it generates: the criterion checks reduction, not span
    assert is_groebner((G357[0], G357[2]), O3)


def test_glued_union_criterion_depends_on_witness():
    # left x-block basis, right y-block basis, linking binomial x^b - y^a:
    # when the witness b keeps the link's lead coprime to the block leads the
    # union is already a basis; a witness overlapping a block lead breaks it
    y_and_link = (
        Binomial((0, 0, 0, 11, 0), (0, 0, 0, 0, 9)),  # y1^11 - y2^9
        Binomial((0, 0, 3, 0, 0), (0, 0, 0, 2, 1)),   # x3^3 - y1^2y2
    )
    union5 = tuple(Binomial(b.lead + (0, 0), b.tail + (0, 0)) for b in G357) + y_and_link
    assert is_groebner(union5, degrevlex(5))
    overlapping = union5[:4] + (Binomial((7, 0, 0, 0, 0), (0, 0, 0, 2, 1)),)
    assert not is_groebner(overlapping, degrevlex(5))
    union_57 = (
        Binomial((5, 0, 0, 0), (0, 3, 0, 0)),   # x1^5 - x2^3
        Binomial((0, 0, 12, 0), (0, 0, 0, 7)),  # y1^12 - y2^7
        Binomial((1, 1, 0, 0), (0, 0, 1, 1)),   # x1x2 - y1y2
    )
    assert not is_groebner(union_57, degrevlex(4))


# ---------------------------------------------------------------------------
# homogenization


def test_homogenize_ideal_worked():
    gb = buchberger([Binomial((5, 0), (0, 3))], O2)
    h = homogenize_ideal(gb)
    assert h.elements == (Binomial((5, 0, 0), (0, 3, 2)),)
    assert h.order.priority == (0, 1, 2) and h.order.homog_index == 2
    assert h.reduced and h.minimal


def test_homogenize_ideal_fixes_homogeneous_input():
    gb = buchberger([Binomial((0, 2, 0), (1, 0, 1))], O3)
    h = homogenize_ideal(gb)
    assert h.elements == (Binomial((0, 2, 0, 0), (1, 0, 1, 0)),)


def test_homogenize_ideal_rejects():
    gb = buchberger([Binomial((5, 0), (0, 3))], deglex(2))
    with pytest.raises(InputError):
        homogenize_ideal(gb)
    ok = buchberger([Binomial((5, 0), (0, 3))], O2)
    with pytest.raises(InputError):
        homogenize_ideal(ok, x0=0)
    with pytest.raises(InputError):
        homogenize_ideal(list(G357))


def test_homogenized_basis_recomputes_identically():
    # homogenizing the reduced basis equals running the engine from scratch
    # on the homogenized generators: the initial ideal does not move
    rng = random.Random(32)
    from sgring.semigroups import NumericalSemigroup
    from sgring.toric import toric_ideal
    from sgring.monomials import Order, homogenize

    for _ in range(12):
        while True:
            cand = sorted(rng.sample(range(3, 31), rng.randint(2, 4)))
            try:
                s = NumericalSemigroup(cand)
                break
            except InputError:
                continue
        e = s.embedding_dim
        gens = buchberger(toric_ideal(s).generators, degrevlex(e)).elements
        direct = homogenize_ideal(buchberger(gens, degrevlex(e)))
        ext = Order("degree", "revlex", tuple(range(e + 1)), homog_index=e)
        hgens = [homogenize(Binomial(b.lead + (0,), b.tail + (0,)), e) for b in gens]
        recomputed = buchberger(hgens, ext)
        assert direct.elements == recomputed.elements


# ---------------------------------------------------------------------------
# local orders / standard bases


def test_standard_basis_principal():
    sb = standard_basis_local([Binomial((5, 0), (0, 3))], negdegrevlex(2, priority=(1, 0)))
    assert sb.elements == (Binomial((0, 3), (5, 0)),)  # x2^3 leads locally
    assert sb.minimal and not sb.reduced


def test_standard_basis_357_avoids_smallest_variable():
    sb = standard_basis_local(G357, local3())
    assert len(sb.elements) == 3
    assert all(b.lead[0] == 0 for b in sb.elements)
    assert {b.lead for b in sb.elements} == {(0, 2, 0), (0, 0, 2), (0, 1, 1)}


def test_standard_basis_rejects_global_order():
    with pytest.raises(InputError):
        standard_basis_local(G357, O3)


def test_initial_forms_357():
    sb = standard_basis_local(G357, local3())
    forms = initial_forms_ideal(sb, local3())
    assert Binomial((0, 2, 0), (1, 0, 1)) in forms  # homogeneous: kept whole
    monos = {f for f in forms if not isinstance(f, Binomial)}
    assert monos == {(0, 0, 2), (0, 1, 1)}


def test_initial_forms_principal():
    lo = negdegrevlex(2, priority=(1, 0))
    assert initial_forms_ideal([Binomial((5, 0), (0, 3))], lo) == [(0, 3)]
    homog = [Binomial((1, 1), (2, 0))]
    assert initial_forms_ideal(homog, lo) == [Binomial((1, 1), (2, 0))]


def test_initial_forms_rejects_non_standard_basis():
    from sgring.semigroups import NumericalSemigroup
    from sgring.toric import toric_ideal

    s = NumericalSemigroup((105, 252, 119, 136))
    gens = toric_ideal(s).generators
    lo = negdegrevlex(4, priority=(3, 2, 1, 0))
    assert len(standard_basis_local(gens, lo).elements) > len(gens)
    with pytest.raises(InputError):
        initial_forms_ideal(gens, lo)
    with pytest.raises(InputError):
        initial_forms_ideal(gens, degrevlex(4))


# ---------------------------------------------------------------------------
# monomial quotient Hilbert function


def quotient_hilbert(leads, nvars, upto):
    """Hilbert function of (polynomial ring)/(monomial ideal), standard grading.

    Computed through the numerator recursion N(I + m) = N(I) - t^|m| N(I : m)
    against (1-t)^nvars.
    """
    if any(len(m) != nvars for m in leads):
        raise InputError("lead monomial does not match the variable count")

    def minimal(ms):
        ms = tuple(sorted(set(ms), key=total_degree))
        out = []
        for m in ms:
            if not any(divides(k, m) for k in out):
                out.append(m)
        return tuple(out)

    def numerator(ms):
        ms = minimal(ms)
        if not ms:
            return {0: 1}
        if any(not any(m) for m in ms):  # the unit monomial: whole ring
            return {}
        if len(ms) == 1:
            return {0: 1, total_degree(ms[0]): -1}
        pivot, rest = ms[0], ms[1:]
        left = numerator(rest)
        colon = tuple(tuple(max(c - p, 0) for c, p in zip(m, pivot)) for m in rest)
        right = numerator(colon)
        d = total_degree(pivot)
        out = dict(left)
        for k, v in right.items():
            out[k + d] = out.get(k + d, 0) - v
        return {k: v for k, v in out.items() if v}

    num = numerator(tuple(leads))
    return [sum(v * comb(n - k + nvars - 1, nvars - 1)
                for k, v in num.items() if k <= n)
            for n in range(upto + 1)]


def brute_quotient_hilbert(leads, nvars, upto):
    counts = [0] * (upto + 1)
    for m in product(range(upto + 1), repeat=nvars):
        d = sum(m)
        if d <= upto and not any(all(x >= y for x, y in zip(m, l)) for l in leads):
            counts[d] += 1
    return counts


def test_quotient_hilbert_fixture():
    # tangent-cone leads of <3,5,7>: the quotient counts 1,3,3,3,...
    assert quotient_hilbert([(0, 2, 0), (0, 0, 2), (0, 1, 1)], 3, 6) == [1, 3, 3, 3, 3, 3, 3]


def test_quotient_hilbert_edge_cases():
    assert quotient_hilbert([], 3, 4) == [1, 3, 6, 10, 15]
    assert quotient_hilbert([(0, 0, 0)], 3, 2) == [0, 0, 0]
    with pytest.raises(InputError):
        quotient_hilbert([(1, 0)], 3, 2)


def test_quotient_hilbert_matches_brute():
    rng = random.Random(33)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        leads = [tuple(rng.randint(0, 3) for _ in range(nvars))
                 for _ in range(rng.randint(1, 4))]
        leads = [l for l in leads if any(l)] or [(2,) * nvars]
        assert quotient_hilbert(leads, nvars, 7) == brute_quotient_hilbert(leads, nvars, 7)


def test_quotient_hilbert_matches_ord_counts():
    from sgring.semigroups import NumericalSemigroup
    from sgring.toric import toric_ideal

    rng = random.Random(34)
    for _ in range(8):
        while True:
            cand = sorted(rng.sample(range(3, 21), rng.randint(2, 3)))
            try:
                s = NumericalSemigroup(cand)
                break
            except InputError:
                continue
        e = s.embedding_dim
        lo = negdegrevlex(e, priority=tuple(range(e - 1, -1, -1)))
        sb = standard_basis_local(toric_ideal(s).generators, lo)
        forms = initial_forms_ideal(sb, lo)
        leads = [f.lead if isinstance(f, Binomial) else f for f in forms]
        upto = s.hilbert_stabilization() + 4
        assert quotient_hilbert(leads, e, upto) == s.hilbert_gr(upto)


# ---------------------------------------------------------------------------
# deadline plumbing


def test_deadline_cancels_long_run():
    gens = [Binomial((g, 0, 0, 0, 0), tuple(1 if i == j + 1 else 0 for i in range(5)))
            for j, g in enumerate((56, 57, 95, 96))]
    with pytest.raises(DeadlineExceeded):
        buchberger(gens, elimination_order(1, 5), Deadline(0.05))


def test_deadline_none_never_fires():
    d = Deadline(None)
    d.check()
    assert d.remaining is None
