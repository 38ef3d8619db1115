import itertools
import random
from functools import cmp_to_key, partial

import pytest

from sgring.errors import InputError
from sgring.groebner import GroebnerBasis, homogenize_ideal
from sgring.monomials import (
    Binomial,
    Order,
    degrevlex,
    divides,
    elimination_order,
    format_binomial,
    homogenize,
    lcm_monomial,
    negdegrevlex,
    oriented,
    quotient,
    s_pair,
)
from sgring.theorems import _local_block_order
from lazard_oracle import EQ, GT, LT, compare, dehomogenize, lazard_compare, lazard_order


def vec_sub(u, v):
    """Componentwise difference; raises if any entry would go negative."""
    out = tuple(a - b for a, b in zip(u, v, strict=True))
    if any(c < 0 for c in out):
        raise InputError(f"difference {u} - {v} leaves N^d")
    return out


def monomials_upto(nvars, maxdeg):
    out = []
    for m in itertools.product(range(maxdeg + 1), repeat=nvars):
        if sum(m) <= maxdeg:
            out.append(m)
    return out


def check_order_axioms(cmp, nvars, mons, rng):
    zero = (0,) * nvars
    for m1 in mons:
        assert cmp(m1, m1) == EQ
        for m2 in mons:
            c = cmp(m1, m2)
            assert c in (LT, EQ, GT)
            assert c == -cmp(m2, m1)
            assert (c == EQ) == (m1 == m2)
            # compatibility with multiplication
            for shift in ((1,) + zero[1:], zero[:-1] + (2,)):
                m1s = tuple(a + b for a, b in zip(m1, shift))
                m2s = tuple(a + b for a, b in zip(m2, shift))
                assert cmp(m1s, m2s) == c
    # transitivity on random triples
    for _ in range(3000):
        a, b, c = rng.choice(mons), rng.choice(mons), rng.choice(mons)
        if cmp(a, b) != LT and cmp(b, c) != LT:
            assert cmp(a, c) != LT


def _lazard(n):
    # the test oracle's Lazard order: the last variable balances, the others
    # follow negative-degree revlex
    return partial(lazard_compare, Order("negdegree", tuple(range(n - 1))))


def _y_first(n):
    # `theorems.verify_glued_basis_homogeneous` checks the closure of a
    # gluing of e1 + e2 = n - 1 variables under degrevlex(n), x block first,
    # and under this order, y block first; x0 sits lowest in both
    e1 = n // 2
    return degrevlex(n, tuple(range(e1, n - 1)) + tuple(range(e1)) + (n - 1,))


def _homogenized(n):
    # the order `homogenize_ideal` extends a basis on n - 1 variables to
    return homogenize_ideal(GroebnerBasis(degrevlex(n - 1, tuple(reversed(range(n - 1)))),
                                          ())).order


# the Order values of test_global_order_axioms, by number of variables
GLOBAL_ORDERS = [
    lambda n: Order("degree", tuple(range(n))),
    lambda n: Order("degree", tuple(reversed(range(n)))),
    lambda n: Order("degree", tuple(range(n)), blocks=(1, n - 1)),
    lambda n: degrevlex(n),   # the x-block-first order of a gluing
    _y_first,
    _homogenized,
]


def _compared_under(make):
    return lambda n: partial(compare, make(n))


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("make", [*map(_compared_under, GLOBAL_ORDERS), lambda n: _lazard(n)])
def test_global_order_axioms(nvars, make):
    cmp = make(nvars)
    mons = monomials_upto(nvars, 4 if nvars < 4 else 3)
    check_order_axioms(cmp, nvars, mons, random.Random(7))
    # 1 is minimal: every order here is degree-graded
    zero = (0,) * nvars
    for m in mons:
        if m != zero:
            assert cmp(m, zero) == GT


def _reference_chunk(grading, chunk, m1, m2):
    d1 = sum(m1[i] for i in chunk)
    d2 = sum(m2[i] for i in chunk)
    if d1 != d2:
        bigger_wins = grading == "degree"
        return (GT if d1 > d2 else LT) if bigger_wins else (LT if d1 > d2 else GT)
    # revlex: last nonzero entry of the difference, read highest-to-lowest
    # priority, negative => m1 greater.
    for i in reversed(chunk):
        d = m1[i] - m2[i]
        if d:
            return GT if d < 0 else LT
    return EQ


def reference_compare(order, m1, m2):
    """The order read pair by pair, block by block, as the package did before
    `Order.key`: the reference the keys are checked against."""
    pos = 0
    for size in order.blocks or (order.nvars,):
        c = _reference_chunk(order.grading, order.priority[pos:pos + size], m1, m2)
        if c:
            return c
        pos += size
    return EQ


KEYED_ORDERS = GLOBAL_ORDERS + [
    lambda n: negdegrevlex(n),
    lambda n: negdegrevlex(n, priority=tuple(range(1, n)) + (0,)),
    lambda n: elimination_order(1, n),
    lambda n: elimination_order(n - 1, n),
    lambda n: lazard_order(negdegrevlex(n - 1, priority=tuple(reversed(range(n - 1))))),
    # the tangent-cone orders of a gluing, with either factor lowest
    lambda n: _local_block_order(n // 2, n - n // 2, True),
    lambda n: _local_block_order(n // 2, n - n // 2, False),
    # one variable, whose key reads a 1-tuple; the same order for every nvars
    lambda n: degrevlex(1),
]


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("make", KEYED_ORDERS)
def test_key_matches_reference_compare(nvars, make):
    order = make(nvars)
    nvars = order.nvars
    mons = monomials_upto(nvars, 4)
    for m1 in mons:
        for m2 in mons:
            assert compare(order, m1, m2) == reference_compare(order, m1, m2), (m1, m2)
    shuffled = random.Random(3).sample(mons, len(mons))
    expected = sorted(shuffled, key=cmp_to_key(partial(reference_compare, order)))
    assert sorted(shuffled, key=order.key) == expected
    with pytest.raises(InputError):
        order.key((0,) * (nvars + 1))


@pytest.mark.parametrize("fields, message", [
    (("weighted", (0, 1)), "unknown grading 'weighted'"),
    (("none", (0, 1)), "unknown grading 'none'"),
    (("degree", (0, 2)), "priority must be a permutation of variable indices"),
    (("degree", (0, 1), (1, 2)), "block sizes must cover the priority list"),
])
def test_order_rejects_malformed_fields(fields, message):
    with pytest.raises(InputError) as exc:
        Order(*fields)
    assert str(exc.value) == message


def test_lazard_oracle_order_on_equal_degrees():
    # the oracle's global block order agrees with the Lazard comparison on
    # monomials of one total degree, the only ones homogenized input compares
    local = negdegrevlex(3, priority=(2, 1, 0))
    block = lazard_order(local)
    mons = monomials_upto(4, 4)
    for m1 in mons:
        for m2 in mons:
            if sum(m1) == sum(m2):
                assert compare(block, m1, m2) == lazard_compare(local, m1, m2)


def test_local_order_prefers_lower_degree():
    # negdegrevlex with x2 > x1: degree 3 beats degree 2 by being SMALLER.
    order = negdegrevlex(2, priority=(1, 0))
    assert compare(order, (3, 0), (0, 2)) == LT
    # 1 is maximal for a local order.
    for m in monomials_upto(2, 4):
        if m != (0, 0):
            assert compare(order, (0, 0), m) == GT


def test_revlex_tiebreak_definition():
    # Rule: last nonzero entry of the difference, read in priority order
    # highest to lowest, negative => first argument greater.
    order = degrevlex(3)
    mons = monomials_upto(3, 4)
    for m1 in mons:
        for m2 in mons:
            if sum(m1) != sum(m2) or m1 == m2:
                continue
            diff = [m1[i] - m2[i] for i in order.priority]
            last = next(d for d in reversed(diff) if d)
            expected = GT if last < 0 else LT
            assert compare(order, m1, m2) == expected


def test_degrevlex_worked_example():
    # x2^2 vs x1*x3 under degrevlex x1 > x2 > x3
    assert compare(degrevlex(3), (0, 2, 0), (1, 0, 1)) == GT


def test_elimination_block_order():
    order = elimination_order(1, 3)
    # anything containing the eliminated variable beats anything without it
    assert compare(order, (1, 0, 0), (0, 5, 5)) == GT
    assert compare(order, (0, 5, 5), (2, 0, 0)) == LT
    # ties inside the first block fall through to the second block
    assert compare(order, (1, 2, 0), (1, 0, 1)) == GT


def test_lcm_divides_quotient():
    assert lcm_monomial((2, 1, 0), (1, 0, 1)) == (2, 1, 1)
    assert divides((1, 0, 0), (2, 1, 0))
    assert not divides((1, 2, 0), (2, 1, 0))
    with pytest.raises(ValueError):
        divides((1, 0), (1, 0, 0))   # a prefix must not pass for a divisor
    assert quotient((2, 1, 0), (1, 0, 0)) == (1, 1, 0)
    with pytest.raises(InputError):
        quotient((1, 0, 0), (0, 1, 0))
    with pytest.raises(InputError):
        vec_sub((1, 0), (0, 2))


def test_s_pair_worked_example():
    order = degrevlex(3)
    f = Binomial((0, 2, 0), (1, 0, 1))  # x2^2 - x1*x3
    g = Binomial((4, 0, 0), (0, 1, 1))  # x1^4 - x2*x3
    s = s_pair(f, g, order)
    assert s == Binomial((5, 0, 1), (0, 3, 1))  # x1^5*x3 - x2^3*x3


def test_s_pair_self_and_pure_difference():
    order = degrevlex(3)
    f = Binomial((0, 2, 0), (1, 0, 1))
    assert s_pair(f, f, order) is None
    rng = random.Random(11)
    mons = monomials_upto(3, 5)
    for _ in range(300):
        a, b, c, d = (rng.choice(mons) for _ in range(4))
        f = oriented(a, b, order)
        g = oriented(c, d, order)
        if f is None or g is None:
            continue
        s = s_pair(f, g, order)
        if s is not None:
            assert s.lead != s.tail
            assert compare(order, s.lead, s.tail) == GT


def test_homogenize_examples():
    # x1^5 - x2^3 over (x1, x2, x0) -> x1^5 - x0^2*x2^3
    b = Binomial((5, 0, 0), (0, 3, 0))
    h = homogenize(b, x0=2)
    assert h == Binomial((5, 0, 0), (0, 3, 2))
    assert dehomogenize(h, x0=2) == b
    # already homogeneous: unchanged
    hom = Binomial((0, 2, 0), (1, 1, 0))
    assert homogenize(hom, x0=2) == hom
    # x0 already used
    with pytest.raises(InputError):
        homogenize(h, x0=2)
    # x^b - y^a with sum(b) > sum(a) pads the tail: here b=(2,3), a=(2,1)
    rho = Binomial((2, 3, 0, 0, 0), (0, 0, 2, 1, 0))
    assert homogenize(rho, x0=4) == Binomial((2, 3, 0, 0, 0), (0, 0, 2, 1, 2))


def test_homogenize_dehomogenize_roundtrip():
    rng = random.Random(3)
    mons = monomials_upto(3, 6)
    for _ in range(300):
        lead, tail = rng.choice(mons), rng.choice(mons)
        if lead == tail:
            continue
        b = Binomial(lead + (0,), tail + (0,))
        h = homogenize(b, x0=3)
        assert sum(h.lead) == sum(h.tail)
        assert dehomogenize(h, x0=3) == b
        # homogenize after dehomogenize is the identity on homogeneous inputs
        assert homogenize(dehomogenize(h, x0=3), x0=3) == h


def test_format():
    names = ("x1", "x2", "x3")
    assert format_binomial(Binomial((0, 2, 0), (1, 0, 1)), names) == "x2^2 - x1*x3"
    assert format_binomial(None, names) == "0"
    assert format_binomial(Binomial((0, 0, 1), (0, 0, 0)), names) == "x3 - 1"
