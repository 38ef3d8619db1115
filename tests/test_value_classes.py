"""What the package's value classes promise: a repr in constructor form,
equality and hash by fields, and no assignment after construction.  The
constructors' messages are pinned beside their other tests:
`test_order_rejects_malformed_fields`, `test_binomial_ideal_validates` and
`test_table_validation`."""
import pytest

from sgring.affine import AffineSemigroup, ConditionReport, ExtensionSpec, GluingSpec
from sgring.cli import JobSpec, Report
from sgring.groebner import GroebnerBasis
from sgring.monomials import Binomial, BinomialIdeal, Order, degrevlex, elimination_order
from sgring.resolution import BettiTable, ResolutionSummary
from sgring.semigroups import NumericalSemigroup
from sgring.theorems import HypothesisCheck, TheoremReport
from sgring.verdicts import CrossCheck, Verdict

X2_Y = Binomial((2, 0), (0, 1))

# a builder per class and the repr its instance had while the classes were
# frozen dataclasses, less the fields deleted since (Order's tiebreak,
# GroebnerBasis's reduced and minimal, BettiTable's certified)
CASES = [
    (lambda: NumericalSemigroup((7, 3, 5)), "NumericalSemigroup(generators=(3, 5, 7))"),
    (lambda: AffineSemigroup([(3, 0), (5, 0), (0, 1)]),
     "AffineSemigroup(generators=((3, 0), (5, 0), (0, 1)), dim=2)"),
    (lambda: GluingSpec(NumericalSemigroup((3, 5)), NumericalSemigroup((7, 12)),
                        (1, 1), (1, 1)),
     "GluingSpec(left=NumericalSemigroup(generators=(3, 5)), "
     "right=NumericalSemigroup(generators=(7, 12)), b=(1, 1), a=(1, 1))"),
    (lambda: ExtensionSpec(NumericalSemigroup((3, 5)), 2, (2, 1)),
     "ExtensionSpec(base=AffineSemigroup(generators=((3,), (5,)), dim=1), l=2, u=(2, 1))"),
    (lambda: Order("degree", (0, 1, 2)),
     "Order(grading='degree', priority=(0, 1, 2), blocks=None)"),
    (lambda: elimination_order(1, 3),
     "Order(grading='degree', priority=(0, 1, 2), blocks=(1, 2))"),
    (lambda: BinomialIdeal(("x", "y"), (X2_Y,), ((1,), (2,))),
     "BinomialIdeal(variables=('x', 'y'), generators=(Binomial(lead=(2, 0), "
     "tail=(0, 1)),), degree_map=((1,), (2,)))"),
    (lambda: GroebnerBasis(degrevlex(2), (X2_Y,)),
     "GroebnerBasis(order=Order(grading='degree', priority=(0, 1), blocks=None), "
     "elements=(Binomial(lead=(2, 0), tail=(0, 1)),))"),
    (lambda: BettiTable(((0,), (6, 9)), 2),
     "BettiTable(rows=((0,), (6, 9)), nvars=2)"),
    (lambda: BettiTable((((0, 0),),), 2),
     "BettiTable(rows=(((0, 0),),), nvars=2)"),
    (lambda: ResolutionSummary(1, 1, 1, True, False),
     "ResolutionSummary(pd=1, depth=1, dim=1, cm=True, gorenstein=False)"),
    (lambda: AffineSemigroup([(3, 0), (5, 0), (0, 1)]).gap_set(),
     "GapScan(gaps=((1, 0), (2, 0), (4, 0), (7, 0)), finite=False, box=(12, 0))"),
    (lambda: ConditionReport("A", False, True, ("lead (5, 0) position 2: lcm(1,0)=1",), ()),
     "ConditionReport(name='A', holds=False, holds_zero_convention=True, "
     "violations=('lead (5, 0) position 2: lcm(1,0)=1',), violations_zero_convention=())"),
    (lambda: Verdict("x", True, "m", None, (CrossCheck("c", False, "n"),)),
     "Verdict(name='x', result=True, method='m', witness=None, "
     "cross_checks=(CrossCheck(name='c', result=False, note='n'),))"),
    (lambda: TheoremReport("t", "i", (HypothesisCheck("h", True),), True, False, ("n",)),
     "TheoremReport(theorem='t', instance='i', hypotheses_checked=(HypothesisCheck("
     "name='h', holds=True, note=''),), predicted=True, computed=False, notes=('n',))"),
    (lambda: JobSpec("numerical", ((3,), (5,)), {}),
     "JobSpec(type='numerical', generators=((3,), (5,)), params={})"),
    (lambda: Report(None, {}, {}, ["l"]),
     "Report(carrier=None, params={}, result={}, lines=['l'], conflict=False)"),
]
IDS = [r.split("(", 1)[0] for _, r in CASES]
# records holding a dict or a list, as they always did, have no hash
UNHASHABLE = (JobSpec, Report)


@pytest.mark.parametrize("build, text", CASES, ids=IDS)
def test_repr_is_unchanged(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values(build, text):
    one, other = build(), build()
    assert one is not other and one == other and not one != other
    if not isinstance(one, UNHASHABLE):
        assert hash(one) == hash(other)
        assert len({one, other}) == 1


@pytest.mark.parametrize("build, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(build, text):
    value = build()
    field = text.split("(", 1)[1].split("=", 1)[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.undeclared = 1
    assert getattr(value, field) is before


def test_values_of_different_classes_or_fields_differ():
    assert NumericalSemigroup((3, 5)) != NumericalSemigroup((3, 7))
    assert NumericalSemigroup((3, 5)) != AffineSemigroup([(3,), (5,)])
    assert Order("degree", (0, 1)) != Order("negdegree", (0, 1))
    assert Order("degree", (0, 1)) != Order("degree", (1, 0))
    assert Order("degree", (0, 1)) != ("degree", (0, 1), None)
    assert BettiTable(((0,), (6,)), 1) != BettiTable(((0,), (6,)), 2)

