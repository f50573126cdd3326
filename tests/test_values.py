"""Value semantics of the immutable value classes (``copyposet.values.Value``):
equality and hashing by class and field values (by identity for the hash-consed
``PosetExpr``), refused assignment, and copy and pickle round trips, on values built
the way the program builds them."""
import copy
import pickle

import pytest

from copyposet import rules
from copyposet.atoms import AtomRegistry, CardinalAtom
from copyposet.cardexpr import Hypothesis, parse_cardinal_expr, parse_hypothesis_line
from copyposet.catalog import RuleInfo, rule_lookup
from copyposet.classify import CaseReport, SequenceSchema, classify_exponent, instantiate
from copyposet.finsets import CriterionReport, FinPresSet, criterion_report, from_obj
from copyposet.forcing import ForcingFact, PosetExpr, Step, factorize
from copyposet.parser import Token, parse_term, tokenize
from copyposet.rules import AnalysisReport, analyze
from copyposet.terms import (
    OMEGA, BaseCNF, CardinalityValue, OrdinalTerm, cardinality, cnf_base,
)


def _registry() -> AtomRegistry:
    reg = AtomRegistry()
    reg.declare("nu", 40)
    reg.declare("mu", 50, singular=True, cofinality="nu")
    return reg


def _term(text="w^(w_2*w_1 + mu)*3 + w^5 + 2"):
    return parse_term(text, _registry())


def _report() -> AnalysisReport:
    """A report run from scratch: no closure or analysis kept by an earlier call."""
    rules._CLOSURES.clear()
    rules._ANALYSES.clear()
    reg = AtomRegistry()
    hyps = [parse_hypothesis_line("2^w_1 = w_2", reg)]
    return analyze(parse_term("w^(w_1+1)", reg), hyps, reg)


_SET = {"prefix": [], "tail": [{"prefix": "01", "period": "10"}]}

# each factory builds its value from scratch, so two calls give equal values, distinct
# but for the hash-consed PosetExpr
VALUES = {
    "CardinalAtom": lambda: _registry().lookup("mu"),
    "OrdinalTerm": _term,
    "CardinalityValue": lambda: cardinality(_term()),
    "BaseCNF": lambda: cnf_base(_term(), _registry().lookup("w_1")),
    "Token": lambda: tokenize("w_1 + 22")[2],
    "SequenceSchema": lambda: SequenceSchema("n", OMEGA, "w^n", route="omega"),
    "CaseReport": lambda: CaseReport(
        "B", _term("w_1"), theta=_term("w_1"),
        schema=SequenceSchema("xi", _term("w_1"), "w_1 + xi", symbolic_only=True)),
    "Hypothesis": lambda: parse_hypothesis_line("(2^mu)^w <= succ(nu)", _registry()),
    "PosetExpr": lambda: factorize(_term()),
    "Step": lambda: _report().ro_conclusion.trace[0],
    "ForcingFact": lambda: _report().ro_conclusion,
    "RuleInfo": lambda: RuleInfo(*rule_lookup("T5.2")._values()),
    "AnalysisReport": _report,
    "FinPresSet": lambda: from_obj(_SET),
    "CriterionReport": lambda: criterion_report(from_obj(_SET)),
}
CLASSES = {cls.__name__: cls for cls in (
    CardinalAtom, OrdinalTerm, CardinalityValue, BaseCNF, Token, SequenceSchema,
    CaseReport, Hypothesis, PosetExpr, Step, ForcingFact, RuleInfo,
    AnalysisReport, FinPresSet, CriterionReport)}
FROZEN = sorted(set(VALUES) - {"AnalysisReport"})
# the hash of each class that does not hash its value's fields
HASHES = {"PosetExpr": object.__hash__,
          "ForcingFact": lambda f: hash((f.kind, f.operands, f.resolved))}


def test_every_value_class_is_covered():
    assert set(VALUES) == set(CLASSES)
    for name, make in VALUES.items():
        assert type(make()) is CLASSES[name]


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_equal_values(name):
    a, b = VALUES[name](), VALUES[name]()
    assert (a is b) == (name == "PosetExpr")
    assert a == b and not a != b
    if name in FROZEN:
        assert hash(a) == hash(b) == HASHES.get(name, lambda v: hash(v._values()))(a)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_another_class_with_the_same_fields_is_unequal(name):
    a = VALUES[name]()
    twin_class = type("Twin", (type(a),), {"__slots__": ()})
    twin = twin_class(*a._values())
    assert twin._values() == a._values()
    assert a != twin and twin != a
    assert a != a._values() and a != list(a._values())


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment(name):
    a = VALUES[name]()
    for field in type(a).__slots__:
        old = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, old)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is old
    with pytest.raises(AttributeError):
        a.extra = 1


def test_analysis_report_is_mutable_and_unhashable():
    report = _report()
    with pytest.raises(TypeError):
        hash(report)
    other = _report()
    other.blocked = other.blocked + ["one more"]
    assert other.blocked[-1] == "one more" and report != other


@pytest.mark.parametrize("name", sorted(VALUES))
def test_copy_and_pickle_round_trips(name):
    a = VALUES[name]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is type(a) and back == a
    for copied in (copy.copy(a), copy.deepcopy(a)):
        assert type(copied) is type(a) and copied == a
    if name in FROZEN:
        assert hash(copy.deepcopy(a)) == hash(a)


def test_sequence_schema_build_function_is_outside_the_value():
    schema = classify_exponent(parse_term("w_2*w_1 + w_2", AtomRegistry())).schema
    assert schema._build is not None
    bare = SequenceSchema(*schema._values())
    assert bare == schema and hash(bare) == hash(schema)
    assert "_build" not in repr(schema)
    copied = copy.deepcopy(schema)
    assert instantiate(copied, 3) == instantiate(schema, 3)


def test_pickled_cardinal_expression_comes_back_interned():
    """Unpickling rebuilds the atoms as new, equal CardinalAtoms; interning then
    returns the live expression itself."""
    reg = _registry()
    for text in ("(2^mu)^w", "cc(CP(nu))", "2^<mu", "w_3"):
        e = parse_cardinal_expr(text, reg)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(e, protocol)) is e
        assert copy.deepcopy(e) is e
    hyp = parse_hypothesis_line("mu^w = 2^mu", reg)
    back = pickle.loads(pickle.dumps(hyp))
    assert back == hyp and back.lhs is hyp.lhs and back.rhs is hyp.rhs


def test_value_repr_names_class_and_fields():
    assert repr(RuleInfo("X", "p", "q")) == "RuleInfo('X', 'p', 'q')"
    assert repr(_registry().lookup("nu")) == "CardinalAtom('nu')"
