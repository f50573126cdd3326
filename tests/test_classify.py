import random

import pytest

from copyposet.atoms import AtomRegistry
from copyposet.parser import parse_term
from copyposet.classify import classify_exponent, fundamental_description, instantiate
from copyposet.terms import (
    OMEGA, OrdinalError, add, cnf_base, cofinality, compare, from_atom, nat, pretty,
)
from conftest import make_atoms, random_positive_term


EXAMPLE_LABELS = [
    ("w_2+1", "A"), ("w_2+w", "A"), ("w_2*w + w_2", "B"),
    ("w_2*w_1 + w_2", "C"), ("w_2", "D"), ("w_2+w_2", "D"), ("w_2*w_2", "E"),
]


@pytest.mark.parametrize("text,label", EXAMPLE_LABELS)
def test_example_labels(registry, text, label):
    rep = classify_exponent(parse_term(text, registry))
    assert rep.label == label


def test_case_b_witnesses(registry):
    delta = parse_term("w_2*w + w_2", registry)
    rep = classify_exponent(delta)
    assert rep.theta == parse_term("w_2*w", registry)
    assert rep.lam == OMEGA
    assert add(rep.theta, rep.kappa) == delta
    # t(n) = w_2*(n+1), range w
    assert rep.schema.range_ == OMEGA
    w2 = from_atom(registry.lookup("w_2"))
    for n in range(4):
        from copyposet.terms import mul
        assert instantiate(rep.schema, n) == mul(w2, nat(n + 1))


def test_case_c_witnesses(registry):
    delta = parse_term("w_2*w_1 + w_2", registry)
    rep = classify_exponent(delta)
    assert rep.lam == from_atom(registry.lookup("w_1"))
    assert rep.theta == parse_term("w_2*w_1", registry)
    assert rep.schema.range_ == rep.lam
    for n in range(3):
        assert cofinality(instantiate(rep.schema, n)) == rep.kappa


def test_case_e_routes(registry):
    rep = classify_exponent(parse_term("w_1*w_1", registry))
    assert rep.label == "E" and rep.schema.route == "successor-step"
    rep2 = classify_exponent(parse_term("w_1^w_1", registry))
    assert rep2.label == "E" and rep2.schema.route == "power-limit"
    for n in range(3):
        assert cofinality(instantiate(rep2.schema, n)) == rep2.kappa


def test_case_b_with_singular_theta_is_symbolic(registry):
    # theta a singular atom of countable cofinality: no stored sequence
    registry.declare("nu", 60, singular=True)
    rep = classify_exponent(parse_term("nu + w_1", registry))
    assert rep.label == "B"
    assert rep.schema.symbolic_only
    assert "cofseq_nu" in rep.schema.expr
    with pytest.raises(OrdinalError):
        instantiate(rep.schema, 0)


def test_zero_rejected(registry):
    with pytest.raises(OrdinalError):
        classify_exponent(parse_term("0", registry))


def test_fundamental_examples(registry):
    s = fundamental_description(OMEGA)
    assert s.range_ == OMEGA and [instantiate(s, n) for n in range(3)] == [
        nat(0), nat(1), nat(2)]
    theta = parse_term("w_2*w", registry)
    s2 = fundamental_description(theta)
    assert s2.range_ == OMEGA
    assert [pretty(instantiate(s2, n)) for n in range(3)] == ["w_2", "w_2*2", "w_2*3"]
    s3 = fundamental_description(parse_term("w_2*w_2", registry))
    assert s3.range_ == from_atom(registry.lookup("w_2"))
    assert pretty(instantiate(s3, 0)) == "w_2"
    assert pretty(instantiate(s3, 1)) == "w_2*2"


def test_fundamental_rejects_non_limits(registry):
    with pytest.raises(OrdinalError):
        fundamental_description(nat(5))
    with pytest.raises(OrdinalError):
        fundamental_description(parse_term("w+1", registry))


def test_schema_expr_matches_builder(registry):
    # the displayed expression and the structural builder agree
    for text in ("w_2*w + w_2", "w_2*w_1 + w_2", "w_2*w_2", "w^(w+1)", "w^w"):
        delta = parse_term(text, registry)
        rep = classify_exponent(delta)
        schema = rep.schema if rep.schema is not None else (
            fundamental_description(delta) if delta.is_limit() else None)
        if schema is None or schema.symbolic_only:
            continue
        for n in range(3):
            env = {schema.var: nat(n)}
            assert parse_term(schema.expr, registry, env=env) == instantiate(schema, n)


def _random_exponents(count, seed):
    rng = random.Random(seed)
    registry = AtomRegistry()
    atoms = make_atoms(registry)
    return registry, [random_positive_term(rng, atoms) for _ in range(count)]


def test_exhaustive_and_exclusive_on_random_terms():
    registry, deltas = _random_exponents(300, 20240501)
    for delta in deltas:
        rep = classify_exponent(delta)  # verifies witnesses internally
        assert rep.label in "ABCDE"
        kappa = cofinality(delta)
        if compare(kappa, OMEGA) <= 0:
            assert rep.label == "A"
        else:
            assert rep.label in "BCDE"
        if rep.label in ("B", "C"):
            assert cofinality(rep.theta) == rep.lam


def test_base_kappa_cross_check():
    # E holds iff the base-kappa normal form ends with exponent >= 2 or of
    # cofinality kappa; the two classification paths must agree
    registry, deltas = _random_exponents(300, 998877)
    two = nat(2)
    for delta in deltas:
        kappa = cofinality(delta)
        if compare(kappa, OMEGA) <= 0:
            continue
        rep = classify_exponent(delta)
        base = kappa.summands[0][0]
        b = cnf_base(delta, base)
        assert b.remainder.is_zero()
        xi1 = b.digits[-1][0]
        e_by_base = compare(xi1, two) >= 0 or cofinality(xi1) == kappa
        assert (rep.label == "E") == e_by_base


def test_schemas_increase_and_stay_below():
    registry, deltas = _random_exponents(200, 31415)
    for delta in deltas:
        if not delta.is_limit():
            continue
        s = fundamental_description(delta)
        if s.symbolic_only:
            continue
        rep = classify_exponent(delta)
        bound = delta if rep.label in ("A", "E") else None
        samples = [instantiate(s, n) for n in range(4)]
        for i in range(1, 4):
            assert compare(samples[i - 1], samples[i]) < 0
        if bound is not None:
            for t in samples:
                assert compare(t, bound) < 0
