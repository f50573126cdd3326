import random

import pytest
from hypothesis import given, settings, strategies as st

from copyposet.atoms import AtomRegistry
from copyposet.cardinals import HypothesisError, parse_cardinal_expr
from copyposet.parser import MAX_NESTING, MAX_NUMERAL_DIGITS, ParseError, parse_term
from copyposet.terms import OMEGA, ONE, add, from_atom, mul, nat, power, pretty
from conftest import make_atoms, random_term


def test_simple_normal_form(registry):
    t = parse_term("w^3*2 + 5", registry)
    assert t.summands == ((nat(3), 2),)
    assert t.tail == 5


def test_atom_product_normalizes(registry):
    t = parse_term("w_2*w + w_2", registry)
    w2 = from_atom(registry.lookup("w_2"))
    assert t == add(mul(w2, OMEGA), w2)
    assert t.summands[0][0] == add(w2, ONE)


def test_syntax_error_position(registry):
    with pytest.raises(ParseError) as exc:
        parse_term("w^", registry)
    assert exc.value.position == 2


def test_undeclared_atom(registry):
    with pytest.raises(ParseError, match="undeclared"):
        parse_term("w^zeta", registry)


def test_precedence_and_associativity(registry):
    assert parse_term("w+w*2", registry) == add(OMEGA, mul(OMEGA, nat(2)))
    assert parse_term("w^w^2", registry) == power(OMEGA, power(OMEGA, nat(2)))
    assert parse_term("(w+1)*2", registry) == mul(add(OMEGA, ONE), nat(2))


def test_preamble_declares_atoms(registry):
    t = parse_term("card mu rank 9 singular cf w; w^mu + mu", registry)
    mu = registry.lookup("mu")
    assert mu is not None and mu.singular
    assert t == mul(from_atom(mu), nat(2))  # w^mu = mu, so the sum is mu*2


def test_preamble_regular_atom(registry):
    parse_term("card theta rank 11; theta", registry)
    assert registry.lookup("theta").regular


def test_variable_environment(registry):
    env = {"i": nat(3)}
    assert parse_term("w_2*(i+1)", registry, env=env) == mul(
        from_atom(registry.lookup("w_2")), nat(4))


def test_trailing_input(registry):
    with pytest.raises(ParseError, match="trailing"):
        parse_term("w 3", registry)
    with pytest.raises(ParseError, match="trailing"):
        parse_term("w_2 >= w_1", registry)


def test_numeral_length_bound(registry):
    longest = "9" * MAX_NUMERAL_DIGITS
    assert parse_term(longest, registry) == nat(int(longest))
    with pytest.raises(ParseError, match="numeral longer than") as exc:
        parse_term("w + " + longest + "9", registry)
    assert exc.value.position == 4


def test_nesting_bound(registry):
    deepest = "(" * MAX_NESTING + "w" + ")" * MAX_NESTING
    assert parse_term(deepest, registry) == OMEGA
    tower = "^".join(["w"] * (MAX_NESTING + 1))
    assert pretty(parse_term(tower, registry)) == tower
    for text in ("(" + deepest + ")", tower + "^w"):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_term(text, registry)
    assert parse_cardinal_expr("cf(" * MAX_NESTING + "c" + ")" * MAX_NESTING, registry)
    for text in ("cf(" * (MAX_NESTING + 1) + "c" + ")" * (MAX_NESTING + 1),
                 "2^" * (MAX_NESTING + 1) + "w_1", "w_1^" * (MAX_NESTING + 1) + "w"):
        with pytest.raises(HypothesisError, match="nested deeper than"):
            parse_cardinal_expr(text, registry)


def test_w0_rejected(registry):
    with pytest.raises(ParseError, match="undeclared"):
        parse_term("w_0", registry)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_pretty_parse_roundtrip(seed):
    rng = random.Random(seed)
    registry = AtomRegistry()
    t = random_term(rng, make_atoms(registry), 4)
    assert parse_term(pretty(t), registry) == t
