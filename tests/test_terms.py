import random

import pytest
from hypothesis import given, settings, strategies as st

from copyposet.atoms import AtomRegistry
from copyposet.terms import (
    MAX_NUMERAL_DIGITS, MAX_SUMMANDS, OMEGA, ONE, ZERO, OrdinalError, add, cardinality,
    cnf_base, cofinality, compare, from_atom, is_indecomposable, mul, nat, power,
    term_to_obj,
)
from conftest import make_atoms, random_term
from termcheck import check_canonical, recompose, term_from_obj


@st.composite
def terms(draw, depth: int = 4):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    registry = AtomRegistry()
    return random_term(rng, make_atoms(registry), depth)


def _w(k: int, registry: AtomRegistry):
    return from_atom(registry.lookup(f"w_{k}"))


class TestExamples:
    def test_absorption(self):
        assert add(ONE, OMEGA) == OMEGA

    def test_atom_product_is_power_sum(self, registry):
        w2, w1 = _w(2, registry), _w(1, registry)
        prod = mul(w2, w1)
        assert len(prod.summands) == 1
        assert prod.summands[0][0] == add(w2, w1)

    def test_finite_power_of_omega(self):
        assert power(nat(2), OMEGA) == OMEGA

    def test_successor_times_omega(self):
        assert mul(add(OMEGA, ONE), OMEGA) == power(OMEGA, nat(2))

    def test_power_zero_zero(self):
        assert power(ZERO, ZERO) == ONE

    def test_compare_fixpoint(self, registry):
        w1 = _w(1, registry)
        assert compare(power(OMEGA, w1), w1) == 0

    def test_compare_tail_vs_coefficient(self, registry):
        w1 = _w(1, registry)
        assert compare(add(w1, OMEGA), mul(w1, nat(2))) < 0

    def test_compare_small(self):
        assert compare(add(mul(OMEGA, nat(2)), ONE), power(OMEGA, nat(2))) < 0


class TestCofinality:
    def test_zero_and_successor(self):
        assert cofinality(ZERO) == ZERO
        assert cofinality(nat(7)) == ONE
        assert cofinality(add(OMEGA, ONE)) == ONE

    def test_power_of_successor_exponent(self):
        assert cofinality(power(OMEGA, add(OMEGA, ONE))) == OMEGA

    def test_kappa_sum(self, registry):
        w2 = _w(2, registry)
        delta = add(mul(w2, OMEGA), w2)
        assert cofinality(delta) == w2

    def test_product_of_atoms(self, registry):
        # frozen from the recursion; cross-checked by the classifier witness suite
        w2, w1 = _w(2, registry), _w(1, registry)
        assert cofinality(mul(w2, w1)) == w1

    def test_singular_atom(self, registry):
        mu = registry.declare("mu", 50, singular=True)
        assert cofinality(from_atom(mu)) == OMEGA
        nu = registry.declare("nu", 60, singular=True, cofinality="w_1")
        assert cofinality(from_atom(nu)) == _w(1, registry)

    @settings(max_examples=150)
    @given(terms())
    def test_cofinality_idempotent_on_limits(self, t):
        if t.is_limit():
            c = cofinality(t)
            assert cofinality(c) == c


class TestCardinality:
    def test_examples(self, registry):
        w2, w1 = _w(2, registry), _w(1, registry)
        assert str(cardinality(power(OMEGA, OMEGA))) == "aleph0"
        assert cardinality(power(OMEGA, add(w2, w1))).atom.name == "w_2"
        assert cardinality(nat(7)).n == 7

    @settings(max_examples=150)
    @given(terms(), terms())
    def test_monotone(self, a, b):
        if compare(a, b) <= 0:
            assert _card_key(cardinality(a)) <= _card_key(cardinality(b))


def _card_key(cv) -> tuple:
    """Cardinalities in increasing order: naturals, then aleph0, then atoms by rank."""
    if cv.kind == "finite":
        return (0, cv.n)
    return (1, 0) if cv.kind == "aleph0" else (2, cv.atom.rank)


class TestBaseCNF:
    def test_base_itself(self, registry):
        w2 = registry.lookup("w_2")
        b = cnf_base(from_atom(w2), w2)
        assert b.digits == ((ONE, ONE),)
        assert b.remainder == ZERO

    def test_mixed_digit(self, registry):
        # frozen via the recomposition oracle
        w2 = registry.lookup("w_2")
        t = add(mul(from_atom(w2), OMEGA), from_atom(w2))
        b = cnf_base(t, w2)
        assert b.digits == ((ONE, add(OMEGA, ONE)),)
        assert b.remainder == ZERO
        assert recompose(b) == t

    def test_below_base(self, registry):
        w2 = registry.lookup("w_2")
        t = add(add(mul(power(OMEGA, nat(3)), nat(2)), OMEGA), nat(4))
        b = cnf_base(t, w2)
        assert b.digits == ()
        assert b.remainder == t

    @settings(max_examples=200)
    @given(terms(), st.integers(1, 3))
    def test_recompose_random(self, t, k):
        registry = AtomRegistry()
        base = registry.lookup(f"w_{k}")
        b = cnf_base(t, base)
        assert recompose(b) == t
        base_ord = from_atom(base)
        prev = None
        for xi, zeta in b.digits:
            assert not zeta.is_zero() and compare(zeta, base_ord) < 0
            if prev is not None:
                assert compare(xi, prev) < 0
            prev = xi
        assert compare(b.remainder, base_ord) < 0


class TestIndecomposable:
    def test_examples(self, registry):
        assert is_indecomposable(power(OMEGA, _w(1, registry)))
        assert not is_indecomposable(mul(power(OMEGA, nat(2)), nat(2)))
        assert not is_indecomposable(ONE)


class TestAlgebraicLaws:
    @settings(max_examples=200)
    @given(terms(), terms(), terms())
    def test_add_mul_assoc_distrib(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @settings(max_examples=100)
    @given(terms(depth=3), terms(depth=2), terms(depth=2))
    def test_exponent_laws(self, a, b, c):
        assert power(a, add(b, c)) == mul(power(a, b), power(a, c))
        assert power(power(a, b), c) == power(a, mul(b, c))

    @settings(max_examples=200)
    @given(terms(), terms(), terms())
    def test_units_and_monotonicity(self, a, b, c):
        assert add(a, ZERO) == a
        assert mul(a, ONE) == a
        if compare(b, c) < 0:
            assert compare(add(a, b), add(a, c)) < 0

    @settings(max_examples=200)
    @given(terms(), terms(), terms())
    def test_compare_total_order(self, a, b, c):
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0

    @settings(max_examples=200)
    @given(terms())
    def test_canonical(self, t):
        check_canonical(t)


class TestSerialization:
    @settings(max_examples=150)
    @given(terms())
    def test_json_roundtrip(self, t):
        registry = AtomRegistry()
        make_atoms(registry)
        assert term_from_obj(term_to_obj(t), registry) == t

    def test_negative_nat(self):
        with pytest.raises(OrdinalError):
            nat(-1)


class TestSizeLimits:
    def test_natural_digits(self):
        largest = nat(10 ** MAX_NUMERAL_DIGITS - 1)
        top = 10 ** (MAX_NUMERAL_DIGITS - 1)
        assert power(nat(10), nat(MAX_NUMERAL_DIGITS - 1)) == nat(top)
        assert mul(largest, ONE) == largest
        for make in (lambda: add(largest, ONE),  # a tail
                     lambda: add(mul(OMEGA, largest), OMEGA),  # a coefficient
                     lambda: mul(largest, nat(2)),
                     lambda: power(nat(10), nat(MAX_NUMERAL_DIGITS)),
                     lambda: power(nat(2), add(OMEGA, nat(4 * MAX_NUMERAL_DIGITS))),
                     lambda: power(nat(9), power(nat(9), nat(9)))):
            with pytest.raises(OrdinalError, match="digits"):
                make()

    def test_summands_of_a_power(self):
        w_plus_1 = add(OMEGA, ONE)
        assert len(power(w_plus_1, nat(MAX_SUMMANDS)).summands) == MAX_SUMMANDS
        # without a finite tail the power keeps the base's summand count
        assert len(power(OMEGA, nat(10 ** 50)).summands) == 1
        for exponent in (nat(MAX_SUMMANDS + 1), add(OMEGA, nat(99999999999))):
            with pytest.raises(OrdinalError, match="summands"):
                power(w_plus_1, exponent)
        with pytest.raises(OrdinalError, match="summands"):
            mul(power(w_plus_1, nat(MAX_SUMMANDS)), w_plus_1)
