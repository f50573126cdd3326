import pytest

from copyposet.parser import parse_term
from copyposet.terms import OrdinalError, nat
from copyposet.forcing import (
    factorize, render_poset, rp_refine, poset_to_obj,
)
from copyposet.catalog import rule_lookup, rule_table


def test_factorize_example(registry):
    alpha = parse_term("w^(w_2)*2 + w^3 + 5", registry)
    p = factorize(alpha)
    assert p.kind == "prod"
    (f1, m1), (f2, m2) = p.operands
    assert (m1, m2) == (2, 1)
    assert render_poset(f1) == "sq(P(w_2))"
    assert render_poset(f2) == "sq(P(w^3))"


def test_factorize_drops_tail_and_unwraps(registry):
    p = factorize(parse_term("w + 3", registry))
    assert p.kind == "sq"
    assert render_poset(p) == "sq(P(w))"


def test_factorize_rejects_finite(registry):
    with pytest.raises(OrdinalError):
        factorize(nat(5))


def test_rp_refine(registry):
    delta = parse_term("w_1", registry)
    p0 = rp_refine(delta, 0)
    assert p0.kind == "pos" and p0.operands[0].kind == "quot"
    p2 = rp_refine(delta, 2)
    assert p2.operands[0].kind == "rp" and p2.operands[0].operands[0] == 2
    assert "rp^2" in render_poset(p2)
    # the countable case: sq P(w^(w+1)) through one reduced power of P(w^w)/I
    p1 = rp_refine(parse_term("w", registry), 1)
    assert render_poset(p1) == "(rp^1(P(w^(w))/I))+"
    with pytest.raises(OrdinalError):
        rp_refine(nat(0), 1)


def test_rule_table_lookups():
    t52 = rule_lookup("T5.2")
    assert t52 is not None
    assert "D or E" in t52.premises
    assert "Col(w, 2^|delta|)" in t52.conclusion
    t47a = rule_lookup("T4.7A")
    assert "sigma-closed" in t47a.conclusion and "CP(w)" in t47a.conclusion
    assert rule_lookup("bogus") is None
    ids = [r.id for r in rule_table()]
    assert len(ids) == len(set(ids))
    for required in ("T1.1a", "T4.6", "T4.9a", "T4.9b", "T4.10", "T5.4", "T5.6",
                     "T5.8", "F2.5", "F2.6b", "F2.6c", "F2.6d", "F2.6e", "F5.1",
                     "F5.5a", "F5.5b", "F5.5c", "Ex5.3"):
        assert required in ids


def test_poset_json_has_pretty(registry):
    alpha = parse_term("w^(w_1)*3", registry)
    obj = poset_to_obj(factorize(alpha))
    assert obj["pretty"].startswith("sq(P(w_1))^3")
    assert obj["factors"][0][1] == 3
