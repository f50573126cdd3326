"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import json
import random
import time

from copyposet.atoms import AtomRegistry
from copyposet.parser import parse_term
from copyposet.classify import classify_exponent
from copyposet.terms import OMEGA, add, cnf_base, compare, mul, nat, power
from copyposet.rules import analyze
from copyposet.finsets import (
    contains_copy, embed_subset, fp_bool, full_set, fuse_chain, level_set, make,
    reduction, subset_mod_ideal,
)
from conftest import make_atoms, random_infinite_rank1, random_set, random_term
from golden_scenarios import GOLDEN_DIR, SCENARIOS, run_scenario, snapshot
from termcheck import recompose


def _stamp(num: int, name: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget


EXAMPLE_LABELS = [
    ("w_2+1", "A"), ("w_2+w", "A"), ("w_2*w + w_2", "B"),
    ("w_2*w_1 + w_2", "C"), ("w_2", "D"), ("w_2+w_2", "D"), ("w_2*w_2", "E"),
]

# post-maximal-collapse pattern corpus, instantiated at kappa = w_1
PATTERN_CORPUS = [
    ("w_1", "D"),
    ("w_1*2", "D"),
    ("w_1*3", "D"),
    ("w_1*(w+2)", "D"),
    ("w_1^2 + w_1*2", "D"),
    ("w_1^3 + w_1*(w+3)", "D"),
    ("w_1^2 + w_1", "D"),
    ("w_1^2*(w+1) + w_1", "D"),
    ("w_1^3 + w_1^2*2 + w_1", "D"),
    ("w_1^(w_1+1)*2 + w_1", "D"),
    ("w_1^(w+1)*3 + w_1", "D"),
    ("w_1^w_1 + w_1", "D"),
    ("w_1^w_1*3 + w_1", "D"),
    ("w_1^w_1*(w+1) + w_1", "D"),
    ("w_1^(w_1+1) + w_1^w_1*2 + w_1", "D"),
    ("w_1^(w_1*2) + w_1", "D"),
    ("w_1^2", "E"),
    ("w_1^3", "E"),
    ("w_1^(w+1)", "E"),
    ("w_1^(w_1+1)", "E"),
    ("w_1^2*2", "E"),
    ("w_1^w_1", "E"),
    ("w_1^w_1*2", "E"),
    ("w_1^(w_1*2)", "E"),
    ("w_1^(w_1^2)", "E"),
]


def test_criterion_1_classifier_regression():
    start = time.perf_counter()
    registry = AtomRegistry()
    for text, label in EXAMPLE_LABELS:
        assert classify_exponent(parse_term(text, registry)).label == label, text
    assert len(PATTERN_CORPUS) >= 20
    for text, label in PATTERN_CORPUS:
        rep = classify_exponent(parse_term(text, registry))
        assert rep.label == label, f"{text}: got {rep.label}, want {label}"
    _stamp(1, "classifier regression", start, 1.0)


def test_criterion_2_arithmetic_law_suite():
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    registry = AtomRegistry()
    atoms = make_atoms(registry)
    for i in range(10_000):
        a = random_term(rng, atoms, 4)
        b = random_term(rng, atoms, 4)
        c = random_term(rng, atoms, 4)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert power(a, add(b, c)) == mul(power(a, b), power(a, c))
        assert power(power(a, b), c) == power(a, mul(b, c))
        ab, bc, ac = compare(a, b), compare(b, c), compare(a, c)
        assert ab == -compare(b, a)
        if ab <= 0 and bc <= 0:
            assert ac <= 0
        if ab < 0:
            assert compare(add(c, a), add(c, b)) < 0
    _stamp(2, "arithmetic law suite (10000 triples)", start, 30.0)


def test_criterion_3_base_kappa_recomposition():
    start = time.perf_counter()
    rng = random.Random(0xBA5E)
    registry = AtomRegistry()
    atoms = make_atoms(registry)
    for i in range(1_000):
        delta = random_term(rng, atoms, 4)
        base = rng.choice(atoms)
        b = cnf_base(delta, base)
        assert recompose(b) == delta
    _stamp(3, "base-kappa recomposition (1000 pairs)", start, 30.0)


def test_criterion_4_oracle_equivalence_and_ideal_laws():
    from copyposet.finsets import order_type
    start = time.perf_counter()
    rng = random.Random(0x09AC1E)
    for rank in (2, 3):
        target = power(OMEGA, nat(rank))
        batch = [random_set(rng, rank, 5, 6) for _ in range(1_000)]
        for a in batch:
            assert contains_copy(a, rank) == (order_type(a) == target), a
        full = full_set(rank)
        assert contains_copy(full, rank)
        for a, b in zip(batch, batch[1:]):
            in_i = lambda x: not contains_copy(x, rank)
            if in_i(a) and in_i(b):
                assert in_i(fp_bool("union", a, b))
            if in_i(a):
                assert in_i(fp_bool("intersect", a, b))
            if contains_copy(a, rank):
                assert contains_copy(fp_bool("union", a, b), rank)
    _stamp(4, "copies-lab oracle equivalence (1000 sets/rank)", start, 60.0)


def _descending_chain(rng, length):
    while True:
        a = random_set(rng, 2, 4, 4)
        if contains_copy(a, 2):
            break
    chain = [a]
    for _ in range(length - 1):
        s = level_set(a, 1)
        lead, p = len(s.prefix), len(s.period)
        mask = make(1, (0,) * lead, (1,) * p + (0,) * p)
        kept = fp_bool("intersect", s, mask)
        dropped = fp_bool("diff", s, mask)
        if not any(kept.period) or not any(dropped.period):
            return None
        a = fp_bool("intersect", a, embed_subset(kept, 2))
        chain.append(a)
    return chain


def test_criterion_5_fusion_construction():
    start = time.perf_counter()
    rng = random.Random(0xF05E)
    done = 0
    while done < 200:
        chain = _descending_chain(rng, rng.randint(1, 5))
        if chain is None:
            continue
        fused = fuse_chain(chain)  # re-checks its postconditions internally
        assert contains_copy(fused, 2)
        for member in chain:
            assert subset_mod_ideal(fused, member)
        done += 1
    _stamp(5, "fusion construction (200 chains)", start, 60.0)


def test_criterion_6_embedding_laws_and_reductions():
    start = time.perf_counter()
    rng = random.Random(0xCE1CE2)
    # (ce1): S almost-contained in T gives f(S) below f(T) mod the ideal
    # (ce2): S, T almost disjoint exactly when f(S), f(T) meet in the ideal
    for _ in range(500):
        t = random_infinite_rank1(rng)
        s_sub = fp_bool("intersect", t, random_infinite_rank1(rng))
        finite_junk = make(1, tuple(rng.randrange(2) for _ in range(4)), (0,))
        s = fp_bool("union", s_sub, finite_junk)
        if any(s.period):
            assert subset_mod_ideal(embed_subset(s, 2), embed_subset(t, 2))
        u = random_infinite_rank1(rng)
        meet = fp_bool("intersect", t, u)
        almost_disjoint = not any(meet.period)
        image_meet = fp_bool("intersect", embed_subset(t, 2), embed_subset(u, 2))
        assert almost_disjoint == (not contains_copy(image_meet, 2))
    done = 0
    while done < 100:
        a = random_set(rng, 2, 4, 4)
        if not contains_copy(a, 2):
            continue
        s = reduction(a)
        lead, p = len(s.prefix), len(s.period)
        mask = make(1, (0,) * lead, (1,) * p + (0,) * p)
        t = fp_bool("intersect", s, mask)
        if not any(t.period):
            t = s
        assert contains_copy(fp_bool("intersect", embed_subset(t, 2), a), 2)
        done += 1
    _stamp(6, "embedding laws and reductions", start, 60.0)


def test_criterion_7_derivation_battery():
    start = time.perf_counter()
    for name, *_rest in SCENARIOS:
        expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        report, _registry = run_scenario(name)
        actual = snapshot(report)
        assert actual["facts"] == expected["facts"], name
        assert actual["ro_conclusion"] == expected["ro_conclusion"], name
    _stamp(7, "derivation battery (golden scenarios)", start, 5.0)


def test_criterion_8_honesty_check():
    start = time.perf_counter()
    registry = AtomRegistry()
    report = analyze(parse_term("w^(w_1)", registry), [], registry)
    assert report.ro_conclusion is None
    assert not any(f.kind == "RoIso" for f in report.facts)
    blocked = dict(report.blocked)
    assert "T5.2" in blocked
    assert any("2^w_1 = w_2" in p or "c = w_1" in p for p in blocked["T5.2"])
    _stamp(8, "honesty check (no overclaiming)", start, 5.0)
