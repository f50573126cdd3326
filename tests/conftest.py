from __future__ import annotations

import random

import pytest

from copyposet.atoms import AtomRegistry
from copyposet.finsets import FinPresSet, embed_subset, empty_set, full_set, make
from copyposet.terms import OrdinalTerm, canon_exp, cmp_exp, nat
from termcheck import check_canonical


@pytest.fixture(autouse=True)
def no_kept_closures():
    """Each test starts and ends with no closure, no analysis, no problem met and no
    JSON text kept for reuse: ``rules.analyze`` keeps them for the whole process, so a
    test recording the closures it builds or the analyses it runs would see none for a
    problem an earlier test analyzed."""
    from copyposet import rules
    tables = (rules._CLOSURES, rules._ANALYSES, rules._SEEN, rules._TEXTS)
    for table in tables:
        table.clear()
    yield
    for table in tables:
        table.clear()


@pytest.fixture
def registry() -> AtomRegistry:
    return AtomRegistry()


def make_atoms(registry: AtomRegistry, count: int = 3):
    return [registry.lookup(f"w_{k + 1}") for k in range(count)]


def random_term(rng: random.Random, atoms, depth: int = 4) -> OrdinalTerm:
    """Random canonical term: depth-bounded exponents, coefficients <= 5."""
    if depth == 0 or rng.random() < 0.25:
        return nat(rng.randrange(6))
    exponents = []
    for _ in range(rng.randint(1, 3)):
        if atoms and rng.random() < 0.4:
            exponents.append(rng.choice(atoms))
        else:
            e = random_term(rng, atoms, depth - 1)
            if not e.is_zero():
                exponents.append(canon_exp(e))
    ordered = []
    for e in exponents:
        for i, seen in enumerate(ordered):
            k = cmp_exp(e, seen)
            if k == 0:
                break
            if k > 0:
                ordered.insert(i, e)
                break
        else:
            ordered.append(e)
    summands = tuple((e, rng.randint(1, 5)) for e in ordered)
    tail = rng.randrange(6) if rng.random() < 0.7 else 0
    term = OrdinalTerm(summands, tail)
    check_canonical(term)
    return term


def random_positive_term(rng: random.Random, atoms, depth: int = 4) -> OrdinalTerm:
    while True:
        t = random_term(rng, atoms, depth)
        if not t.is_zero():
            return t


# -- finitely presented sets (seeded) ----------------------------------------------

def random_set(rng, rank: int, max_prefix: int = 4, max_period: int = 4,
               one_bias: float = 0.5) -> FinPresSet:
    if rank == 1:
        bit = lambda: 1 if rng.random() < one_bias else 0
        prefix = tuple(bit() for _ in range(rng.randrange(max_prefix + 1)))
        period = tuple(bit() for _ in range(1, rng.randrange(1, max_period + 1) + 1))
        return make(1, prefix, period)
    child = lambda: random_set(rng, rank - 1, max_prefix, max_period, one_bias)
    prefix = tuple(child() for _ in range(rng.randrange(max_prefix + 1)))
    period = tuple(child() for _ in range(1, rng.randrange(1, max_period + 1) + 1))
    return make(rank, prefix, period)


def random_infinite_rank1(rng, max_prefix: int = 4, max_period: int = 6) -> FinPresSet:
    while True:
        s = random_set(rng, 1, max_prefix, max_period)
        if any(s.period):
            return s


def embed_subset_or_empty(s: FinPresSet, rank: int) -> FinPresSet:
    """embed_subset, extended to finite index sets (explicit blocks, empty tail)."""
    if not any(s.period) and not any(s.prefix):
        return empty_set(rank)
    if not any(s.period):
        full = full_set(rank - 1)
        empty = empty_set(rank - 1)
        prefix = tuple(full if b else empty for b in s.prefix)
        return make(rank, prefix, (empty,))
    return embed_subset(s, rank)
