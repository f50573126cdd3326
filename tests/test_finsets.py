import random

import pytest

from copyposet.finsets import (
    FinPresError, contains_copy, criterion_report, embed_subset, empty_set, fp_bool,
    from_indices, from_obj, full_set, fuse_chain, level_set, make, next_index,
    order_type, reduction, subset_mod_ideal, to_obj,
)
from copyposet.terms import OMEGA, nat, power
from conftest import embed_subset_or_empty, random_set

W2 = power(OMEGA, nat(2))
W3 = power(OMEGA, nat(3))

EVENS = make(1, (), (1, 0))
ODDS = make(1, (), (0, 1))


class TestCanonicalForm:
    def test_period_minimized(self):
        assert make(1, (), (1, 0, 1, 0)).period == (1, 0)

    def test_prefix_folded(self):
        a = make(1, (1,), (0, 1))
        assert a.prefix == () and a.period == (1, 0)

    def test_fold_equivalence_pointwise(self):
        rng = random.Random(5)
        for _ in range(200):
            prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            period = tuple(rng.randrange(2) for _ in range(1, rng.randrange(1, 5) + 1))
            raw = ( prefix, period)
            canon = make(1, prefix, period)
            for i in range(12):
                expected = prefix[i] if i < len(prefix) else \
                    period[(i - len(prefix)) % len(period)]
                assert canon.block(i) == expected

    def test_equal_sets_equal_forms(self):
        a = make(1, (1, 0), (1, 0))
        b = make(1, (), (1, 0))
        assert a == b


class TestBoolean:
    def test_union_evens_odds(self):
        assert fp_bool("union", EVENS, ODDS) == full_set(1)

    def test_diff_full_even_blocks(self):
        ebf = embed_subset(EVENS, 2)
        assert fp_bool("diff", full_set(2), ebf) == embed_subset(ODDS, 2)

    def test_intersect_idempotent(self):
        ebf = embed_subset(EVENS, 2)
        assert fp_bool("intersect", ebf, ebf) == ebf

    def test_rank_mismatch(self):
        with pytest.raises(FinPresError):
            fp_bool("union", EVENS, full_set(2))

    def test_pointwise_fuzz(self):
        rng = random.Random(99)
        ops = {"union": lambda x, y: x | y,
               "intersect": lambda x, y: x & y,
               "diff": lambda x, y: int(x and not y)}
        for _ in range(120):
            rank = rng.choice((1, 2, 3))
            a = random_set(rng, rank, 3, 3)
            b = random_set(rng, rank, 3, 3)
            op = rng.choice(list(ops))
            c = fp_bool(op, a, b)
            for _k in range(25):
                pt = tuple(rng.randrange(8) for _ in range(rank))
                pt = pt if rank > 1 else pt[0]
                assert (pt in c) == bool(ops[op](pt in a, pt in b))


class TestOrderType:
    def test_full_planes(self):
        assert order_type(full_set(2)) == W2
        assert order_type(full_set(3)) == W3

    def test_one_point_blocks(self):
        one = make(2, (), (make(1, (1,), (0,)),))
        assert order_type(one) == OMEGA

    def test_mixed_blocks(self):
        # frozen by hand: w + (2+w)*w = w^2
        two_el = make(1, (1, 1), (0,))
        cofinite = make(1, (0, 0, 0), (1,))
        a = make(2, (full_set(1),), (two_el, cofinite))
        assert order_type(a) == W2

    def test_finite(self):
        assert order_type(make(1, (1, 0, 1), (0,))) == nat(2)
        assert order_type(empty_set(3)) == nat(0)


class TestContainsCopy:
    def test_full(self):
        assert contains_copy(full_set(2), 2)

    def test_finite_blocks(self):
        a = make(2, (), (make(1, (1,), (0,)), make(1, (1, 1, 1), (0,))))
        assert not contains_copy(a, 2)
        assert contains_copy(a, 1)

    def test_even_blocks_cofinite(self):
        cofinite = make(1, (0,), (1,))
        a = make(2, (), (cofinite, empty_set(1)))
        assert contains_copy(a, 2)
        assert level_set(a, 1) == EVENS
        assert order_type(a) == W2  # oracle agreement on the example

    def test_report_levels(self):
        a = embed_subset(EVENS, 2)
        rep = criterion_report(a)
        assert rep.verdict
        assert [m for m, _s, _inf in rep.levels] == [0, 1]
        assert all(inf for _m, _s, inf in rep.levels)


class TestSubsetModIdeal:
    def test_literal_subset(self):
        ebf = embed_subset(EVENS, 2)
        assert subset_mod_ideal(ebf, full_set(2))

    def test_full_not_below_evens(self):
        assert not subset_mod_ideal(full_set(2), embed_subset(EVENS, 2))

    def test_dropping_one_block(self):
        missing0 = fp_bool("diff", full_set(2),
                           embed_subset_or_empty(from_indices([0]), 2))
        assert subset_mod_ideal(full_set(2), missing0)


class TestEmbedReduce:
    def test_embed_full(self):
        assert embed_subset(full_set(1), 2) == full_set(2)

    def test_embed_requires_infinite(self):
        with pytest.raises(FinPresError):
            embed_subset(from_indices([0, 1, 2]), 2)

    def test_reduction_full(self):
        assert reduction(full_set(2)) == full_set(1)

    def test_reduction_even_blocks(self):
        cofinite = make(1, (0,), (1,))
        a = make(2, (), (cofinite, make(1, (1,), (0,))))
        assert reduction(a) == EVENS

    def test_reduction_needs_coideal(self):
        a = make(2, (), (make(1, (1,), (0,)),))  # every block finite
        with pytest.raises(FinPresError):
            reduction(a)


class TestFuseChain:
    def test_singleton(self):
        ebf = embed_subset(EVENS, 2)
        fused = fuse_chain([ebf])
        assert contains_copy(fused, 2)
        assert subset_mod_ideal(fused, ebf)

    def test_three_chain(self):
        m4 = make(1, (), (1, 0, 0, 0))
        chain = [full_set(2), embed_subset(EVENS, 2), embed_subset(m4, 2)]
        fused = fuse_chain(chain)
        assert contains_copy(fused, 2)
        for a in chain:
            assert subset_mod_ideal(fused, a)

    def test_rejects_non_descending(self):
        with pytest.raises(FinPresError, match="descending"):
            fuse_chain([embed_subset(EVENS, 2), full_set(2)])

    def test_rejects_ideal_member(self):
        small = make(2, (), (make(1, (1,), (0,)),))
        with pytest.raises(FinPresError, match="co-ideal"):
            fuse_chain([small])


class TestIdealLaws:
    def test_random_laws(self):
        rng = random.Random(314)
        for rank in (2, 3):
            full = full_set(rank)
            assert contains_copy(full, rank)
            for _ in range(150):
                a = random_set(rng, rank, 3, 3)
                b = random_set(rng, rank, 3, 3)
                in_i = lambda x: not contains_copy(x, rank)
                if in_i(a) and in_i(b):
                    assert in_i(fp_bool("union", a, b))
                if in_i(a):
                    assert in_i(fp_bool("intersect", a, b))
                # superset closure of the co-ideal
                if contains_copy(a, rank):
                    assert contains_copy(fp_bool("union", a, b), rank)

    def test_subset_mod_preorder(self):
        rng = random.Random(2718)
        sets = [random_set(rng, 2, 3, 3) for _ in range(40)]
        for a in sets:
            assert subset_mod_ideal(a, a)
        for a in sets[:12]:
            for b in sets[:12]:
                for c in sets[:12]:
                    if subset_mod_ideal(a, b) and subset_mod_ideal(b, c):
                        assert subset_mod_ideal(a, c)


class TestSerialization:
    def test_roundtrip(self):
        rng = random.Random(13)
        for rank in (1, 2, 3):
            for _ in range(50):
                a = random_set(rng, rank, 3, 3)
                assert from_obj(to_obj(a)) == a

    def test_bad_literals(self):
        with pytest.raises(FinPresError):
            from_obj({"prefix": "012", "period": "1"})
        with pytest.raises(FinPresError):
            from_obj({"prefix": [], "tail": []})
        with pytest.raises(FinPresError):
            from_obj({"tail": [{"period": "1"}, {"tail": [{"period": "1"}]}]})


def test_next_index():
    assert next_index(EVENS, 0) == 2
    assert next_index(EVENS, -1) == 0
    assert next_index(from_indices([3, 5]), 3) == 5
    with pytest.raises(FinPresError):
        next_index(from_indices([3]), 3)
