"""Finitely presented subsets of w^n (n <= 3) and the copy-membership calculus.

A rank-1 set is a bit word: finite prefix followed by a nonempty period
repeated forever. A rank-n set lists rank-(n-1) blocks the same way, indexing
the decomposition w^n = sum of w^(n-1) blocks. Presentations are canonical
(primitive period, no prefix suffix foldable into it), so equality is plain
structural equality and every operation returns canonical values.
"""
from __future__ import annotations

import math
from functools import reduce

from .terms import ZERO, OMEGA, OrdinalTerm, add, mul, nat
from .values import Value, init


class FinPresError(ValueError):
    pass


MAX_RANK = 3
_RANK_LIMIT = f"ranks above {MAX_RANK} are not supported"


class FinPresSet(Value):
    __slots__ = ("rank", "prefix", "period")

    def __init__(self, rank: int, prefix: tuple, period: tuple) -> None:
        init(self, "rank", rank)
        init(self, "prefix", prefix)  # bits (0/1) at rank 1, FinPresSet children above
        init(self, "period", period)  # nonempty; same element type as prefix

    def block(self, i: int):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def is_empty(self) -> bool:
        empty = (lambda b: b == 0) if self.rank == 1 else (lambda b: b.is_empty())
        return all(empty(b) for b in self.prefix) and all(empty(b) for b in self.period)

    def __contains__(self, point) -> bool:
        if self.rank == 1:
            return bool(self.block(point if isinstance(point, int) else point[0]))
        if len(point) != self.rank:
            raise FinPresError("point arity must match the rank")
        return point[1:] in self.block(point[0]) if self.rank > 2 else \
            self.block(point[0]).block(point[1]) == 1

    def __repr__(self) -> str:
        return f"<rank{self.rank} {to_obj(self)}>"


def _primitive(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def make(rank: int, prefix, period) -> FinPresSet:
    """Canonicalize and build; period must be nonempty."""
    prefix, period = tuple(prefix), tuple(period)
    if not period:
        raise FinPresError("the periodic part must be nonempty")
    if rank < 1:
        raise FinPresError("rank must be at least 1")
    period = _primitive(period)
    prefix = list(prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return FinPresSet(rank, tuple(prefix), _primitive(period))


def empty_set(rank: int) -> FinPresSet:
    if rank == 1:
        return make(1, (), (0,))
    return make(rank, (), (empty_set(rank - 1),))


def full_set(rank: int) -> FinPresSet:
    if rank == 1:
        return make(1, (), (1,))
    return make(rank, (), (full_set(rank - 1),))


def from_indices(indices) -> FinPresSet:
    """Finite rank-1 set from explicit naturals."""
    chosen = set(indices)
    top = max(chosen) + 1 if chosen else 0
    return make(1, tuple(1 if i in chosen else 0 for i in range(top)), (0,))


def fp_bool(op: str, a: FinPresSet, b: FinPresSet) -> FinPresSet:
    """Exact pointwise union / intersect / diff by period alignment."""
    if a.rank != b.rank:
        raise FinPresError("boolean operations need equal ranks")
    if op not in ("union", "intersect", "diff"):
        raise FinPresError(f"unknown operation {op!r}")
    lead = max(len(a.prefix), len(b.prefix))
    span = math.lcm(len(a.period), len(b.period))
    if a.rank == 1:
        combine = {"union": lambda x, y: x | y,
                   "intersect": lambda x, y: x & y,
                   "diff": lambda x, y: x & (1 - y)}[op]
    else:
        pairs: dict = {}  # blocks repeat, so each distinct pair is combined once

        def combine(x, y):
            done = pairs.get((x, y))
            if done is None:
                done = pairs[x, y] = fp_bool(op, x, y)
            return done
    prefix = tuple(combine(a.block(i), b.block(i)) for i in range(lead))
    period = tuple(combine(a.block(lead + j), b.block(lead + j)) for j in range(span))
    return make(a.rank, prefix, period)


# -- order types and copies -----------------------------------------------------

def order_type(a: FinPresSet) -> OrdinalTerm:
    """Exact order type of a as a suborder of w^rank."""
    if a.rank == 1:
        if not any(a.period):
            return nat(sum(a.prefix))
        return OMEGA
    types = [order_type(a.block(i)) for i in range(len(a.prefix))]
    ptypes = [order_type(b) for b in a.period]
    total = reduce(add, types, ZERO)
    if all(t.is_zero() for t in ptypes):
        return total
    window = reduce(add, ptypes, ZERO)
    return add(total, mul(window, OMEGA))


def contains_copy(a: FinPresSet, m: int) -> bool:
    """Decide w^m embeds into a (m <= rank)."""
    if m < 0 or m > a.rank:
        raise FinPresError("the power must satisfy 0 <= m <= rank")
    if m == 0:
        return not a.is_empty()
    if a.rank == 1:
        return any(a.period)
    return any(contains_copy(b, m - 1) for b in a.period)


class CriterionReport(Value):
    __slots__ = ("levels", "verdict")

    def __init__(self, levels: tuple, verdict: bool) -> None:
        # ((m, S_m as rank-1 FinPresSet, infinite?), ...) for m < rank
        init(self, "levels", levels)
        init(self, "verdict", verdict)

    def to_obj(self) -> dict:
        return {"levels": [{"m": m, "indices": to_obj(s), "infinite": inf}
                           for m, s, inf in self.levels],
                "verdict": self.verdict}


def level_set(a: FinPresSet, m: int) -> FinPresSet:
    """S^m = the rank-1 set of block indices whose block embeds w^m."""
    if a.rank < 2:
        raise FinPresError("level sets need rank >= 2")
    bit = lambda b: 1 if contains_copy(b, m) else 0
    return make(1, tuple(bit(b) for b in a.prefix), tuple(bit(b) for b in a.period))


def criterion_report(a: FinPresSet) -> CriterionReport:
    if a.rank < 2:
        infinite = any(a.period)
        return CriterionReport(((0, a, infinite),), infinite)
    levels = []
    for m in range(a.rank):
        s = level_set(a, m)
        levels.append((m, s, any(s.period)))
    return CriterionReport(tuple(levels), contains_copy(a, a.rank))


def subset_mod_ideal(a: FinPresSet, b: FinPresSet) -> bool:
    """a is below b modulo the copies ideal: a \\ b contains no full copy."""
    if a.rank != b.rank:
        raise FinPresError("comparison needs equal ranks")
    return not contains_copy(fp_bool("diff", a, b), a.rank)


def embed_subset(s: FinPresSet, rank: int) -> FinPresSet:
    """f(S): blocks at indices in S are full, others empty; S must be infinite."""
    if s.rank != 1:
        raise FinPresError("the index set must have rank 1")
    if not any(s.period):
        raise FinPresError("the index set must be infinite")
    if rank < 2:
        raise FinPresError("embedding targets have rank >= 2")
    if rank > MAX_RANK:
        raise FinPresError(_RANK_LIMIT)
    full, empty = full_set(rank - 1), empty_set(rank - 1)
    pick = lambda bit: full if bit else empty
    return make(rank, tuple(pick(b) for b in s.prefix), tuple(pick(b) for b in s.period))


def reduction(a: FinPresSet) -> FinPresSet:
    """The intersection of the level sets; a reduction of a to the index poset."""
    if a.rank < 2:
        raise FinPresError("reductions need rank >= 2")
    if not contains_copy(a, a.rank):
        raise FinPresError("reduction requires a set with a full copy inside")
    s = level_set(a, 0)
    for m in range(1, a.rank):
        s = fp_bool("intersect", s, level_set(a, m))
    return s


def next_index(s: FinPresSet, after: int) -> int:
    """Least member of a rank-1 set strictly above ``after``."""
    if s.rank != 1:
        raise FinPresError("index search needs a rank-1 set")
    i = max(after + 1, 0)
    if not any(s.period):
        for k in range(i, len(s.prefix)):
            if s.prefix[k]:
                return k
        raise FinPresError("no further members")
    while not s.block(i):
        i += 1
    return i


def fuse_chain(chain) -> FinPresSet:
    """Lower bound construction for a descending chain in the copies co-ideal.

    Walks the chain diagonal-style: block i of the result is a full copy
    living inside a block of the i-th member (saturating at the last), at
    strictly increasing block indices. The result is re-checked to lie in
    the co-ideal and below every member modulo the ideal.
    """
    chain = list(chain)
    if not chain:
        raise FinPresError("the chain must be nonempty")
    rank = chain[0].rank
    if rank < 2:
        raise FinPresError("fusion needs rank >= 2")
    for k, a in enumerate(chain):
        if a.rank != rank:
            raise FinPresError(f"chain member {k} has mismatched rank")
        if not contains_copy(a, rank):
            raise FinPresError(f"chain member {k} is not in the co-ideal")
    for k in range(len(chain) - 1):
        if not subset_mod_ideal(chain[k + 1], chain[k]):
            raise FinPresError(f"chain members {k + 1}, {k} are not descending mod the ideal")
        if subset_mod_ideal(chain[k], chain[k + 1]):
            raise FinPresError(f"chain members {k}, {k + 1} are not strictly descending")

    # replace by running intersections; still in the co-ideal since the
    # differences stay in the ideal
    running = [chain[0]]
    for a in chain[1:]:
        running.append(fp_bool("intersect", running[-1], a))
    for k, b in enumerate(running):
        if not contains_copy(b, rank):
            raise AssertionError(f"running intersection {k} left the co-ideal")

    top = rank - 1
    picks: list[tuple[int, FinPresSet]] = []
    j = -1
    for b in running:
        j = next_index(level_set(b, top), j)
        picks.append((j, b.block(j)))
    last = running[-1]
    s_last = level_set(last, top)
    trimmed = fp_bool("diff", s_last, from_indices(range(j + 1)))
    tail_part = fp_bool("intersect", embed_subset(trimmed, rank), last)
    blocks = {idx: blk for idx, blk in picks}
    prefix = tuple(blocks.get(i, empty_set(rank - 1)) for i in range(j + 1))
    explicit = make(rank, prefix, (empty_set(rank - 1),))
    fused = fp_bool("union", explicit, tail_part)

    if not contains_copy(fused, rank):
        raise AssertionError("fusion left the co-ideal")
    for k, a in enumerate(chain):
        if not subset_mod_ideal(fused, a):
            raise AssertionError(f"fusion is not below chain member {k} mod the ideal")
    return fused


# -- serialization ---------------------------------------------------------------

def to_obj(a: FinPresSet):
    if a.rank == 1:
        return {"prefix": "".join(map(str, a.prefix)),
                "period": "".join(map(str, a.period))}
    return {"prefix": [to_obj(b) for b in a.prefix],
            "tail": [to_obj(b) for b in a.period]}


def from_obj(obj) -> FinPresSet:
    """The set of a JSON literal in the form of ``to_obj``."""
    return _from_obj(obj, MAX_RANK)


def _from_obj(obj, max_rank: int) -> FinPresSet:
    if not isinstance(obj, dict):
        raise FinPresError("a set literal must be a JSON object")
    if "period" in obj:
        try:
            prefix = tuple(int(c) for c in obj.get("prefix", ""))
            period = tuple(int(c) for c in obj["period"])
        except (TypeError, ValueError) as exc:
            raise FinPresError("bit strings must consist of 0 and 1") from exc
        if any(b not in (0, 1) for b in prefix + period):
            raise FinPresError("bit strings must consist of 0 and 1")
        return make(1, prefix, period)
    if "tail" not in obj:
        raise FinPresError("a set literal needs 'period' (rank 1) or 'tail'")
    if max_rank == 1:  # refused before reading the children, however deep they go
        raise FinPresError(_RANK_LIMIT)
    prefix, tail = obj.get("prefix", []), obj["tail"]
    if not (isinstance(prefix, list) and isinstance(tail, list)):
        raise FinPresError("'prefix' and 'tail' must be lists of set literals")
    prefix = tuple(_from_obj(o, max_rank - 1) for o in prefix)
    tail = tuple(_from_obj(o, max_rank - 1) for o in tail)
    if not tail:
        raise FinPresError("the periodic tail must be nonempty")
    ranks = {c.rank for c in prefix + tail}
    if len(ranks) != 1:
        raise FinPresError("all children must share one rank")
    return make(ranks.pop() + 1, prefix, tail)

