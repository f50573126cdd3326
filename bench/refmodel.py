"""Reference model for the benchmark's oracle and input generators.

A small, separate implementation of the pieces of ordinal arithmetic and of
finitely presented sets that the `desk` workload needs to know the right
answer in advance. It deliberately imports nothing from `copyposet`.

Ordinals are pairs ``(summands, tail)``; ``summands`` is a tuple of
``(exponent, coefficient)`` with strictly decreasing exponents, and an
exponent is either an :class:`Atom` or an ordinal again. An atom is an
exponent fixpoint (``w^a = a``), so ``w^a * 1`` as an exponent is always the
bare atom.

Sets of rank 1 are ``(prefix_bits, period_bits)``; sets of rank ``n > 1`` are
``(prefix_children, period_children)`` over rank ``n - 1`` sets. The
generators here produce canonical presentations, so structural equality is
set equality.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Atom:
    name: str
    rank: int
    cof: str | None = None  # None: regular; else the declared cofinality ("w" or an atom name)
    decl: str | None = None  # the --card declaration a request must carry


W1, W2, W3 = Atom("w_1", 1), Atom("w_2", 2), Atom("w_3", 3)
MU = Atom("mu", 100, "w", "mu rank 100 singular cf w")
NU = Atom("nu", 60, "w_1", "nu rank 60 singular cf w_1")

ZERO = ((), 0)
ONE = ((), 1)
OMEGA = (((ONE, 1),), 0)


def nat(n: int):
    return ((), n)


def is_zero(a) -> bool:
    return not a[0] and a[1] == 0


def is_finite(a) -> bool:
    return not a[0]


def canon_exp(e):
    if not isinstance(e, Atom) and e[1] == 0 and len(e[0]) == 1:
        inner, coeff = e[0][0]
        if coeff == 1 and isinstance(inner, Atom):
            return inner
    return e


def cmp_exp(e, f) -> int:
    if isinstance(e, Atom):
        if isinstance(f, Atom):
            return (e.rank > f.rank) - (e.rank < f.rank)
        return compare((((e, 1),), 0), f)
    if isinstance(f, Atom):
        return -cmp_exp(f, e)
    return compare(e, f)


def compare(a, b) -> int:
    for (ea, ca), (eb, cb) in zip(a[0], b[0]):
        k = cmp_exp(ea, eb)
        if k:
            return k
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a[0]) != len(b[0]):
        return 1 if len(a[0]) > len(b[0]) else -1
    return (a[1] > b[1]) - (a[1] < b[1])


def add(a, b):
    """Ordinal sum; enough for the order types of sets of rank <= 3."""
    if is_zero(b):
        return a
    if is_finite(b):
        return (a[0], a[1] + b[1])
    lead, coeff = b[0][0]
    kept = []
    for e, c in a[0]:
        k = cmp_exp(e, lead)
        if k > 0:
            kept.append((e, c))
        elif k == 0:
            coeff += c
    return (tuple(kept) + ((lead, coeff),) + b[0][1:], b[1])


def times_omega(a):
    """a * w for an ordinal a < w^w."""
    if is_zero(a):
        return ZERO
    if is_finite(a):
        return OMEGA
    lead = a[0][0][0]
    return (((nat(lead[1] + 1), 1),), 0)


def omega_to(n: int):
    """w^n for a natural n >= 1."""
    return (((nat(n), 1),), 0)


# -- printing, cofinality, cardinality (as the CLI reports them) ----------------

def _needs_parens(e) -> bool:
    if is_finite(e):
        return False
    if e[1] > 0 or len(e[0]) > 1:
        return True
    return e[0][0][1] != 1


def _render_power(e) -> str:
    if isinstance(e, Atom):
        return e.name
    if e == ONE:
        return "w"
    if is_finite(e):
        return f"w^{e[1]}"
    inner = pretty(e)
    return f"w^({inner})" if _needs_parens(e) else f"w^{inner}"


def pretty(a) -> str:
    if is_zero(a):
        return "0"
    parts = [_render_power(e) if c == 1 else f"{_render_power(e)}*{c}" for e, c in a[0]]
    if a[1]:
        parts.append(str(a[1]))
    return " + ".join(parts)


def cofinality_text(a) -> str:
    if is_zero(a):
        return "0"
    if is_finite(a) or a[1] > 0:
        return "1"
    e = a[0][-1][0]
    while True:
        if isinstance(e, Atom):
            return e.name if e.cof is None else e.cof
        if e[1] > 0:
            return "w"
        e = e[0][-1][0]


def atoms_in(a) -> set:
    found = set()
    for e, _c in a[0]:
        found |= {e} if isinstance(e, Atom) else atoms_in(e)
    return found


def cardinality_text(a) -> str:
    if is_finite(a):
        return str(a[1])
    found = atoms_in(a)
    return max(found, key=lambda x: x.rank).name if found else "aleph0"


def is_indecomposable(a) -> bool:
    return a[1] == 0 and len(a[0]) == 1 and a[0][0][1] == 1 and compare(a, OMEGA) >= 0


def from_obj(obj, atoms: dict):
    """An ordinal from the CLI's JSON term object."""
    def exp(o):
        return atoms[o["atom"]] if "atom" in o else from_obj(o, atoms)
    return (tuple((canon_exp(exp(e)), c) for e, c in obj["summands"]), obj["tail"])


def factor_text(a) -> str:
    """The CLI's rendering of the product factorization of sq(P(a)), a >= w."""
    parts = []
    for e, c in a[0]:
        txt = f"sq(P({_render_power(e)}))"
        parts.append(txt if c == 1 else f"{txt}^{c}")
    return " x ".join(parts)


# -- seeded generation -----------------------------------------------------------

def random_term(rng, atoms, depth: int, max_coeff: int = 3):
    """A canonical ordinal with depth-bounded exponents and small coefficients."""
    if depth == 0 or rng.random() < 0.25:
        return nat(rng.randrange(max_coeff + 1))
    ordered: list = []
    for _ in range(rng.randint(1, 3)):
        if atoms and rng.random() < 0.4:
            e = rng.choice(atoms)
        else:
            e = random_term(rng, atoms, depth - 1, max_coeff)
            if is_zero(e):
                continue
            e = canon_exp(e)
        for i, seen in enumerate(ordered):
            k = cmp_exp(e, seen)
            if k == 0:
                break
            if k > 0:
                ordered.insert(i, e)
                break
        else:
            ordered.append(e)
    summands = tuple((e, rng.randint(1, max_coeff)) for e in ordered)
    tail = rng.randrange(max_coeff + 1) if rng.random() < 0.7 else 0
    return (summands, tail)


def spell(a, rng) -> str:
    """An unnormalised spelling of a: repeated sums, w^atom, absorbed naturals."""
    if is_finite(a):
        return str(a[1])
    parts = []
    for e, c in a[0]:
        p = _spell_power(e, rng)
        if c > 1 and rng.random() < 0.3:
            parts.extend([p] * c)
        else:
            parts.append(p if c == 1 else f"{p}*{c}")
    if a[1]:
        parts.append(str(a[1]))
    if rng.random() < 0.2:
        parts.insert(0, str(rng.randint(1, 3)))  # n + (infinite) = (infinite)
    return " + ".join(parts)


def _spell_power(e, rng) -> str:
    if isinstance(e, Atom):
        return e.name if rng.random() < 0.7 else f"w^{e.name}"
    if e == ONE:
        return "w"
    if is_finite(e):
        return f"w^{e[1]}"
    return f"w^({spell(e, rng)})"


# -- finitely presented sets ------------------------------------------------------

def _primitive(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def make(prefix, period):
    """Canonical presentation: primitive period, no prefix suffix foldable into it."""
    prefix, period = list(prefix), _primitive(tuple(period))
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return (tuple(prefix), _primitive(period))


def full(rank: int):
    return make((), (1,)) if rank == 1 else make((), (full(rank - 1),))


def empty(rank: int):
    return make((), (0,)) if rank == 1 else make((), (empty(rank - 1),))


def random_set(rng, rank: int, density: float, max_prefix: int = 3, max_period: int = 3):
    """A random set whose bits are 1 with probability `density`."""
    if rank == 1:
        bits = lambda k: tuple(int(rng.random() < density) for _ in range(k))
        return make(bits(rng.randrange(max_prefix + 2)), bits(rng.randint(1, max_period + 1)))
    child = lambda: random_set(rng, rank - 1, density, max_prefix, max_period)
    return make(tuple(child() for _ in range(rng.randrange(max_prefix + 1))),
                tuple(child() for _ in range(rng.randint(1, max_period))))


def thin(s, rng, rank: int):
    """A pointwise subset of s: the same shape with some bits cleared."""
    if rank == 1:
        clear = lambda bits: tuple(b & (rng.random() < 0.7) for b in bits)
        return make(clear(s[0]), clear(s[1]))
    return make(tuple(thin(c, rng, rank - 1) for c in s[0]),
                tuple(thin(c, rng, rank - 1) for c in s[1]))


def to_obj(s, rank: int):
    if rank == 1:
        return {"prefix": "".join(map(str, s[0])), "period": "".join(map(str, s[1]))}
    return {"prefix": [to_obj(c, rank - 1) for c in s[0]],
            "tail": [to_obj(c, rank - 1) for c in s[1]]}


def set_from_obj(obj, rank: int):
    """A set from the CLI's JSON literal."""
    if rank == 1:
        return make(tuple(map(int, obj["prefix"])), tuple(map(int, obj["period"])))
    return make(tuple(set_from_obj(c, rank - 1) for c in obj["prefix"]),
                tuple(set_from_obj(c, rank - 1) for c in obj["tail"]))


def order_type(s, rank: int):
    if rank == 1:
        return OMEGA if any(s[1]) else nat(sum(s[0]))
    total = ZERO
    for c in s[0]:
        total = add(total, order_type(c, rank - 1))
    window = ZERO
    for c in s[1]:
        window = add(window, order_type(c, rank - 1))
    return add(total, times_omega(window))


def has_copy(s, rank: int) -> bool:
    """w^rank embeds into s: its order type is w^rank."""
    return compare(order_type(s, rank), omega_to(rank)) == 0


def embed(s, rank: int):
    """f(S): full blocks at the indices in the rank-1 set S, empty elsewhere."""
    pick = lambda bit: full(rank - 1) if bit else empty(rank - 1)
    return make(tuple(map(pick, s[0])), tuple(map(pick, s[1])))


def top_level_set(s, rank: int):
    """S^(rank-1): indices of blocks that hold a copy of w^(rank-1)."""
    bit = lambda c: 1 if has_copy(c, rank - 1) else 0
    return make(tuple(map(bit, s[0])), tuple(map(bit, s[1])))


def descending_chain(rng, length: int):
    """Rank-1 sets S_1 > S_2 > ... each differing from the next on infinitely many points."""
    period_len = length + rng.randint(1, 3)
    bits = [1] * period_len
    chain = []
    order = list(range(period_len))
    rng.shuffle(order)
    prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
    for i in range(length):
        chain.append(make(prefix, tuple(bits)))
        bits[order[i]] = 0
    return chain

