"""Exact ordinal arithmetic on Cantor normal forms over omega and cardinal atoms.

A term is ``w^{e_1}*c_1 + ... + w^{e_k}*c_k + tail`` with strictly decreasing
exponents. Exponents are either terms again or bare :class:`CardinalAtom`
references; an uncountable atom ``a`` is an exponent fixpoint (``w^a = a``),
so the single-summand term ``w^a * 1`` never appears as an exponent, only the
bare atom does. The cardinal ``a`` *as an ordinal* is the term ``[(a, 1)], 0``.
"""
from __future__ import annotations

from .atoms import CardinalAtom
from .values import Value, init


class OrdinalError(ValueError):
    """Domain error (precondition violation) in an ordinal operation."""


# Size limits of a result, checked before it is computed. A natural number (a tail or
# a coefficient) has at most MAX_NUMERAL_DIGITS decimal digits, far below Python's
# 4300-digit int-to-str limit; a product or power has at most MAX_SUMMANDS summands.
MAX_NUMERAL_DIGITS = 1000
MAX_SUMMANDS = 10_000
_MAX_NATURAL = 10 ** MAX_NUMERAL_DIGITS - 1
_MAX_BITS = _MAX_NATURAL.bit_length()
_TOO_LARGE = f"natural number of more than {MAX_NUMERAL_DIGITS} digits"


def _bounded(n: int) -> int:
    if n > _MAX_NATURAL:
        raise OrdinalError(_TOO_LARGE)
    return n


def _nat_mul(x: int, y: int) -> int:
    # x * y >= 2^(bits(x) + bits(y) - 2) for x, y > 0: refuse before multiplying
    if x.bit_length() + y.bit_length() - 2 >= _MAX_BITS:
        raise OrdinalError(_TOO_LARGE)
    return _bounded(x * y)


def _nat_pow(x: int, m: int) -> int:
    # x^m >= 2^((bits(x) - 1) * m): refuse before exponentiating
    if (x.bit_length() - 1) * m >= _MAX_BITS:
        raise OrdinalError(_TOO_LARGE)
    return _bounded(x ** m)


def _summand_bound(count: int) -> None:
    if count > MAX_SUMMANDS:
        raise OrdinalError(f"term of more than {MAX_SUMMANDS} summands")


class OrdinalTerm(Value):
    __slots__ = ("summands", "tail")

    def __init__(self, summands: tuple = (), tail: int = 0) -> None:
        init(self, "summands", summands)
        init(self, "tail", tail)

    def _values(self) -> tuple:
        return (self.summands, self.tail)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.tail == other.tail and self.summands == other.summands
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.summands, self.tail))

    def is_zero(self) -> bool:
        return not self.summands and self.tail == 0

    def is_finite(self) -> bool:
        return not self.summands

    def is_successor(self) -> bool:
        return self.tail > 0

    def is_limit(self) -> bool:
        return bool(self.summands) and self.tail == 0

    def __repr__(self) -> str:
        return f"<{pretty(self)}>"


Exponent = CardinalAtom | OrdinalTerm

ZERO = OrdinalTerm()
ONE = OrdinalTerm((), 1)
OMEGA = OrdinalTerm(((ONE, 1),), 0)


def nat(n: int) -> OrdinalTerm:
    if n < 0:
        raise OrdinalError("ordinals are non-negative")
    return OrdinalTerm((), n)


def from_atom(atom: CardinalAtom) -> OrdinalTerm:
    """The cardinal atom as an ordinal: the term w^atom * 1."""
    return OrdinalTerm(((atom, 1),), 0)


def canon_exp(e: Exponent) -> Exponent:
    """Fixpoint canonicality: w^a*1 with bare-atom exponent collapses to the atom."""
    if isinstance(e, OrdinalTerm) and e.tail == 0 and len(e.summands) == 1:
        inner, coeff = e.summands[0]
        if coeff == 1 and isinstance(inner, CardinalAtom):
            return inner
    return e


def exp_term(e: Exponent) -> OrdinalTerm:
    return from_atom(e) if isinstance(e, CardinalAtom) else e


def omega_power(e: Exponent, coeff: int = 1) -> OrdinalTerm:
    if coeff <= 0:
        raise OrdinalError("coefficient must be positive")
    if isinstance(e, OrdinalTerm) and e.is_zero():
        return nat(coeff)
    return OrdinalTerm(((canon_exp(e), coeff),), 0)


def cmp_exp(e: Exponent, f: Exponent) -> int:
    if isinstance(e, CardinalAtom):
        if isinstance(f, CardinalAtom):
            return (e.rank > f.rank) - (e.rank < f.rank)
        # one-step unfolding with an equality guard against re-unfolding
        if canon_exp(f) is e or canon_exp(f) == e:
            return 0
        return compare(from_atom(e), f)
    if isinstance(f, CardinalAtom):
        return -cmp_exp(f, e)
    return compare(e, f)


def compare(a: OrdinalTerm, b: OrdinalTerm) -> int:
    """Lexicographic CNF comparison; total order on canonical terms."""
    for (ea, ca), (eb, cb) in zip(a.summands, b.summands):
        k = cmp_exp(ea, eb)
        if k != 0:
            return k
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a.summands) != len(b.summands):
        return 1 if len(a.summands) > len(b.summands) else -1
    return (a.tail > b.tail) - (a.tail < b.tail)


def add(a: OrdinalTerm, b: OrdinalTerm) -> OrdinalTerm:
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    if b.is_finite():
        return OrdinalTerm(a.summands, _bounded(a.tail + b.tail))
    e0, c0 = b.summands[0]
    keep = []
    merged = False
    for i, (e, c) in enumerate(a.summands):
        k = cmp_exp(e, e0)
        if k > 0:
            keep.append((e, c))
        elif k == 0:
            keep.append((e0, _bounded(c + c0)))
            merged = True
            break
        else:
            break
    if not merged:
        keep.append((e0, c0))
    return OrdinalTerm(tuple(keep) + b.summands[1:], b.tail)


def add_exp(e: Exponent, f: Exponent) -> Exponent:
    return canon_exp(add(exp_term(e), exp_term(f)))


def mul(a: OrdinalTerm, b: OrdinalTerm) -> OrdinalTerm:
    if a.is_zero() or b.is_zero():
        return ZERO
    if a.is_finite() and b.is_finite():
        return nat(_nat_mul(a.tail, b.tail))
    if a.is_finite():
        # n * (w^f*t + ...) = w^f*t + ... ; only the finite tail sees n
        return OrdinalTerm(b.summands, _nat_mul(a.tail, b.tail))
    e0, c0 = a.summands[0]
    if b.tail > 0:
        _summand_bound(len(a.summands) + len(b.summands))
    out = [(add_exp(e0, f), t) for (f, t) in b.summands]
    tail = 0
    if b.tail > 0:
        out.append((e0, _nat_mul(c0, b.tail)))
        out.extend(a.summands[1:])
        tail = a.tail
    return OrdinalTerm(tuple(out), tail)


def _pow_nat(a: OrdinalTerm, m: int) -> OrdinalTerm:
    if a.is_finite():
        return nat(_nat_pow(a.tail, m))
    if a.tail:
        # each factor a with a finite tail adds len(a.summands) summands
        _summand_bound(m * len(a.summands))
    result = ONE
    base = a
    while m:
        if m & 1:
            result = mul(result, base)
        m >>= 1
        if m:
            base = mul(base, base)
    return result


def power(a: OrdinalTerm, b: OrdinalTerm) -> OrdinalTerm:
    """Ordinal exponentiation; power(0, 0) = 1 by convention."""
    if b.is_zero():
        return ONE
    if a.is_zero():
        return ZERO
    if a == ONE:
        return ONE
    if b.is_finite():
        return _pow_nat(a, b.tail)
    if a.is_finite():
        # n^(w*q + r) = w^q * n^r for finite n >= 2
        q = ZERO
        for (f, t) in b.summands:
            if isinstance(f, OrdinalTerm) and f.is_finite():
                fq: Exponent = nat(f.tail - 1)
            else:
                fq = f  # 1 + f = f for infinite f
            q = add(q, omega_power(fq, t) if not (isinstance(fq, OrdinalTerm) and fq.is_zero()) else nat(t))
        return mul(omega_power(q), nat(_nat_pow(a.tail, b.tail)))
    e0 = a.summands[0][0]
    limit_part = OrdinalTerm(b.summands, 0)
    head_exp = canon_exp(mul(exp_term(e0), limit_part))
    return mul(omega_power(head_exp), _pow_nat(a, b.tail))


def left_subtract(a: OrdinalTerm, b: OrdinalTerm) -> OrdinalTerm:
    """The unique c with a + c = b; requires a <= b."""
    i = 0
    while i < len(a.summands) and i < len(b.summands):
        (ea, ca), (eb, cb) = a.summands[i], b.summands[i]
        k = cmp_exp(ea, eb)
        if k > 0 or (k == 0 and ca > cb):
            raise OrdinalError("left_subtract requires a <= b")
        if k < 0:
            return OrdinalTerm(b.summands[i:], b.tail)
        if ca < cb:
            return OrdinalTerm(((eb, cb - ca),) + b.summands[i + 1:], b.tail)
        i += 1
    if i < len(a.summands):
        raise OrdinalError("left_subtract requires a <= b")
    if i < len(b.summands):
        return OrdinalTerm(b.summands[i:], b.tail)
    if a.tail > b.tail:
        raise OrdinalError("left_subtract requires a <= b")
    return nat(b.tail - a.tail)


def divmod_power(a: OrdinalTerm, e: Exponent) -> tuple[OrdinalTerm, OrdinalTerm]:
    """a = w^e * q + r with r < w^e."""
    if isinstance(e, OrdinalTerm) and e.is_zero():
        return a, ZERO
    et = exp_term(e)
    q_summands = []
    q_tail = 0
    rest: list = []
    for (f, c) in a.summands:
        k = cmp_exp(f, e)
        if k > 0:
            q_summands.append((canon_exp(left_subtract(et, exp_term(f))), c))
        elif k == 0:
            q_tail = c
        else:
            rest.append((f, c))
    return OrdinalTerm(tuple(q_summands), q_tail), OrdinalTerm(tuple(rest), a.tail)


def leading_exponent(a: OrdinalTerm) -> Exponent:
    if a.is_finite():
        return ZERO
    return a.summands[0][0]


# -- cofinality, cardinality, structure predicates ---------------------------

def _cof_of_power(e: Exponent) -> OrdinalTerm:
    """cf(w^e) for e >= 1."""
    if isinstance(e, CardinalAtom):
        if e.regular:
            return from_atom(e)
        if e.declared_cofinality is None:
            return OMEGA
        return from_atom(e.declared_cofinality)
    if e.is_successor():
        return OMEGA
    return cofinality(e)


def cofinality(a: OrdinalTerm) -> OrdinalTerm:
    if a.is_zero():
        return ZERO
    if a.is_finite() or a.is_successor():
        return ONE
    e, _ = a.summands[-1]
    return _cof_of_power(e)


class CardinalityValue(Value):
    __slots__ = ("kind", "n", "atom")

    def __init__(self, kind: str, n: int = 0, atom: CardinalAtom | None = None) -> None:
        init(self, "kind", kind)  # "finite" | "aleph0" | "atom"
        init(self, "n", n)
        init(self, "atom", atom)

    def _values(self) -> tuple:
        return (self.kind, self.n, self.atom)

    def key(self) -> tuple:
        if self.kind == "finite":
            return (0, self.n)
        if self.kind == "aleph0":
            return (1, 0)
        return (2, self.atom.rank)

    def __le__(self, other: "CardinalityValue") -> bool:
        return self.key() <= other.key()

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.n)
        if self.kind == "aleph0":
            return "aleph0"
        return self.atom.name


def max_atom(a: OrdinalTerm) -> CardinalAtom | None:
    best: CardinalAtom | None = None
    for (e, _c) in a.summands:
        if isinstance(e, CardinalAtom):
            cand = e
        else:
            cand = max_atom(e)
        if cand is not None and (best is None or cand.rank > best.rank):
            best = cand
    return best


def cardinality(a: OrdinalTerm) -> CardinalityValue:
    if a.is_finite():
        return CardinalityValue("finite", n=a.tail)
    atom = max_atom(a)
    if atom is None:
        return CardinalityValue("aleph0")
    return CardinalityValue("atom", atom=atom)


def is_indecomposable(a: OrdinalTerm) -> bool:
    return (a.tail == 0 and len(a.summands) == 1 and a.summands[0][1] == 1
            and compare(a, OMEGA) >= 0)


# -- base-kappa normal form ---------------------------------------------------

class BaseCNF(Value):
    __slots__ = ("base", "digits", "remainder")

    def __init__(self, base: CardinalAtom, digits: tuple, remainder: OrdinalTerm) -> None:
        init(self, "base", base)
        # ((xi, zeta), ...) with xi, zeta OrdinalTerms, zeta < base
        init(self, "digits", digits)
        init(self, "remainder", remainder)

    def _values(self) -> tuple:
        return (self.base, self.digits, self.remainder)

    def recompose(self) -> OrdinalTerm:
        base_ord = from_atom(self.base)
        total = ZERO
        for xi, zeta in self.digits:
            total = add(total, mul(power(base_ord, xi), zeta))
        return add(total, self.remainder)


def cnf_base(a: OrdinalTerm, base: CardinalAtom) -> BaseCNF:
    """Normal form in the base of a cardinal atom, by repeated division by its powers."""
    base_ord = from_atom(base)
    digits = []
    rest = a
    while compare(rest, base_ord) >= 0:
        d1 = exp_term(leading_exponent(rest))
        xi, _ = divmod_power(d1, base)  # largest xi with base*xi <= d1
        zeta, rest = divmod_power(rest, canon_exp(mul(base_ord, xi)))
        if zeta.is_zero() or compare(zeta, base_ord) >= 0:
            raise AssertionError("base-CNF digit out of range")
        digits.append((xi, zeta))
    return BaseCNF(base, tuple(digits), rest)


# -- printing and serialization ----------------------------------------------

def _needs_parens(e: OrdinalTerm) -> bool:
    if e.is_finite():
        return False
    if e.tail > 0 or len(e.summands) > 1:
        return True
    return e.summands[0][1] != 1


def _render_power(e: Exponent) -> str:
    if isinstance(e, CardinalAtom):
        return e.name
    if e == ONE:
        return "w"
    if e.is_finite():
        return f"w^{e.tail}"
    inner = pretty(e)
    return f"w^({inner})" if _needs_parens(e) else f"w^{inner}"


def pretty(a: OrdinalTerm) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for (e, c) in a.summands:
        base = _render_power(e)
        parts.append(base if c == 1 else f"{base}*{c}")
    if a.tail:
        parts.append(str(a.tail))
    return " + ".join(parts)


def term_to_obj(a: OrdinalTerm) -> dict:
    def exp_obj(e: Exponent):
        if isinstance(e, CardinalAtom):
            return {"atom": e.name}
        return term_to_obj(e)

    return {"summands": [[exp_obj(e), c] for (e, c) in a.summands], "tail": a.tail}


def term_from_obj(obj: dict, registry) -> OrdinalTerm:
    def exp_from(o) -> Exponent:
        if "atom" in o:
            atom = registry.lookup(o["atom"])
            if atom is None:
                raise OrdinalError(f"undeclared atom {o['atom']!r}")
            return atom
        return term_from_obj(o, registry)

    summands = tuple((canon_exp(exp_from(e)), int(c)) for e, c in obj.get("summands", []))
    term = OrdinalTerm(summands, int(obj.get("tail", 0)))
    check_canonical(term)
    return term


def check_canonical(a: OrdinalTerm) -> None:
    prev: Exponent | None = None
    for (e, c) in a.summands:
        if c <= 0:
            raise OrdinalError("coefficients must be positive")
        if isinstance(e, OrdinalTerm):
            if e.is_zero():
                raise OrdinalError("exponent 0 belongs in the tail")
            if canon_exp(e) is not e:
                raise OrdinalError("exponent w^a*1 must be stored as the bare atom")
            check_canonical(e)
        if prev is not None and cmp_exp(prev, e) <= 0:
            raise OrdinalError("exponents must strictly decrease")
        prev = e
    if a.tail < 0:
        raise OrdinalError("tail must be a natural number")
