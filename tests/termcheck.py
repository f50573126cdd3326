"""Term helpers that only the tests use: the canonical-form oracle, the JSON term
decoder and the base-kappa recomposition."""
from __future__ import annotations

from copyposet.terms import (
    ZERO, BaseCNF, Exponent, OrdinalError, OrdinalTerm, add, canon_exp, cmp_exp,
    from_atom, mul, power,
)


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


def term_from_obj(obj: dict, registry) -> OrdinalTerm:
    """The inverse of ``terms.term_to_obj``; the result is checked canonical."""
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


def recompose(b: BaseCNF) -> OrdinalTerm:
    """The ordinal a base-kappa normal form denotes."""
    base_ord = from_atom(b.base)
    total = ZERO
    for xi, zeta in b.digits:
        total = add(total, mul(power(base_ord, xi), zeta))
    return add(total, b.remainder)
