"""Symbolic poset expressions and the structural factorization of copy posets.

``factorize`` rewrites sq(P(alpha)) as a forcing product over the CNF
exponents of alpha, dropping the finite tail; ``rp_refine`` expresses
sq(P(w^(delta+n))) through iterated reduced powers of the quotient algebra.
"""
from __future__ import annotations

from .terms import (
    OMEGA, OrdinalTerm, OrdinalError, compare, omega_power, pretty, term_to_obj,
)
from .cardexpr import CardinalExpr, render_expr, render_rel
from .values import Value, init


class PosetExpr(Value):
    """A kind and its operands, laid out per kind as copy (alpha,), sq (p,),
    prod ((p, m), ...), cp (kappa,), col (lam, kappa), rp (n, p), quot (delta,),
    pos (p,), iter (p, tag) and ro (p,): p is a PosetExpr, alpha and delta are
    ordinals, kappa and lam cardinals, m >= 1 and n naturals and tag a str.
    ``render_poset`` gives each kind's notation."""
    __slots__ = ("kind", "operands", "_hash")

    def __init__(self, kind: str, operands: tuple) -> None:
        init(self, "kind", kind)
        init(self, "operands", operands)
        init(self, "_hash", None)  # see _cached_hash

    def __hash__(self) -> int:
        return _cached_hash(self)

    def __repr__(self) -> str:
        return f"<{render_poset(self)}>"


def _cached_hash(v: PosetExpr | ForcingFact) -> int:
    """v's hash, computed when first asked for and kept in its ``_hash`` slot: the kept
    JSON texts (rules._TEXTS) are looked up by poset and by fact, and a fact's hash
    walks its whole trace."""
    if v._hash is None:
        init(v, "_hash", hash(v._values()))
    return v._hash


def sq_copies(alpha: OrdinalTerm) -> PosetExpr:
    return PosetExpr("sq", (PosetExpr("copy", (alpha,)),))


def product(factors: list[tuple[PosetExpr, int]]) -> PosetExpr:
    if any(m < 1 for _p, m in factors):
        raise OrdinalError("product multiplicities must be positive")
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    return PosetExpr("prod", tuple(factors))


def cp(kappa: CardinalExpr) -> PosetExpr:
    return PosetExpr("cp", (kappa,))


def col(lam: CardinalExpr, kappa: CardinalExpr) -> PosetExpr:
    return PosetExpr("col", (lam, kappa))


def iteration(first: PosetExpr, tag: str) -> PosetExpr:
    return PosetExpr("iter", (first, tag))


def ro(base: PosetExpr) -> PosetExpr:
    return PosetExpr("ro", (base,))


def substitute(o, resolve):
    """o with ``resolve`` applied to each cardinal in it: o is a cardinal, a poset, a
    product's (poset, multiplicity) pair or another operand, which stays as it is."""
    if isinstance(o, CardinalExpr):
        return resolve(o)
    if isinstance(o, PosetExpr):
        ops = tuple([substitute(x, resolve) for x in o.operands])
        return o if ops == o.operands else PosetExpr(o.kind, ops)
    if isinstance(o, tuple):
        return substitute(o[0], resolve), o[1]
    return o


def render_poset(p: PosetExpr) -> str:
    kind, ops = p.kind, p.operands
    if kind == "copy":
        return f"P({pretty(ops[0])})"
    if kind == "sq":
        return f"sq({render_poset(ops[0])})"
    if kind == "prod":
        parts = []
        for q, m in ops:
            txt = render_poset(q)
            parts.append(txt if m == 1 else f"{txt}^{m}")
        return " x ".join(parts)
    if kind == "cp":
        return f"CP({render_expr(ops[0])})"
    if kind == "col":
        return f"Col({render_expr(ops[0])}, {render_expr(ops[1])})"
    if kind == "rp":
        return f"rp^{ops[0]}({render_poset(ops[1])})"
    if kind == "quot":
        return f"P(w^({pretty(ops[0])}))/I"
    if kind == "pos":
        return f"({render_poset(ops[0])})+"
    if kind == "iter":
        return f"{render_poset(ops[0])} * pi[{ops[1]}]"
    if kind == "ro":
        return f"ro({render_poset(ops[0])})"
    raise AssertionError(kind)


# each kind's JSON key for each operand, a poset operand in a list under "args"; a
# product lists its (poset, multiplicity) operands as "factors"
_JSON_KEYS = {"copy": ("alpha",), "sq": ("args",), "cp": ("kappa",),
              "col": ("lambda", "kappa"), "rp": ("n", "args"), "quot": ("delta",),
              "pos": ("args",), "iter": ("args", "tag"), "ro": ("args",)}


def poset_to_obj(p: PosetExpr, memo: dict | None = None) -> dict:
    """p's JSON object. Each poset's object is built once and kept in ``memo``, so
    the posets met again share it: pass one dict to share objects across calls (one
    report's facts name many posets more than once)."""
    if memo is None:
        memo = {}
    obj = memo.get(p)
    if obj is not None:
        return obj
    obj = {"kind": p.kind, "pretty": render_poset(p)}
    if p.kind == "prod":
        obj["factors"] = [[poset_to_obj(q, memo), m] for q, m in p.operands]
    else:
        for key, o in zip(_JSON_KEYS[p.kind], p.operands):
            obj[key] = ([poset_to_obj(o, memo)] if isinstance(o, PosetExpr)
                        else render_expr(o) if isinstance(o, CardinalExpr)
                        else term_to_obj(o) if isinstance(o, OrdinalTerm) else o)
    memo[p] = obj
    return obj


def factorize(alpha: OrdinalTerm) -> PosetExpr:
    """sq(P(alpha)) as a product over the CNF exponents, tail discarded."""
    if compare(alpha, OMEGA) < 0:
        raise OrdinalError("factorization requires an infinite ordinal")
    factors = [(sq_copies(omega_power(e)), c) for (e, c) in alpha.summands]
    return product(factors)


def rp_refine(delta: OrdinalTerm, n: int) -> PosetExpr:
    """sq(P(w^(delta+n))) as the positive part of rp^n of P(w^delta)/I."""
    if delta.is_zero():
        raise OrdinalError("reduced-power refinement requires delta >= 1")
    if n < 0:
        raise OrdinalError("the reduced-power index is a natural number")
    base = PosetExpr("quot", (delta,))
    if n:
        base = PosetExpr("rp", (n, base))
    return PosetExpr("pos", (base,))


class Step(Value):
    __slots__ = ("rule", "instantiation", "premises")

    def __init__(self, rule: str, instantiation: tuple = (), premises: tuple = ()) -> None:
        init(self, "rule", rule)
        init(self, "instantiation", instantiation)  # ((name, value), ...)
        # ("closure", rel) | ("fact", ForcingFact) | ("case", delta, label)
        # | ("subfact", delta0, ForcingFact): a fact of the analysis of w^delta0
        init(self, "premises", premises)

    def to_obj(self) -> dict:
        return {"rule": self.rule,
                "instantiation": {k: v for k, v in self.instantiation},
                "premises": [premise_text(p) for p in self.premises]}


def premise_text(p: tuple) -> str:
    if p[0] == "closure":
        return f"closure: {render_rel(p[1])}"
    if p[0] == "fact":
        return f"fact: {fact_text(p[1])}"
    if p[0] == "case":
        return f"case({pretty(p[1])}) = {p[2]}"
    if p[0] == "subfact":
        return f"subfact(w^({pretty(p[1])})): {fact_text(p[2])}"
    raise AssertionError(p[0])


class ForcingFact(Value):
    __slots__ = ("kind", "operands", "trace", "resolved", "_hash")

    def __init__(self, kind: str, operands: tuple = (), trace: tuple = (),
                 resolved: tuple = ()) -> None:
        init(self, "kind", kind)  # a key of _SENTENCES
        init(self, "operands", operands)  # PosetExpr / CardinalExpr / str operands
        init(self, "trace", trace)  # Steps
        init(self, "resolved", resolved)  # ((position, resolved text), ...) for display
        init(self, "_hash", None)  # see _cached_hash

    def __hash__(self) -> int:
        return _cached_hash(self)

    def to_obj(self, memo: dict | None = None) -> dict:
        """The fact's JSON object; ``memo`` is ``poset_to_obj``'s."""
        return {"kind": self.kind,
                "operands": [_operand_obj(o, memo) for o in self.operands],
                "pretty": fact_text(self),
                "trace": [s.to_obj() for s in self.trace],
                **({"resolved": {str(i): t for i, t in self.resolved}}
                   if self.resolved else {})}


def operand_text(o) -> str:
    if isinstance(o, PosetExpr):
        return render_poset(o)
    if isinstance(o, CardinalExpr):
        return render_expr(o)
    return str(o)


def _operand_obj(o, memo: dict | None):
    if isinstance(o, PosetExpr):
        return poset_to_obj(o, memo)
    if isinstance(o, CardinalExpr):
        return {"cardinal": render_expr(o)}
    return str(o)


# each fact kind's sentence over its operands' texts
_SENTENCES = {
    "SigmaClosed": "{0} is sigma-closed",
    "CompletelyEmbeds": "{0} completely embeds into {1}",
    "Collapses": "{0} collapses {1} to {2}",
    "RoIso": "ro({0}) ~ ro({1})",
    "RoNotIso": "ro({0}) is not isomorphic to ro({1})",
    "ForcingEquivalent": "{0} is forcing equivalent to {1}",
    "Preserves": "{0} preserves cardinals {1}",
}


def fact_text(f: ForcingFact) -> str:
    ops = [operand_text(o) for o in f.operands]
    for i, text in f.resolved:
        if text != ops[i]:
            ops[i] = f"{ops[i]} (= {text})"
    return _SENTENCES[f.kind].format(*ops)
