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
    # kind -> fields: copy: alpha | sq: arg | prod: factors ((PosetExpr, multiplicity),
    # ...) | cp: kappa | col: (lam, kappa) | rp: (n, base) | quot: delta (the algebra
    # P(w^delta)/I) | pos: arg | iter: (first, tag) | ro: arg
    __slots__ = ("kind", "alpha", "delta", "kappa", "lam", "n", "args", "factors", "tag")

    def __init__(self, kind: str, alpha: OrdinalTerm | None = None,
                 delta: OrdinalTerm | None = None, kappa: CardinalExpr | None = None,
                 lam: CardinalExpr | None = None, n: int | None = None, args: tuple = (),
                 factors: tuple = (), tag: str | None = None) -> None:
        init(self, "kind", kind)
        init(self, "alpha", alpha)
        init(self, "delta", delta)
        init(self, "kappa", kappa)
        init(self, "lam", lam)
        init(self, "n", n)
        init(self, "args", args)
        init(self, "factors", factors)
        init(self, "tag", tag)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.kind, self.alpha, self.delta, self.kappa, self.lam, self.n,
                     self.args, self.factors, self.tag)
                    == (other.kind, other.alpha, other.delta, other.kappa, other.lam,
                        other.n, other.args, other.factors, other.tag))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.alpha, self.delta, self.kappa, self.lam, self.n,
                     self.args, self.factors, self.tag))

    def __repr__(self) -> str:
        return f"<{render_poset(self)}>"


def sq_copies(alpha: OrdinalTerm) -> PosetExpr:
    return PosetExpr("sq", args=(PosetExpr("copy", alpha=alpha),))


def product(factors: list[tuple[PosetExpr, int]]) -> PosetExpr:
    if any(m < 1 for _p, m in factors):
        raise OrdinalError("product multiplicities must be positive")
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    return PosetExpr("prod", factors=tuple(factors))


def cp(kappa: CardinalExpr) -> PosetExpr:
    return PosetExpr("cp", kappa=kappa)


def col(lam: CardinalExpr, kappa: CardinalExpr) -> PosetExpr:
    return PosetExpr("col", lam=lam, kappa=kappa)


def iteration(first: PosetExpr, tag: str) -> PosetExpr:
    return PosetExpr("iter", args=(first,), tag=tag)


def ro(base: PosetExpr) -> PosetExpr:
    return PosetExpr("ro", args=(base,))


def render_poset(p: PosetExpr) -> str:
    if p.kind == "copy":
        return f"P({pretty(p.alpha)})"
    if p.kind == "sq":
        return f"sq({render_poset(p.args[0])})"
    if p.kind == "prod":
        parts = []
        for q, m in p.factors:
            txt = render_poset(q)
            parts.append(txt if m == 1 else f"{txt}^{m}")
        return " x ".join(parts)
    if p.kind == "cp":
        return f"CP({render_expr(p.kappa)})"
    if p.kind == "col":
        return f"Col({render_expr(p.lam)}, {render_expr(p.kappa)})"
    if p.kind == "rp":
        return f"rp^{p.n}({render_poset(p.args[0])})"
    if p.kind == "quot":
        return f"P(w^({pretty(p.delta)}))/I"
    if p.kind == "pos":
        return f"({render_poset(p.args[0])})+"
    if p.kind == "iter":
        return f"{render_poset(p.args[0])} * pi[{p.tag}]"
    if p.kind == "ro":
        return f"ro({render_poset(p.args[0])})"
    raise AssertionError(p.kind)


def poset_to_obj(p: PosetExpr) -> dict:
    obj: dict = {"kind": p.kind}
    if p.alpha is not None:
        obj["alpha"] = term_to_obj(p.alpha)
    if p.delta is not None:
        obj["delta"] = term_to_obj(p.delta)
    if p.kappa is not None:
        obj["kappa"] = render_expr(p.kappa)
    if p.lam is not None:
        obj["lambda"] = render_expr(p.lam)
    if p.n is not None:
        obj["n"] = p.n
    if p.args:
        obj["args"] = [poset_to_obj(a) for a in p.args]
    if p.factors:
        obj["factors"] = [[poset_to_obj(q), m] for q, m in p.factors]
    if p.tag is not None:
        obj["tag"] = p.tag
    obj["pretty"] = render_poset(p)
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
    base = PosetExpr("quot", delta=delta)
    if n:
        base = PosetExpr("rp", n=n, args=(base,))
    return PosetExpr("pos", args=(base,))


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
    __slots__ = ("kind", "operands", "trace", "resolved")

    def __init__(self, kind: str, operands: tuple = (), trace: tuple = (),
                 resolved: tuple = ()) -> None:
        # SigmaClosed | CompletelyEmbeds | Collapses | RoIso | RoNotIso
        # | ForcingEquivalent | Preserves
        init(self, "kind", kind)
        init(self, "operands", operands)  # PosetExpr / CardinalExpr / str operands
        init(self, "trace", trace)  # Steps
        init(self, "resolved", resolved)  # ((position, resolved text), ...) for display

    def to_obj(self) -> dict:
        return {"kind": self.kind,
                "operands": [_operand_obj(o) for o in self.operands],
                "pretty": fact_text(self),
                "trace": [s.to_obj() for s in self.trace],
                **({"resolved": {str(i): t for i, t in self.resolved}}
                   if self.resolved else {})}


def _operand_text(o) -> str:
    if isinstance(o, PosetExpr):
        return render_poset(o)
    if isinstance(o, CardinalExpr):
        return render_expr(o)
    return str(o)


def _operand_obj(o):
    if isinstance(o, PosetExpr):
        return poset_to_obj(o)
    if isinstance(o, CardinalExpr):
        return {"cardinal": render_expr(o)}
    return str(o)


def fact_text(f: ForcingFact) -> str:
    ops = [_operand_text(o) for o in f.operands]
    res = dict(f.resolved)
    for i in range(len(ops)):
        if i in res and res[i] != ops[i]:
            ops[i] = f"{ops[i]} (= {res[i]})"
    if f.kind == "SigmaClosed":
        return f"{ops[0]} is sigma-closed"
    if f.kind == "CompletelyEmbeds":
        return f"{ops[0]} completely embeds into {ops[1]}"
    if f.kind == "Collapses":
        return f"{ops[0]} collapses {ops[1]} to {ops[2]}"
    if f.kind == "RoIso":
        return f"ro({ops[0]}) ~ ro({ops[1]})"
    if f.kind == "RoNotIso":
        return f"ro({ops[0]}) is not isomorphic to ro({ops[1]})"
    if f.kind == "ForcingEquivalent":
        return f"{ops[0]} is forcing equivalent to {ops[1]}"
    if f.kind == "Preserves":
        return f"{ops[0]} preserves cardinals {ops[1]}"
    raise AssertionError(f.kind)
