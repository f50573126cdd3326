"""Exhaustive case analysis of exponents and symbolic fundamental sequences.

Every exponent ``delta > 0`` falls in exactly one of five classes keyed on
``kappa = cf(delta)``:

  A  delta is a successor or cf(delta) = omega;
  B  delta = theta + kappa with theta >= kappa > cf(theta) = omega;
  C  delta = theta + kappa with omega < cf(theta) < kappa;
  D  delta = theta + kappa with theta = 0 or cf(theta) >= kappa > omega;
  E  kappa > omega and delta is not of the form theta + kappa.

Reports carry machine-checkable witnesses, re-verified with term arithmetic
before they are returned.
"""
from __future__ import annotations

from collections.abc import Callable

from .atoms import CardinalAtom
from .terms import (
    ONE, OMEGA, OrdinalTerm, OrdinalError, add, mul, power, compare, nat,
    cofinality, canon_exp, exp_term, from_atom, omega_power, divmod_power, pretty,
    term_to_obj,
)
from .values import Value, init


class SequenceSchema(Value):
    """Strictly increasing schema t(var) for var below range_, with sup as stated.

    ``_build`` computes t(var); it takes no part in equality or hashing."""
    __slots__ = ("var", "range_", "expr", "symbolic_only", "route", "_build")

    def __init__(self, var: str, range_: OrdinalTerm, expr: str,
                 symbolic_only: bool = False, route: str | None = None,
                 _build: Callable[[OrdinalTerm], OrdinalTerm] | None = None) -> None:
        init(self, "var", var)
        init(self, "range_", range_)
        init(self, "expr", expr)
        init(self, "symbolic_only", symbolic_only)
        init(self, "route", route)
        init(self, "_build", _build)

    def __reduce__(self):
        return SequenceSchema, (*self._values(), self._build)

    def to_obj(self) -> dict:
        obj = {"expr": self.expr, "var": self.var, "range": term_to_obj(self.range_),
               "range_pretty": pretty(self.range_)}
        if self.route is not None:
            obj["route"] = self.route
        if self.symbolic_only:
            obj["symbolic_only"] = True
        return obj


def instantiate(schema: SequenceSchema, index: int | OrdinalTerm) -> OrdinalTerm:
    if schema.symbolic_only or schema._build is None:
        raise OrdinalError("schema is symbolic-only and cannot be instantiated")
    it = nat(index) if isinstance(index, int) else index
    return schema._build(it)


class CaseReport(Value):
    __slots__ = ("label", "kappa", "theta", "lam", "schema")

    def __init__(self, label: str, kappa: OrdinalTerm, theta: OrdinalTerm | None = None,
                 lam: OrdinalTerm | None = None,
                 schema: SequenceSchema | None = None) -> None:
        init(self, "label", label)
        init(self, "kappa", kappa)
        init(self, "theta", theta)
        init(self, "lam", lam)
        init(self, "schema", schema)

    def to_obj(self) -> dict:
        obj = {"label": self.label,
               "kappa": term_to_obj(self.kappa), "kappa_pretty": pretty(self.kappa)}
        if self.theta is not None:
            obj["theta"] = term_to_obj(self.theta)
            obj["theta_pretty"] = pretty(self.theta)
        if self.lam is not None:
            obj["lambda"] = term_to_obj(self.lam)
            obj["lambda_pretty"] = pretty(self.lam)
        if self.schema is not None:
            obj["schema"] = self.schema.to_obj()
        return obj


def split_last(delta: OrdinalTerm) -> tuple[OrdinalTerm, OrdinalTerm]:
    """delta = theta + w^e for the last CNF summand; returns (theta, w^e)."""
    e, c = delta.summands[-1]
    if c > 1:
        theta = OrdinalTerm(delta.summands[:-1] + ((e, c - 1),), 0)
    else:
        theta = OrdinalTerm(delta.summands[:-1], 0)
    return theta, omega_power(e)


def _join(*parts: str) -> str:
    return " + ".join(p for p in parts if p)


def _compose(inner: SequenceSchema, expr: str, outer: Callable[[OrdinalTerm], OrdinalTerm],
             route: str | None = None) -> SequenceSchema:
    """The schema outer(t(var)) for inner's t and var; symbolic-only when inner is."""
    build = None if inner.symbolic_only else lambda it, b=inner._build: outer(b(it))
    return SequenceSchema(inner.var, inner.range_, expr, inner.symbolic_only, route, build)


def _var(range_: OrdinalTerm, whole: OrdinalTerm) -> str:
    """The variable of a schema for ``whole`` running below range_: n below w, else
    xi, with "_" appended while it names an atom of whole or the cofinality of one."""
    names, terms = set(), [whole]
    while terms:
        for e, _c in terms.pop().summands:
            if isinstance(e, CardinalAtom):
                names |= {e.name, pretty(cofinality(from_atom(e)))}
            else:
                terms.append(e)
    var = "n" if range_ == OMEGA else "xi"
    while var in names:
        var += "_"
    return var


def _fund_schema(x: OrdinalTerm, alpha_mode: bool, whole: OrdinalTerm) -> SequenceSchema:
    """Canonical fundamental sequence of a limit term x, in a variable for ``whole``.

    With ``alpha_mode`` the enumeration starts at the peeled prefix itself
    (coefficient i); otherwise coefficient i+1 is used whenever the peeled
    power is w^(e'+1) with e' >= 1, so all elements share one cofinality.
    """
    prefix, _last = split_last(x)
    e = x.summands[-1][0]
    q_str = pretty(prefix) if not prefix.is_zero() else ""

    if isinstance(e, CardinalAtom):
        rng = cofinality(from_atom(e))
        var = _var(rng, whole)
        if e.regular:
            return SequenceSchema(var, rng, _join(q_str, var),
                                  _build=lambda it, p=prefix: add(p, it))
        # no fundamental sequence is stored for a singular atom
        return SequenceSchema(var, rng, _join(q_str, f"cofseq_{e.name}({var})"),
                              symbolic_only=True)

    if e.tail > 0:
        n = _var(OMEGA, whole)
        eprime = OrdinalTerm(e.summands, e.tail - 1)
        if eprime.is_zero():
            return SequenceSchema(n, OMEGA, _join(q_str, n),
                                  _build=lambda it, p=prefix: add(p, it))
        wp = omega_power(canon_exp(eprime))
        if alpha_mode:
            return SequenceSchema(
                n, OMEGA, _join(q_str, f"{pretty(wp)}*{n}"),
                _build=lambda it, p=prefix, w=wp: add(p, mul(w, it)))
        return SequenceSchema(
            n, OMEGA, _join(q_str, f"{pretty(wp)}*({n}+1)"),
            _build=lambda it, p=prefix, w=wp: add(p, mul(w, add(it, ONE))))

    inner = _fund_schema(e, alpha_mode, whole)
    return _compose(inner, _join(q_str, f"w^({inner.expr})"),
                    lambda t, p=prefix: add(p, omega_power(canon_exp(t))))


def _theta_schema(delta: OrdinalTerm) -> SequenceSchema:
    """Case B/C, delta = theta + kappa: theta = sup t(i) with cf(t(i)) = kappa, via
    t(i) = alpha_i + kappa."""
    theta, kappa = split_last(delta)
    alpha = _fund_schema(theta, alpha_mode=True, whole=delta)
    return _compose(alpha, _join(alpha.expr, pretty(kappa)), lambda t, k=kappa: add(t, k))


def _case_e_schema(delta: OrdinalTerm, kappa: OrdinalTerm) -> SequenceSchema:
    """Case E: delta = theta + kappa^{xi1}; two shapes depending on xi1."""
    theta, _last = split_last(delta)
    xi1, rem = divmod_power(exp_term(delta.summands[-1][0]), kappa.summands[0][0])
    if not rem.is_zero():
        raise AssertionError("case E exponent not a clean kappa multiple")
    kname = pretty(kappa)
    t_str = pretty(theta) if not theta.is_zero() else ""
    if xi1.is_successor():
        # delta ends with kappa^a * kappa, a >= 1: t(xi) = theta + kappa^a*xi + kappa
        a = OrdinalTerm(xi1.summands, xi1.tail - 1)
        ka = power(kappa, a)
        xi = _var(kappa, delta)
        piece = f"{kname}*{xi}" if a == ONE else f"{kname}^({pretty(a)})*{xi}"
        return SequenceSchema(
            xi, kappa, _join(t_str, piece, kname), route="successor-step",
            _build=lambda it, th=theta, k=kappa, p=ka: add(th, add(mul(p, it), k)))
    # cf(xi1) = kappa, so alpha runs below kappa: t(xi) = theta + kappa^(alpha_xi + 1)
    alpha = _fund_schema(xi1, alpha_mode=True, whole=delta)
    return _compose(alpha, _join(t_str, f"{kname}^(({alpha.expr})+1)"),
                    lambda t, th=theta, k=kappa: add(th, power(k, add(t, ONE))),
                    route="power-limit")


def _check_schema(schema: SequenceSchema, below: OrdinalTerm,
                  kappa: OrdinalTerm | None) -> None:
    if schema.symbolic_only:
        return
    samples = [instantiate(schema, n) for n in range(4)]
    for i, t in enumerate(samples):
        if compare(t, below) >= 0:
            raise AssertionError("schema element not below its supremum target")
        if i and compare(samples[i - 1], t) >= 0:
            raise AssertionError("schema not strictly increasing")
        if kappa is not None and cofinality(t) != kappa:
            raise AssertionError("schema element has the wrong cofinality")


def classify_exponent(delta: OrdinalTerm) -> CaseReport:
    """Assign the unique label (A)-(E) with verified witnesses."""
    if delta.is_zero():
        raise OrdinalError("classification requires delta > 0")
    kappa = cofinality(delta)
    if compare(kappa, OMEGA) <= 0:
        return CaseReport("A", kappa)

    theta, last_pow = split_last(delta)
    if last_pow == kappa:
        if theta.is_zero():
            return _checked(CaseReport("D", kappa, theta=theta), delta)
        ct = cofinality(theta)
        if compare(ct, kappa) >= 0:
            return _checked(CaseReport("D", kappa, theta=theta), delta)
        if ct == OMEGA:
            rep = CaseReport("B", kappa, theta=theta, lam=OMEGA,
                             schema=_theta_schema(delta))
        else:
            rep = CaseReport("C", kappa, theta=theta, lam=ct,
                             schema=_theta_schema(delta))
        return _checked(rep, delta)

    rep = CaseReport("E", kappa, schema=_case_e_schema(delta, kappa))
    return _checked(rep, delta)


def _checked(rep: CaseReport, delta: OrdinalTerm) -> CaseReport:
    kappa = rep.kappa
    if rep.label in ("B", "C", "D"):
        if add(rep.theta, kappa) != delta:
            raise AssertionError("witness theta does not recompose delta")
        ct = cofinality(rep.theta)
        if rep.label == "D" and not (rep.theta.is_zero() or compare(ct, kappa) >= 0):
            raise AssertionError("case D witness condition failed")
        if rep.label == "B" and ct != OMEGA:
            raise AssertionError("case B needs cf(theta) = omega")
        if rep.label == "C" and not (compare(OMEGA, ct) < 0 and compare(ct, kappa) < 0):
            raise AssertionError("case C needs omega < cf(theta) < kappa")
        if rep.schema is not None:
            _check_schema(rep.schema, below=rep.theta, kappa=kappa)
    elif rep.label == "E":
        _check_schema(rep.schema, below=delta, kappa=kappa)
    return rep


def fundamental_description(delta: OrdinalTerm) -> SequenceSchema:
    """A schema t(i), i below cf(delta), strictly increasing with sup delta."""
    if not delta.is_limit():
        raise OrdinalError("fundamental sequences exist only for limit ordinals")
    rep = classify_exponent(delta)
    if rep.label == "A":
        return _fund_schema(delta, alpha_mode=False, whole=delta)
    if rep.label == "E":
        return rep.schema
    # B/C/D: delta = theta + kappa, enumerated as theta + xi
    theta = rep.theta
    t_str = pretty(theta) if not theta.is_zero() else ""
    xi = _var(rep.kappa, delta)
    return SequenceSchema(xi, rep.kappa, _join(t_str, xi),
                          _build=lambda it, th=theta: add(th, it))
