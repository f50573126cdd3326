"""Cardinal expressions and hypotheses: the hash-consed ``CardinalExpr``, its
constructors and rendering, and the hypothesis grammar. The closure over them is in
``cardinals``; everything here loads without it.
"""
from __future__ import annotations

from .atoms import AtomRegistry, CardinalAtom, builtin
from .parser import ParseError, TokenStream, parse_declaration, tokenize
from .values import Value, init, interned


class HypothesisError(ValueError):
    pass


class ContradictionError(HypothesisError):
    def __init__(self, message: str, chain: list[str]):
        super().__init__(message)
        self.chain = chain


# -- expressions ---------------------------------------------------------------

_KIND_ORDER = {"aleph0": 0, "atom": 1, "succ": 2, "c": 3, "h": 4,
               "pow2": 5, "pow2lt": 6, "exp": 7, "cf": 8, "cc_cp": 9}


class CardinalExpr:
    """An immutable cardinal expression, hash-consed by ``values.interned``: there is
    one live instance per ``(kind, atom, args)``, so equality and hashing are the
    identity ones of ``object``. ``skey`` is the total order key the closure sorts by,
    built once from the children's keys."""

    __slots__ = ("kind", "atom", "args", "skey", "__weakref__")
    kind: str  # aleph0 | atom | c | h | succ | cf | pow2 | pow2lt | exp | cc_cp
    atom: CardinalAtom | None
    args: tuple
    skey: tuple

    def __new__(cls, kind: str, atom: CardinalAtom | None = None,
                args: tuple = ()) -> "CardinalExpr":
        self, new = interned(cls, (kind, atom, args))
        if new:
            init(self, "kind", kind)
            init(self, "atom", atom)
            init(self, "args", args)
            init(self, "skey", (_KIND_ORDER[kind], atom.rank) if kind == "atom"
                 else (_KIND_ORDER[kind], *(a.skey for a in args)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CardinalExpr is immutable")

    def __delattr__(self, name):
        raise AttributeError("CardinalExpr is immutable")

    def __reduce__(self):
        return CardinalExpr, (self.kind, self.atom, self.args)

    def __repr__(self) -> str:
        return f"<{render_expr(self)}>"


ALEPH0 = CardinalExpr("aleph0")
CONTINUUM = CardinalExpr("c")
DIST_H = CardinalExpr("h")


def atom_expr(a: CardinalAtom) -> CardinalExpr:
    return CardinalExpr("atom", atom=a)


W1 = atom_expr(builtin(1))
W2 = atom_expr(builtin(2))


def succ_of(x: CardinalExpr) -> CardinalExpr:
    if x.kind == "aleph0":
        return W1
    if x.kind == "atom" and x.atom.builtin_index is not None:
        return atom_expr(builtin(x.atom.builtin_index + 1))
    return CardinalExpr("succ", args=(x,))


def pred_of(x: CardinalExpr) -> CardinalExpr | None:
    """The y with succ(y) = x, when x is recognizably a successor cardinal."""
    if x.kind == "succ":
        return x.args[0]
    if x.kind == "atom" and x.atom.builtin_index is not None:
        k = x.atom.builtin_index
        return ALEPH0 if k == 1 else atom_expr(builtin(k - 1))
    return None


def cf_of(x: CardinalExpr) -> CardinalExpr:
    if x.kind == "aleph0":
        return ALEPH0
    if x.kind == "atom":
        if x.atom.regular:
            return x
        if x.atom.declared_cofinality is None:
            return ALEPH0
        return atom_expr(x.atom.declared_cofinality)
    if x.kind == "succ":
        return x  # successor cardinals are regular
    return CardinalExpr("cf", args=(x,))


def pow2_of(x: CardinalExpr) -> CardinalExpr:
    if x.kind == "aleph0":
        return CONTINUUM
    return CardinalExpr("pow2", args=(x,))


def pow2lt_of(x: CardinalExpr) -> CardinalExpr:
    """Weak power 2^{<x}; collapses through successor steps."""
    if x.kind == "aleph0":
        return ALEPH0
    if x.kind == "succ":
        return pow2_of(x.args[0])
    if x.kind == "atom" and x.atom.builtin_index is not None:
        k = x.atom.builtin_index
        return CONTINUUM if k == 1 else pow2_of(atom_expr(builtin(k - 1)))
    return CardinalExpr("pow2lt", args=(x,))


def exp_of(base: CardinalExpr, ex: CardinalExpr) -> CardinalExpr:
    return CardinalExpr("exp", args=(base, ex))


def cc_cp_of(x: CardinalExpr) -> CardinalExpr:
    return CardinalExpr("cc_cp", args=(x,))


def render_expr(e: CardinalExpr) -> str:
    if e.kind == "aleph0":
        return "w"
    if e.kind == "atom":
        return e.atom.name
    if e.kind == "c":
        return "c"
    if e.kind == "h":
        return "h"
    if e.kind == "succ":
        return f"succ({render_expr(e.args[0])})"
    if e.kind == "cf":
        return f"cf({render_expr(e.args[0])})"
    if e.kind == "pow2":
        return f"2^{_tight(e.args[0])}"
    if e.kind == "pow2lt":
        return f"2^<{_tight(e.args[0])}"
    if e.kind == "exp":
        return f"{_tight(e.args[0])}^{_tight(e.args[1])}"
    if e.kind == "cc_cp":
        return f"cc(CP({render_expr(e.args[0])}))"
    raise AssertionError(e.kind)


def _tight(e: CardinalExpr) -> str:
    s = render_expr(e)
    return s if e.kind in ("aleph0", "atom", "c", "h", "succ", "cf", "cc_cp") else f"({s})"


Rel = tuple  # (op, lhs, rhs)


def render_rel(r: Rel) -> str:
    sym = {"eq": "=", "lt": "<", "le": "<="}[r[0]]
    return f"{render_expr(r[1])} {sym} {render_expr(r[2])}"


# -- hypotheses ----------------------------------------------------------------

class Hypothesis(Value):
    __slots__ = ("kind", "op", "lhs", "rhs", "mu", "kappa")

    def __init__(self, kind: str, op: str | None = None, lhs: CardinalExpr | None = None,
                 rhs: CardinalExpr | None = None, mu: CardinalExpr | None = None,
                 kappa: CardinalAtom | None = None) -> None:
        init(self, "kind", kind)  # rel | GCH | CH | MA | CohenModel
        init(self, "op", op)  # eq | lt | le
        init(self, "lhs", lhs)
        init(self, "rhs", rhs)
        init(self, "mu", mu)
        init(self, "kappa", kappa)

    def render(self) -> str:
        if self.kind == "rel":
            return render_rel((self.op, self.lhs, self.rhs))
        if self.kind == "MA":
            return f"MA mu={render_expr(self.mu)}"
        if self.kind == "CohenModel":
            return f"CohenModel({self.kappa.name})"
        return self.kind


def rel(op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> Hypothesis:
    return Hypothesis("rel", op=op, lhs=lhs, rhs=rhs)


# -- hypothesis grammar ---------------------------------------------------------
# Tokens and ``card`` declarations come from ``parser``; this section maps the
# names and shapes of a hypothesis line onto the constructors above.

_CONSTANTS = {"w": ALEPH0, "c": CONTINUUM, "h": DIST_H}
_FUNCTIONS = {"cf": cf_of, "succ": succ_of, "cc": cc_cp_of}
# relation token -> (op, operands swapped): ``>`` and ``>=`` mirror ``<`` and ``<=``
_RELATIONS = {"=": ("eq", False), "<": ("lt", False), "<=": ("le", False),
              ">": ("lt", True), ">=": ("le", True)}


class _HypothesisParser(TokenStream):
    def __init__(self, text: str, registry: AtomRegistry):
        super().__init__(tokenize(text))
        self.registry = registry

    def expr(self) -> CardinalExpr:
        """expr := primary ['^' expr], where ``2^X`` binds tighter than ``^``."""
        base = self.primary()
        if self.at("op", "^"):
            self.advance()
            return exp_of(base, self.nested(self.expr))
        return base

    def primary(self) -> CardinalExpr:
        tok = self.advance()
        if tok.kind == "op" and tok.text == "(":
            inner = self.nested(self.expr)
            self.expect("op", ")")
            return inner
        if tok.kind == "num":
            if tok.text != "2":
                raise ParseError("a number is only allowed as the base 2 of 2^X", tok.pos)
            self.expect("op", "^", what="'^' after 2")
            if self.at("op", "<"):
                self.advance()
                return pow2lt_of(self.nested(self.primary))
            return pow2_of(self.nested(self.primary))
        if tok.kind != "name":
            raise ParseError("expected a cardinal expression", tok.pos)
        if tok.text in _CONSTANTS:
            return _CONSTANTS[tok.text]
        if tok.text in _FUNCTIONS and self.at("op", "("):
            self.advance()
            if tok.text == "cc":
                self.expect("name", "CP", what="CP(...) inside cc(...)")
                self.expect("op", "(")
                arg = self.nested(self.expr)
                self.expect("op", ")")
            else:
                arg = self.nested(self.expr)
            self.expect("op", ")")
            return _FUNCTIONS[tok.text](arg)
        found = self.registry.lookup(tok.text)
        if found is None:
            raise ParseError(f"undeclared atom {tok.text!r} in cardinal expression", tok.pos)
        return atom_expr(found)

    def hypothesis(self) -> Hypothesis | None:
        head = self.peek()
        if head.kind == "end":
            return None
        word = head.text if head.kind == "name" else None
        if word == "card":
            parse_declaration(self, self.registry)
            return None
        if word in ("GCH", "CH"):
            self.advance()
            return Hypothesis(word)
        if word == "MA":
            self.advance()
            self.expect("name", "mu", what="'mu=' after MA")
            self.expect("op", "=")
            return Hypothesis("MA", mu=self.expr())
        if word == "CohenModel":
            self.advance()
            self.expect("op", "(")
            kexpr = self.expr()
            self.expect("op", ")")
            if kexpr.kind != "atom" or kexpr.atom.singular:
                raise ParseError("CohenModel requires a regular cardinal atom", head.pos)
            return Hypothesis("CohenModel", kappa=kexpr.atom)
        lhs = self.expr()
        sym = self.peek()
        if sym.kind != "op" or sym.text not in _RELATIONS:
            raise ParseError("expected one of = < <= > >=", sym.pos)
        self.advance()
        rhs = self.expr()
        op, mirrored = _RELATIONS[sym.text]
        return rel(op, rhs, lhs) if mirrored else rel(op, lhs, rhs)


def _parse_whole(text: str, registry: AtomRegistry, production):
    try:
        p = _HypothesisParser(text, registry)
        result = production(p)
        p.expect_end()
    except ParseError as exc:
        raise HypothesisError(str(exc)) from exc
    return result


def parse_cardinal_expr(text: str, registry: AtomRegistry) -> CardinalExpr:
    return _parse_whole(text, registry, _HypothesisParser.expr)


def parse_hypothesis_line(line: str, registry: AtomRegistry) -> Hypothesis | None:
    """One hypothesis, or None for a blank, comment or ``card`` declaration line."""
    return _parse_whole(line.split("#", 1)[0], registry, _HypothesisParser.hypothesis)


def parse_hypotheses(text: str, registry: AtomRegistry) -> list[Hypothesis]:
    hyps = []
    for line in text.splitlines():
        h = parse_hypothesis_line(line, registry)
        if h is not None:
            hyps.append(h)
    return hyps
