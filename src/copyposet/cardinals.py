"""Cardinal-arithmetic hypotheses, bounded forward-chaining closure, entailment.

The closure is sound and deliberately incomplete: rules fire over the finite
universe of declared expressions plus subexpressions (and a one-step layer of
successors / cofinalities the rules need), never inventing unbounded towers.
Every derived relation carries a provenance chain for auditing.
"""
from __future__ import annotations

import weakref
from operator import attrgetter
from collections.abc import Iterable

from .atoms import AtomError, AtomRegistry, CardinalAtom, builtin
from .parser import ParseError, TokenStream, parse_declaration, tokenize
from .values import Value, init


class HypothesisError(ValueError):
    pass


class ContradictionError(HypothesisError):
    def __init__(self, message: str, chain: list[str]):
        super().__init__(message)
        self.chain = chain


# -- expressions ---------------------------------------------------------------

_KIND_ORDER = {"aleph0": 0, "atom": 1, "succ": 2, "c": 3, "h": 4,
               "pow2": 5, "pow2lt": 6, "exp": 7, "cf": 8, "cc_cp": 9}

# the live expressions by (kind, atom, args); an entry goes when its expression dies
_INTERNED: weakref.WeakValueDictionary[tuple, CardinalExpr] = weakref.WeakValueDictionary()


class CardinalExpr:
    """An immutable cardinal expression, hash-consed (Filliatre & Conchon 2006): there
    is one live instance per ``(kind, atom, args)``, so equality and hashing are the
    identity ones of ``object``. ``skey`` is the total order key the closure sorts by,
    built once from the children's keys."""

    __slots__ = ("kind", "atom", "args", "skey", "__weakref__")
    kind: str  # aleph0 | atom | c | h | succ | cf | pow2 | pow2lt | exp | cc_cp
    atom: CardinalAtom | None
    args: tuple
    skey: tuple

    def __new__(cls, kind: str, atom: CardinalAtom | None = None,
                args: tuple = ()) -> "CardinalExpr":
        key = (kind, atom, args)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            init = object.__setattr__
            init(self, "kind", kind)
            init(self, "atom", atom)
            init(self, "args", args)
            init(self, "skey", (_KIND_ORDER[kind], atom.rank) if kind == "atom"
                 else (_KIND_ORDER[kind], *(a.skey for a in args)))
            _INTERNED[key] = self
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
_SKEY = attrgetter("skey")


def atom_expr(a: CardinalAtom) -> CardinalExpr:
    return CardinalExpr("atom", atom=a)


W1 = atom_expr(builtin(1))


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
        return pow2_of(ALEPH0 if k == 1 else atom_expr(builtin(k - 1)))
    return CardinalExpr("pow2lt", args=(x,))


def exp_of(base: CardinalExpr, ex: CardinalExpr) -> CardinalExpr:
    return CardinalExpr("exp", args=(base, ex))


def cc_cp_of(x: CardinalExpr) -> CardinalExpr:
    return CardinalExpr("cc_cp", args=(x,))


def subexprs(e: CardinalExpr) -> Iterable[CardinalExpr]:
    yield e
    for a in e.args:
        yield from subexprs(a)


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


# -- rigid (declaration-determined) comparisons --------------------------------

def _rigid_key(e: CardinalExpr) -> tuple | None:
    """A totally ordered key for aleph0 / atoms; None when not declaration-rigid."""
    if e.kind == "aleph0":
        return (0, 0)
    if e.kind == "atom":
        return (1, e.atom.rank)
    return None


def rigid_compare(a: CardinalExpr, b: CardinalExpr) -> int | None:
    ka, kb = _rigid_key(a), _rigid_key(b)
    if ka is None or kb is None:
        return None if a != b else 0
    return (ka > kb) - (ka < kb)


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

    def _values(self) -> tuple:
        return (self.kind, self.op, self.lhs, self.rhs, self.mu, self.kappa)

    def render(self) -> str:
        if self.kind == "rel":
            sym = {"eq": "=", "lt": "<", "le": "<="}[self.op]
            return f"{render_expr(self.lhs)} {sym} {render_expr(self.rhs)}"
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


# -- the fact base and its closure ----------------------------------------------

Rel = tuple  # (op, lhs, rhs)


def _rel_key(op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> Rel:
    if op == "eq" and lhs.skey > rhs.skey:
        lhs, rhs = rhs, lhs
    return (op, lhs, rhs)


def render_rel(r: Rel) -> str:
    sym = {"eq": "=", "lt": "<", "le": "<="}[r[0]]
    return f"{render_expr(r[1])} {sym} {render_expr(r[2])}"


class FactBase:
    def __init__(self, hyps: tuple[Hypothesis, ...], universe: set[CardinalExpr]):
        self.hyps = hyps
        self.universe = universe
        self.rels: dict[Rel, tuple[str, tuple]] = {}
        # indices over rels: equality neighbours in insertion order, and ids 0..n-1
        # for the universe in skey order with bit rows, bit j of above[op][i] and bit
        # i of below[op][j] marking the key (op, nodes[i], nodes[j]); every le/lt
        # relation lies inside the universe
        self.eq_nbrs: dict[CardinalExpr, dict[CardinalExpr, None]] = {}
        self.nodes = sorted(universe, key=_SKEY)
        self.ids = {x: i for i, x in enumerate(self.nodes)}
        self.above = {op: [0] * len(self.nodes) for op in ("le", "lt")}
        self.below = {op: [0] * len(self.nodes) for op in ("le", "lt")}

    # -- storage

    def add(self, op: str, lhs: CardinalExpr, rhs: CardinalExpr,
            rule: str, premises: tuple = ()) -> bool:
        if op == "eq":
            if lhs is rhs:
                return False
            key = ("eq", rhs, lhs) if lhs.skey > rhs.skey else ("eq", lhs, rhs)
        else:
            key = (op, lhs, rhs)
        rels = self.rels
        if key in rels:
            return False
        rels[key] = (rule, premises)
        if op == "eq":
            self.eq_nbrs.setdefault(lhs, {})[rhs] = None
            self.eq_nbrs.setdefault(rhs, {})[lhs] = None
            for known in (("lt", lhs, rhs), ("lt", rhs, lhs)):
                if known in rels:
                    raise ContradictionError(
                        f"derived both equality and strict order for {render_rel(key)}",
                        self.chain(known, key))
            return True
        i, j = self.ids[lhs], self.ids[rhs]
        self.above[op][i] |= 1 << j
        self.below[op][j] |= 1 << i
        if op == "lt":
            if lhs is rhs:
                raise ContradictionError(f"derived {render_rel(key)}", self.chain(key))
            # the chain derives the relation already known first, then the new one
            if rhs in self.eq_nbrs.get(lhs, ()):
                raise ContradictionError(f"derived both {render_rel(key)} and equality",
                                         self.chain(_rel_key("eq", lhs, rhs), key))
        return True

    def holds(self, op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> bool:
        if op in ("eq", "le") and lhs == rhs:
            return True
        return _rel_key(op, lhs, rhs) in self.rels

    def entails_rel(self, op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> str:
        if self.holds(op, lhs, rhs):
            return "yes"
        if op == "eq" and (self.holds("lt", lhs, rhs) or self.holds("lt", rhs, lhs)):
            return "no"
        if op == "le" and self.holds("lt", rhs, lhs):
            return "no"
        if op == "lt" and (self.holds("le", rhs, lhs) or self.holds("eq", lhs, rhs)):
            return "no"
        return "unknown"

    def chain(self, *keys: Rel) -> list[str]:
        """Derivations of the keys, in order, each premise before its first use."""
        out: list[str] = []
        seen: set = set()

        def walk(k: Rel) -> None:
            if k in seen or k not in self.rels:
                return
            seen.add(k)
            rule, premises = self.rels[k]
            for p in premises:
                if isinstance(p, tuple):
                    walk(p)
            out.append(f"{render_rel(k)}  [{rule}]")

        for key in keys:
            walk(key)
        return out

    def resolve(self, x: CardinalExpr) -> CardinalExpr:
        """Most canonical member of x's equality class (atoms first): descend to the
        least-skey equal neighbour (the first stored on ties) until none is less."""
        while True:
            best = min(self.eq_nbrs.get(x, ()), key=_SKEY, default=x)
            if best.skey >= x.skey:
                return x
            x = best

    def relations(self) -> list[Rel]:
        return sorted(self.rels, key=lambda k: (k[0], k[1].skey, k[2].skey))


def _gch_ground(theta: CardinalExpr, mu: CardinalExpr) -> CardinalExpr | None:
    """theta^mu under GCH, decided from declarations alone (rigid atoms)."""
    cth = cf_of(theta)
    k_mu_cf = rigid_compare(mu, cth)
    k_mu_th = rigid_compare(mu, theta)
    if k_mu_cf is None or k_mu_th is None:
        return None
    if k_mu_cf < 0:
        return theta
    if k_mu_th <= 0:
        return succ_of(theta)
    return succ_of(mu)


class CohenTransfer(Value):
    __slots__ = ("value", "continuum")

    def __init__(self, value: CardinalExpr, continuum: CardinalExpr) -> None:
        init(self, "value", value)
        init(self, "continuum", continuum)  # the emitted extension fact: c equals this

    def _values(self) -> tuple:
        return (self.value, self.continuum)


def cohen_transfer(kappa: CardinalAtom, expr: CardinalExpr) -> CohenTransfer:
    """Extension value of theta^mu (or 2^mu) after adding Fn(kappa,2) over a GCH ground."""
    kexpr = atom_expr(kappa)
    if expr.kind == "c":
        # 2^w in normalized form
        theta, mu = kexpr, ALEPH0
    elif expr.kind == "pow2":
        theta, mu = kexpr, expr.args[0]
    elif expr.kind == "exp":
        theta, mu = expr.args
        m = rigid_compare(theta, kexpr)
        if m is None:
            raise HypothesisError(
                f"cannot order {render_expr(theta)} against {kappa.name} in the ground model")
        theta = kexpr if m < 0 else theta
    else:
        raise HypothesisError("transfer applies to expressions 2^mu or theta^mu")
    value = _gch_ground(theta, mu)
    if value is None:
        raise HypothesisError(
            f"cannot order {render_expr(mu)} against {render_expr(theta)} / its cofinality")
    return CohenTransfer(value, kexpr)


def closure(hyps: Iterable[Hypothesis], registry: AtomRegistry,
            extra_exprs: Iterable[CardinalExpr] = ()) -> FactBase:
    hyps = tuple(hyps)

    # universe: subexpressions, standard constants, declared atoms; a builtin enters
    # only through an expression, so the closure is a function of the hypotheses,
    # the expressions and the declarations alone
    uni: set[CardinalExpr] = {ALEPH0, CONTINUUM, DIST_H, W1}
    for h in hyps:
        if h.kind == "rel":
            uni.update(subexprs(h.lhs))
            uni.update(subexprs(h.rhs))
        elif h.kind == "MA":
            uni.update(subexprs(h.mu))
            uni.add(pow2_of(h.mu))
            uni.add(exp_of(h.mu, ALEPH0))
        elif h.kind == "CohenModel":
            uni.add(atom_expr(h.kappa))
    for e in extra_exprs:
        uni.update(subexprs(e))
    uni.update(atom_expr(a) for a in registry.atoms() if a.builtin_index is None)

    if any(h.kind == "GCH" for h in hyps):
        for x in list(uni):
            if x.kind in ("aleph0", "atom", "succ"):
                uni.add(pow2_of(x))

    # one bounded derived layer
    for x in list(uni):
        uni.add(succ_of(x))
        if x.kind in ("pow2", "exp"):
            uni.add(CardinalExpr("cf", args=(x,)))
        if x.kind == "cc_cp":
            arg = x.args[0]
            uni.add(pow2_of(arg))
            uni.add(succ_of(succ_of(arg)))
            uni.add(succ_of(pow2_of(arg)))
        if x.kind == "atom" and x.atom.builtin_index is not None:
            for k in range(1, x.atom.builtin_index):
                uni.add(atom_expr(builtin(k)))

    cohens = [h for h in hyps if h.kind == "CohenModel"]
    for h in cohens:
        for x in list(uni):
            if x.kind in ("pow2", "exp"):
                try:
                    uni.update(subexprs(cohen_transfer(h.kappa, x).value))
                except HypothesisError:
                    pass

    # the seeds walk the universe in skey order, so the stored order (and the
    # provenance it picks) does not follow the set's hashing
    fb = FactBase(hyps, uni)
    order = fb.nodes
    atoms_in = [x for x in order if x.kind == "atom"]
    for a, b in zip(atoms_in, atoms_in[1:]):
        if a.atom.rank == b.atom.rank:  # a builtin the problem needs, and a declared atom
            w, user = (a, b) if a.atom.builtin_index is not None else (b, a)
            raise AtomError(f"cannot use {w.atom.name}: rank {w.atom.rank} is taken by "
                            f"{user.atom.name!r}")

    # seed facts
    for x in order:
        fb.add("le", ALEPH0, x, "infinite-floor")
    for i, a in enumerate(atoms_in):
        fb.add("lt", ALEPH0, a, "atom-order")
        for b in atoms_in[i + 1:]:
            fb.add("lt", a, b, "atom-order")
    fb.add("le", W1, DIST_H, "h-bounds")
    fb.add("le", DIST_H, CONTINUUM, "h-bounds")

    for h in hyps:
        if h.kind == "rel":
            fb.add(h.op, h.lhs, h.rhs, "hypothesis")
        elif h.kind == "CH":
            fb.add("eq", CONTINUUM, W1, "CH")
        elif h.kind == "GCH":
            for x in order:
                if x.kind in ("aleph0", "atom", "succ"):
                    fb.add("eq", pow2_of(x), succ_of(x), "GCH")
                if x.kind == "atom" and x.atom.singular:
                    w = pow2lt_of(x)
                    if w in uni:
                        fb.add("eq", w, x, "GCH")
        elif h.kind == "MA":
            fb.add("lt", h.mu, CONTINUUM, "MA")
        elif h.kind == "CohenModel":
            fb.add("eq", CONTINUUM, atom_expr(h.kappa), "F2.4")
            fb.add("eq", DIST_H, W1, "cohen-h")
            for x in order:
                if x.kind in ("pow2", "exp"):
                    try:
                        tr = cohen_transfer(h.kappa, x)
                    except HypothesisError:
                        continue
                    fb.add("eq", x, tr.value, "F2.4")

    _run_rules(fb)
    return fb


def _run_rules(fb: FactBase) -> None:
    """Semi-naive rounds (Bancilhon & Ramakrishnan 1986): the relation rules join
    only the relations stored since the previous round (the delta) against all
    stored ones, through the bit rows; the per-node rules re-check the universe.
    Every stored le/lt relation lies inside the universe: the hypotheses' operands
    are in it, and the rules below only store images that are."""
    uni = fb.universe
    rels, ids, nodes, add = fb.rels, fb.ids, fb.nodes, fb.add
    above, below = fb.above, fb.below
    exps = [x for x in nodes if x.kind == "exp"]
    images: dict[CardinalExpr, tuple] = {}

    def lift(x):
        """succ(x), 2^x, cf(x), 2^<x, cc(CP(x)) and the y with succ(y) = x, stored in
        ``images`` once per closure; an image outside the universe is None, as no rule
        may store it."""
        images[x] = tuple(y if y in uni else None
                          for y in (succ_of(x), pow2_of(x), cf_of(x), pow2lt_of(x),
                                    cc_cp_of(x), pred_of(x)))
        return images[x]

    def emit(op, l, r_, rule, *prem):
        if l in uni and r_ in uni:
            add(op, l, r_, rule, prem)

    done = 0
    for round_no in range(100):
        delta = list(rels)[done:]
        done += len(delta)
        _node_rules(fb, emit, round_no == 0)
        for key in delta:
            op, a, b = key
            prem = (key,)
            img_a = images.get(a) or lift(a)
            img_b = images.get(b) or lift(b)
            if op == "eq":
                if a in uni and b in uni:
                    add("le", a, b, "eq-weaken", prem)
                    add("le", b, a, "eq-weaken", prem)
                # congruence under equality for applied constructors
                for la, lb in zip(img_a[:5], img_b[:5]):
                    if la is not lb and la is not None and lb is not None:
                        add("eq", la, lb, "congruence", prem)
                for x in exps:
                    xb, xe = x.args
                    for old, new in ((a, b), (b, a)):
                        if xb is old or xe is old:
                            cand = exp_of(new if xb is old else xb, new if xe is old else xe)
                            if cand in uni:
                                add("eq", x, cand, "congruence", prem)
                continue
            sa, pa, *_ = img_a
            sb, pb, _, _, _, pred_b = img_b
            if op == "lt":
                add("le", a, b, "lt-weaken", prem)
                if pred_b is not None:  # y < succ(x) gives y <= x
                    add("le", a, pred_b, "below-successor", prem)
                if sa is not None:
                    add("le", sa, b, "no-between", prem)
            elif a is not b and ("le", b, a) in rels:
                add("eq", a, b, "antisymmetry", (key, ("le", b, a)))
            if sa is not None and sb is not None:
                add(op, sa, sb, "succ-mono", prem)
            if pa is not None and pb is not None:
                add("le", pa, pb, "pow2-mono", prem)
            # transitivity, joining (a, b) with a stored (b, c) or (x, a): le with le is
            # le-trans, le with lt is order-trans (lt with lt goes through lt-weaken);
            # the row masks leave out the conclusions already stored
            ia, ib = ids[a], ids[b]
            for other in ("le", "lt") if op == "le" else ("le",):
                out = "le" if op == other == "le" else "lt"
                rule = "le-trans" if out == "le" else "order-trans"
                mask = above[other][ib] & ~above[out][ia]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    c = nodes[low.bit_length() - 1]
                    add(out, a, c, rule, (key, (other, b, c)))
                mask = below[other][ia] & ~below[out][ib]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    c = nodes[low.bit_length() - 1]
                    add(out, c, b, rule, ((other, c, a), key))
        if len(rels) == done:
            return
    raise HypothesisError("closure did not reach a fixpoint within bounds")


def _node_rules(fb: FactBase, emit, first: bool) -> None:
    """The arithmetic rules, one pass over the universe. The rules that read no
    stored relation conclude the same in every round, so only the first runs them;
    on each node they come before the others, as the stored order depends on it."""
    uni = fb.universe
    ma_axioms = any(h.kind == "MA" for h in fb.hyps)
    for x in fb.nodes:
        kind = x.kind
        if first:
            if kind == "pow2":
                emit("lt", x.args[0], x, "cantor")
                cf_node = CardinalExpr("cf", args=(x,))
                if cf_node in uni:
                    emit("lt", x.args[0], cf_node, "koenig")
            elif kind == "pow2lt":
                emit("le", x.args[0], x, "weakpow-above")
                emit("le", x, pow2_of(x.args[0]), "weakpow-below")
            elif kind == "succ":
                emit("lt", x.args[0], x, "succ-above")
            elif kind == "cf":
                emit("le", x, x.args[0], "cf-below")
            elif kind == "cc_cp":
                arg = x.args[0]
                emit("le", succ_of(succ_of(arg)), x, "F2.6a")
                emit("le", x, succ_of(pow2_of(arg)), "F2.6a")
            elif kind == "exp":
                emit("le", x.args[0], x, "exp-base")
                emit("le", pow2_of(x.args[1]), x, "exp-above-pow2")
        if kind == "cc_cp":
            arg = x.args[0]
            weak = pow2lt_of(arg)
            k_tree = _rel_key("eq", weak, arg)
            if fb.holds("eq", weak, arg):
                emit("eq", x, succ_of(pow2_of(arg)), "cc-tree", k_tree)
            k_pinch = _rel_key("eq", pow2_of(arg), succ_of(arg))
            if fb.holds("eq", pow2_of(arg), succ_of(arg)):
                emit("eq", x, succ_of(pow2_of(arg)), "cc-pinch", k_pinch)
        elif kind == "exp":
            base, ex = x.args
            p_base = pow2_of(base)
            k_le = _rel_key("le", ex, base)
            if fb.holds("le", ex, base):
                emit("le", x, p_base, "exp-below-pow2", k_le)
            cfb = cf_of(base)
            if fb.holds("le", cfb, ex) or cfb == ex:
                emit("lt", base, x, "koenig-exp")
            # T5.8(b): for singular x of countable cofinality, 2^{<x}=x gives x^w = 2^x
            if (ex == ALEPH0 and base.kind == "atom" and base.atom.singular
                    and cf_of(base) == ALEPH0):
                weak = pow2lt_of(base)
                if fb.holds("eq", weak, base):
                    emit("eq", x, pow2_of(base), "singular-weakpow",
                         _rel_key("eq", weak, base))
        elif kind == "pow2" and ma_axioms:  # MA: 2^x = c for aleph0 <= x < c
            arg = x.args[0]
            if fb.holds("lt", arg, CONTINUUM):
                emit("eq", x, CONTINUUM, "MA", _rel_key("lt", arg, CONTINUUM))


def entails(hyps: Iterable[Hypothesis], relation: Hypothesis,
            registry: AtomRegistry) -> str:
    if relation.kind != "rel":
        raise HypothesisError("entailment queries must be relations")
    fb = closure(hyps, registry,
                 extra_exprs=tuple(subexprs(relation.lhs)) + tuple(subexprs(relation.rhs)))
    return fb.entails_rel(relation.op, relation.lhs, relation.rhs)
