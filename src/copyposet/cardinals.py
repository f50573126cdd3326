"""Bounded forward-chaining closure of cardinal-arithmetic hypotheses, entailment.

The closure is sound and deliberately incomplete: rules fire over the finite
universe of declared expressions plus subexpressions (and a one-step layer of
successors / cofinalities the rules need), never inventing unbounded towers.
Every derived relation carries a provenance chain for auditing. The expressions
and the hypothesis grammar are in ``cardexpr``.
"""
from __future__ import annotations

from operator import attrgetter
from collections.abc import Iterable

from .atoms import AtomError, AtomRegistry, CardinalAtom, builtin
from .cardexpr import (
    ALEPH0, CONTINUUM, DIST_H, W1, CardinalExpr, ContradictionError, Hypothesis,
    HypothesisError, Rel, atom_expr, cc_cp_of, cf_of, exp_of, pow2_of, pow2lt_of,
    pred_of, render_expr, render_rel, succ_of,
)

_SKEY = attrgetter("skey")


def subexprs(e: CardinalExpr) -> Iterable[CardinalExpr]:
    yield e
    for a in e.args:
        yield from subexprs(a)


# -- rigid (declaration-determined) comparisons --------------------------------

def rigid_compare(a: CardinalExpr, b: CardinalExpr) -> int | None:
    """The order of aleph0 and atoms, which ``skey`` gives; None for other kinds."""
    if a.kind not in ("aleph0", "atom") or b.kind not in ("aleph0", "atom"):
        return None if a != b else 0
    return (a.skey > b.skey) - (a.skey < b.skey)


# -- the fact base and its closure ----------------------------------------------

def _rel_key(op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> Rel:
    if op == "eq" and lhs.skey > rhs.skey:
        lhs, rhs = rhs, lhs
    return (op, lhs, rhs)


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


def cohen_transfer(kappa: CardinalAtom, expr: CardinalExpr) -> CardinalExpr:
    """Extension value of theta^mu (or 2^mu) after adding Fn(kappa,2) over a GCH ground,
    computed in the ground model."""
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
    return value


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

    # the Cohen transfers add succ nodes and builtins only, so every CohenModel line
    # meets the same 2^ and ^ nodes, here and in the seeds
    transfers: dict[tuple, CardinalExpr] = {}  # (kappa, node) -> the node's value
    for h in hyps:
        if h.kind == "CohenModel":
            for x in list(uni):
                if x.kind in ("pow2", "exp"):
                    try:
                        value = transfers[h.kappa, x] = cohen_transfer(h.kappa, x)
                    except HypothesisError:
                        continue
                    uni.update(subexprs(value))

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
                value = transfers.get((h.kappa, x))
                if value is not None:
                    fb.add("eq", x, value, "F2.4")

    _run_rules(fb)
    return fb


def _run_rules(fb: FactBase) -> None:
    """Semi-naive rounds (Bancilhon & Ramakrishnan 1986): the relation rules join
    only the relations stored since the previous round (the delta) against all
    stored ones, through the bit rows; the per-node rules re-check the universe.
    Every stored le/lt relation lies inside the universe: the hypotheses' operands
    are in it, and the rules below only store images that are. A rule concluding
    le or lt reads the conclusion's bit before calling ``FactBase.add``, which
    would find it stored and return; the bit is read as it stands at that call,
    so the stored order and provenance are those of calling ``add`` every time."""
    uni = fb.universe
    rels, ids, nodes, add = fb.rels, fb.ids, fb.nodes, fb.add
    above, below = fb.above, fb.below
    le_above = above["le"]
    exps = [x for x in nodes if x.kind == "exp"]
    images: dict[CardinalExpr, tuple] = {}

    def lift(x):
        """The ids of succ(x), 2^x, cf(x), 2^<x, cc(CP(x)) and the y with succ(y) = x,
        stored in ``images`` once per closure; an image outside the universe is None,
        as no rule may store it."""
        images[x] = tuple(map(ids.get, (succ_of(x), pow2_of(x), cf_of(x), pow2lt_of(x),
                                        cc_cp_of(x), pred_of(x))))
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
                ia, ib = ids.get(a), ids.get(b)
                if ia is not None and ib is not None:
                    if not le_above[ia] >> ib & 1:
                        add("le", a, b, "eq-weaken", prem)
                    if not le_above[ib] >> ia & 1:
                        add("le", b, a, "eq-weaken", prem)
                # congruence under equality for applied constructors
                for la, lb in zip(img_a[:5], img_b[:5]):
                    if la != lb and la is not None and lb is not None:
                        add("eq", nodes[la], nodes[lb], "congruence", prem)
                for x in exps:
                    xb, xe = x.args
                    for old, new in ((a, b), (b, a)):
                        if xb is old or xe is old:
                            cand = exp_of(new if xb is old else xb, new if xe is old else xe)
                            if cand in uni:
                                add("eq", x, cand, "congruence", prem)
                continue
            ia, ib = ids[a], ids[b]
            sa, pa = img_a[0], img_a[1]
            sb, pb, pred_b = img_b[0], img_b[1], img_b[5]
            if op == "lt":
                if not le_above[ia] >> ib & 1:
                    add("le", a, b, "lt-weaken", prem)
                # y < succ(x) gives y <= x
                if pred_b is not None and not le_above[ia] >> pred_b & 1:
                    add("le", a, nodes[pred_b], "below-successor", prem)
                if sa is not None and not le_above[sa] >> ib & 1:
                    add("le", nodes[sa], b, "no-between", prem)
            elif a is not b and le_above[ib] >> ia & 1:
                add("eq", a, b, "antisymmetry", (key, ("le", b, a)))
            if sa is not None and sb is not None and not above[op][sa] >> sb & 1:
                add(op, nodes[sa], nodes[sb], "succ-mono", prem)
            if pa is not None and pb is not None and not le_above[pa] >> pb & 1:
                add("le", nodes[pa], nodes[pb], "pow2-mono", prem)
            # transitivity, joining (a, b) with a stored (b, c) or (x, a): le with le is
            # le-trans, le with lt is order-trans (lt with lt goes through lt-weaken);
            # the row masks leave out the conclusions already stored
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
