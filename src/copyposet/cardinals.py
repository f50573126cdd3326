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
    HypothesisError, Rel, atom_expr, cc_cp_of, cf_of, exp_of, find, pow2_of, pow2lt_of,
    pred_of, render_expr, render_rel, succ_of,
)

_SKEY = attrgetter("skey")
# the most nodes a closure's universe may have; more is a HypothesisError (exit 2).
# The stored order grows with the square of the universe: the builtin worst case,
# w_1..w_200 with GCH and w_i < 2^w_i, has 819 nodes and takes ~4 s and ~200 MB as
# a whole process on a 2-vCPU Xeon, and 164 declared atoms with GCH and a_i < 2^a_i
# (849 nodes) ~4.5 s and ~245 MB, where 400 declared atoms (2,020 nodes) took 15 s
# and 620 MB
MAX_UNIVERSE = 850


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


_SUCC, _POW2, _CF, _WEAK, _CC, _PRED = range(6)  # the images' places in a row


def _images(x: CardinalExpr, ids: dict[CardinalExpr, int]) -> tuple:
    """The ids of succ(x), 2^x, cf(x), 2^<x, cc(CP(x)) and the y with succ(y) = x;
    None for an image outside the universe. The images are looked up, not built:
    ``fb.universe`` holds every node alive, so an image that is not interned now is
    no node, and the ids are those the constructors' images would give."""
    return tuple(map(ids.get, (succ_of(x, find), pow2_of(x, find), cf_of(x, find),
                               pow2lt_of(x, find), cc_cp_of(x, find), pred_of(x, find))))


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
        # the image ids of each node, by id, built once: no rule stores an image
        # outside the universe
        self.images = [_images(x, self.ids) for x in self.nodes]

    # -- storage

    def add(self, op: str, lhs: CardinalExpr, rhs: CardinalExpr,
            rule: str, premises: tuple = ()) -> None:
        if op != "eq":
            i, j = self.ids[lhs], self.ids[rhs]
            if not self.above[op][i] >> j & 1:
                self.store(op, i, j, rule, premises)
            return
        key = ("eq", rhs, lhs) if lhs.skey > rhs.skey else ("eq", lhs, rhs)
        rels = self.rels
        if lhs is rhs or key in rels:
            return
        rels[key] = (rule, premises)
        self.eq_nbrs.setdefault(lhs, {})[rhs] = None
        self.eq_nbrs.setdefault(rhs, {})[lhs] = None
        for known in (("lt", lhs, rhs), ("lt", rhs, lhs)):
            if known in rels:
                raise ContradictionError(
                    f"derived both equality and strict order for {render_rel(key)}",
                    self.chain(known, key))

    def store(self, op: str, i: int, j: int, rule: str, premises: tuple) -> None:
        """Store (op, nodes[i], nodes[j]), an le or lt relation whose bit the caller
        has just read unset. A strict order that closes x < x or meets an equality is
        stored, then raised."""
        lhs, rhs = self.nodes[i], self.nodes[j]
        key = (op, lhs, rhs)
        self.rels[key] = (rule, premises)
        self.above[op][i] |= 1 << j
        self.below[op][j] |= 1 << i
        if op == "lt":
            if i == j:
                raise ContradictionError(f"derived {render_rel(key)}", self.chain(key))
            # the chain derives the relation already known first, then the new one
            if rhs in self.eq_nbrs.get(lhs, ()):
                raise ContradictionError(f"derived both {render_rel(key)} and equality",
                                         self.chain(_rel_key("eq", lhs, rhs), key))

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

    if len(uni) > MAX_UNIVERSE:
        raise HypothesisError(f"the closure needs {len(uni)} cardinal expressions, more "
                              f"than the limit of {MAX_UNIVERSE}")

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
                    w = fb.images[fb.ids[x]][_WEAK]
                    if w is not None:
                        fb.add("eq", fb.nodes[w], x, "GCH")
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
    are in it, and the rules below only store images that are. The loop works on
    universe ids: a rule concluding le or lt reads the conclusion's bit just before
    it stores the relation through ``FactBase.store``, the one store path of ``add``
    too (a join reads its row mask once, as each of its stores sets only the bit of
    its own, distinct conclusion), so the stored order and provenance are those of
    calling ``add`` every time."""
    uni = fb.universe
    rels, ids, nodes, images, add, store = (
        fb.rels, fb.ids, fb.nodes, fb.images, fb.add, fb.store)
    le_above, lt_above = fb.above["le"], fb.above["lt"]
    le_below, lt_below = fb.below["le"], fb.below["lt"]
    exps = [x for x in nodes if x.kind == "exp"]

    def emit(op, l, r_, rule, *prem):
        # an operand outside the universe, or None from a lookup, stores nothing
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
            if op == "eq":
                # a GCH equation may name a node outside the universe
                ia, ib = ids.get(a), ids.get(b)
                img_a = _images(a, ids) if ia is None else images[ia]
                img_b = _images(b, ids) if ib is None else images[ib]
                if ia is not None and ib is not None:
                    if not le_above[ia] >> ib & 1:
                        store("le", ia, ib, "eq-weaken", prem)
                    if not le_above[ib] >> ia & 1:
                        store("le", ib, ia, "eq-weaken", prem)
                # congruence under equality for applied constructors
                for la, lb in zip(img_a[:5], img_b[:5]):
                    if la != lb and la is not None and lb is not None:
                        add("eq", nodes[la], nodes[lb], "congruence", prem)
                # looked up, not built: an exp that is not live is no node
                for x in exps:
                    xb, xe = x.args
                    for old, new in ((a, b), (b, a)):
                        if xb is old or xe is old:
                            cand = find("exp", args=(new if xb is old else xb,
                                                     new if xe is old else xe))
                            if cand in uni:
                                add("eq", x, cand, "congruence", prem)
                continue
            ia, ib = ids[a], ids[b]
            sa, pa = images[ia][:2]
            sb, pb, _cf, _weak, _cc, pred_b = images[ib]
            if op == "lt":
                if not le_above[ia] >> ib & 1:
                    store("le", ia, ib, "lt-weaken", prem)
                # y < succ(x) gives y <= x
                if pred_b is not None and not le_above[ia] >> pred_b & 1:
                    store("le", ia, pred_b, "below-successor", prem)
                if sa is not None and not le_above[sa] >> ib & 1:
                    store("le", sa, ib, "no-between", prem)
                c_above, c_below, rule = lt_above, lt_below, "order-trans"
            else:
                if a is not b and le_above[ib] >> ia & 1:
                    add("eq", a, b, "antisymmetry", (key, ("le", b, a)))
                c_above, c_below, rule = le_above, le_below, "le-trans"
            # succ-mono and the join through the stored <= conclude the delta's op,
            # whose rows c_above and c_below hold what is stored already
            if sa is not None and sb is not None and not c_above[sa] >> sb & 1:
                store(op, sa, sb, "succ-mono", prem)
            if pa is not None and pb is not None and not le_above[pa] >> pb & 1:
                store("le", pa, pb, "pow2-mono", prem)
            # a op b <= c and x <= a op b; the row masks leave out the conclusions
            # already stored (lt with lt goes through lt-weaken)
            mask = le_above[ib] & ~c_above[ia]
            while mask:
                k = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                store(op, ia, k, rule, (key, ("le", b, nodes[k])))
            mask = le_below[ia] & ~c_below[ib]
            while mask:
                k = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                store(op, k, ib, rule, (("le", nodes[k], a), key))
            if op == "le":
                # order-trans: a <= b < c and x < a <= b
                mask = lt_above[ib] & ~lt_above[ia]
                while mask:
                    k = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    store("lt", ia, k, "order-trans", (key, ("lt", b, nodes[k])))
                mask = lt_below[ia] & ~lt_below[ib]
                while mask:
                    k = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    store("lt", k, ib, "order-trans", (("lt", nodes[k], a), key))
        if len(rels) == done:
            return
    raise HypothesisError("closure did not reach a fixpoint within bounds")


def _node_rules(fb: FactBase, emit, first: bool) -> None:
    """The arithmetic rules, one pass over the universe. The rules that read no
    stored relation conclude the same in every round, so only the first runs them;
    on each node they come before the others, as the stored order depends on it."""
    rels, ids, nodes, images = fb.rels, fb.ids, fb.nodes, fb.images
    le_above, lt_above = fb.above["le"], fb.above["lt"]
    ma_axioms = any(h.kind == "MA" for h in fb.hyps)
    for x in fb.nodes:
        kind = x.kind
        if first:
            if kind == "pow2":
                emit("lt", x.args[0], x, "cantor")
                emit("lt", x.args[0], cf_of(x, find), "koenig")
            elif kind == "c":  # c is 2^w, which pow2_of gives a kind of its own
                emit("lt", ALEPH0, cf_of(x, find), "koenig")
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
            # the derived layer puts succ(arg), 2^arg and succ(2^arg) in the universe
            arg = x.args[0]
            succ_arg, pow2_arg = images[ids[arg]][:2]
            bound = nodes[images[pow2_arg][_SUCC]]
            # 2^<arg may be arg itself (2^<w = w), or lie outside the universe with a
            # GCH equation stored
            weak = pow2lt_of(arg)
            if weak == arg:
                emit("eq", x, bound, "cc-tree")
            elif fb.holds("eq", weak, arg):
                emit("eq", x, bound, "cc-tree", _rel_key("eq", weak, arg))
            k_pinch = _rel_key("eq", nodes[pow2_arg], nodes[succ_arg])
            if k_pinch in rels:
                emit("eq", x, bound, "cc-pinch", k_pinch)
        elif kind == "exp":
            base, ex = x.args
            ib, ie = ids[base], ids[ex]
            if ib == ie or le_above[ie] >> ib & 1:
                emit("le", x, pow2_of(base), "exp-below-pow2", ("le", ex, base))
            cfb = images[ib][_CF]
            if cfb == ie or cfb is not None and le_above[cfb] >> ie & 1:
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
            if lt_above[ids[arg]] >> ids[CONTINUUM] & 1:
                emit("eq", x, CONTINUUM, "MA", ("lt", arg, CONTINUUM))


def entails(hyps: Iterable[Hypothesis], relation: Hypothesis,
            registry: AtomRegistry) -> str:
    if relation.kind != "rel":
        raise HypothesisError("entailment queries must be relations")
    fb = closure(hyps, registry,
                 extra_exprs=tuple(subexprs(relation.lhs)) + tuple(subexprs(relation.rhs)))
    return fb.entails_rel(relation.op, relation.lhs, relation.rhs)
