"""Bounded forward-chaining closure of cardinal-arithmetic hypotheses, entailment.

The closure is sound and deliberately incomplete: rules fire over the finite
universe of declared expressions plus subexpressions (and a one-step layer of
successors / cofinalities the rules need), never inventing unbounded towers.
Every relation has a derivation for auditing: a stored one carries its rule and
premises, and one of the order's transitivity alone, kept as a bit, is rebuilt
from stored ones when asked. The expressions and the hypothesis grammar are in
``cardexpr``.
"""
from __future__ import annotations

from collections import deque
from operator import attrgetter
from collections.abc import Iterable

from .atoms import AtomError, AtomRegistry, CardinalAtom, builtin
from .cardexpr import (
    ALEPH0, CONTINUUM, DIST_H, W1, CardinalExpr, ContradictionError, Hypothesis,
    HypothesisError, Rel, atom_expr, cc_cp_of, cf_of, exp_of, pow2_of, pow2lt_of,
    pred_of, render_expr, render_rel, succ_of,
)

_SKEY = attrgetter("skey")
# the most nodes a closure's universe may have; more is a HypothesisError (exit 2).
# The cost lies in the order's relations, whose number depends on how dense the order
# is. Whole processes on a 2-vCPU Xeon, Python 3.11.7: the builtin worst case,
# w_1..w_200 with GCH and w_i < 2^w_i, has 819 nodes and 670,571 relations (129,748
# stored) and takes ~0.8 s of closure and 50 MB, and 164 declared atoms with GCH and
# a_i < 2^a_i (838 nodes) ~0.9 s and 69 MB. 400 declared atoms (2,020 nodes) took
# 15 s and 620 MB before this bound
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
    """The key of a relation: an equality's sides in ``skey`` order."""
    if op == "eq" and lhs.skey > rhs.skey:
        lhs, rhs = rhs, lhs
    return (op, lhs, rhs)


_SUCC, _POW2, _CF, _WEAK, _CC, _PRED = range(6)  # the images' places in a row


def _images(x: CardinalExpr, ids: dict[CardinalExpr, int]) -> tuple:
    """The ids of succ(x), 2^x, cf(x), 2^<x, cc(CP(x)) and the y with succ(y) = x;
    None for an image outside the universe. Each image is built by its constructor
    and looked up in ``ids``: as expressions are hash-consed, an image in the
    universe is that node."""
    return tuple(map(ids.get, (succ_of(x), pow2_of(x), cf_of(x), pow2lt_of(x),
                               cc_cp_of(x), pred_of(x))))


class FactBase:
    def __init__(self, hyps: tuple[Hypothesis, ...], universe: set[CardinalExpr]):
        self.hyps = hyps
        self.universe = universe
        # the relations stored with their provenance (rule, premises), in the order
        # derived: every equality, and each le/lt relation a rule other than le-trans,
        # order-trans and lt-weaken concluded first
        self.rels: dict[Rel, tuple[str, tuple]] = {}
        # equality neighbours in insertion order, and ids 0..n-1 for the universe in
        # skey order: bit j of above[op][i] says (op, nodes[i], nodes[j]) holds, stored
        # or derived by transitivity. Every le/lt relation lies inside the universe,
        # and the lt rows lie inside the le rows
        self.eq_nbrs: dict[CardinalExpr, dict[CardinalExpr, None]] = {}
        self.nodes = sorted(universe, key=_SKEY)
        self.ids = {x: i for i, x in enumerate(self.nodes)}
        self.above = {op: [0] * len(self.nodes) for op in ("le", "lt")}
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
        key = _rel_key("eq", lhs, rhs)
        rels = self.rels
        if lhs is rhs or key in rels:
            return
        rels[key] = (rule, premises)
        self.eq_nbrs.setdefault(lhs, {})[rhs] = None
        self.eq_nbrs.setdefault(rhs, {})[lhs] = None
        for known in (("lt", lhs, rhs), ("lt", rhs, lhs)):
            if self.holds(*known):
                raise ContradictionError(
                    f"derived both equality and strict order for {render_rel(key)}",
                    self.chain(known, key))

    def store(self, op: str, i: int, j: int, rule: str, premises: tuple) -> None:
        """Store (op, nodes[i], nodes[j]), an le or lt relation whose bit the caller
        has just read unset, and set its bit, a strict order's in the le row too. A
        strict order that closes x < x or meets an equality is stored, then raised;
        the rule loop checks the strict-order bits transitivity sets."""
        lhs, rhs = self.nodes[i], self.nodes[j]
        self.rels[(op, lhs, rhs)] = (rule, premises)
        self.above["le"][i] |= 1 << j
        if op == "lt":
            self.above["lt"][i] |= 1 << j
            if i == j or rhs in self.eq_nbrs.get(lhs, ()):
                _raise_strict(self, lhs, rhs)

    def relations(self) -> Iterable[Rel]:
        """Every relation that holds, as keys (op, lhs, rhs): the equalities, then the
        le and lt bits."""
        yield from (k for k in self.rels if k[0] == "eq")
        nodes = self.nodes
        for op, rows in self.above.items():
            for x, row in zip(nodes, rows):
                while row:
                    low = row & -row
                    yield (op, x, nodes[low.bit_length() - 1])
                    row ^= low

    def holds(self, op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> bool:
        if op in ("eq", "le") and lhs == rhs:
            return True
        if op == "eq":
            return _rel_key(op, lhs, rhs) in self.rels
        i, j = self.ids.get(lhs), self.ids.get(rhs)
        return i is not None and j is not None and self.above[op][i] >> j & 1 == 1

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

    def derivation(self, *keys: Rel) -> list[tuple[Rel, str, tuple]]:
        """(relation, rule, premises) lines deriving the keys, in order, each premise
        on an earlier line unless it is x = x or x <= x. A stored relation shows its
        provenance. A relation of transitivity alone is rebuilt, through le-trans,
        order-trans and lt-weaken, from a shortest path of stored le/lt relations,
        each stored before the relation that cites it: the rule loop sets a bit only
        from the bits of relations stored already, so there is such a path, and every
        chain is finite and replays. No step it rebuilds is stored below the bound: the
        search takes edges in storage order, and a stored le precedes its pair's lt."""
        rels, ids, above = self.rels, self.ids, self.above
        pos = {k: n for n, k in enumerate(rels)}
        edges: dict[CardinalExpr, list[Rel]] = {}
        for k in rels:
            if k[0] != "eq":
                edges.setdefault(k[1], []).append(k)
        out: list[tuple[Rel, str, tuple]] = []
        seen: set = set()

        def walk(k: Rel, bound: int) -> None:
            if k in seen:
                return
            if k in rels:
                rule, premises = rels[k]
                for p in premises:
                    walk(p, pos[k])
                seen.add(k)
                out.append((k, rule, premises))
                return
            op, a, c = k
            if op == "eq" or op == "le" and a is c or not above[op][ids[a]] >> ids[c] & 1:
                return
            path = shortest_path(a, c, op == "lt", bound)
            for e in path:
                walk(e, bound)
            cur = path[0]
            for e in path[1:]:
                if cur[0] == "lt" == e[0]:
                    cur = derived(("le", a, cur[2]), "lt-weaken", (cur,))
                step = "lt" if "lt" in (cur[0], e[0]) else "le"
                cur = derived((step, a, e[2]), "order-trans" if step == "lt" else "le-trans",
                              (cur, e))
            if cur != k:
                derived(k, "lt-weaken", (cur,))

        def derived(k: Rel, rule: str, premises: tuple) -> Rel:
            if k not in seen:
                seen.add(k)
                out.append((k, rule, premises))
            return k

        def shortest_path(a, c, strict: bool, bound: int) -> list[Rel]:
            # breadth first over (node, whether the path so far has an lt step)
            prev: dict[tuple, tuple | None] = {(a, False): None}
            queue = deque(prev)
            while queue:
                state = queue.popleft()
                for e in edges.get(state[0], ()):
                    if pos[e] >= bound:
                        continue
                    nxt = (e[2], state[1] or e[0] == "lt")
                    if e[2] is c and (nxt[1] or not strict):
                        path = [e]
                        while prev[state] is not None:
                            state, edge = prev[state]
                            path.append(edge)
                        return path[::-1]
                    if nxt not in prev:
                        prev[nxt] = (state, e)
                        queue.append(nxt)

        for key in keys:
            walk(key, len(rels))
        return out

    def chain(self, *keys: Rel) -> list[str]:
        """Derivations of the keys, in order, each premise before its first use."""
        return [f"{render_rel(k)}  [{rule}]" for k, rule, _premises in self.derivation(*keys)]

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
    # the expressions and the declarations alone. It holds every argument of its
    # nodes. A GCH equation may name an expression outside it, which only the
    # premise lookups of cc-tree and singular-weakpow read
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
    """Rounds until one derives nothing. A round runs the per-node rules, then the
    rules of the equalities stored since the last round (the delta, as in semi-naive
    evaluation: Bancilhon & Ramakrishnan 1986), then one pass over the order's bit
    rows. Every stored le/lt relation lies inside the universe: the hypotheses'
    operands are in it, and the rules below only store images that are.

    The order is kept as its transitive closure in the rows of ``fb.above``
    (Warren 1975): le-trans, order-trans and lt-weaken only set bits, and every other
    rule reads a conclusion's bit before it stores the relation with its provenance
    through ``FactBase.store``. A row's bits not yet done are its delta. The pass
    takes each row's delta until there is none: it ORs in the rows its new bits
    point to (the forward join), applies the rules of one le or lt relation to each
    new bit in one loop, and then ORs the row into the rows whose done bits point to
    it (the backward join), so each bit is joined and ruled on once."""
    uni = fb.universe
    rels, ids, nodes, images, add, store, eq_nbrs = (
        fb.rels, fb.ids, fb.nodes, fb.images, fb.add, fb.store, fb.eq_nbrs)
    le, lt = fb.above["le"], fb.above["lt"]
    exps = [x for x in nodes if x.kind == "exp"]
    n = len(nodes)
    le_done, lt_done = [0] * n, [0] * n
    # bit i of le_below[k] (lt_below[k]) marks bit k of row i done as le (lt)
    le_below, lt_below = [0] * n, [0] * n

    def emit(op, l, r_, rule, *prem):
        # an operand outside the universe, or None from a lookup, stores nothing
        if l in uni and r_ in uni:
            add(op, l, r_, rule, prem)

    done = 0
    for round_no in range(100):
        size = len(rels)
        _node_rules(fb, emit, round_no == 0)
        delta = list(rels)[done:]
        done += len(delta)
        for key in delta:
            op, a, b = key
            if op != "eq":
                continue
            # a GCH equation may name an expression outside the universe: none of its
            # images paired below is a node, and as every node's arguments are nodes,
            # no exp node has it as an argument, so such an equality concludes nothing
            ia, ib = ids.get(a), ids.get(b)
            if ia is None or ib is None:
                continue
            prem = (key,)
            if not le[ia] >> ib & 1:
                store("le", ia, ib, "eq-weaken", prem)
            if not le[ib] >> ia & 1:
                store("le", ib, ia, "eq-weaken", prem)
            # congruence under equality for applied constructors
            for la, lb in zip(images[ia][:_PRED], images[ib][:_PRED]):
                if la != lb and la is not None and lb is not None:
                    add("eq", nodes[la], nodes[lb], "congruence", prem)
            # built, then looked up: an exp outside the universe stores nothing
            for x in exps:
                xb, xe = x.args
                for old, new in ((a, b), (b, a)):
                    if xb is old or xe is old:
                        cand = exp_of(new if xb is old else xb, new if xe is old else xe)
                        if cand in uni:
                            add("eq", x, cand, "congruence", prem)

        moved = False
        for i in range(n - 1, -1, -1):
            if le[i] == le_done[i] and lt[i] == lt_done[i]:
                continue
            moved = True
            x, bit_i = nodes[i], 1 << i
            sa, pa = images[i][:2]
            while True:
                new_le, new_lt = le[i] & ~le_done[i], lt[i] & ~lt_done[i]
                if not (new_le or new_lt):
                    break
                le_done[i] |= new_le
                lt_done[i] |= new_lt
                join_le = join_lt = 0
                if new_lt:
                    equal = bit_i
                    for y in eq_nbrs.get(x, ()):
                        if y in ids:
                            equal |= 1 << ids[y]
                    if new_lt & equal:
                        _raise_strict(fb, x, nodes[(new_lt & equal).bit_length() - 1])
                mask = new_lt
                while mask:
                    low = mask & -mask
                    mask ^= low
                    k = low.bit_length() - 1
                    join_lt |= le[k]  # x < k <= y
                    lt_below[k] |= bit_i
                    sb, _pb, _cf, _weak, _cc, pred_k = images[k]
                    prem = (("lt", x, nodes[k]),)
                    # y < succ(z) gives y <= z, and y < z gives succ(y) <= z
                    if pred_k is not None and not le[i] >> pred_k & 1:
                        store("le", i, pred_k, "below-successor", prem)
                    if sa is not None:
                        if not le[sa] >> k & 1:
                            store("le", sa, k, "no-between", prem)
                        if sb is not None and not lt[sa] >> sb & 1:
                            store("lt", sa, sb, "succ-mono", prem)
                mask = new_le
                while mask:
                    low = mask & -mask
                    mask ^= low
                    k = low.bit_length() - 1
                    join_le |= le[k]  # x <= k <= y
                    join_lt |= lt[k]  # x <= k < y
                    le_below[k] |= bit_i
                    sb, pb = images[k][:2]
                    prem = (("le", x, nodes[k]),)
                    if k != i and le[k] >> i & 1:
                        add("eq", x, nodes[k], "antisymmetry", (prem[0], ("le", nodes[k], x)))
                    if sa is not None and sb is not None and not le[sa] >> sb & 1:
                        store("le", sa, sb, "succ-mono", prem)
                    if pa is not None and pb is not None and not le[pa] >> pb & 1:
                        store("le", pa, pb, "pow2-mono", prem)
                le[i] |= join_le | join_lt
                lt[i] |= join_lt
            row_le, row_lt = le[i], lt[i]
            mask = le_below[i] & ~bit_i
            while mask:  # z <= x <= y and z <= x < y
                low = mask & -mask
                mask ^= low
                z = low.bit_length() - 1
                le[z] |= row_le
                lt[z] |= row_lt
            mask = lt_below[i] & ~bit_i
            while mask:  # z < x <= y
                low = mask & -mask
                mask ^= low
                z = low.bit_length() - 1
                le[z] |= row_le
                lt[z] |= row_le
        if not moved and len(rels) == size:
            return
    raise HypothesisError("closure did not reach a fixpoint within bounds")


def _raise_strict(fb: FactBase, x: CardinalExpr, y: CardinalExpr) -> None:
    """Raise the contradiction of a derived x < y where x = y, or x < x."""
    key = ("lt", x, y)
    if x is y:
        raise ContradictionError(f"derived {render_rel(key)}", fb.chain(key))
    # the chain derives the equality first, then the strict order
    raise ContradictionError(f"derived both {render_rel(key)} and equality",
                             fb.chain(_rel_key("eq", x, y), key))


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
                emit("lt", x.args[0], cf_of(x), "koenig")
            elif kind == "c":  # c is 2^w, which pow2_of gives a kind of its own
                emit("lt", ALEPH0, cf_of(x), "koenig")
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
    fb = closure(hyps, registry, extra_exprs=(relation.lhs, relation.rhs))
    return fb.entails_rel(relation.op, relation.lhs, relation.rhs)
