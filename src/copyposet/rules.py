"""Traced derivation rules for copy posets under cardinal-arithmetic hypotheses.

``analyze`` factorizes sq(P(alpha)), classifies every exponent, and forward
chains a fixed rule catalog. A rule fires only when the hypothesis closure
answers *yes* on every premise; premises answered *unknown* are reported in
the blocked list, never assumed. Every emitted fact carries a trace whose
premises can be replayed against the closure and the classifier. A process keeps
the closures it builds, within ``MEMO_RELATIONS``, the analyses, within
``MEMO_FACTS``, and the JSON texts of facts and factorizations, within ``MEMO_TEXT``,
each least recently used out first; ``analyze`` looks an analysis up by its problem
and alpha before it classifies or closes anything, and keeps each one it runs.
"""
from __future__ import annotations

from .atoms import AtomRegistry, CardinalAtom, builtin
from .terms import (
    OMEGA, OrdinalTerm, OrdinalError, compare, cardinality, exp_term, from_atom,
    omega_power, canon_exp, pretty, term_to_obj,
)
from .classify import CaseReport, classify_exponent
from .cardexpr import (
    ALEPH0, CONTINUUM, DIST_H, W1, W2, CardinalExpr, atom_expr, cc_cp_of, exp_of,
    pow2_of, pow2lt_of, render_expr, render_rel, succ_of,
)
from .cardinals import FactBase, _rel_key, closure
from .forcing import (
    ForcingFact, PosetExpr, Step, col, cp, factorize, iteration, operand_text,
    poset_to_obj, product, render_poset, ro, rp_refine, sq_copies, substitute,
)
from .values import Value
from .catalog import SCHEMA_VERSION


class AnalysisReport(Value):
    """The outcome of ``analyze``; unlike the other values it is mutable and unhashable."""
    __slots__ = ("alpha", "hypotheses", "factorization", "facts", "ro_conclusion",
                 "blocked", "resolutions")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, alpha: OrdinalTerm, hypotheses: tuple, factorization: PosetExpr,
                 facts: list, ro_conclusion: ForcingFact | None, blocked: list,
                 resolutions: dict) -> None:
        self.alpha = alpha
        self.hypotheses = hypotheses
        self.factorization = factorization
        self.facts = list(facts)  # copies, so a kept report shares no list with a request's
        self.ro_conclusion = ro_conclusion
        self.blocked = [(rid, list(ps)) for rid, ps in blocked]  # (rule_id, [premises])
        self.resolutions = dict(resolutions)  # rendered expr -> rendered resolution

    def to_obj(self, leaf=None) -> dict:
        """The report's JSON object. ``leaf`` gives the JSON value of the factorization
        and of each fact; by default their objects, in which each poset's object is
        built once and shared wherever the poset occurs."""
        if leaf is None:
            memo: dict = {}
            leaf = lambda value: _leaf_obj(value, memo)
        obj = {
            "schema_version": SCHEMA_VERSION,
            "alpha": term_to_obj(self.alpha),
            "alpha_pretty": pretty(self.alpha),
            "hypotheses": [h.render() for h in self.hypotheses],
            "factorization": leaf(self.factorization),
            "notes": [],
            "facts": [leaf(f) for f in self.facts],
        }
        if self.ro_conclusion is not None:  # one of the facts: it shares their object
            obj["ro_conclusion"] = obj["facts"][self.facts.index(self.ro_conclusion)]
        else:
            obj["undetermined"] = {
                "blocked_rules": [
                    {"rule": rid, "unknown_premises": list(ps)}
                    for rid, ps in self.blocked]}
        if self.resolutions:
            obj["resolutions"] = dict(self.resolutions)
        return obj


def _leaf_obj(value: ForcingFact | PosetExpr, memo: dict) -> dict:
    """The JSON object of a fact or a poset; ``memo`` is ``poset_to_obj``'s."""
    if isinstance(value, ForcingFact):
        return value.to_obj(memo)
    return poset_to_obj(value, memo)


def _delta_atom(delta: OrdinalTerm) -> CardinalAtom | None:
    """The atom a when delta is the ordinal of a cardinal atom, else None."""
    a = canon_exp(delta)
    return a if isinstance(a, CardinalAtom) else None


def _card_expr(t: OrdinalTerm) -> CardinalExpr | None:
    cv = cardinality(t)
    if cv.kind == "finite":
        return None
    return ALEPH0 if cv.kind == "aleph0" else atom_expr(cv.atom)


def _rho(rep: CaseReport) -> CardinalExpr | None:
    """The cardinal rho with CP(rho) completely embedded by T4.7 in cases C, D and E
    (lambda in case C, kappa in cases D/E); None in cases A and B."""
    if rep.label == "C":
        return _card_expr(rep.lam)
    return _card_expr(rep.kappa) if rep.label in ("D", "E") else None


class _Kept(dict):
    """key -> value, least recently used first, with ``held`` the sum of the values'
    sizes; ``get`` returns a kept value as most recently used, or keeps what ``make``
    returns unless it is larger than the bound, pushing the oldest out to fit."""

    def __init__(self, size) -> None:
        super().__init__()
        self.size, self.held = size, 0

    def get(self, key, make, bound: int):
        value = self.pop(key, None)
        if value is None:
            value = make()
            size = self.size(value)
            if size > bound:
                return value
            self.held += size
            while self.held > bound:
                self.held -= self.size(self.pop(next(iter(self))))
        self[key] = value
        return value

    def clear(self) -> None:
        super().clear()
        self.held = 0


# the most stored relations (``len(fb.rels)``) the kept closures may hold together. By
# tracemalloc (Python 3.11.7) a kept closure costs about 250 B per stored relation when
# dense and 350 B when sparse (23 nodes, 134 relations), so they stay under about 4.5 MB;
# w^w under the builtin worst case (w_1..w_200 with GCH and w_i < 2^w_i) stores 128,271
# and holds 31 MB, and is not kept
MEMO_RELATIONS = 12000
# (problem, the candidates as a set) -> closure (tabling: Tamaki & Sato 1986); a
# contradiction is not kept, so its chain is raised every time
_CLOSURES = _Kept(lambda fb: len(fb.rels))

# the most facts the kept analyses may hold together: 0.9 to 1.2 KB each by tracemalloc
# (Python 3.11.7), so about 0.5 MB in all; w^10000 + ... + w has 40,003, not kept
MEMO_FACTS = 400
# (problem, alpha) -> report, and (closure key, w^delta0) -> a T5.6 sub-analysis on its
# parent's closure. The engine reads of the closure only what its key fixes (entails_rel,
# resolve, nodes), and of the hypotheses only whether there are any; the candidates are
# a function of alpha, so a kept report answers with no closure kept or built
_ANALYSES = _Kept(lambda report: len(report.facts))

# the most characters the kept JSON texts may hold together. A fact's or a
# factorization's text at indent 0 is kept by its value, and cli splices it into every
# report that states the value: a saturate round states the same 6 facts and
# factorization (about 7,600 characters) under 7 problems, and derive's kept analyses
# state theirs on every hit (72 texts of 67,970 characters in all). By tracemalloc
# (Python 3.11.7) the table costs about 2 B per character with the facts it is keyed
# by, so at most about 0.2 MB
MEMO_TEXT = 100000
_TEXTS = _Kept(len)


def _problem(hyps: tuple, registry: AtomRegistry) -> tuple:
    """The hypotheses as a set, each equality's sides in ``skey`` order, and the declared
    atoms: with the candidates, all that fixes a closure's relations and resolutions."""
    return (frozenset(_rel_key(h.op, h.lhs, h.rhs) if h.kind == "rel" else h for h in hyps),
            frozenset(a for a in registry.atoms() if a.builtin_index is None))


def _collapses(facts, F: PosetExpr) -> list[tuple]:
    """(fact, from, to) for each of ``facts`` saying that F collapses from to to."""
    return [(f, f.operands[1], f.operands[2]) for f in facts
            if f.kind == "Collapses" and f.operands[0] == F]


class _Engine:
    def __init__(self, alpha: OrdinalTerm, hyps, fb: FactBase | None = None):
        if compare(alpha, OMEGA) < 0:
            raise OrdinalError("analysis requires alpha >= w")
        self.alpha = alpha
        self.hyps = tuple(hyps)
        self.has_hyps = bool(self.hyps)
        # the exponents in CNF order, which are distinct
        self.deltas = [exp_term(e) for e, _c in alpha.summands]
        self.reports: dict[OrdinalTerm, CaseReport] = {
            d: classify_exponent(d) for d in self.deltas}
        # a T5.6 sub-analysis (of w^d0, which has none of its own) gets its parent's
        # closure; analyze, which has computed the problem, calls ``close``
        self.key, self.fb = None, fb
        self.facts: dict[tuple, ForcingFact] = {}
        self.blocked: list[tuple[str, list[str]]] = []

    def close(self, problem: tuple, registry: AtomRegistry) -> _Engine:
        """Take the problem's closure over the candidates, kept or built; the engine."""
        candidates = self._candidates()
        self.key = (problem, frozenset(candidates))
        self.fb = _CLOSURES.get(self.key, lambda: closure(
            self.hyps, registry, extra_exprs=candidates), MEMO_RELATIONS)
        return self

    # -- candidate expressions the rules may query -----------------------------

    def _candidates(self) -> list[CardinalExpr]:
        out = [ALEPH0, CONTINUUM, DIST_H, W1, W2, pow2_of(W1)]
        seen_deltas = list(self.deltas)
        for d in self.deltas:
            if d.is_successor() and not OrdinalTerm(d.summands, 0).is_zero():
                seen_deltas.append(OrdinalTerm(d.summands, 0))
        for d in seen_deltas:
            ce = _card_expr(d)
            if ce is not None:
                out += [ce, pow2_of(ce), succ_of(pow2_of(ce))]
            rep = self.reports[d] if d in self.reports else classify_exponent(d)
            rep_kappa = _card_expr(rep.kappa)
            if rep_kappa is not None and rep_kappa != ALEPH0:
                out += [rep_kappa, pow2_of(rep_kappa), pow2lt_of(rep_kappa),
                        succ_of(rep_kappa), cc_cp_of(rep_kappa), succ_of(pow2_of(rep_kappa))]
            if rep.lam is not None:  # w in case B, an atom in case C
                le = _card_expr(rep.lam)
                if le != ALEPH0:
                    out += [le, cc_cp_of(le)]
            a = _delta_atom(d)
            if a is not None:
                ae = atom_expr(a)
                out += [ae, exp_of(ae, ALEPH0), pow2_of(ae),
                        succ_of(ae), pow2lt_of(ae)]
        return out

    # -- fact plumbing ----------------------------------------------------------

    def fact_key(self, kind: str, operands: tuple) -> tuple:
        """Facts are one fact when their kinds and resolved operands are equal."""
        resolve = self.fb.resolve
        return (kind, tuple([substitute(o, resolve) for o in operands]))

    def emit(self, kind: str, operands: tuple, steps: tuple) -> ForcingFact:
        key = self.fact_key(kind, operands)
        fact = self.facts.get(key)
        if fact is None:
            resolved = tuple((i, operand_text(r))
                             for i, (o, r) in enumerate(zip(operands, key[1])) if r != o)
            fact = self.facts[key] = ForcingFact(kind, operands, steps, resolved)
        return fact

    def has_fact(self, kind: str, operands: tuple) -> ForcingFact | None:
        return self.facts.get(self.fact_key(kind, operands))

    def check(self, rule_id: str, premises: list, report: bool = True) -> tuple | None:
        """The closure steps citing ``premises`` when all entail yes, else None.

        A premise is a relation or a tuple of relations, which holds when one of them
        does and is cited by the first that does. When none is refuted, the unknown
        ones (a tuple rendered ``A or B``) are recorded as blocking the rule, if
        ``report``."""
        used, unknown = [], []
        for p in premises:
            rels = p if isinstance(p[0], tuple) else (p,)
            refuted = True
            for r in rels:
                answer = self.fb.entails_rel(*r)
                if answer == "yes":
                    used.append(("closure", r))
                    break
                refuted = refuted and answer == "no"
            else:
                if refuted:
                    return None
                unknown.append(" or ".join(map(render_rel, rels)))
        if unknown:
            if report:
                self.blocked.append((rule_id, unknown))
            return None
        return tuple(used)

    # -- the pipeline -----------------------------------------------------------

    def run(self) -> AnalysisReport:
        self.whole = factorize(self.alpha)
        for d in self.deltas:
            self._factor_core(d)
        for d in self.deltas:
            self._factor_conditional(d)
        self._product_level()
        resolutions = {}
        for e in (CONTINUUM, DIST_H, pow2_of(W1)):
            r = self.fb.resolve(e)
            if r != e:
                resolutions[render_expr(e)] = render_expr(r)
        return AnalysisReport(
            alpha=self.alpha, hypotheses=self.hyps, factorization=self.whole,
            facts=self.facts.values(), ro_conclusion=self._pick_conclusion(),
            blocked=dict.fromkeys((rid, tuple(ps)) for rid, ps in self.blocked),
            resolutions=resolutions)

    def _factor_poset(self, d: OrdinalTerm) -> PosetExpr:
        return sq_copies(omega_power(canon_exp(d)))

    def _countable(self, d: OrdinalTerm) -> bool:
        return compare(d, from_atom(builtin(1))) < 0

    def _case_step(self, d: OrdinalTerm, rule: str) -> Step:
        rep = self.reports[d]
        return Step(rule, (("delta", pretty(d)), ("kappa", pretty(rep.kappa))),
                    (("case", d, rep.label),))

    def _factor_core(self, d: OrdinalTerm) -> None:
        rep = self.reports[d]
        F = self._factor_poset(d)
        label = rep.label
        if label in ("A", "B"):
            tag = f"T4.7{label}"
            self.emit("SigmaClosed", (F,), (self._case_step(d, tag),))
            ce_fact = self.emit("CompletelyEmbeds", (cp(ALEPH0), F),
                                (self._case_step(d, tag),))
            if self._countable(d):
                self.emit("ForcingEquivalent",
                          (F, iteration(cp(ALEPH0), "sigma-closed separative")),
                          (self._case_step(d, "T1.1a"),))
            else:
                self.emit("ForcingEquivalent",
                          (F, iteration(cp(ALEPH0), "w-distributive")),
                          (self._case_step(d, tag),))
            self.emit("Collapses", (F, CONTINUUM, DIST_H),
                      (Step("F2.6b", (("poset", render_poset(F)),), (("fact", ce_fact),)),))
            # identification for a singular atom of countable cofinality
            a = _delta_atom(d)
            if (a is not None and a.singular and a.declared_cofinality is None
                    and self.has_hyps):
                ae = atom_expr(a)
                ident = self.emit("ForcingEquivalent", (F, cp(ae)),
                                  (self._case_step(d, "sq-cp-ident"),))
                self.emit("Collapses", (F, exp_of(ae, ALEPH0), W1),
                          (Step("F2.6c", (("kappa", a.name),),
                                (("fact", ident),
                                 ("closure", ("eq", pow2_of(ae), pow2_of(ae))))),))
            return
        tag = f"T4.7{label}"
        ce_fact = self.emit("CompletelyEmbeds", (cp(_rho(rep)), F),
                            (self._case_step(d, tag),))
        self.emit("Collapses", (F, W2, ALEPH0),
                  (Step(tag, (), (("fact", ce_fact),)),))
        a = _delta_atom(d)  # never an atom in case C
        if a is not None:
            self.emit("ForcingEquivalent", (F, cp(atom_expr(a))),
                      (self._case_step(d, "sq-cp-ident"),))

    # -- conditional, hypothesis-driven rules -----------------------------------

    def _factor_conditional(self, d: OrdinalTerm) -> None:
        rep = self.reports[d]
        F = self._factor_poset(d)
        label = rep.label
        ce = _card_expr(d)
        kappa_e = _card_expr(rep.kappa)
        a = _delta_atom(d)

        if self._countable(d):
            used = self.check("T1.1b", [("eq", DIST_H, W1)])
            if used is not None:
                self.emit("RoIso", (F, cp(ALEPH0)),
                          (Step("T1.1b", (("delta", pretty(d)),), used),))

        self._rule_t410(d, F, label)

        if label in ("D", "E"):  # kappa > w, so delta >= w_1
            self._rule_t52(d, F, kappa_e, ce)
        if a is not None and a.singular and kappa_e != ALEPH0:  # case E
            self._rule_t54(F, a)
        if a is not None and a.regular:  # case D
            self._rule_ex53(F, a)
        rho = _rho(rep)
        if rho is not None:
            self._rule_f26e(F, rho, a, ce)
        if (a is not None and a.singular and a.declared_cofinality is None
                and self.has_hyps):
            self._rule_t58(F, a)
        if ce is not None:
            self._rule_f51(d, F, ce)
        if d.is_successor() and self.has_hyps:
            self._rule_t56(d, F)

    def _rule_t410(self, d, F, label) -> None:
        if compare(d, from_atom(builtin(2))) >= 0:
            return
        used = self.check("T4.10", [("lt", DIST_H, CONTINUUM), ("eq", CONTINUUM, W2),
                                    ("eq", pow2_of(W1), CONTINUUM)])
        if used is None:
            return
        header = self.emit("RoIso", (cp(ALEPH0), col(W1, CONTINUUM)),
                           (Step("T4.10", (), used),))
        inst = (("delta", pretty(d)), ("case", label))
        if self._countable(d):  # T1.1b has fired: w_1 <= h < c = succ(w_1)
            sub = self.has_fact("RoIso", (F, cp(ALEPH0)))
            self.emit("RoIso", (F, col(W1, CONTINUUM)),
                      (Step("roiso-trans", inst, (("fact", sub), ("fact", header))),
                       Step("T4.10", inst, used)))
            return
        # case C cannot reach here: w < cf(theta) < kappa puts kappa >= w_2
        lam = {"A": W1, "B": W1, "D": ALEPH0, "E": ALEPH0}[label]
        self.emit("RoIso", (F, col(lam, CONTINUUM)),
                  (Step("T4.10", inst, used + (("case", d, label),)),))

    def _rule_t52(self, d, F, kappa_e, ce) -> None:
        used = self.check("T5.2", [("eq", pow2_of(kappa_e), pow2_of(ce)),
                                   (("eq", pow2lt_of(kappa_e), kappa_e),
                                    ("eq", pow2_of(kappa_e), succ_of(kappa_e)))])
        if used is None:
            return
        self.emit("RoIso", (F, col(ALEPH0, pow2_of(ce))),
                  (Step("T5.2", (("delta", pretty(d)),),
                        (("case", d, self.reports[d].label),) + used),))

    def _rule_t54(self, F, a) -> None:
        ae = atom_expr(a)
        cfe = atom_expr(a.declared_cofinality)  # the caller has cf(a) > w
        used = self.check("T5.4", [("lt", pow2_of(cfe), ae), ("lt", cfe, pow2_of(cfe)),
                                   ("lt", ALEPH0, cfe), ("eq", pow2_of(ae), succ_of(ae))])
        if used is None:
            return
        ident = self.has_fact("ForcingEquivalent", (F, cp(ae)))  # case E: sq-cp-ident
        emb = self.emit("CompletelyEmbeds",
                        (col(ALEPH0, succ_of(ae)), ro(cp(ae))),
                        (Step("F2.6d", (("kappa", a.name),), used),))
        coll = self.emit("Collapses", (F, pow2_of(ae), ALEPH0),
                         (Step("F2.6d", (("kappa", a.name),),
                               (("fact", emb), ("fact", ident)) + used),))
        self.emit("RoIso", (F, col(ALEPH0, pow2_of(ae))),
                  (Step("T5.4", (("kappa", a.name),), (("fact", coll),) + used),
                   Step("F5.1", (("lambda", "w"),), (("fact", coll),))))

    def _rule_ex53(self, F, a) -> None:
        ae = atom_expr(a)
        ccx = cc_cp_of(ae)
        # the equality decides; it is reported unknown only when the bound does not hold
        not_iso = self.check("Ex5.3", [("le", ccx, pow2_of(ae))], report=False)
        iso = self.check("Ex5.3", [("eq", ccx, succ_of(pow2_of(ae)))],
                         report=not_iso is None)
        if iso is not None or not_iso is not None:
            self.emit("RoIso" if iso else "RoNotIso", (F, col(ALEPH0, pow2_of(ae))),
                      (Step("Ex5.3", (("kappa", a.name),), iso or not_iso),))

    def _rule_f26e(self, F, rho, a, ce) -> None:
        ccx = cc_cp_of(rho)
        # the universe's atoms in skey order: an atom outside it entails no relation
        candidates = [x for x in self.fb.nodes if x.kind == "atom"]
        candidates += [CONTINUUM, pow2_of(rho), pow2_of(ce)]
        emb = self.has_fact("CompletelyEmbeds", (cp(rho), F))
        seen = {ALEPH0}
        for x in candidates:
            rx = self.fb.resolve(x)
            if rx in seen:
                continue
            seen.add(rx)
            used = self.check("F2.6e", [("lt", x, ccx)], report=False)
            if used is not None:
                self.emit("Collapses", (F, x, ALEPH0),
                          (Step("F2.6e", (("kappa", render_expr(rho)),),
                                (("fact", emb),) + used),))
        # preservation needs the poset to *be* CP(rho): sq-cp-ident makes it CP(a) for an
        # atom a (cases D and E), and rho = a only in case D (in case E, rho = cf(a) < a)
        if a is not None and a.regular:
            res = self.fb.resolve(ccx)
            if res != ccx and res.kind in ("atom", "succ"):
                self.emit("Preserves", (F, f">= {render_expr(res)}"),
                          (Step("Ex5.3", (("cc", render_expr(res)),),
                                (("closure", ("eq", ccx, res)),)),))

    def _rule_f51(self, d, F, ce) -> None:
        target = pow2_of(ce)
        # lambda = w route: an existing collapse of 2^|delta| to w
        for fact, frm, to in _collapses(self.facts.values(), F):
            used = self.check("F5.1", [("eq", to, ALEPH0), ("eq", frm, target)],
                              report=False)
            if used is not None:
                # the trace cites the collapse fact for to = w, not the closure
                self.emit("RoIso", (F, col(ALEPH0, target)),
                          (Step("F5.1", (("lambda", "w"), ("size", render_expr(target))),
                                (("fact", fact),) + used[1:]),))
                return
        # lambda = w_1 route: sigma-closed plus a collapse of 2^|delta| to w_1
        if self._countable(d):
            return
        sig = self.has_fact("SigmaClosed", (F,))
        if sig is None:
            return
        for fact, frm, to in _collapses(self.facts.values(), F):
            used = self.check("F5.1", [("eq", frm, target), ("eq", to, W1)],
                              report=self.has_hyps)
            if used is None:
                continue
            self.emit("RoIso", (F, col(W1, target)),
                      (Step("F5.1", (("lambda", "w_1"), ("size", render_expr(target))),
                            (("fact", sig), ("fact", fact)) + used),))
            return

    def _rule_t56(self, d, F) -> None:
        n = d.tail
        d0 = OrdinalTerm(d.summands, 0)
        if self._countable(d0):  # d0 = 0 too; else d0, of tail 0, is a limit
            return
        target = pow2_of(_card_expr(d0))  # d0 >= w_1, so |d0| is an atom
        # on the parent's closure: its candidates include d0's, so it contains w^d0's own
        sub = omega_power(canon_exp(d0))
        sub_facts = _ANALYSES.get((self.key, sub), lambda: _Engine(
            sub, self.hyps, self.fb).run(), MEMO_FACTS).facts
        subF = self._factor_poset(d0)
        route = None
        witness = None
        sub_sigma = next((f for f in sub_facts
                          if f.kind == "SigmaClosed" and f.operands[0] == subF), None)
        for fact, frm, to in _collapses(sub_facts, subF):
            if self.check("T5.6", [("eq", frm, target)], report=False) is None:
                continue
            if self.fb.resolve(to) == ALEPH0:
                route, witness = "collapse-to-w", fact
                break
            if sub_sigma is not None and self.check(
                    "T5.6", [("eq", to, W1)], report=False) is not None:
                route, witness = "sigma-closed-collapse-to-w1", fact
        if route is None:
            self.blocked.append(
                ("T5.6", [f"sq P(w^({pretty(d0)})) collapses {render_expr(target)} "
                          f"to w, or is sigma-closed and collapses it to w_1"]))
            return
        refined = rp_refine(d0, n)
        fe = self.emit("ForcingEquivalent", (F, refined),
                       (Step("F5.5a", (("delta", pretty(d0)), ("n", str(n))), ()),))
        inner_rule = "F5.5b" if route == "collapse-to-w" else "F5.5c"
        self.emit("RoIso", (F, col(W1, target)),
                  (Step("F5.5a", (("delta", pretty(d0)), ("n", str(n))), (("fact", fe),)),
                   Step(inner_rule, (("kappa", render_expr(target)),),
                        (("subfact", d0, witness),)),
                   Step("T5.6", (("route", route),),
                        (("subfact", d0, witness),) +
                        ((("subfact", d0, sub_sigma),)
                         if route == "sigma-closed-collapse-to-w1" else ()))))

    def _rule_t58(self, F, a) -> None:
        ae = atom_expr(a)
        used = self.check("T5.8", [("eq", exp_of(ae, ALEPH0), pow2_of(ae))])
        if used is None:
            return
        coll = self.has_fact("Collapses", (F, exp_of(ae, ALEPH0), W1))  # case A: F2.6c
        self.emit("RoIso", (F, col(W1, pow2_of(ae))),
                  (Step("F2.6c", (("mu", a.name),), (("fact", coll),)),
                   Step("T5.8", (("mu", a.name),), used)))

    # -- product level ----------------------------------------------------------

    def _product_level(self) -> None:
        if self.whole.kind != "prod":
            return
        k = sum(c for _e, c in self.alpha.summands)
        if all(self.reports[d].label in ("A", "B") for d in self.deltas):
            prem = tuple(("fact", self.has_fact("SigmaClosed", (self._factor_poset(d),)))
                         for d in self.deltas)
            self.emit("SigmaClosed", (self.whole,),
                      (Step("T4.9a", (("k", str(k)),), prem),))
            self.emit("CompletelyEmbeds", (product([(cp(ALEPH0), k)]), self.whole),
                      (Step("T4.9a", (("k", str(k)),), prem),))
            self.emit("Collapses", (self.whole, CONTINUUM, DIST_H),
                      (Step("F2.6b", (), prem),))
            return
        cae = _card_expr(self.alpha)  # not None: _Engine refuses alpha < w
        rhos: dict[CardinalExpr, OrdinalTerm] = {}  # rho -> the first factor giving it
        for d in self.deltas:
            rho = _rho(self.reports[d])
            if rho is not None:
                rhos.setdefault(rho, d)
        for rho, d in rhos.items():
            emb = self.has_fact("CompletelyEmbeds", (cp(rho), self._factor_poset(d)))
            self.emit("CompletelyEmbeds", (cp(rho), self.whole),
                      (Step("T4.9b", (("lambda", render_expr(rho)),), (("fact", emb),)),))
        self.emit("Collapses", (self.whole, W2, ALEPH0),
                  (Step("T4.9b", (), ()),))
        target = succ_of(pow2_of(cae))
        for rho in rhos:
            used = self.check("T4.9b", [("eq", cc_cp_of(rho), target)])
            if used is not None:
                self.emit("RoIso", (self.whole, col(ALEPH0, pow2_of(cae))),
                          (Step("T4.9b", (("lambda", render_expr(rho)),), used),))
                return

    def _pick_conclusion(self) -> ForcingFact | None:
        """The first isomorphism of sq(P(alpha)) with a collapsing algebra, else its
        first isomorphism, else None."""
        whole = substitute(self.whole, self.fb.resolve)
        isos = [f for (kind, ops), f in self.facts.items()
                if kind == "RoIso" and ops[0] == whole]
        return ([f for f in isos if f.operands[1].kind == "col"] or isos or [None])[0]


def kept_text(value: ForcingFact | PosetExpr, render, memo: dict) -> str:
    """The text ``render`` makes of the JSON object of a fact or a poset, made once
    per value within ``MEMO_TEXT``; ``memo`` is ``poset_to_obj``'s."""
    return _TEXTS.get(value, lambda: render(_leaf_obj(value, memo)), MEMO_TEXT)


def analyze(alpha: OrdinalTerm, hyps, registry: AtomRegistry) -> AnalysisReport:
    """Forward-chain the rule catalog over sq(P(alpha)) under the hypotheses, once per
    problem and alpha within a process; each call gets its own report."""
    hyps = tuple(hyps)
    problem = _problem(hyps, registry)
    kept = _ANALYSES.get((problem, alpha), lambda: _Engine(alpha, hyps).close(
        problem, registry).run(), MEMO_FACTS)
    return AnalysisReport(alpha, hyps, *kept._values()[2:])
