"""Traced derivation rules for copy posets under cardinal-arithmetic hypotheses.

``analyze`` factorizes sq(P(alpha)), classifies every exponent, and forward
chains a fixed rule catalog. A rule fires only when the hypothesis closure
answers *yes* on every premise; premises answered *unknown* are reported in
the blocked list, never assumed. Every emitted fact carries a trace whose
premises can be replayed against the closure and the classifier.
"""
from __future__ import annotations

from .atoms import AtomRegistry, builtin
from .terms import (
    OMEGA, OrdinalTerm, OrdinalError, compare, cardinality, from_atom,
    omega_power, canon_exp, pretty, term_to_obj,
)
from .classify import CaseReport, classify_exponent
from .cardinals import (
    ALEPH0, CONTINUUM, DIST_H, W1, CardinalExpr, FactBase, atom_expr, cc_cp_of,
    closure, exp_of, pow2_of, pow2lt_of, render_expr, render_rel, succ_of,
)
from .forcing import (
    ForcingFact, PosetExpr, Step, col, cp, factorize, iteration, poset_to_obj,
    product, render_poset, ro, rp_refine, sq_copies,
)
from .values import Value, init

SCHEMA_VERSION = 1


class RuleInfo(Value):
    __slots__ = ("id", "premises", "conclusion")

    def __init__(self, id: str, premises: str, conclusion: str) -> None:
        init(self, "id", id)
        init(self, "premises", premises)
        init(self, "conclusion", conclusion)

    def _values(self) -> tuple:
        return (self.id, self.premises, self.conclusion)


_CATALOG = [
    RuleInfo("T1.1a", "every CNF exponent of alpha is countable",
             "sq P(w^delta) is forcing equivalent to CP(w) * pi with pi a "
             "sigma-closed separative poset"),
    RuleInfo("T1.1b", "delta countable; h = w_1",
             "ro(sq P(w^delta)) ~ ro(CP(w))"),
    RuleInfo("T3.2", "alpha infinite, CNF w^{d_n}s_n + ... + w^{d_1}s_1 + m",
             "sq P(alpha) ~ product of (sq P(w^{d_i}))^{s_i}, tail dropped"),
    RuleInfo("T4.6", "w^delta is a kappa-sum of w^{delta_xi} with "
                     "cf(w^{delta_xi}) >= kappa",
             "CP(kappa) completely embeds into sq P(w^delta)"),
    RuleInfo("T4.7A", "case A (delta successor or cf(delta) = w)",
             "sq P(w^delta) sigma-closed; CP(w) completely embeds"),
    RuleInfo("T4.7B", "case B (delta = theta + kappa, cf(theta) = w)",
             "sq P(w^delta) sigma-closed; CP(w) completely embeds"),
    RuleInfo("T4.7C", "case C (delta = theta + kappa, w < lambda = cf(theta) < kappa)",
             "CP(lambda) completely embeds; collapses w_2 to w"),
    RuleInfo("T4.7D", "case D (delta = theta + kappa, theta = 0 or cf(theta) >= kappa)",
             "CP(kappa) completely embeds; collapses w_2 to w"),
    RuleInfo("T4.7E", "case E (delta a kappa-limit of cf-kappa ordinals)",
             "CP(kappa) completely embeds; collapses w_2 to w"),
    RuleInfo("T4.8", "delta = theta + kappa with lambda = cf(theta) < kappa",
             "CP(lambda) completely embeds into sq P(w^delta)"),
    RuleInfo("T4.9a", "every exponent in case A or B",
             "sq P(alpha) sigma-closed; CP(w)^k completely embeds, k the "
             "number of CNF factors"),
    RuleInfo("T4.9b", "some exponent in case C, D or E; optionally "
                      "cc(CP(lambda)) = succ(2^|alpha|)",
             "CP(lambda) completely embeds; collapses w_2 to w; optionally "
             "ro ~ Col(w, 2^|alpha|)"),
    RuleInfo("T4.10", "h < c; c = w_2; 2^w_1 = c; delta < w_2",
             "ro(sq P(w^delta)) ~ Col(w_1, c) in cases A/B or countable delta, "
             "~ Col(w, c) in cases D/E"),
    RuleInfo("T5.2", "case D or E; 2^cf(delta) = 2^|delta|; "
                     "2^<cf(delta) = cf(delta) or 2^cf(delta) = succ(cf(delta))",
             "ro(sq P(w^delta)) ~ Col(w, 2^|delta|)"),
    RuleInfo("T5.4", "delta a singular atom kappa with kappa > 2^cf(kappa), "
                     "cf(kappa) > w, 2^kappa = succ(kappa)",
             "ro(sq P(w^kappa)) ~ Col(w, 2^kappa)"),
    RuleInfo("T5.6", "delta = delta0 + n, n >= 1, delta0 >= w_1; sq P(w^delta0) "
                     "collapses 2^|delta0| to w, or is sigma-closed and "
                     "collapses it to w_1",
             "ro(sq P(w^(delta0+n))) ~ Col(w_1, 2^|delta0|)"),
    RuleInfo("T5.8", "delta a singular atom mu with cf(mu) = w and mu^w = 2^mu",
             "ro(sq P(w^mu)) ~ Col(w_1, 2^mu)"),
    RuleInfo("F2.4", "Cohen model over a GCH ground for c = kappa",
             "c = kappa; theta^mu computed in the ground model"),
    RuleInfo("F2.5", "separative lambda-closed P of size kappa = kappa^<lambda "
                     "forcing |kappa| = lambda",
             "ro(sq P) ~ Col(lambda, kappa)"),
    RuleInfo("F2.6a", "kappa infinite",
             "succ(succ(kappa)) <= cc(CP(kappa)) <= succ(2^kappa); cc is the "
             "least size admitting no antichain"),
    RuleInfo("F2.6b", "CP(w) completely embeds", "the poset collapses c to h"),
    RuleInfo("F2.6c", "kappa > cf(kappa) = w",
             "Col(w_1, kappa^w) completely embeds into ro(CP(kappa))"),
    RuleInfo("F2.6d", "kappa > 2^cf(kappa) > cf(kappa) > w",
             "Col(w, succ(kappa)) completely embeds into ro(CP(kappa))"),
    RuleInfo("F2.6e", "kappa regular uncountable; mu < cc(CP(kappa))",
             "CP(kappa) collapses mu to w"),
    RuleInfo("F5.1", "sq P(w^delta) lambda-closed and collapses 2^|delta| to "
                     "lambda, lambda in {w, w_1}, 2^|delta| > lambda",
             "ro(sq P(w^delta)) ~ Col(lambda, 2^|delta|)"),
    RuleInfo("F5.5a", "delta >= 1, n natural",
             "sq P(w^(delta+n)) ~ (rp^n(P(w^delta)/I))+"),
    RuleInfo("F5.5b", "kappa^w = kappa >= c",
             "ro(rp^n(Col(w, kappa))) ~ Col(w_1, kappa)"),
    RuleInfo("F5.5c", "kappa >= 2",
             "ro(rp^n(Col(w_1, kappa))) ~ Col(w_1, kappa^w)"),
    RuleInfo("Ex5.3", "delta a regular atom kappa; cc(CP(kappa)) determined",
             "ro ~ Col(w, 2^kappa) iff cc(CP(kappa)) = succ(2^kappa); "
             "cc-many cardinals preserved"),
    RuleInfo("sq-cp-ident", "delta a cardinal atom (so w^delta = delta)",
             "sq P(w^delta) = CP(delta)"),
    RuleInfo("roiso-trans", "ro(P) ~ ro(Q) and ro(Q) ~ ro(R)", "ro(P) ~ ro(R)"),
]

_CATALOG_BY_ID = {r.id: r for r in _CATALOG}


def rule_table() -> list[RuleInfo]:
    return list(_CATALOG)


def rule_lookup(rule_id: str) -> RuleInfo | None:
    return _CATALOG_BY_ID.get(rule_id)


class AnalysisReport(Value):
    """The outcome of ``analyze``; unlike the other values it is mutable and unhashable."""
    __slots__ = ("alpha", "hypotheses", "factorization", "notes", "facts",
                 "ro_conclusion", "blocked", "resolutions")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, alpha: OrdinalTerm, hypotheses: tuple, factorization: PosetExpr,
                 notes: list, facts: list, ro_conclusion: ForcingFact | None,
                 blocked: list, resolutions: dict) -> None:
        self.alpha = alpha
        self.hypotheses = hypotheses
        self.factorization = factorization
        self.notes = notes
        self.facts = facts
        self.ro_conclusion = ro_conclusion
        self.blocked = blocked  # (rule_id, [premise strings])
        self.resolutions = resolutions  # rendered expr -> rendered resolution

    def _values(self) -> tuple:
        return (self.alpha, self.hypotheses, self.factorization, self.notes, self.facts,
                self.ro_conclusion, self.blocked, self.resolutions)

    def to_obj(self) -> dict:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "alpha": term_to_obj(self.alpha),
            "alpha_pretty": pretty(self.alpha),
            "hypotheses": [h.render() for h in self.hypotheses],
            "factorization": poset_to_obj(self.factorization),
            "notes": list(self.notes),
            "facts": [f.to_obj() for f in self.facts],
        }
        if self.ro_conclusion is not None:
            obj["ro_conclusion"] = self.ro_conclusion.to_obj()
        else:
            obj["undetermined"] = {
                "blocked_rules": [
                    {"rule": rid, "unknown_premises": list(ps)}
                    for rid, ps in self.blocked]}
        if self.resolutions:
            obj["resolutions"] = dict(self.resolutions)
        return obj


def _delta_atom(delta: OrdinalTerm):
    """The atom a when delta is the ordinal of a cardinal atom, else None."""
    if delta.tail == 0 and len(delta.summands) == 1 and delta.summands[0][1] == 1:
        e = delta.summands[0][0]
        if not isinstance(e, OrdinalTerm):
            return e
    return None


def _term_card(t: OrdinalTerm) -> CardinalExpr | None:
    """The cardinal expression of a cofinality-like term (omega or an atom)."""
    if t == OMEGA:
        return ALEPH0
    a = _delta_atom(t)
    return None if a is None else atom_expr(a)


def _card_expr(t: OrdinalTerm) -> CardinalExpr | None:
    cv = cardinality(t)
    if cv.kind == "finite":
        return None
    return ALEPH0 if cv.kind == "aleph0" else atom_expr(cv.atom)


def resolve_poset(p: PosetExpr, fb: FactBase) -> PosetExpr:
    if p.kind == "cp":
        return cp(fb.resolve(p.kappa))
    if p.kind == "col":
        return col(fb.resolve(p.lam), fb.resolve(p.kappa))
    if p.factors:
        return PosetExpr(p.kind, factors=tuple(
            (resolve_poset(q, fb), m) for q, m in p.factors), tag=p.tag)
    if p.args:
        return PosetExpr(p.kind, alpha=p.alpha, delta=p.delta, n=p.n, tag=p.tag,
                         args=tuple(resolve_poset(a, fb) for a in p.args))
    return p


class _Engine:
    def __init__(self, alpha: OrdinalTerm, hyps, registry: AtomRegistry | None,
                 fb: FactBase | None = None):
        if compare(alpha, OMEGA) < 0:
            raise OrdinalError("analysis requires alpha >= w")
        self.alpha = alpha
        self.hyps = tuple(hyps)
        self.has_hyps = bool(self.hyps)
        self.w1 = W1
        self.w2 = atom_expr(builtin(2))
        self.whole = factorize(alpha)
        self.deltas = []  # distinct exponents in CNF order
        self.mults: dict[OrdinalTerm, int] = {}
        for (e, c) in alpha.summands:
            d = e if isinstance(e, OrdinalTerm) else from_atom(e)
            if d not in self.mults:
                self.deltas.append(d)
            self.mults[d] = self.mults.get(d, 0) + c
        self.reports: dict[OrdinalTerm, CaseReport] = {
            d: classify_exponent(d) for d in self.deltas}
        # the T5.6 sub-analysis passes its parent's closure, which contains its own
        self.fb = fb or closure(self.hyps, registry, extra_exprs=self._candidates())
        self.facts: dict[tuple, ForcingFact] = {}
        self.blocked: list[tuple[str, list[str]]] = []
        self.notes: list[str] = []
        self._sub_cache: dict[OrdinalTerm, AnalysisReport] = {}

    # -- candidate expressions the rules may query -----------------------------

    def _candidates(self) -> list[CardinalExpr]:
        out = [ALEPH0, CONTINUUM, DIST_H, self.w1, self.w2, pow2_of(self.w1)]
        seen_deltas = list(self.deltas)
        for d in list(self.deltas):
            if d.is_successor() and not OrdinalTerm(d.summands, 0).is_zero():
                seen_deltas.append(OrdinalTerm(d.summands, 0))
        for d in seen_deltas:
            ce = _card_expr(d)
            if ce is not None:
                out += [ce, pow2_of(ce), succ_of(pow2_of(ce))]
            rep = None
            if not d.is_zero():
                rep = self.reports[d] if d in self.reports else classify_exponent(d)
            rep_kappa = _term_card(rep.kappa) if rep is not None else None
            if rep_kappa is not None and rep_kappa != ALEPH0:
                out += [rep_kappa, pow2_of(rep_kappa), pow2lt_of(rep_kappa),
                        succ_of(rep_kappa), cc_cp_of(rep_kappa), succ_of(pow2_of(rep_kappa))]
            if rep is not None and rep.lam is not None:
                le = _term_card(rep.lam)
                if le is not None and le != ALEPH0:
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
        fb = self.fb
        return (kind, tuple(fb.resolve(o) if isinstance(o, CardinalExpr)
                            else resolve_poset(o, fb) if isinstance(o, PosetExpr)
                            else o for o in operands))

    def emit(self, kind: str, operands: tuple, steps: tuple) -> ForcingFact:
        key = self.fact_key(kind, operands)
        fact = self.facts.get(key)
        if fact is None:
            resolved = tuple(
                (i, render_expr(r) if isinstance(r, CardinalExpr) else render_poset(r))
                for i, (o, r) in enumerate(zip(operands, key[1])) if r != o)
            fact = self.facts[key] = ForcingFact(kind, operands, steps, resolved)
        return fact

    def has_fact(self, kind: str, operands: tuple) -> ForcingFact | None:
        return self.facts.get(self.fact_key(kind, operands))

    def entail(self, op: str, lhs: CardinalExpr, rhs: CardinalExpr) -> str:
        return self.fb.entails_rel(op, lhs, rhs)

    def check(self, rule_id: str, rels: list) -> tuple | None:
        """The closure premises of the rels when all entail yes; None when one does
        not, and the unknown ones are recorded as blocking the rule."""
        unknown = []
        for r in rels:
            s = self.entail(*r)
            if s == "no":
                return None
            if s == "unknown":
                unknown.append(render_rel(r))
        if unknown:
            self.blocked.append((rule_id, unknown))
            return None
        return tuple(("closure", r) for r in rels)

    # -- the pipeline -----------------------------------------------------------

    def run(self) -> AnalysisReport:
        for d in self.deltas:
            self._factor_core(d)
        for d in self.deltas:
            self._factor_conditional(d)
        self._product_level()
        self.blocked = [(rid, list(ps)) for rid, ps in
                        dict.fromkeys((rid, tuple(ps)) for rid, ps in self.blocked)]
        ro_fact = self._pick_conclusion()
        resolutions = {}
        for e in (CONTINUUM, DIST_H, pow2_of(self.w1)):
            r = self.fb.resolve(e)
            if r != e:
                resolutions[render_expr(e)] = render_expr(r)
        return AnalysisReport(
            alpha=self.alpha, hypotheses=self.hyps, factorization=self.whole,
            notes=self.notes, facts=list(self.facts.values()),
            ro_conclusion=ro_fact, blocked=self.blocked, resolutions=resolutions)

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
                self.emit("Collapses", (F, exp_of(ae, ALEPH0), self.w1),
                          (Step("F2.6c", (("kappa", a.name),),
                                (("fact", ident),
                                 ("closure", ("eq", pow2_of(ae), pow2_of(ae))))),))
            return
        kappa_e = _term_card(rep.kappa)
        if label == "C":
            lam_e = _term_card(rep.lam)
            ce_fact = self.emit("CompletelyEmbeds", (cp(lam_e), F),
                                (self._case_step(d, "T4.7C"),))
            self.emit("Collapses", (F, self.w2, ALEPH0),
                      (Step("T4.7C", (), (("fact", ce_fact),)),))
            return
        tag = f"T4.7{label}"
        ce_fact = self.emit("CompletelyEmbeds", (cp(kappa_e), F),
                            (self._case_step(d, tag),))
        self.emit("Collapses", (F, self.w2, ALEPH0),
                  (Step(tag, (), (("fact", ce_fact),)),))
        a = _delta_atom(d)
        if a is not None:
            self.emit("ForcingEquivalent", (F, cp(atom_expr(a))),
                      (self._case_step(d, "sq-cp-ident"),))

    # -- conditional, hypothesis-driven rules -----------------------------------

    def _factor_conditional(self, d: OrdinalTerm) -> None:
        rep = self.reports[d]
        F = self._factor_poset(d)
        label = rep.label
        ce = _card_expr(d)
        kappa_e = _term_card(rep.kappa)
        a = _delta_atom(d)

        if self._countable(d):
            used = self.check("T1.1b", [("eq", DIST_H, self.w1)])
            if used is not None:
                self.emit("RoIso", (F, cp(ALEPH0)),
                          (Step("T1.1b", (("delta", pretty(d)),), used),))

        self._rule_t410(d, F, label)

        if label in ("D", "E") and ce is not None and kappa_e is not None:
            self._rule_t52(d, F, kappa_e, ce)
        if a is not None and a.singular and kappa_e is not None and kappa_e != ALEPH0:
            self._rule_t54(d, F, a)
        if a is not None and a.regular and label in ("D", "E"):
            self._rule_ex53(d, F, a)
        if label in ("C", "D", "E"):
            rho = _term_card(rep.lam) if label == "C" else kappa_e
            if rho is not None:
                self._rule_f26e(d, F, rho, a if label != "C" else None, ce)
        if (a is not None and a.singular and a.declared_cofinality is None
                and self.has_hyps):
            self._rule_t58(d, F, a)
        if ce is not None:
            self._rule_f51(d, F, ce)
        if d.is_successor() and self.has_hyps:
            self._rule_t56(d, F)

    def _rule_t410(self, d, F, label) -> None:
        if compare(d, from_atom(builtin(2))) >= 0:
            return
        prem = [("lt", DIST_H, CONTINUUM), ("eq", CONTINUUM, self.w2),
                ("eq", pow2_of(self.w1), CONTINUUM)]
        used = self.check("T4.10", prem)
        if used is None:
            return
        header = self.emit("RoIso", (cp(ALEPH0), col(self.w1, CONTINUUM)),
                           (Step("T4.10", (), used),))
        inst = (("delta", pretty(d)), ("case", label))
        if self._countable(d):
            sub = self.has_fact("RoIso", (F, cp(ALEPH0)))
            if sub is not None:
                self.emit("RoIso", (F, col(self.w1, CONTINUUM)),
                          (Step("roiso-trans", inst, (("fact", sub), ("fact", header))),
                           Step("T4.10", inst, used)))
            return
        if label in ("A", "B"):
            self.emit("RoIso", (F, col(self.w1, CONTINUUM)),
                      (Step("T4.10", inst, used + (("case", d, label),)),))
        elif label in ("D", "E"):
            self.emit("RoIso", (F, col(ALEPH0, CONTINUUM)),
                      (Step("T4.10", inst, used + (("case", d, label),)),))

    def _rule_t52(self, d, F, kappa_e, ce) -> None:
        eq1 = ("eq", pow2_of(kappa_e), pow2_of(ce))
        s1 = self.entail(*eq1)
        if s1 == "no":
            return
        d2a = ("eq", pow2lt_of(kappa_e), kappa_e)
        d2b = ("eq", pow2_of(kappa_e), succ_of(kappa_e))
        s2a, s2b = self.entail(*d2a), self.entail(*d2b)
        if s2a == "no" and s2b == "no":
            return
        unknown = []
        if s1 == "unknown":
            unknown.append(render_rel(eq1))
        if s2a != "yes" and s2b != "yes":
            unknown.append(f"{render_rel(d2a)} or {render_rel(d2b)}")
        if unknown:
            self.blocked.append(("T5.2", unknown))
            return
        self.emit("RoIso", (F, col(ALEPH0, pow2_of(ce))),
                  (Step("T5.2", (("delta", pretty(d)),),
                        (("case", d, self.reports[d].label), ("closure", eq1),
                         ("closure", d2a if s2a == "yes" else d2b))),))

    def _rule_t54(self, d, F, a) -> None:
        if a.declared_cofinality is None:
            return  # cf = w belongs to T5.8, not here
        ae = atom_expr(a)
        cfe = atom_expr(a.declared_cofinality)
        prem = [("lt", pow2_of(cfe), ae), ("lt", cfe, pow2_of(cfe)),
                ("lt", ALEPH0, cfe), ("eq", pow2_of(ae), succ_of(ae))]
        used = self.check("T5.4", prem)
        if used is None:
            return
        ident = self.has_fact("ForcingEquivalent", (F, cp(ae)))
        emb = self.emit("CompletelyEmbeds",
                        (col(ALEPH0, succ_of(ae)), ro(cp(ae))),
                        (Step("F2.6d", (("kappa", a.name),), used),))
        coll = self.emit("Collapses", (F, pow2_of(ae), ALEPH0),
                         (Step("F2.6d", (("kappa", a.name),),
                               (("fact", emb),) + ((("fact", ident),) if ident else ()) +
                               used),))
        self.emit("RoIso", (F, col(ALEPH0, pow2_of(ae))),
                  (Step("T5.4", (("kappa", a.name),), (("fact", coll),) + used),
                   Step("F5.1", (("lambda", "w"),), (("fact", coll),))))

    def _rule_ex53(self, d, F, a) -> None:
        ae = atom_expr(a)
        ccx = cc_cp_of(ae)
        target = succ_of(pow2_of(ae))
        s_eq = self.entail("eq", ccx, target)
        if s_eq == "yes":
            self.emit("RoIso", (F, col(ALEPH0, pow2_of(ae))),
                      (Step("Ex5.3", (("kappa", a.name),),
                            (("closure", ("eq", ccx, target)),)),))
            return
        s_lt = self.entail("le", ccx, pow2_of(ae))
        if s_lt == "yes":
            self.emit("RoNotIso", (F, col(ALEPH0, pow2_of(ae))),
                      (Step("Ex5.3", (("kappa", a.name),),
                            (("closure", ("le", ccx, pow2_of(ae))),)),))
            return
        if s_eq == "unknown":
            self.blocked.append(("Ex5.3", [render_rel(("eq", ccx, target))]))

    def _rule_f26e(self, d, F, rho, a, ce) -> None:
        ccx = cc_cp_of(rho)
        # the universe's atoms in skey order: an atom outside it entails no relation
        fb = self.fb
        candidates = [x for x in fb.nodes if x.kind == "atom"]
        candidates += [CONTINUUM, pow2_of(rho)]
        if ce is not None:
            candidates.append(pow2_of(ce))
        emb = self.has_fact("CompletelyEmbeds", (cp(rho), F))
        seen = {ALEPH0}
        for x in candidates:
            rx = self.fb.resolve(x)
            if rx in seen:
                continue
            seen.add(rx)
            if self.entail("lt", x, ccx) == "yes":
                self.emit("Collapses", (F, x, ALEPH0),
                          (Step("F2.6e", (("kappa", render_expr(rho)),),
                                ((("fact", emb),) if emb else ()) +
                                (("closure", ("lt", x, ccx)),)),))
        # chain-condition preservation needs the poset to *be* CP(kappa)
        if a is not None and self.has_fact("ForcingEquivalent", (F, cp(atom_expr(a)))):
            res = self.fb.resolve(ccx)
            if res != ccx and res.kind in ("atom", "succ"):
                self.emit("Preserves", (F, f">= {render_expr(res)}"),
                          (Step("Ex5.3", (("cc", render_expr(res)),),
                                (("closure", ("eq", ccx, res)),)),))

    def _rule_f51(self, d, F, ce) -> None:
        target = pow2_of(ce)
        # lambda = w route: an existing collapse of 2^|delta| to w
        for fact in list(self.facts.values()):
            if fact.kind != "Collapses" or fact.operands[0] != F:
                continue
            frm, to = fact.operands[1], fact.operands[2]
            if self.entail("eq", to, ALEPH0) != "yes" and to != ALEPH0:
                continue
            if self.entail("eq", frm, target) == "yes":
                self.emit("RoIso", (F, col(ALEPH0, target)),
                          (Step("F5.1", (("lambda", "w"), ("size", render_expr(target))),
                                (("fact", fact), ("closure", ("eq", frm, target)))),))
                return
        # lambda = w_1 route: sigma-closed plus a collapse of 2^|delta| to w_1
        if self._countable(d):
            return
        sig = self.has_fact("SigmaClosed", (F,))
        if sig is None:
            return
        for fact in list(self.facts.values()):
            if fact.kind != "Collapses" or fact.operands[0] != F:
                continue
            frm, to = fact.operands[1], fact.operands[2]
            s_to = self.entail("eq", to, self.w1)
            s_frm = self.entail("eq", frm, target)
            if s_to == "no" or s_frm == "no":
                continue
            unknown = [render_rel(("eq", frm, target))] if s_frm == "unknown" else []
            if s_to == "unknown":
                unknown.append(render_rel(("eq", to, self.w1)))
            if unknown:
                if self.has_hyps:
                    self.blocked.append(("F5.1", unknown))
                continue
            self.emit("RoIso", (F, col(self.w1, target)),
                      (Step("F5.1", (("lambda", "w_1"), ("size", render_expr(target))),
                            (("fact", sig), ("fact", fact), ("closure", ("eq", frm, target)),
                             ("closure", ("eq", to, self.w1)))),))
            return

    def _rule_t56(self, d, F) -> None:
        n = d.tail
        d0 = OrdinalTerm(d.summands, 0)
        if n < 1 or d0.is_zero() or not d0.is_limit():
            return
        if self._countable(d0):
            return
        ce0 = _card_expr(d0)
        if ce0 is None:
            return
        target = pow2_of(ce0)
        sub = self._sub_cache.get(d0)
        if sub is None:
            # the parent's candidates include d0's, so its closure contains the one
            # of w^d0 under the same hypotheses: the sub-analysis runs on it
            sub = self._sub_cache[d0] = _Engine(
                omega_power(canon_exp(d0)), self.hyps, None, self.fb).run()
        subF = self._factor_poset(d0)
        route = None
        witness = None
        sub_sigma = None
        for fact in sub.facts:
            if fact.kind == "SigmaClosed" and fact.operands[0] == subF:
                sub_sigma = fact
        for fact in sub.facts:
            if fact.kind != "Collapses" or fact.operands[0] != subF:
                continue
            frm, to = fact.operands[1], fact.operands[2]
            if self.entail("eq", frm, target) != "yes":
                continue
            if self.fb.resolve(to) == ALEPH0:
                route, witness = "collapse-to-w", fact
                break
            if sub_sigma is not None and self.entail("eq", to, self.w1) == "yes":
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
        self.emit("RoIso", (F, col(self.w1, target)),
                  (Step("F5.5a", (("delta", pretty(d0)), ("n", str(n))), (("fact", fe),)),
                   Step(inner_rule, (("kappa", render_expr(target)),),
                        (("subfact", d0, witness),)),
                   Step("T5.6", (("route", route),),
                        (("subfact", d0, witness),) +
                        ((("subfact", d0, sub_sigma),) if sub_sigma and
                         route == "sigma-closed-collapse-to-w1" else ()))))

    def _rule_t58(self, d, F, a) -> None:
        ae = atom_expr(a)
        prem = [("eq", exp_of(ae, ALEPH0), pow2_of(ae))]
        used = self.check("T5.8", prem)
        if used is None:
            return
        coll = self.has_fact("Collapses", (F, exp_of(ae, ALEPH0), self.w1))
        self.emit("RoIso", (F, col(self.w1, pow2_of(ae))),
                  (Step("F2.6c", (("mu", a.name),), (("fact", coll),) if coll else ()),
                   Step("T5.8", (("mu", a.name),), used)))

    # -- product level ----------------------------------------------------------

    def _product_level(self) -> None:
        if self.whole.kind != "prod":
            return
        k = sum(self.mults.values())
        labels = {d: self.reports[d].label for d in self.deltas}
        factor_facts = []
        if all(lbl in ("A", "B") for lbl in labels.values()):
            for d in self.deltas:
                factor_facts.append(self.has_fact("SigmaClosed", (self._factor_poset(d),)))
            prem = tuple(("fact", f) for f in factor_facts if f)
            self.emit("SigmaClosed", (self.whole,),
                      (Step("T4.9a", (("k", str(k)),), prem),))
            self.emit("CompletelyEmbeds", (product([(cp(ALEPH0), k)]), self.whole),
                      (Step("T4.9a", (("k", str(k)),), prem),))
            self.emit("Collapses", (self.whole, CONTINUUM, DIST_H),
                      (Step("F2.6b", (), prem),))
            return
        cae = _card_expr(self.alpha)
        rhos = []
        for d in self.deltas:
            rep = self.reports[d]
            if rep.label == "C":
                rho = _term_card(rep.lam)
            elif rep.label in ("D", "E"):
                rho = _term_card(rep.kappa)
            else:
                continue
            if rho is not None and rho not in rhos:
                rhos.append(rho)
        for rho in rhos:
            emb = self.has_fact("CompletelyEmbeds", (cp(rho), self._factor_poset(
                next(d for d in self.deltas if _term_card(self.reports[d].kappa) == rho
                     or (self.reports[d].lam is not None
                         and _term_card(self.reports[d].lam) == rho)))))
            self.emit("CompletelyEmbeds", (cp(rho), self.whole),
                      (Step("T4.9b", (("lambda", render_expr(rho)),),
                            (("fact", emb),) if emb else ()),))
        self.emit("Collapses", (self.whole, self.w2, ALEPH0),
                  (Step("T4.9b", (), ()),))
        if cae is None:
            return
        target = succ_of(pow2_of(cae))
        for rho in rhos:
            ccx = cc_cp_of(rho)
            s = self.entail("eq", ccx, target)
            if s == "yes":
                self.emit("RoIso", (self.whole, col(ALEPH0, pow2_of(cae))),
                          (Step("T4.9b", (("lambda", render_expr(rho)),),
                                (("closure", ("eq", ccx, target)),)),))
                return
            if s == "unknown":
                self.blocked.append(("T4.9b", [render_rel(("eq", ccx, target))]))

    def _pick_conclusion(self) -> ForcingFact | None:
        whole = resolve_poset(self.whole, self.fb)
        best = None
        for (kind, operands), fact in self.facts.items():
            if kind != "RoIso" or operands[0] != whole:
                continue
            rhs = fact.operands[1]
            if isinstance(rhs, PosetExpr) and rhs.kind == "col":
                return fact
            if best is None:
                best = fact
        return best


def analyze(alpha: OrdinalTerm, hyps, registry: AtomRegistry) -> AnalysisReport:
    """Forward-chain the rule catalog over sq(P(alpha)) under the hypotheses."""
    return _Engine(alpha, hyps, registry).run()
