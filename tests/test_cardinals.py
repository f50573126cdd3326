import gc
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from copyposet import cardinals, rules, values
from copyposet.atoms import AtomRegistry, builtin
from copyposet.cardexpr import (
    ALEPH0, CONTINUUM, DIST_H, CardinalExpr, ContradictionError, Hypothesis,
    HypothesisError, atom_expr, cc_cp_of, cf_of, exp_of, parse_cardinal_expr,
    parse_hypotheses, parse_hypothesis_line, pow2_of, pow2lt_of, pred_of, rel,
    render_expr, render_rel, succ_of,
)
from copyposet.cardinals import _gch_ground, closure, cohen_transfer, entails
from copyposet.forcing import PosetExpr, cp, factorize
from copyposet.parser import parse_term
from golden_scenarios import SCENARIOS, scenario_inputs, snapshot


@pytest.fixture
def reg():
    return AtomRegistry()


def _w(reg, k):
    return atom_expr(reg.lookup(f"w_{k}"))


def closed_engine(alpha, hyps, registry) -> rules._Engine:
    """An engine over the problem's closure, kept or built, as ``rules.analyze`` makes
    one before it runs it."""
    engine = rules._Engine(alpha, hyps)
    return engine.close(rules._problem(engine.hyps, registry), registry)


_ROUNDTRIP_REG = AtomRegistry()
_ROUNDTRIP_REG.declare("nu", 40)
_ROUNDTRIP_REG.declare("mu", 50, singular=True)
_ROUNDTRIP_REG.declare("lam", 60, singular=True, cofinality="nu")


def _leaves(reg):
    return [ALEPH0, CONTINUUM, DIST_H] + [
        atom_expr(reg.lookup(name)) for name in ("w_1", "w_2", "w_3", "nu", "mu", "lam")]


def _regular(reg):
    return [reg.lookup(name) for name in ("w_1", "w_2", "w_3", "nu")]


# the normalizing constructors the parser uses, besides exp_of
_UNARY = {"succ": succ_of, "cf": cf_of, "pow2": pow2_of, "pow2lt": pow2lt_of,
          "cc": cc_cp_of}


def _hypotheses(reg):
    """Hypotheses over w, c, h, w_1..w_3 and the atoms nu, mu, lam of ``reg``, built
    with the normalizing constructors the parser uses."""
    exprs = st.recursive(st.sampled_from(_leaves(reg)), lambda inner: st.one_of(
        st.builds(lambda f, x: _UNARY[f](x), st.sampled_from(sorted(_UNARY)), inner),
        st.builds(exp_of, inner, inner)), max_leaves=6)
    regular = st.sampled_from(_regular(reg))
    return st.one_of(
        st.builds(rel, st.sampled_from(["eq", "lt", "le"]), exprs, exprs),
        st.sampled_from([Hypothesis("GCH"), Hypothesis("CH")]),
        st.builds(lambda mu: Hypothesis("MA", mu=mu), exprs),
        st.builds(lambda kappa: Hypothesis("CohenModel", kappa=kappa), regular))


class TestGrammar:
    def test_relations(self, reg):
        h = parse_hypothesis_line("2^w_1 = w_2", reg)
        assert h.op == "eq" and h.lhs == pow2_of(_w(reg, 1)) and h.rhs == _w(reg, 2)
        h2 = parse_hypothesis_line("w_3 < 2^w_1", reg)
        assert h2.op == "lt"
        h3 = parse_hypothesis_line("2^w_1 > w_3", reg)
        assert h3.op == "lt" and h3.lhs == _w(reg, 3)
        # >= mirrors into <=, and the < of a weak power 2^<X is no relation
        assert parse_hypothesis_line("w_2 >= w_1", reg) == rel("le", _w(reg, 1), _w(reg, 2))
        assert parse_hypothesis_line("c >= w_2", reg) == rel("le", _w(reg, 2), CONTINUUM)
        assert parse_hypothesis_line("2^<w_1 < w_2", reg) == rel("lt", CONTINUUM, _w(reg, 2))

    def test_axioms_and_comments(self, reg):
        assert parse_hypothesis_line("GCH", reg).kind == "GCH"
        assert parse_hypothesis_line("# comment", reg) is None
        assert parse_hypothesis_line("", reg) is None
        reg.declare("mu", 50, singular=True)
        h = parse_hypothesis_line("MA mu=mu", reg)
        assert h.kind == "MA" and h.mu == atom_expr(reg.lookup("mu"))
        h2 = parse_hypothesis_line("CohenModel(w_5)", reg)
        assert h2.kind == "CohenModel" and h2.kappa.name == "w_5"

    def test_cc_and_cf_syntax(self, reg):
        e = parse_cardinal_expr("cc(CP(w_1))", reg)
        assert e == cc_cp_of(_w(reg, 1))
        assert parse_cardinal_expr("cf(c)", reg).kind == "cf"
        assert parse_cardinal_expr("succ(w_1)", reg) == _w(reg, 2)

    def test_weak_power_normalization(self, reg):
        # 2^{<w_1} is 2^w, the continuum
        assert parse_cardinal_expr("2^<w_1", reg) == CONTINUUM
        assert parse_cardinal_expr("2^<w_2", reg) == pow2_of(_w(reg, 1))
        mu = reg.declare("mu", 50, singular=True)
        assert parse_cardinal_expr("2^<mu", reg) == pow2lt_of(atom_expr(mu))

    def test_card_lines_declare(self, reg):
        hyps = parse_hypotheses("card mu rank 50 singular cf w\n2^mu = succ(mu)", reg)
        assert len(hyps) == 1 and reg.lookup("mu").singular

    def test_render_roundtrip(self, reg):
        reg.declare("mu", 50, singular=True)
        for text in ("2^w_1", "cc(CP(w_1))", "mu^w", "cf(2^mu)", "2^<mu", "succ(mu)"):
            e = parse_cardinal_expr(text, reg)
            assert parse_cardinal_expr(render_expr(e), reg) == e
        for text in ("2^w_1 = w_2", "w_3 < 2^w_1", "2^w_1 > w_3", "mu <= 2^<mu",
                     "c >= w_2", "GCH", "CH", "MA mu=mu", "CohenModel(w_5)"):
            h = parse_hypothesis_line(text, reg)
            assert parse_hypothesis_line(h.render(), reg) == h

    @settings(max_examples=200, deadline=None)
    @given(_hypotheses(_ROUNDTRIP_REG))
    def test_render_roundtrip_property(self, h):
        """Every hypothesis the constructors can build reads back from its rendering."""
        assert parse_hypothesis_line(h.render(), _ROUNDTRIP_REG) == h

    def test_bad_input(self, reg):
        with pytest.raises(HypothesisError):
            parse_hypothesis_line("2^", reg)
        with pytest.raises(HypothesisError):
            parse_hypothesis_line("xyz = w_1", reg)
        for text in ("2^w_1 = w_2 = w_3", "card mu rank abc", "card mu rank 5 singular cf",
                     "w_1", "w_1 =", "3^w = c", "cc(w_1) = w_2", "GCH CH", "w_1 @ w_2"):
            with pytest.raises(HypothesisError):
                parse_hypothesis_line(text, reg)


class TestInterning:
    def test_one_instance_per_expression(self, reg):
        x = _w(reg, 1)
        assert pow2_of(x) is CardinalExpr("pow2", args=(x,))
        assert exp_of(pow2_of(x), ALEPH0) is parse_cardinal_expr("(2^w_1)^w", reg)
        assert pow2_of(x).skey == (5, (1, 1))
        with pytest.raises(AttributeError):
            x.kind = "c"
        with pytest.raises(AttributeError):
            del x.atom

    def test_equal_atoms_share_the_instance(self):
        first, second = AtomRegistry(), AtomRegistry()
        assert _w(first, 3) is _w(second, 3)
        mu1 = first.declare("mu", 50, singular=True)
        mu2 = second.declare("mu", 50, singular=True)
        assert mu1 is not mu2 and atom_expr(mu1) is atom_expr(mu2)
        assert atom_expr(mu1) is not atom_expr(AtomRegistry().declare("mu", 51))

    def test_entry_leaves_when_its_expression_dies(self):
        """The table's callback drops an entry as its expression is freed, with the
        cyclic collector off: an expression holds no reference cycle."""
        atom = AtomRegistry().declare("nu", 4321)
        gc.disable()
        try:
            start = len(values._INTERNED)
            x = succ_of(atom_expr(atom))
            assert len(values._INTERNED) == start + 2
            assert (CardinalExpr, ("atom", atom, ())) in values._INTERNED
            del x
            assert len(values._INTERNED) == start
            assert (CardinalExpr, ("atom", atom, ())) not in values._INTERNED
        finally:
            gc.enable()

    def test_equal_posets_built_apart_are_one(self):
        first, second = AtomRegistry(), AtomRegistry()
        alpha = "w^(w_1+1)*2 + w^w + 3"
        assert factorize(parse_term(alpha, first)) is factorize(parse_term(alpha, second))
        assert cp(_w(first, 2)) is PosetExpr("cp", (_w(second, 2),))
        assert cp(_w(first, 2)) is not cp(_w(first, 3))

    def test_poset_entry_leaves_when_the_poset_dies(self):
        atom = AtomRegistry().declare("nu", 4322)
        gc.disable()
        try:
            start = len(values._INTERNED)
            p = cp(atom_expr(atom))
            assert len(values._INTERNED) == start + 2
            assert (PosetExpr, ("cp", (p.operands[0],))) in values._INTERNED
            del p
            assert len(values._INTERNED) == start
        finally:
            gc.enable()

    def test_live_expression_stays_canonical_over_requests(self, monkeypatch, capsys):
        """An expression held across a CLI request is the instance that request and
        every later constructor call use."""
        from copyposet.cli import main
        kept = pow2_of(_w(AtomRegistry(), 3))
        built = []
        real = rules.closure
        monkeypatch.setattr(rules, "closure",
                            lambda *a, **kw: built.append(real(*a, **kw)) or built[-1])
        argv = ["analyze", "w^(w_1+1)", "--assume", "GCH", "--assume", "w_3 < 2^w_3",
                "--format", "json"]
        assert main(argv) == 0 and main(argv) == 0
        capsys.readouterr()
        for fb in built:
            assert any(x is kept for x in fb.universe)
        assert parse_cardinal_expr("2^w_3", AtomRegistry()) is kept
        assert CardinalExpr("pow2", args=(atom_expr(builtin(3)),)) is kept

    def test_table_does_not_grow_over_requests(self, capsys):
        """Expressions die with the request that built them, or with the kept closure
        that holds them when a newer one pushes it out, so once the kept closures fill
        their bound a long --batch run keeps the intern table (and the process) at its
        size."""
        from copyposet.cli import main

        def request(rank):
            argv = ["analyze", "w^mu", "--card", f"mu rank {rank} singular cf w",
                    "--assume", "2^mu = succ(mu)", "--format", "json"]
            assert main(argv) == 0

        # distinct problems until one pushes a kept closure out
        rank, kept = 1000, -1
        while len(rules._CLOSURES) > kept:
            kept = len(rules._CLOSURES)
            request(rank)
            rank += 1
        gc.collect()
        start = len(values._INTERNED)
        for rank in range(50, 250):
            request(rank)
        capsys.readouterr()
        gc.collect()
        assert len(values._INTERNED) <= start + 10


class TestClosure:
    def test_gch_instance(self, reg):
        fb = closure([Hypothesis("GCH")], reg, extra_exprs=[pow2_of(_w(reg, 1))])
        assert fb.entails_rel("eq", pow2_of(_w(reg, 1)), _w(reg, 2)) == "yes"

    def test_pinched_h(self, reg):
        hyps = parse_hypotheses("h < c\nc = w_2\n2^w_1 = w_2", reg)
        fb = closure(hyps, reg)
        assert fb.entails_rel("eq", DIST_H, _w(reg, 1)) == "yes"

    def test_cantor_contradiction(self, reg):
        with pytest.raises(ContradictionError) as exc:
            closure(parse_hypotheses("2^w = w", reg), reg)
        assert exc.value.chain

    def test_koenig(self, reg):
        q = rel("lt", ALEPH0, cf_of(pow2_of(ALEPH0)))
        assert entails(parse_hypotheses("2^w = w_2", reg), q, reg) == "yes"
        assert entails([], q, reg) == "yes"

    def test_entails_three_valued(self, reg):
        ch = rel("eq", pow2_of(ALEPH0), _w(reg, 1))
        assert entails([], ch, reg) == "unknown"
        assert entails([Hypothesis("GCH")], ch, reg) == "yes"
        assert entails(parse_hypotheses("w_2 = c", reg), ch, reg) == "no"

    def test_monotone(self, reg):
        h1 = parse_hypotheses("2^w_1 = w_2", reg)
        h2 = h1 + parse_hypotheses("h < c", reg)
        fb1 = closure(h1, reg)
        fb2 = closure(h2, reg)
        assert set(fb1.relations()) <= set(fb2.relations())

    def test_idempotent(self, reg):
        # refeeding the derived relations adds nothing about the original
        # expressions (the universe itself grows by a derived layer)
        hyps = parse_hypotheses("h < c\nc = w_2\n2^w_1 = w_2", reg)
        fb = closure(hyps, reg)
        again = [rel(op, l, r_) for (op, l, r_) in fb.relations()]
        fb2 = closure(hyps + again, reg)
        u0 = fb.universe
        restricted = {k for k in fb2.relations() if k[1] in u0 and k[2] in u0}
        assert restricted == set(fb.relations())

    def test_provenance_audit(self, reg):
        """A relation stored as a hypothesis is one, and every premise a relation
        cites holds; in the second set, cc-tree meets 2^<w, which is w itself."""
        for text in ("h < c\nc = w_2\n2^w_1 = w_2", "cc(CP(w)) = w_2"):
            hyps = parse_hypotheses(text, reg)
            fb = closure(hyps, reg)
            hyp_rels = {(h.op, h.lhs, h.rhs) for h in hyps}
            for key, (rule, premises) in fb.rels.items():
                if rule == "hypothesis":
                    assert (key[0], key[1], key[2]) in hyp_rels or \
                           (key[0], key[2], key[1]) in hyp_rels
                for p in premises:
                    assert fb.holds(*p), (text, key, p)

    def test_cc_bounds_builtin(self, reg):
        fb = closure([], reg, extra_exprs=[cc_cp_of(_w(reg, 1))])
        ccx = cc_cp_of(_w(reg, 1))
        assert fb.entails_rel("le", _w(reg, 3), ccx) == "yes"  # w_3 = w_1++ <= cc
        assert fb.entails_rel("lt", _w(reg, 2), ccx) == "yes"

    def test_exp_congruence(self, reg):
        hyps = parse_hypotheses("c = w_2\nc^w <= w_5\nw_2^w <= w_5", reg)
        fb = closure(hyps, reg)
        key = ("eq", exp_of(_w(reg, 2), ALEPH0), exp_of(CONTINUUM, ALEPH0))
        assert fb.rels[key] == ("congruence", (("eq", _w(reg, 2), CONTINUUM),))

    def test_gch_singular_seed(self):
        """Under GCH a singular atom is its own weak power: mu = 2^<mu."""
        alpha, hyps, reg = _parsed("w^mu", "card mu rank 100 singular cf w\nGCH")
        fb = closed_engine(alpha, hyps, reg).fb
        mu = atom_expr(reg.lookup("mu"))
        assert fb.rels[("eq", mu, pow2lt_of(mu))] == ("GCH", ())

    def test_cc_pinch_from_power_hypothesis(self, reg):
        hyps = parse_hypotheses("2^w_1 = w_2", reg)
        ccx = cc_cp_of(_w(reg, 1))
        target = succ_of(pow2_of(_w(reg, 1)))
        fb = closure(hyps, reg, extra_exprs=[ccx, target])
        assert fb.entails_rel("eq", ccx, target) == "yes"


class TestGchExp:
    """theta^mu under GCH, from declarations alone (the ground of cohen_transfer)."""

    def test_examples(self, reg):
        w5, w1 = reg.lookup("w_5"), reg.lookup("w_1")
        mu = reg.declare("w_omega", 100, singular=True)
        assert _gch_ground(atom_expr(w5), atom_expr(w1)) == atom_expr(w5)
        assert _gch_ground(atom_expr(w1), atom_expr(w1)) == _w(reg, 2)
        assert _gch_ground(atom_expr(mu), ALEPH0) == succ_of(atom_expr(mu))

    def test_exponent_above_cofinality(self, reg):
        assert _gch_ground(_w(reg, 1), _w(reg, 2)) == _w(reg, 3)

    def test_unknown_marker(self, reg):
        assert _gch_ground(DIST_H, _w(reg, 2)) is None


class TestCohenTransfer:
    def test_example_values(self, reg):
        w5 = reg.lookup("w_5")
        assert cohen_transfer(w5, pow2_of(_w(reg, 1))) == atom_expr(w5)
        assert cohen_transfer(reg.lookup("w_2"), pow2_of(ALEPH0)) == _w(reg, 2)

    def test_singular_below_kappa(self, reg):
        mu = reg.declare("w_omega", 100, singular=True)
        kreg = reg.declare("kreg", 200)
        assert cohen_transfer(kreg, exp_of(atom_expr(mu), ALEPH0)) == atom_expr(kreg)

    def test_unresolvable(self, reg):
        with pytest.raises(HypothesisError):
            cohen_transfer(reg.lookup("w_2"), exp_of(DIST_H, ALEPH0))

    def test_emits_continuum_in_closure(self, reg):
        w5 = reg.lookup("w_5")
        fb = closure([Hypothesis("CohenModel", kappa=w5)], reg,
                     extra_exprs=[pow2_of(_w(reg, 1))])
        assert fb.entails_rel("eq", CONTINUUM, atom_expr(w5)) == "yes"
        assert fb.entails_rel("eq", DIST_H, _w(reg, 1)) == "yes"
        assert fb.entails_rel("eq", pow2_of(_w(reg, 1)), atom_expr(w5)) == "yes"


class TestT58Arithmetic:
    def _mu(self, reg):
        return atom_expr(reg.declare("w_omega", 100, singular=True))

    def _query(self, reg, mu):
        return rel("eq", exp_of(mu, ALEPH0), pow2_of(mu))

    def test_route_a(self, reg):
        mu = self._mu(reg)
        hyps = parse_hypotheses("2^w_omega = succ(w_omega)", reg)
        assert entails(hyps, self._query(reg, mu), reg) == "yes"

    def test_route_b(self, reg):
        mu = self._mu(reg)
        hyps = parse_hypotheses("2^<w_omega = w_omega", reg)
        assert entails(hyps, self._query(reg, mu), reg) == "yes"

    def test_route_c(self, reg):
        mu = self._mu(reg)
        hyps = [Hypothesis("MA", mu=mu)]
        assert entails(hyps, self._query(reg, mu), reg) == "yes"

    def test_route_d(self, reg):
        mu = self._mu(reg)
        kreg = reg.declare("kreg", 200)
        hyps = [Hypothesis("CohenModel", kappa=kreg)]
        assert entails(hyps, self._query(reg, mu), reg) == "yes"

    def test_no_free_lunch(self, reg):
        mu = self._mu(reg)
        assert entails([], self._query(reg, mu), reg) == "unknown"


# -- the closure engine: fixpoint, work and contradiction chains ------------------

# a T5.6 problem whose sub-problems, w^(w_2) and w^(w_1), need fewer nodes (21 each)
# than it (27)
T56_PRODUCT = ("w^(w_2+1) + w^(w_1+1)", "2^w_1 = w_2\n2^w_2 = w_3")


def _parsed(alpha_text, text):
    """(alpha, hypotheses, registry) read from fresh input."""
    registry = AtomRegistry()
    hyps = parse_hypotheses(text, registry)
    return parse_term(alpha_text, registry), hyps, registry


def _problem(name):
    """(alpha, hypotheses, registry) of a golden scenario, ``saturate_k`` or
    ``t56_product``."""
    if name == "t56_product":
        return _parsed(*T56_PRODUCT)
    if name.startswith("saturate_"):
        k = int(name.split("_")[1])
        return _parsed("w^(w_1+1)", f"GCH\n2^w_1 = w_2\nw_{k} < 2^w_{k}")
    return scenario_inputs(name)


def _analyze_closures(monkeypatch, name):
    """Every FactBase that `analyze` builds for the problem: one, which the T5.6
    sub-analysis shares."""
    built = []
    real = rules.closure

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(rules, "closure", recording)
    rules.analyze(*_problem(name))
    return built


def _fixpoint_digest(closures) -> str:
    text = "\n\n".join("\n".join(sorted(map(render_rel, fb.relations()))) for fb in closures)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the sorted relations of every closure `analyze` runs, in call order;
# generated with the round-by-round naive engine the semi-naive one replaced. The
# T5.6 sub-analysis builds no closure of its own (it runs on its parent's), so each
# problem pins one closure
FIXPOINT_DIGESTS = {
    "ex53_negative": "0d9edebfb95f35e219dc4e5ea4f228d250a76df6da4fb2c9ddbb7b337b634742",
    "ex57_cohen": "18888db8a9bb52133bea4a28dc3557e4fa3ab262e31f1ba91dbb01f5dfc5b806",
    "saturate_2": "645cdab0117ea72b1fcaa6974b686e63676f961e49111a5339d85254ee2af22b",
    "saturate_3": "2576fec836250b9a771aff1a360e884053b5b64c151eb53493b08cb1505de0f9",
    "saturate_4": "493e2714aeada5b00ebb18142f104235ab48f9e06dfeeac5ef138162c958fd17",
    "saturate_5": "436d56f54ef18805be85b4153467610ea4b875dd184b1a9dbb2eac95b33f1f92",
    "saturate_6": "c6359f7834f58839b5d03b0b4535603b94d65c6a5af8498b713633945ecfa405",
    "saturate_7": "c81d58180a87fb121b8167da0bfad79b682dc0b55da9b7fe65d373a59715aab6",
    "saturate_8": "598853ce0fbfec1e8bd9eafbe08b7de7388953b8c23ae1dc835144ed7b63b82b",
    "t410_case_a": "88a3efe88fc3e5f750790d4cdc8fb29ea5fbfc486cf161394e6a6c839b7b2862",
    "t410_case_b": "464493a1b6cb6596240dd5de69f4a1fadb216219b309ca37d61c1770833ad9c0",
    "t410_case_d": "88a3efe88fc3e5f750790d4cdc8fb29ea5fbfc486cf161394e6a6c839b7b2862",
    "t410_case_e": "464493a1b6cb6596240dd5de69f4a1fadb216219b309ca37d61c1770833ad9c0",
    "t410_countable": "a9a10f6a180599bf7f0a7f72e8562c63eb54c470e29691687df5700e55750e3d",
    "t52_ch": "a73ef3249ce20cb9f52341bd2fb6a8a79bb5b20af74cebf2d6a822db888ccc05",
    "t52_power_pinch": "7c6e4b47f6eebe32359260644c816fbdcd7aacf72ecfe6078cac171fbd169945",
    "t54_singular": "5c542cf05f5d24ca8c725bd87419960495339ba3bb2561f52db6485c13e9aee5",
    "t56_n1": "7c6e4b47f6eebe32359260644c816fbdcd7aacf72ecfe6078cac171fbd169945",
    "t56_n2": "7c6e4b47f6eebe32359260644c816fbdcd7aacf72ecfe6078cac171fbd169945",
    "t58_mu_a": "187b10dd6387133605426eb5ff6a62b386540a2a814dcb07e63a72daf4a024bd",
    "t58_mu_b": "3156174da5ce0f617b9d58e08d87b136992047979b289a4b0e8979f2a217b3fb",
    "t58_mu_c": "d08ff80ee0c6ae88dde0cbaa5c9c446960d6ea9540e906754c16073917c2fb0a",
    "t58_mu_d": "023a7996f18d4f100240c6b6c2590ec24b5506c92b92e84764758a7b89d47507",
}


@pytest.mark.parametrize("name", sorted(FIXPOINT_DIGESTS))
def test_fixpoint_pinned(monkeypatch, name):
    assert _fixpoint_digest(_analyze_closures(monkeypatch, name)) == FIXPOINT_DIGESTS[name]


def _provenance_digest(fb) -> str:
    items = [(render_rel(k), rule, tuple(map(render_rel, premises)))
             for k, (rule, premises) in fb.rels.items()]
    return hashlib.sha256(repr(items).encode()).hexdigest()


# sha256 of every stored relation with its rule and premises, in stored order: the
# sorted FIXPOINT_DIGESTS cannot see the order or the provenance move, and the order
# picks the derivations that contradiction chains print. Generated when the closure
# came to keep le-trans, order-trans and lt-weaken as bits alone
PROVENANCE_DIGESTS = {
    "ex53_negative": "131e6e41306bf80c0e5735d6aebe4069378661e1f96a5c0f14c6a59ea62555c0",
    "ex57_cohen": "b0cba9dcdd929291cc91673e08e8fafaf356a70e47d4e66444070d66e745b550",
    "saturate_2": "20ddaed95214cda60b2d8c604bc590f88123e977adfa62989478aada7d3bd107",
    "saturate_3": "97e981ecf2029962e95a5b88dae67be9d62289cdf1e004717b48c114f65c1332",
    "saturate_4": "c30b3b7d14eff4175e797be99b213d078c528ee5b85f81a0ddb9dfff442b4e54",
    "saturate_5": "c0e113444c1c5bf4d14cb449510f0d1b3f0398b03f3b8be1c6090b48ec959a93",
    "saturate_6": "885d7309c2f5661b3dc7b048ab5a3f889839b6955c281c18315e9afe8474870b",
    "saturate_7": "40622561dc4dcf649f6c42bb391df9fcba9ddd59295f2275a493487093842905",
    "saturate_8": "69f6bdce7fd43b94c454c9486f76c33f9227f159b4ef43d004e372229ac46980",
    "t410_case_a": "0eab979083e61997b5874a8032de2a04673cf3150e1337b0d3bd07e828808712",
    "t410_case_b": "8f3be9712e6eb7526090a1354abacecadf6418612e3ae06a0fc8eba30d9b601a",
    "t410_case_d": "0eab979083e61997b5874a8032de2a04673cf3150e1337b0d3bd07e828808712",
    "t410_case_e": "8f3be9712e6eb7526090a1354abacecadf6418612e3ae06a0fc8eba30d9b601a",
    "t410_countable": "68546e0c9c8fce3db8c6f8e6a7ef62c46b2796627c8a25b1c8ead6ed450e8c4b",
    "t52_ch": "fa835be91e30bd50e39c0b3424e0b9a42f0d73e68bc944ad039d959c95b159f4",
    "t52_power_pinch": "a994fba4cf39a1f6f745e8967723ffc284f5258951e5dff89dd8025a99c0d735",
    "t54_singular": "04cb56f5f8b3b320f1d3ea48c0b2a76920cf75bc16a4e36dae657c0dd696af52",
    "t56_n1": "a994fba4cf39a1f6f745e8967723ffc284f5258951e5dff89dd8025a99c0d735",
    "t56_n2": "a994fba4cf39a1f6f745e8967723ffc284f5258951e5dff89dd8025a99c0d735",
    "t58_mu_a": "d2f00aa56e3e53ac5c1d558f8959b74dd95403f9d21595524b53b11716a3887e",
    "t58_mu_b": "effd0650df913dcc18dac6b2e97c3b70aa1350eaeeeffc71680b591cf38d4925",
    "t58_mu_c": "17a7f770e86b16a5da82cf37271576c3639fa7c3691f5c7688e37e6a3def6179",
    "t58_mu_d": "15d7d18ca3fc245a6aa35753f23d74db0c1f1234eefc07c99539255ea1d787ef",
    "t56_product": "29b4edfe8780950f2e00a8e53e0df6b8266456cb1295e114f510c987b2ef6c8b",
}


@pytest.mark.parametrize("name", sorted(PROVENANCE_DIGESTS))
def test_stored_order_and_provenance_pinned(monkeypatch, name):
    (fb,) = _analyze_closures(monkeypatch, name)
    assert _provenance_digest(fb) == PROVENANCE_DIGESTS[name]


def _corpus(reg, n=300, seed=2024):
    """n hypothesis sets of one to three lines, drawn with a seeded ``random.Random``
    from the leaves and constructors of ``_hypotheses``, expressions two deep."""
    rng = random.Random(seed)
    leaves, regular = _leaves(reg), _regular(reg)

    def expr(depth):
        r = rng.random()
        if depth == 0 or r < 0.45:
            return rng.choice(leaves)
        if r < 0.85:
            return _UNARY[rng.choice(sorted(_UNARY))](expr(depth - 1))
        return exp_of(expr(depth - 1), expr(depth - 1))

    def hyp():
        r = rng.random()
        if r < 0.8:
            return rel(rng.choice(["eq", "lt", "le"]), expr(2), expr(2))
        if r < 0.9:
            return Hypothesis(rng.choice(["GCH", "CH"]))
        if r < 0.95:
            return Hypothesis("MA", mu=expr(1))
        return Hypothesis("CohenModel", kappa=rng.choice(regular))

    return [tuple(hyp() for _ in range(rng.randint(1, 3))) for _ in range(n)]


def _outcome(hyps, reg) -> str:
    """A closure's provenance digest, or its contradiction's message and chain, or
    its error message."""
    try:
        fb = closure(hyps, reg)
    except ContradictionError as exc:
        return repr(("contradiction", str(exc), exc.chain))
    except HypothesisError as exc:
        return repr(("error", str(exc)))
    return _provenance_digest(fb)


_CF_C = CardinalExpr("cf", args=(CONTINUUM,))
_CC_CP_W = cc_cp_of(ALEPH0)


def _corpus_group(hyps) -> str:
    """The digest a corpus set counts in: by the first of cc(CP(w)) and cf(c) it names."""
    named = {e for h in hyps for x in (h.lhs, h.rhs, h.mu) if x is not None
             for e in cardinals.subexprs(x)}
    return "cc(CP(w))" if _CC_CP_W in named else "cf(c)" if _CF_C in named else "rest"


# sha256 of the outcomes of _corpus(_ROUNDTRIP_REG), in order, each followed by a NUL,
# one digest per _corpus_group: 266 sets name neither, 13 cf(c) (Koenig's rule came to
# cover c) and 21 cc(CP(w)) (cc-tree came to cite no premise for 2^<w = w). All three
# were generated when the closure came to keep le-trans, order-trans and lt-weaken as
# bits alone; RELATION_SET_DIGEST pins what the closures hold
CORPUS_DIGEST = "50e7d248094ba488ecf54274364d3b2946e363496c46fa589f011e9cab4130a4"
CORPUS_CF_C_DIGEST = "4142c46285d5e953618316f7118cdfa98fc4b4f0d467342565fb817343b96324"
CORPUS_CC_CP_W_DIGEST = "85f77311517b63c460ca700b09172d928a47e70410572760ad7dd74d8206efa7"


def test_corpus_outcomes_pinned():
    """300 generated sets, well past the named problems: a closure stores the same
    relations in the same order with the same provenance, or raises the same
    contradiction with the same chain."""
    digests = {"rest": hashlib.sha256(), "cf(c)": hashlib.sha256(),
               "cc(CP(w))": hashlib.sha256()}
    for hyps in _corpus(_ROUNDTRIP_REG):
        digests[_corpus_group(hyps)].update(_outcome(hyps, _ROUNDTRIP_REG).encode() + b"\0")
    assert digests["rest"].hexdigest() == CORPUS_DIGEST
    assert digests["cf(c)"].hexdigest() == CORPUS_CF_C_DIGEST
    assert digests["cc(CP(w))"].hexdigest() == CORPUS_CC_CP_W_DIGEST


def _relation_outcome(hyps, reg) -> str:
    """A closure's sorted relations, or ``contradiction``, or its error message."""
    try:
        fb = closure(hyps, reg)
    except ContradictionError:
        return "contradiction"
    except HypothesisError as exc:
        return repr(("error", str(exc)))
    return "\n".join(sorted(map(render_rel, fb.relations())))


# sha256 of the outcomes of _corpus(_ROUNDTRIP_REG, n=2000, seed=7), in order, each
# followed by a NUL: the relation set of every closure, however it is stored
RELATION_SET_DIGEST = "a39163273331f75026a06132633db5a5d9c901ae36134b99692453018838f51f"


def test_corpus_relation_sets_pinned():
    """2,000 generated sets, about half of them contradictory: each closure holds the
    same relations, or contradicts, or fails with the same message."""
    digest = hashlib.sha256()
    for hyps in _corpus(_ROUNDTRIP_REG, n=2000, seed=7):
        digest.update(_relation_outcome(hyps, _ROUNDTRIP_REG).encode() + b"\0")
    assert digest.hexdigest() == RELATION_SET_DIGEST


def _engine_view(hyps, reg):
    """What the analyzer reads of a closure: its nodes, the relations that hold and
    every node's resolution; or ``contradiction``, or its error message."""
    try:
        fb = closure(hyps, reg)
    except ContradictionError:
        return "contradiction"
    except HypothesisError as exc:
        return ("error", str(exc))
    return fb.nodes, set(fb.relations()), [fb.resolve(x) for x in fb.nodes]


def _swapped(h):
    """The hypothesis with an equality's sides swapped; any other one as it is."""
    return rel("eq", h.rhs, h.lhs) if h.kind == "rel" and h.op == "eq" else h


def test_closure_ignores_line_order_and_equality_sides():
    """rules keeps a closure for reuse under the set of its hypotheses: over the
    2,000 sets of the relation-set pin, reversing or shuffling the lines and swapping
    every equality's sides leaves the nodes, the relation set and every resolution as
    they were, and a contradictory set contradictory."""
    rng = random.Random(22)
    contradictory = 0
    for n, hyps in enumerate(_corpus(_ROUNDTRIP_REG, n=2000, seed=7)):
        lines = [_swapped(h) for h in hyps]
        if n % 2:
            rng.shuffle(lines)
        else:
            lines.reverse()
        view = _engine_view(hyps, _ROUNDTRIP_REG)
        assert _engine_view(tuple(lines), _ROUNDTRIP_REG) == view, hyps
        contradictory += view == "contradiction"
    assert contradictory > 900


_IMAGE_CONSTRUCTORS = (succ_of, pow2_of, cf_of, pow2lt_of, cc_cp_of, pred_of)


def _check_images(fb) -> None:
    """The image ids FactBase and _run_rules look up are those of the images the
    constructors build: for every node, and for every eq operand outside the universe."""
    for i, x in enumerate(fb.nodes):
        assert fb.images[i] == tuple(fb.ids.get(f(x)) for f in _IMAGE_CONSTRUCTORS)
    for op, a, b in fb.rels:
        for x in (a, b):
            if op == "eq" and x not in fb.ids:
                assert cardinals._images(x, fb.ids) == tuple(
                    fb.ids.get(f(x)) for f in _IMAGE_CONSTRUCTORS)


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS] +
                         [f"saturate_{k}" for k in range(2, 9)])
def test_image_table_matches_the_constructors(monkeypatch, name):
    for fb in _analyze_closures(monkeypatch, name):
        _check_images(fb)


def test_image_table_matches_the_constructors_on_the_corpus():
    closed = 0
    for hyps in _corpus(_ROUNDTRIP_REG):
        try:
            fb = closure(hyps, _ROUNDTRIP_REG)
        except HypothesisError:  # a contradiction too
            continue
        _check_images(fb)
        closed += 1
    assert closed > 100


def test_universe_holds_the_arguments_of_its_nodes(monkeypatch):
    """Every node's arguments are nodes, over every closure of the corpus sets,
    contradictory ones too, and of the pinned problems. So a stored equality's side
    outside the universe, which a GCH equation may name, has none of the images the
    equality delta pairs in it, and is no exp node's argument: the rule loop
    concludes nothing from such an equality."""
    built, real_init = [], cardinals.FactBase.__init__

    def recording(self, *args):
        real_init(self, *args)
        built.append(self)

    monkeypatch.setattr(cardinals.FactBase, "__init__", recording)
    for hyps in _corpus(_ROUNDTRIP_REG):
        try:
            closure(hyps, _ROUNDTRIP_REG)
        except HypothesisError:  # a contradiction too
            pass
    for name in PROVENANCE_DIGESTS:
        rules.analyze(*_problem(name))
    outside = 0
    for fb in built:
        for x in fb.nodes:
            assert all(a in fb.ids for a in x.args), render_expr(x)
        for op, a, b in fb.rels:
            for x in (a, b):
                if op == "eq" and x not in fb.ids:
                    outside += 1
                    assert cardinals._images(x, fb.ids)[:cardinals._PRED] == (
                        None,) * cardinals._PRED, render_expr(x)
    # 300 corpus sets and the 20 distinct closures of the pinned problems; 739 stored
    # equality sides lie outside their universe
    assert len(built) == 320 and outside == 739


def test_rebuilt_fact_base_has_the_same_images():
    """A FactBase built again over a closure's universe has the closure's image table."""
    problems = [s[0] for s in SCENARIOS] + [f"saturate_{k}" for k in range(2, 9)]
    for _alpha, hyps, registry in map(_problem, problems):
        fb = closure(hyps, registry)
        assert cardinals.FactBase(fb.hyps, fb.universe).images == fb.images


def test_goldens_and_ladder_share_closures(monkeypatch):
    """Analyses of one hypothesis set, candidate set and set of declared atoms share
    one kept closure: over the goldens and the saturate ladder's problems, the rule
    loop runs once per distinct closure."""
    problems = [s[0] for s in SCENARIOS] + [f"saturate_{k}" for k in range(2, 9)]
    runs, real_run = [], cardinals._run_rules

    def run_rules(fb):
        real_run(fb)
        runs.append(fb)

    monkeypatch.setattr(cardinals, "_run_rules", run_rules)
    for name in problems:
        rules.analyze(*_problem(name))
    # the problems share 19 closures: t410_case_a's with t410_case_d, t410_case_b's
    # with t410_case_e, and t52_power_pinch's with t56_n1 and t56_n2 (FIXPOINT_DIGESTS)
    assert len(problems) == 23 and len(runs) == 19


def test_closure_work_bound(monkeypatch):
    """Semi-naive rounds: the one closure of the densest saturate problem makes at
    most 10 FactBase.add calls per relation it keeps (the naive rounds made ~90)."""
    calls = {}
    real_add = cardinals.FactBase.add

    def counting(self, *args, **kwargs):
        calls[self] = calls.get(self, 0) + 1
        return real_add(self, *args, **kwargs)

    monkeypatch.setattr(cardinals.FactBase, "add", counting)
    closures = _analyze_closures(monkeypatch, "saturate_8")
    assert len(closures) == 1
    for fb in closures:
        assert calls[fb] <= 10 * len(fb.rels)


@pytest.mark.parametrize("name,nodes", [("t54_singular", 26), ("saturate_8", 32)])
def test_results_do_not_depend_on_registry_history(name, nodes):
    """25 analyses on one registry close over the same universe and report the same:
    an analysis leaves nothing in the registry for the next one to read."""
    alpha, hyps, registry = _problem(name)
    runs = []
    for _ in range(25):
        engine = closed_engine(alpha, hyps, registry)
        runs.append((len(engine.fb.universe), snapshot(engine.run())))
    assert runs == [(nodes, runs[0][1])] * 25


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS] +
                         [f"saturate_{k}" for k in range(2, 9)])
def test_computing_leaves_the_registry_as_it_was(name):
    """analyze, closure and entails read the registry and never add to it, not even
    the builtins they build (w^(w_1+1) needs w_2 = succ(w_1), cc(CP(w_3)) needs w_5)."""
    alpha, hyps, registry = _problem(name)
    before = registry.atoms()
    rules.analyze(alpha, hyps, registry)
    assert registry.atoms() == before
    closure(hyps, registry)
    assert registry.atoms() == before
    w3 = atom_expr(builtin(3))
    assert entails(hyps, rel("lt", w3, cc_cp_of(w3)), registry) == "yes"
    assert registry.atoms() == before


# the problems whose analysis runs a T5.6 sub-analysis
T56_PROBLEMS = ["ex57_cohen", "t410_case_a", "t56_n1", "t56_n2", "t56_product",
                *(f"saturate_{k}" for k in range(2, 9))]


@pytest.mark.parametrize("name", T56_PROBLEMS)
def test_t56_sub_analysis_shares_the_closure(monkeypatch, name):
    """The sub-analysis of w^delta0 runs on its parent's FactBase, and loses nothing
    by it: a fresh closure of the sub-problem lies inside the parent's, universe and
    relations alike."""
    engines = []
    real_init = rules._Engine.__init__

    def recording(self, *args):
        real_init(self, *args)
        engines.append(self)

    monkeypatch.setattr(rules._Engine, "__init__", recording)
    alpha, hyps, registry = _problem(name)
    rules.analyze(alpha, hyps, registry)
    parent, *subs = engines
    sizes = []
    for sub in subs:
        assert sub.fb is parent.fb
        fresh = closed_engine(sub.alpha, hyps, registry).fb
        assert fresh.universe <= parent.fb.universe
        assert set(fresh.relations()) <= set(parent.fb.relations())
        sizes.append(len(fresh.universe))
    assert sizes
    if name == "t56_product":  # both sub-problems, w^(w_2) and w^(w_1)
        assert (sizes, len(parent.fb.universe)) == ([21, 21], 27)


# the `derive` benchmark's contradictory sets, Cantor's theorem broken outright, and
# two sets of their own; between them, every way the closure raises: a stored strict
# order that closes x < x or meets an equality, a strict order of transitivity alone
# that does either (its chain rebuilt from stored relations), and an equality that
# meets a strict order. New entries go in the middle, as test_cli reads the first and
# the last
CONTRADICTIONS = [("w^(w_1)", "CH\nc = w_2"),  # transitive strict order, equality
                  ("w^(w_1+1)", "2^w_1 = w_1"),  # stored strict order (cantor), equality
                  ("w^w", "h < c\nc = w_1"),  # equality (antisymmetry), strict order
                  ("w^w", "w_1 < c\nc = w_1"),  # equality (hypothesis), strict order
                  ("w^(w_1*w_1)", "w_2 < w_1"),  # equality (antisymmetry), atom order
                  ("w^w", "MA mu=c"),  # stored strict order (MA), c < c
                  ("w^w", "cc(CP(succ(h))) < w_4\nh < w_3"),  # transitive, x < x
                  ("w^w", "c < w_1"),  # equality (antisymmetry), strict order
                  ("w^w", "h = w"),  # equality (congruence), strict order
                  ("w^w", "h < c\nc <= w_1"),  # equality (antisymmetry), strict order
                  ("w^w", "2^w = w")]  # equality (antisymmetry), strict order
# sha256 of each entry's contradiction chain text, generated when the closure came to
# keep le-trans, order-trans and lt-weaken as bits and rebuild them in chains
CHAIN_DIGESTS = [
    "8e2d612bb76ddac6eedde969875a2dbc07984c13cfd8b6f412183cfc8b34aeb4",
    "1b0155a4c441613ac3a3bd14b28ef015bdba11d5a236cf656ebfc09ad6b5c920",
    "3880e63e93b844c2f54be305c0cfc2fae7dc8a8b749fa07f035ebdc094b59a0a",
    "0279bfc8a7ab9c40fb091f5744c899b88c0527313d7c61eb06be20731b602259",
    "e72a35da0fb15d9baedcbaccfa90ab8f1b617eb9e0f2804ec5a09518f279a5d0",
    "f6571e8468c9d03f5654e263e0d36f6eeda2e2b2351f941ae1a6494d5e72283f",
    "cbf8d4586d9928c4d4d364d02f2a098f3b50b57bc5f81a942aa22fd3b45606c2",
    "00326274e43da4d62dd8d5be520e087a9fddf3878f34d84221202f76f3020b65",
    "4b32ac10b55e8b7846abe5d4a09c0b888100d572a03f2348a42f9d2901483d07",
    "472b6b1780ca93f10af4cfb56294fb01694cd854a012169bd1de32f69b51646a",
    "ae2e5273b050c1c56d70387193084c17c6b145212babeae2c96f88a84adc0f77",
]


@pytest.mark.parametrize("problem,digest", zip(CONTRADICTIONS, CHAIN_DIGESTS))
def test_contradiction_chain_pinned(problem, digest):
    alpha_text, text = problem
    reg = AtomRegistry()
    hyps = parse_hypotheses(text, reg)
    with pytest.raises(ContradictionError) as exc:
        rules.analyze(parse_term(alpha_text, reg), hyps, reg)
    assert hashlib.sha256("\n".join(exc.value.chain).encode()).hexdigest() == digest


# the rules whose conclusions the closure keeps as bits alone, rebuilt in a chain
_TRANSITIVE = {"le-trans", "order-trans", "lt-weaken"}


def _follows(key, rule, premises) -> bool:
    """Whether key follows from premises by the transitive rule."""
    if rule == "lt-weaken":
        return key[0] == "le" and premises == (("lt", key[1], key[2]),)
    (op1, a, b), (op2, b2, c) = premises
    ops, op = ({"le"}, "le") if rule == "le-trans" else ({"le", "lt"}, "lt")
    return b is b2 and {op1, op2} == ops and key == (op, a, c)


def _record_derivations(monkeypatch) -> list:
    """(fact base, lines) of every FactBase.derivation call from now on."""
    calls = []
    real = cardinals.FactBase.derivation

    def recording(self, *keys):
        calls.append((self, real(self, *keys)))
        return calls[-1][1]

    monkeypatch.setattr(cardinals.FactBase, "derivation", recording)
    return calls


def check_lines_replay(fb, lines) -> list:
    """The keys of a derivation's lines, which replay: each line's premises are on an
    earlier line (or are x = x or x <= x), a stored line shows its provenance and a
    rebuilt one follows from its premises by its transitive rule."""
    earlier: list = []
    for key, rule, premises in lines:
        for p in premises:
            assert p in earlier or p[0] != "lt" and p[1] is p[2], (key, p)
        if rule in _TRANSITIVE:
            assert _follows(key, rule, premises), (key, rule, premises)
        else:
            assert fb.rels[key] == (rule, premises)
        earlier.append(key)
    return earlier


def _check_replays(exc, fb, lines) -> None:
    """The contradiction's chain is the derivation's lines, which replay, and it ends
    at the raising relation after the one it conflicts with, or at x < x."""
    assert [f"{render_rel(k)}  [{rule}]" for k, rule, _p in lines] == exc.chain
    earlier = check_lines_replay(fb, lines)
    op, a, b = earlier.pop()
    if op == "eq":
        assert {("lt", a, b), ("lt", b, a)} & set(earlier)
    else:
        assert op == "lt" and (a is b or cardinals._rel_key("eq", a, b) in earlier)


@pytest.mark.parametrize("alpha_text,text", CONTRADICTIONS)
def test_contradiction_chain_shape(monkeypatch, alpha_text, text):
    """The chain replays and carries both halves of the conflict."""
    calls = _record_derivations(monkeypatch)
    reg = AtomRegistry()
    hyps = parse_hypotheses(text, reg)
    with pytest.raises(ContradictionError) as exc:
        rules.analyze(parse_term(alpha_text, reg), hyps, reg)
    _check_replays(exc.value, *calls[-1])


def test_corpus_contradiction_chains_replay(monkeypatch):
    """So does the chain of every contradictory set among the 2,000 of the relation-set
    pin, which raise in each of the closure's ways."""
    calls = _record_derivations(monkeypatch)
    raised = 0
    for hyps in _corpus(_ROUNDTRIP_REG, n=2000, seed=7):
        try:
            closure(hyps, _ROUNDTRIP_REG)
        except ContradictionError as exc:
            _check_replays(exc, *calls[-1])
            raised += 1
        except HypothesisError:
            pass
    assert raised > 900


# the per-node rules that read no stored relation
STATIC_NODE_RULES = {"cantor", "koenig", "weakpow-above", "weakpow-below", "succ-above",
                     "cf-below", "F2.6a", "exp-base", "exp-above-pow2"}


@pytest.mark.parametrize("name", ["saturate_8", "t58_mu_d", "ex53_negative"])
def test_static_node_rules_fire_once(monkeypatch, name):
    """A node rule that reads no stored relation concludes the same in every round,
    so no closure may try one of its relations twice."""
    tried = []
    real = cardinals._node_rules

    def recording(fb, emit, *rest):
        def recording_emit(op, lhs, rhs, rule, *prem):
            if rule in STATIC_NODE_RULES and lhs in fb.universe and rhs in fb.universe:
                tried.append((fb, op, lhs, rhs, rule))
            emit(op, lhs, rhs, rule, *prem)
        real(fb, recording_emit, *rest)

    monkeypatch.setattr(cardinals, "_node_rules", recording)
    rules.analyze(*_problem(name))
    assert tried and len(tried) == len(set(tried))
