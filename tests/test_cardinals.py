import gc
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from copyposet import cardinals, rules
from copyposet.atoms import AtomRegistry, builtin
from copyposet.cardinals import (
    ALEPH0, CONTINUUM, DIST_H, CardinalExpr, ContradictionError, Hypothesis,
    HypothesisError, _gch_ground, atom_expr, cc_cp_of, cf_of, closure, cohen_transfer,
    entails, exp_of, parse_cardinal_expr, parse_hypotheses, parse_hypothesis_line,
    pow2_of, pow2lt_of, rel, render_expr, render_rel, succ_of,
)
from copyposet.parser import parse_term
from golden_scenarios import SCENARIOS, scenario_inputs, snapshot


@pytest.fixture
def reg():
    return AtomRegistry()


def _w(reg, k):
    return atom_expr(reg.lookup(f"w_{k}"))


_ROUNDTRIP_REG = AtomRegistry()
_ROUNDTRIP_REG.declare("nu", 40)
_ROUNDTRIP_REG.declare("mu", 50, singular=True)
_ROUNDTRIP_REG.declare("lam", 60, singular=True, cofinality="nu")


def _hypotheses(reg):
    """Hypotheses over w, c, h, w_1..w_3 and the atoms nu, mu, lam of ``reg``, built
    with the normalizing constructors the parser uses."""
    leaves = st.sampled_from([ALEPH0, CONTINUUM, DIST_H] + [
        atom_expr(reg.lookup(name)) for name in ("w_1", "w_2", "w_3", "nu", "mu", "lam")])
    unary = {"succ": succ_of, "cf": cf_of, "pow2": pow2_of, "pow2lt": pow2lt_of,
             "cc": cc_cp_of}
    exprs = st.recursive(leaves, lambda inner: st.one_of(
        st.builds(lambda f, x: unary[f](x), st.sampled_from(sorted(unary)), inner),
        st.builds(exp_of, inner, inner)), max_leaves=6)
    regular = st.sampled_from([reg.lookup(name) for name in ("w_1", "w_2", "w_3", "nu")])
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

    def test_table_does_not_grow_over_requests(self, capsys):
        """Expressions die with the request that built them, so a long --batch run
        keeps the intern table (and the process) at its starting size."""
        from copyposet.cli import main

        def request(rank):
            argv = ["analyze", "w^mu", "--card", f"mu rank {rank} singular cf w",
                    "--assume", "2^mu = succ(mu)", "--format", "json"]
            assert main(argv) == 0

        request(1000)
        gc.collect()
        start = len(cardinals._INTERNED)
        for rank in range(50, 250):
            request(rank)
        capsys.readouterr()
        gc.collect()
        assert len(cardinals._INTERNED) <= start + 10


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
        assert set(fb1.rels) <= set(fb2.rels)

    def test_idempotent(self, reg):
        # refeeding the derived relations adds nothing about the original
        # expressions (the universe itself grows by a derived layer)
        hyps = parse_hypotheses("h < c\nc = w_2\n2^w_1 = w_2", reg)
        fb = closure(hyps, reg)
        again = [rel(op, l, r_) for (op, l, r_) in fb.relations()]
        fb2 = closure(hyps + again, reg)
        u0 = fb.universe
        restricted = {k for k in fb2.rels if k[1] in u0 and k[2] in u0}
        assert restricted == set(fb.rels)

    def test_provenance_audit(self, reg):
        hyps = parse_hypotheses("h < c\nc = w_2\n2^w_1 = w_2", reg)
        fb = closure(hyps, reg)
        hyp_rels = {(h.op, h.lhs, h.rhs) for h in hyps}
        for key, (rule, premises) in fb.rels.items():
            if rule == "hypothesis":
                assert (key[0], key[1], key[2]) in hyp_rels or \
                       (key[0], key[2], key[1]) in hyp_rels
            for p in premises:
                if isinstance(p, tuple):
                    assert p in fb.rels

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
        fb = rules._Engine(alpha, hyps, reg).fb
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
        tr = cohen_transfer(w5, pow2_of(_w(reg, 1)))
        assert tr.value == atom_expr(w5)
        assert tr.continuum == atom_expr(w5)
        tr2 = cohen_transfer(reg.lookup("w_2"), pow2_of(ALEPH0))
        assert tr2.value == _w(reg, 2)

    def test_singular_below_kappa(self, reg):
        mu = reg.declare("w_omega", 100, singular=True)
        kreg = reg.declare("kreg", 200)
        tr = cohen_transfer(kreg, exp_of(atom_expr(mu), ALEPH0))
        assert tr.value == atom_expr(kreg)

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
    text = "\n\n".join("\n".join(sorted(render_rel(k) for k in fb.rels)) for fb in closures)
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
        engine = rules._Engine(alpha, hyps, registry)
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
        fresh = rules._Engine(sub.alpha, hyps, registry).fb
        assert fresh.universe <= parent.fb.universe
        assert fresh.rels.keys() <= parent.fb.rels.keys()
        sizes.append(len(fresh.universe))
    assert sizes
    if name == "t56_product":  # both sub-problems, w^(w_2) and w^(w_1)
        assert (sizes, len(parent.fb.universe)) == ([21, 21], 27)


# the `derive` benchmark's contradictory sets, and Cantor's theorem broken outright
CONTRADICTIONS = [("w^(w_1)", "CH\nc = w_2"), ("w^(w_1+1)", "2^w_1 = w_1"),
                  ("w^w", "h < c\nc = w_1"), ("w^(w_1*w_1)", "w_2 < w_1"), ("w^w", "2^w = w")]


@pytest.mark.parametrize("alpha_text,text", CONTRADICTIONS)
def test_contradiction_chain_shape(monkeypatch, alpha_text, text):
    """The chain ends at the raising relation and derives every premise before use,
    so it carries both halves of the conflict."""
    bases = []
    real_init = cardinals.FactBase.__init__

    def recording_init(self, *args):
        real_init(self, *args)
        bases.append(self)

    monkeypatch.setattr(cardinals.FactBase, "__init__", recording_init)
    reg = AtomRegistry()
    hyps = parse_hypotheses(text, reg)
    with pytest.raises(ContradictionError) as exc:
        rules.analyze(parse_term(alpha_text, reg), hyps, reg)
    chain = exc.value.chain
    fb = bases[-1]
    line_of = {k: f"{render_rel(k)}  [{rule}]" for k, (rule, _p) in fb.rels.items()}
    last = list(fb.rels)[-1]
    assert chain and chain[-1] == line_of[last]
    key_of = {line: k for k, line in line_of.items()}
    earlier: set = set()
    for line in chain:
        key = key_of[line]
        for p in fb.rels[key][1]:
            if isinstance(p, tuple):
                assert p in fb.rels and p in earlier, (line, p)
        earlier.add(key)
    if last[1] != last[2]:
        # the relation the raising one conflicts with is derived in the chain too
        other = "lt" if last[0] == "eq" else "eq"
        assert {(other, last[1], last[2]), (other, last[2], last[1])} & earlier



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
