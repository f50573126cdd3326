import pytest

from copyposet.atoms import AtomRegistry
from copyposet.cardinals import (
    ALEPH0, CONTINUUM, DIST_H, ContradictionError, Hypothesis, HypothesisError,
    atom_expr, cc_cp_of, cf_of, closure, cohen_transfer, entails, exp_of, gch_exp,
    parse_cardinal_expr, parse_hypotheses, parse_hypothesis_line, pow2_of,
    pow2lt_of, rel, render_expr, succ_of,
)


@pytest.fixture
def reg():
    return AtomRegistry()


def _w(reg, k):
    return atom_expr(reg.builtin(k))


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
        assert parse_cardinal_expr("2^<mu", reg) == pow2lt_of(atom_expr(mu), reg)

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

    def test_bad_input(self, reg):
        with pytest.raises(HypothesisError):
            parse_hypothesis_line("2^", reg)
        with pytest.raises(HypothesisError):
            parse_hypothesis_line("xyz = w_1", reg)
        for text in ("2^w_1 = w_2 = w_3", "card mu rank abc", "card mu rank 5 singular cf",
                     "w_1", "w_1 =", "3^w = c", "cc(w_1) = w_2", "GCH CH", "w_1 @ w_2"):
            with pytest.raises(HypothesisError):
                parse_hypothesis_line(text, reg)


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

    def test_cc_pinch_from_power_hypothesis(self, reg):
        hyps = parse_hypotheses("2^w_1 = w_2", reg)
        ccx = cc_cp_of(_w(reg, 1))
        target = succ_of(pow2_of(_w(reg, 1)), reg)
        fb = closure(hyps, reg, extra_exprs=[ccx, target])
        assert fb.entails_rel("eq", ccx, target) == "yes"


class TestGchExp:
    def test_examples(self, reg):
        w5, w1 = reg.builtin(5), reg.builtin(1)
        mu = reg.declare("w_omega", 100, singular=True)
        assert gch_exp(atom_expr(w5), atom_expr(w1), reg) == atom_expr(w5)
        assert gch_exp(atom_expr(w1), atom_expr(w1), reg) == _w(reg, 2)
        assert gch_exp(atom_expr(mu), ALEPH0, reg) == succ_of(atom_expr(mu), reg)

    def test_unknown_marker(self, reg):
        assert gch_exp(DIST_H, _w(reg, 2), reg) is None


class TestCohenTransfer:
    def test_example_values(self, reg):
        w5 = reg.builtin(5)
        tr = cohen_transfer(w5, pow2_of(_w(reg, 1)), reg)
        assert tr.value == atom_expr(w5)
        assert tr.continuum == atom_expr(w5)
        tr2 = cohen_transfer(reg.builtin(2), pow2_of(ALEPH0), reg)
        assert tr2.value == _w(reg, 2)

    def test_singular_below_kappa(self, reg):
        mu = reg.declare("w_omega", 100, singular=True)
        kreg = reg.declare("kreg", 200)
        tr = cohen_transfer(kreg, exp_of(atom_expr(mu), ALEPH0), reg)
        assert tr.value == atom_expr(kreg)

    def test_unresolvable(self, reg):
        with pytest.raises(HypothesisError):
            cohen_transfer(reg.builtin(2), exp_of(DIST_H, ALEPH0), reg)

    def test_emits_continuum_in_closure(self, reg):
        w5 = reg.builtin(5)
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
