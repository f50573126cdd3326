import gc
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

import copyposet
from copyposet import rules
from copyposet.atoms import AtomRegistry
from copyposet.parser import parse_term
from copyposet.classify import classify_exponent
from copyposet.cardexpr import (
    ALEPH0, HypothesisError, atom_expr, parse_hypotheses, rel, render_rel,
)
from copyposet.cardinals import entails
from copyposet.catalog import rule_table
from copyposet.forcing import (
    ForcingFact, fact_text, poset_to_obj, premise_text, render_poset,
)
from copyposet.rules import _Engine, analyze
from copyposet.terms import ONE, OMEGA, exp_term, from_atom, power
from golden_scenarios import SCENARIOS as GOLDEN, scenario_inputs
from test_cardinals import T56_PRODUCT, check_lines_replay
from test_classify import EXAMPLE_LABELS

# inputs beyond the golden battery that the replay and the catalog coverage run
# over: (alpha, hypothesis lines, card declarations first)
SCENARIOS = [
    ("w^(w_1)", "cc(CP(w_1)) = w_3\nw_3 < 2^w_1"),
    ("w^(w_1)", "CH"),
    ("w^(w_1*w + w_1)", "h < c\nc = w_2\n2^w_1 = w_2"),
    ("w^(mu+1)", "card mu rank 50 singular cf w\n2^mu = succ(mu)"),
    ("w^(w_2*w_1 + w_2)", ""),  # case C
    ("w^(w_1*w + w_1)*2 + w^(w_1+1)", ""),  # a product of case A and B factors
    ("w^(w_1)*2 + w^(w+1)", "cc(CP(w_1)) = succ(2^w_1)"),
    T56_PRODUCT,  # T5.6 over a closure larger than its sub-problem's own
]


def _run(alpha_text, hyp_text=""):
    registry = AtomRegistry()
    hyps = parse_hypotheses(hyp_text, registry)
    alpha = parse_term(alpha_text, registry)
    return analyze(alpha, hyps, registry), registry, hyps


def test_conservative_facts_for_case_a_and_b():
    for alpha_text in ("w^(w_1+1)", "w^(w_1*w + w_1)", "w^(w+2)", "w^mu"):
        if "mu" in alpha_text:
            registry = AtomRegistry()
            registry.declare("mu", 50, singular=True)
            alpha = parse_term(alpha_text, registry)
            report = analyze(alpha, [], registry)
        else:
            report, _reg, _h = _run(alpha_text)
        kinds = sorted(f.kind for f in report.facts)
        assert kinds == ["Collapses", "CompletelyEmbeds", "ForcingEquivalent",
                         "SigmaClosed"]
        collapse = next(f for f in report.facts if f.kind == "Collapses")
        assert fact_text(collapse).endswith("collapses c to h")
        embed = next(f for f in report.facts if f.kind == "CompletelyEmbeds")
        assert render_poset(embed.operands[0]) == "CP(w)"
        assert report.ro_conclusion is None


def test_cde_includes_omega2_collapse():
    for alpha_text in ("w^(w_1)", "w^(w_1*w_1)", "w^(w_2*w_1 + w_2)"):
        report, _reg, _h = _run(alpha_text)
        assert any(
            f.kind == "Collapses" and "collapses w_2 to w" in fact_text(f)
            for f in report.facts)


def test_pi_tag_countable_vs_uncountable():
    rep_c, _r, _h = _run("w^(w*2)")
    fe = next(f for f in rep_c.facts if f.kind == "ForcingEquivalent")
    assert "sigma-closed separative" in fact_text(fe)
    rep_u, _r, _h = _run("w^(w_1+1)")
    fe_u = next(f for f in rep_u.facts if f.kind == "ForcingEquivalent")
    assert "w-distributive" in fact_text(fe_u)


def test_determinism():
    a1, _r1, _h1 = _run("w^(w_1)", "cc(CP(w_1)) = w_3\nw_3 < 2^w_1")
    a2, _r2, _h2 = _run("w^(w_1)", "cc(CP(w_1)) = w_3\nw_3 < 2^w_1")
    assert a1.to_obj() == a2.to_obj()


def test_monotone_in_hypotheses():
    alpha_text = "w^(w_1)"
    h1_text = "2^w_1 = w_2"
    h2_text = "2^w_1 = w_2\nh < c\nc = w_2"
    a1, _reg1, _h1 = _run(alpha_text, h1_text)
    registry2 = AtomRegistry()
    hyps2 = parse_hypotheses(h2_text, registry2)
    alpha2 = parse_term(alpha_text, registry2)
    engine2 = _Engine(alpha2, hyps2, registry2)
    a2 = engine2.run()
    keys2 = {engine2.fact_key(f.kind, f.operands) for f in a2.facts}
    for f in a1.facts:
        assert engine2.fact_key(f.kind, f.operands) in keys2, f"lost fact {fact_text(f)}"


def _replay_inputs():
    """(alpha, hypotheses, registry) of every golden scenario and of SCENARIOS."""
    for name, *_rest in GOLDEN:
        yield scenario_inputs(name)
    for alpha_text, hyp_text in SCENARIOS:
        registry = AtomRegistry()
        hyps = parse_hypotheses(hyp_text, registry)
        yield parse_term(alpha_text, registry), hyps, registry


def _fact_id(f):
    return f.kind, f.operands, f.resolved


def _replay(alpha, hyps, registry) -> None:
    report = analyze(alpha, hyps, registry)
    facts = {_fact_id(f) for f in report.facts}
    sub_facts: dict = {}
    for fact in report.facts:
        assert fact.trace, f"untraced fact {fact_text(fact)}"
        for step in fact.trace:
            for premise in step.premises:
                text = premise_text(premise)
                if premise[0] == "closure":
                    assert entails(hyps, rel(*premise[1]), registry) == "yes", text
                elif premise[0] == "case":
                    assert classify_exponent(premise[1]).label == premise[2], text
                elif premise[0] == "subfact":
                    delta0 = premise[1]
                    if delta0 not in sub_facts:
                        sub = analyze(power(OMEGA, delta0), hyps, registry)
                        sub_facts[delta0] = {_fact_id(f) for f in sub.facts}
                    assert _fact_id(premise[2]) in sub_facts[delta0], text
                else:
                    assert premise[0] == "fact" and _fact_id(premise[1]) in facts, text


def test_trace_replay():
    """Every premise of every step holds: closure relations are entailed by the
    hypotheses, case labels are the classifier's, and facts are in the report (or,
    for a subfact, in a fresh analysis of w^delta0)."""
    for alpha, hyps, registry in _replay_inputs():
        _replay(alpha, hyps, registry)


# random product problems: regular atoms, singular atoms of cofinality w and of an
# atom's cofinality, limit and successor exponents of every case, hypothesis lines
RANDOM_DECLS = ["card kap rank 50", "card lam rank 60", "card mu rank 70 singular cf w",
                "card nu rank 80 singular cf kap"]
RANDOM_EXPONENTS = [
    "2", "w", "w+1", "w*2", "w^w+3", "w_1", "w_1+1", "w_1+2", "w_1*w", "w_1*w+w_1",
    "w_1*w_1", "w_2", "w_2+1", "w_2*w_1+w_2", "w_2*w_2", "kap", "kap+1", "kap*w_1+kap",
    "lam", "mu", "mu+1", "mu*w", "nu", "nu+1"]
RANDOM_HYPOTHESES = [
    "CH", "GCH", "h < c", "c = w_2", "2^w_1 = w_2", "h = w_1", "2^w_1 = w_3",
    "2^mu = succ(mu)", "2^<mu = mu", "MA mu=mu", "CohenModel(w_5)", "CohenModel(lam)",
    "2^kap = succ(kap)", "cc(CP(w_1)) = succ(2^w_1)", "cc(CP(w_1)) = w_3",
    "w_3 < 2^w_1", "2^w_1 < nu", "2^nu = succ(nu)", "2^kap < nu", "mu^w = 2^mu",
    "cc(CP(kap)) = succ(2^kap)", "cc(CP(w_2)) = succ(2^w_2)",
    "h < c\nc = w_2\n2^w_1 = w_2"]


def test_trace_replay_of_random_problems():
    """The replay over seeded random products. A rule cites the facts its case
    guarantees without a condition, so a wrong case argument shows here as a premise
    that does not replay; a contradiction or another hypothesis error passes."""
    rng = random.Random(30)
    for _ in range(250):  # about 2 s
        registry = AtomRegistry()
        lines = RANDOM_DECLS + rng.sample(RANDOM_HYPOTHESES, rng.randint(0, 4))
        summands = [f"w^({e})*{rng.randint(1, 2)}"
                    for e in rng.sample(RANDOM_EXPONENTS, rng.randint(1, 3))]
        try:
            hyps = parse_hypotheses("\n".join(lines), registry)
            _replay(parse_term(" + ".join(summands), registry), hyps, registry)
        except HypothesisError:  # ContradictionError is one
            pass


# catalog results no step names: the factorization (T3.2) and general embedding and
# collapse theorems whose instances the engine states through T4.7 and T4.9
DOCUMENTATION_ONLY = {"T3.2", "T4.6", "T4.8", "F2.5"}
# catalog results the closure applies, named in relation provenance, not in steps
CLOSURE_RULES = {"F2.4", "F2.6a"}


def test_catalog_coverage(monkeypatch):
    """Every step names a catalog rule, and every catalog rule is named by some step
    over the replay inputs, is a closure rule that some closure applies, or is
    documentation only."""
    closures = []
    real = rules.closure

    def recording(*args, **kwargs):
        closures.append(real(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(rules, "closure", recording)
    fired = {step.rule for alpha, hyps, registry in _replay_inputs()
             for f in analyze(alpha, hyps, registry).facts for step in f.trace}
    applied = {rule for fb in closures for rule, _premises in fb.rels.values()}
    ids = {r.id for r in rule_table()}
    assert fired <= ids
    assert CLOSURE_RULES <= applied
    assert ids - fired == CLOSURE_RULES | DOCUMENTATION_ONLY


T410_UNKNOWN = ["h < c", "c = w_2", "2^w_1 = c"]
EX53_UNKNOWN = ["cc(CP(w_1)) = succ(2^w_1)"]
T52_EITHER = "c = w_1 or 2^w_1 = w_2"


@pytest.mark.parametrize("alpha_text,hyp_text,blocked", [
    ("w^(w_1)", "",
     [("T4.10", T410_UNKNOWN), ("T5.2", [T52_EITHER]), ("Ex5.3", EX53_UNKNOWN)]),
    ("w^w", "c = w_2", [("T1.1b", ["h = w_1"]), ("T4.10", ["h < c", "2^w_1 = c"])]),
    # a plain premise before the disjunctive one; its refuted member still shows
    ("w^(w_2+w_1)", "c = w_2", [("T5.2", ["2^w_1 = 2^w_2", T52_EITHER])]),
    ("w^mu", "card mu rank 100 singular cf w_1\n2^w_1 = w_2",
     [("T5.4", ["2^mu = succ(mu)"])]),
    ("w^mu", "card mu rank 100 singular cf w\nc = w_2",
     [("T5.8", ["mu^w = 2^mu"]), ("F5.1", ["mu^w = 2^mu"])]),
    ("w^(w_1+1)", "c = w_2",
     [("T4.10", ["h < c", "2^w_1 = c"]), ("F5.1", ["c = 2^w_1", "h = w_1"]),
      ("T5.6", ["sq P(w^(w_1)) collapses 2^w_1 to w, or is sigma-closed and "
                "collapses it to w_1"])]),
    # F5.1 reports nothing without hypotheses
    ("w^(w_1+1)", "", [("T4.10", T410_UNKNOWN)]),
    ("w_1*3 + w^w + 5", "c = w_2",
     [("T4.10", ["h < c", "2^w_1 = c"]), ("T5.2", [T52_EITHER]), ("Ex5.3", EX53_UNKNOWN),
      ("T1.1b", ["h = w_1"]), ("T4.9b", EX53_UNKNOWN)]),
], ids=["no-hyps", "t11b", "t52-plain-and-either", "t54", "t58-f51", "f51-t56",
        "f51-silent", "t49b"])
def test_blocked_rules_reported_not_assumed(alpha_text, hyp_text, blocked):
    report, _reg, _h = _run(alpha_text, hyp_text)
    assert report.ro_conclusion is None
    assert report.blocked == blocked
    assert not any(f.kind == "RoIso" for f in report.facts)


def test_sigma_closed_product_embeds_cp_power():
    report, _reg, _h = _run("w^(w_1*w + w_1)*2 + w^(w_1+1)")
    whole = render_poset(report.factorization)
    assert any(f.kind == "SigmaClosed" and render_poset(f.operands[0]) == whole
               for f in report.facts)
    embeds = [f for f in report.facts if f.kind == "CompletelyEmbeds"
              and render_poset(f.operands[1]) == whole]
    assert any(render_poset(f.operands[0]) == "CP(w)^3" for f in embeds)


def test_product_cc_gives_whole_poset_collapse_iso():
    report, _reg, _h = _run("w^(w_1)*2 + w^(w+1)", "cc(CP(w_1)) = succ(2^w_1)")
    whole = render_poset(report.factorization)
    assert "x" in whole  # genuinely a product
    embeds = [f for f in report.facts
              if f.kind == "CompletelyEmbeds"
              and render_poset(f.operands[1]) == whole]
    assert any(render_poset(f.operands[0]) == "CP(w_1)" for f in embeds)
    assert any(f.kind == "Collapses" and render_poset(f.operands[0]) == whole
               and "w_2" in fact_text(f) for f in report.facts)
    assert report.ro_conclusion is not None
    assert "Col(w, 2^w_1)" in fact_text(report.ro_conclusion)
    assert any(s.rule == "T4.9b" for s in report.ro_conclusion.trace)


@pytest.mark.parametrize("alpha_text,rho,factor", [
    ("w^(w_1*w + w_1) + w_1", "w_1", "sq(P(w_1))"),  # a case-B factor first
    ("w^(w_2*w_1 + w_2) + w_2", "w_2", "sq(P(w_2))"),  # a case-C factor (CP(w_1)) first
])
def test_product_embedding_cites_the_factor_giving_rho(alpha_text, rho, factor):
    """T4.9b embeds CP(rho) into the product through the factor whose case gives rho,
    whatever factors come before it."""
    report, registry, hyps = _run(alpha_text)
    whole = render_poset(report.factorization)
    step = next(s for f in report.facts for s in f.trace if s.rule == "T4.9b"
                and fact_text(f) == f"CP({rho}) completely embeds into {whole}")
    assert [premise_text(p) for p in step.premises] == [
        f"fact: CP({rho}) completely embeds into {factor}"]
    _replay(report.alpha, hyps, registry)


def test_product_cc_through_a_case_c_factor():
    """The lambda of a case-C factor is a collapsing cardinal of the product."""
    report, registry, hyps = _run("w^(w_3*w_1 + w_3) + w_2", "cc(CP(w_1)) = succ(2^w_3)")
    assert report.ro_conclusion is not None
    assert fact_text(report.ro_conclusion).startswith(
        f"ro({render_poset(report.factorization)}) ~ ro(Col(w, 2^w_3)")
    assert any(s.rule == "T4.9b" and s.instantiation == (("lambda", "w_1"),)
               for s in report.ro_conclusion.trace)
    _replay(report.alpha, hyps, registry)


def test_mixed_product_without_hypotheses_stays_open():
    report, _reg, _h = _run("w^(w_1)*2 + w^(w+1)")
    assert report.ro_conclusion is None
    whole = render_poset(report.factorization)
    assert any(f.kind == "Collapses" and render_poset(f.operands[0]) == whole
               for f in report.facts)


def test_card_expr_reads_the_cofinalities_of_reports():
    """The analyzer reads a report's kappa and lambda through ``_card_expr``. These
    cofinalities are 1, w or an atom's ordinal, which it reads as no cardinal, aleph0
    and the atom; checked on the classifier tests' exponents and the goldens'."""
    registry = AtomRegistry()
    registry.declare("nu", 60, singular=True)
    texts = [text for text, _label in EXAMPLE_LABELS]
    texts += ["w_1*w_1", "w_1^w_1", "nu + w_1", "w^(w+1)", "w^w"]
    deltas = [parse_term(text, registry) for text in texts]
    for name, *_rest in GOLDEN:
        alpha, _hyps, _registry = scenario_inputs(name)
        deltas += [exp_term(e) for e, _c in alpha.summands]
    seen = set()
    for delta in deltas:
        rep = classify_exponent(delta)
        for t in (rep.kappa, rep.lam):
            if t is None:
                continue
            if t == ONE:
                seen.add("one")
                assert rules._card_expr(t) is None
            elif t == OMEGA:
                seen.add("w")
                assert rules._card_expr(t) is ALEPH0
            else:
                (a, coeff), = t.summands
                assert t == from_atom(a) and coeff == 1
                seen.add("atom")
                assert rules._card_expr(t) is atom_expr(a)
    assert seen == {"one", "w", "atom"}


def test_rejects_finite_alpha():
    registry = AtomRegistry()
    from copyposet.terms import OrdinalError, nat
    with pytest.raises(OrdinalError):
        analyze(nat(9), [], registry)


def test_report_json_shape():
    report, _reg, _h = _run("w^(w_1)", "2^w_1 = w_2")
    obj = report.to_obj()
    assert obj["schema_version"] == 1
    assert "factorization" in obj and "facts" in obj
    assert "ro_conclusion" in obj
    for fact in obj["facts"]:
        assert {"kind", "operands", "pretty", "trace"} <= set(fact)


def _held(build):
    """What ``build()`` returns and the bytes it holds, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        obj = build()
        gc.collect()
        return obj, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_report_json_builds_each_poset_once():
    """The report's JSON object shares each poset's object between the facts naming
    it: for w^50 + ... + w, whose 203 facts name the 50-factor product 3 times and
    each factor 4 times, it holds at most half the bytes of the facts' objects built
    each on its own (0.42 of them measured with Python 3.11.7), and it is equal to
    them."""
    report, _reg, _h = _run(" + ".join(f"w^{k}" for k in range(50, 0, -1)))
    shared, held = _held(report.to_obj)
    alone, held_alone = _held(lambda: (poset_to_obj(report.factorization),
                                       [f.to_obj() for f in report.facts]))
    assert shared["factorization"] == alone[0] and shared["facts"] == alone[1]
    whole = [o for f in shared["facts"] for o in f["operands"]
             if o == shared["factorization"]]
    assert len(whole) == 3 and all(o is shared["factorization"] for o in whole)
    assert held <= 0.5 * held_alone


def test_report_json_builds_the_conclusion_once(monkeypatch):
    """The conclusion is one of the facts and shares their object: a saturate report
    builds 6 fact objects for its 6 facts, and the conclusion's equals its own."""
    calls = []
    real = ForcingFact.to_obj
    monkeypatch.setattr(ForcingFact, "to_obj",
                        lambda self, memo=None: calls.append(self) or real(self, memo))
    report = analyze(*_ladder_problem(1))
    obj = report.to_obj()
    assert len(calls) == len(report.facts) == 6
    at = report.facts.index(report.ro_conclusion)
    assert obj["ro_conclusion"] is obj["facts"][at]
    assert obj["ro_conclusion"] == real(report.ro_conclusion)


def test_t56_leaves_a_finite_exponent_to_the_countable_rules(capsys):
    """w^3, a successor exponent over delta0 = 0, is the one kind of input whose
    T5.6 guard sees a finite delta0: it is countable, so the rule stays out."""
    from copyposet.cli import main
    assert main(["analyze", "w^3", "--assume", "CH"]) == 0
    assert capsys.readouterr() == ("\n".join([
        "alpha = w^3",
        "factorization: sq(P(w^3))",
        "fact: sq(P(w^3)) is sigma-closed",
        "fact: CP(w) completely embeds into sq(P(w^3))",
        "fact: sq(P(w^3)) is forcing equivalent to CP(w) * pi[sigma-closed separative]",
        "fact: sq(P(w^3)) collapses c (= w_1) to h (= w_1)",
        "fact: ro(sq(P(w^3))) ~ ro(CP(w))",
        "conclusion: ro(sq(P(w^3))) ~ ro(CP(w))"]) + "\n", "")
    assert main(["analyze", "w^3", "--assume", "CH", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest() == (
        "76d3f1fe75fde1330053aeefa9af2e5c2778e418ecfacee63158225b6a54da8c")


def test_readme_library_example():
    """The README's Library snippet runs and prints the line its closing comment shows."""
    root = pathlib.Path(copyposet.__file__).resolve().parent.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    promised = snippet.rstrip().splitlines()[-1]
    assert promised.startswith("# ")
    done = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [promised[2:]]


# -- closures kept for reuse ---------------------------------------------------------

def _count_closures(monkeypatch) -> list:
    """The argument lists of every closure built from now on, raising or not."""
    calls = []
    real = rules.closure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rules, "closure", counting)
    return calls


def _count_sub_analyses(monkeypatch) -> list:
    """The id of the closure of every T5.6 sub-analysis run from now on (an id, so
    that the list does not keep a closure alive)."""
    closures = []

    class Counting(rules._Engine):
        def __init__(self, alpha, hyps, registry, fb=None):
            if fb is not None:
                closures.append(id(fb))
            super().__init__(alpha, hyps, registry, fb)

    monkeypatch.setattr(rules, "_Engine", Counting)
    return closures


def _answers(capsys, lines, forget: bool) -> list:
    """(status, stdout, stderr) of each line through cli.main; with ``forget``, no
    closure, analysis, problem met or JSON text is kept from one line to the next."""
    from copyposet.cli import main
    out = []
    for argv in lines:
        if forget:
            for table in (rules._CLOSURES, rules._ANALYSES, rules._SEEN, rules._TEXTS):
                table.clear()
        status = main(argv)
        out.append((status, *capsys.readouterr()))
    return out


def _saturate_ladder() -> list:
    """The saturate benchmark's lines for n = 1, 2: k = 2..8, each spelling of alpha
    it sends, both sides of 2^w_1 = w_2 and both orders of the hypothesis lines."""
    lines = []
    for n in (1, 2):
        for k in range(2, 9):
            for alpha in (f"w^(w_1+{n})", f"w_1*w^{n}", f"w^(1+w_1+{n})"):
                for pinch in ("2^w_1 = w_2", "w_2 = 2^w_1"):
                    hyps = ["GCH", pinch, f"w_{k} < 2^w_{k}"]
                    for order in (hyps, hyps[::-1]):
                        lines.append(["analyze", alpha, "--format", "json",
                                      *(arg for h in order for arg in ("--assume", h))])
    return lines


def test_saturate_ladder_reuses_its_closures(monkeypatch, capsys):
    """The ladder's 168 lines need 7 closures, one per k, as the key puts the sides of
    2^w_1 = w_2 in order, and 7 T5.6 sub-analyses, one per closure, and print the same
    bytes as when every line builds its own closure and runs its own sub-analysis."""
    built = _count_closures(monkeypatch)
    subs = _count_sub_analyses(monkeypatch)
    lines = _saturate_ladder()
    kept = _answers(capsys, lines, forget=False)
    assert len(lines) == 168 and len(built) == 7
    assert len(subs) == len(set(subs)) == 7
    assert all(status == 0 for status, _out, _err in kept)
    assert _answers(capsys, lines, forget=True) == kept
    assert len(built) == len(subs) == 7 + 168


@pytest.mark.parametrize("seed", range(4))
def test_one_process_prints_what_a_fresh_one_prints(capsys, seed):
    """A seeded shuffle of two derive rounds (the goldens in their spellings and the
    contradictions) and 24 ladder lines, each in JSON or in text: in one process,
    every line prints what it prints with no closure and no analysis kept."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    rng = random.Random(seed)
    rounds = workloads.rounds("derive", seed)
    lines = [r.argv for r in next(rounds) + next(rounds)]
    lines += rng.sample(_saturate_ladder(), 24)
    lines = [argv if rng.random() < 0.5 else argv[:2] + argv[4:] for argv in lines]
    rng.shuffle(lines)
    kept = _answers(capsys, lines, forget=False)
    assert sum(status == 1 for status, _out, _err in kept) == 8
    assert _answers(capsys, lines, forget=True) == kept


def test_kept_analyses_outlive_their_closures(monkeypatch, capsys):
    """An analysis is kept by its problem, not with the closure: once the kept
    closures are cleared, the same problem builds no closure, runs the engine 0 times
    and prints the same bytes."""
    lines = [["analyze", f"w^(w_1+{n})", "--assume", "2^w_1 = w_2"] for n in (1, 2)]
    _answers(capsys, lines, forget=False)  # met once, so kept from the next run on
    first = _answers(capsys, lines, forget=False)
    built = _count_closures(monkeypatch)
    runs = _count_runs(monkeypatch)
    rules._CLOSURES.clear()
    assert _answers(capsys, lines, forget=False) == first
    assert len(built) == 0 and runs == []


def test_closure_not_kept_keeps_its_analyses(monkeypatch, capsys):
    """A closure too large to keep is built for every request, but its analysis and
    the sub-analysis are kept: a second run runs the engine 0 times."""
    monkeypatch.setattr(rules, "MEMO_RELATIONS", 5)
    argv = ["analyze", "w^(w_1+1)", "--assume", "2^w_1 = w_2"]
    _answers(capsys, [argv], forget=False)  # met once, so kept from the next run on
    rules._ANALYSES.clear()
    runs = _count_runs(monkeypatch)
    first = _answers(capsys, [argv], forget=False)
    alpha, sub = runs
    assert first[0][0] == 0 and sub == parse_term("w^(w_1)", AtomRegistry())
    assert rules._CLOSURES == {} and _kept_alphas() == [sub, alpha]
    assert _answers(capsys, [argv], forget=False) == first and runs == [alpha, sub]


@pytest.mark.parametrize("argv,status", [
    (["analyze", "w^(w_1+1)", "--assume", "CH", "--assume", "c = w_2"], 1)],
    ids=["raises"])
def test_closure_not_kept_keeps_no_sub_analysis(monkeypatch, capsys, argv, status):
    """A closure that raises never has any analysis kept."""
    monkeypatch.setattr(rules, "MEMO_RELATIONS", 5)
    subs = _count_sub_analyses(monkeypatch)
    answers = _answers(capsys, [argv], forget=False)
    assert answers[0][0] == status and len(subs) == 1 - status
    assert rules._CLOSURES == {} and len(rules._ANALYSES) == 0


def test_one_sub_analysis_for_two_exponents_over_one_delta0(monkeypatch, capsys):
    """w^(w_1+2) and w^(w_1+1) both reduce to the analysis of w^(w_1), run once."""
    subs = _count_sub_analyses(monkeypatch)
    argv = ["analyze", "w^(w_1+2) + w^(w_1+1)", "--assume", "2^w_1 = w_2"]
    (status, out, _err), = _answers(capsys, [argv], forget=False)
    assert status == 0 and len(subs) == 1
    assert out.count("~ ro(Col(w_1, 2^w_1) (= Col(w_1, w_2)))") == 2


def _count_runs(monkeypatch) -> list:
    """The alpha of every analysis the engine runs from now on, sub-analyses too."""
    alphas = []
    real = rules._Engine.run

    def counting(self):
        alphas.append(self.alpha)
        return real(self)

    monkeypatch.setattr(rules._Engine, "run", counting)
    return alphas


def _ladder_problem(n: int, k: int = 2):
    """analyze's inputs for the saturate ladder's problem w^(w_1+n) at k, whose
    closure is the same for every n."""
    registry = AtomRegistry()
    return (parse_term(f"w^(w_1+{n})", registry),
            parse_hypotheses(f"GCH\n2^w_1 = w_2\nw_{k} < 2^w_{k}", registry), registry)


def _kept_facts() -> int:
    """The facts of the kept analyses, counted one by one."""
    return sum(len(r.facts) for r in rules._ANALYSES.values())


def _problem_of(key: tuple) -> tuple:
    """The problem of a top-level analysis's (problem, alpha) key, or of a
    sub-analysis's ((problem, candidates), w^delta0) key."""
    first = key[0]
    return first if isinstance(first[0], frozenset) else first[0]


def _kept_alphas() -> list:
    """The alphas of the kept analyses, least recently used first, which are all of
    one problem."""
    (_problem,) = {_problem_of(key) for key in rules._ANALYSES}
    return [alpha for _key, alpha in rules._ANALYSES]


def test_repeated_problem_runs_the_engine_once(monkeypatch):
    """A problem met again runs once more and is kept; from then on it is looked up,
    and its report equals the one run for it, with the request's own hypothesis
    lines."""
    runs = _count_runs(monkeypatch)
    first = analyze(*_ladder_problem(1))
    registry = AtomRegistry()
    alpha = parse_term("w_1*w", registry)
    hyps = parse_hypotheses("w_2 < 2^w_2\nw_2 = 2^w_1\nGCH", registry)
    again = analyze(alpha, hyps, registry)
    assert len(runs) == 3  # w^(w_1+1) twice, and its sub-analysis of w^(w_1) once
    assert again.hypotheses == tuple(hyps) != first.hypotheses
    assert again.to_obj() == {**first.to_obj(),
                              "hypotheses": ["w_2 < 2^w_2", "w_2 = 2^w_1", "GCH"]}
    again.facts.clear()
    again.blocked.append(("T5.6", []))
    assert analyze(*_ladder_problem(1)).to_obj() == first.to_obj()
    assert len(runs) == 3


def test_repeated_problem_is_found_before_any_engine_work(monkeypatch):
    """A problem met again, in another spelling, is found by its problem and alpha:
    it builds no engine, classifies no exponent and builds no closure."""
    analyze(*_ladder_problem(1))  # met once, so kept from the next run on
    first = analyze(*_ladder_problem(1))
    calls = []

    def counting(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("closure", "classify_exponent"):
        monkeypatch.setattr(rules, name, counting(name, getattr(rules, name)))
    monkeypatch.setattr(rules._Engine, "__init__", counting("_Engine", rules._Engine.__init__))
    registry = AtomRegistry()
    hyps = parse_hypotheses("w_2 < 2^w_2\nw_2 = 2^w_1\nGCH", registry)
    again = analyze(parse_term("w_1*w", registry), hyps, registry)
    assert calls == [] and again.facts == first.facts


def test_analysis_larger_than_the_budget_is_not_kept(monkeypatch):
    """An analysis of more facts than MEMO_FACTS is run again each time, while its
    sub-analysis of w^(w_1), of 6 facts, is kept and runs once."""
    runs = _count_runs(monkeypatch)
    monkeypatch.setattr(rules, "MEMO_FACTS", 6)
    alpha, hyps, registry = _ladder_problem(1)
    alpha = parse_term("w^(w_1+2) + w^(w_1+1)", registry)
    for _ in range(3):
        report = analyze(alpha, hyps, registry)
    sub = parse_term("w^(w_1)", registry)
    assert len(report.facts) > rules.MEMO_FACTS and runs == [alpha, sub, alpha, alpha]
    assert _kept_alphas() == [sub] and _kept_facts() == rules._ANALYSES.held == 6


def test_least_recently_used_analysis_leaves_first(monkeypatch):
    """The analysis met longest ago leaves first: w^(w_1+1), met again, outlives
    w^(w_1+2), and the sub-analysis of w^(w_1), met by every run, outlives both."""
    for n in (1, 2, 3, 4):  # each met once, so kept from its next run on
        analyze(*_ladder_problem(n))
    rules._ANALYSES.clear()
    runs = _count_runs(monkeypatch)
    a1, a2, a3, a4 = (_ladder_problem(n)[0] for n in (1, 2, 3, 4))
    sub = parse_term("w^(w_1)", AtomRegistry())
    analyze(*_ladder_problem(1))
    monkeypatch.setattr(rules, "MEMO_FACTS", _kept_facts() + 6)  # room for one more
    for n in (2, 1, 3):
        analyze(*_ladder_problem(n))
    assert _kept_alphas() == [a1, sub, a3]
    analyze(*_ladder_problem(4))
    assert _kept_alphas() == [a3, sub, a4]
    assert runs == [a1, sub, a2, a3, a4]
    assert _kept_facts() == rules._ANALYSES.held == rules.MEMO_FACTS


def test_ladder_sub_analyses_survive_50_saturate_rounds(monkeypatch):
    """50 rounds of the saturate ladder push older analyses out, but not the 7
    sub-analyses of w^(w_1), one under each closure key, which every round meets
    again."""
    runs = _count_runs(monkeypatch)
    for n in range(1, 51):
        for k in range(2, 9):
            analyze(*_ladder_problem(n, k))
    sub = parse_term("w^(w_1)", AtomRegistry())
    assert len(runs) == 350 + runs.count(sub) and runs.count(sub) == 7
    assert 350 * 6 > rules.MEMO_FACTS >= _kept_facts() == rules._ANALYSES.held
    closures = {key for key, alpha in rules._ANALYSES if alpha == sub}
    assert len(closures) == len({problem for problem, _candidates in closures}) == 7


def test_kept_analyses_at_the_bound_take_at_most_0_6_mb():
    """Filled to MEMO_FACTS with the saturate ladder's analyses, the kept analyses take
    at most 0.6 MB by tracemalloc (0.41 MB measured with Python 3.11.7): what
    clearing the table frees, the closures staying kept."""
    for n in range(1, 12):  # each met once, so kept from its next run on
        for k in range(2, 9):
            analyze(*_ladder_problem(n, k))
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(2, 12):
            for k in range(2, 9):
                analyze(*_ladder_problem(n, k))
        assert rules.MEMO_FACTS - 6 < _kept_facts() <= rules.MEMO_FACTS
        assert _kept_facts() == rules._ANALYSES.held
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rules._ANALYSES.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rules._CLOSURES) == 7 and freed <= 0.6e6


# -- JSON texts kept for reuse --------------------------------------------------------

def _ladder_lines(n: int) -> list:
    """The saturate ladder's JSON lines for w^(w_1+n), k = 2..8: one alpha under 7
    problems, whose reports state the same facts."""
    return [["analyze", f"w^(w_1+{n})", "--format", "json", "--assume", "GCH",
             "--assume", "2^w_1 = w_2", "--assume", f"w_{k} < 2^w_{k}"]
            for k in range(2, 9)]


def test_ladder_lines_of_one_alpha_build_each_fact_json_once(monkeypatch, capsys):
    """Two ladder lines of one alpha under two problems state the same 6 facts: the
    second line splices the first line's texts and builds no fact's object."""
    calls = []
    real = ForcingFact.to_obj
    monkeypatch.setattr(ForcingFact, "to_obj",
                        lambda self, memo=None: calls.append(self) or real(self, memo))
    answers = _answers(capsys, _ladder_lines(1)[:2], forget=False)
    assert [status for status, _out, _err in answers] == [0, 0]
    assert len(calls) == len(set(calls)) == 6


@pytest.mark.parametrize("memo_text", [rules.MEMO_TEXT, 1500], ids=["warm", "pushed-out"])
def test_cli_json_of_random_problems_is_the_reports_json(monkeypatch, capsys, memo_text):
    """Over seeded random products, each line run twice, the CLI's JSON, which splices
    the kept text of each fact and of the factorization, is json.dumps of the
    report's object: with the table warm, where a line's second run makes no text,
    and with a bound that pushes texts out between and within lines."""
    from copyposet import cli
    monkeypatch.setattr(rules, "MEMO_TEXT", memo_text)
    made = []
    real = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda obj: made.append(obj) or real(obj))
    rng = random.Random(31)
    remade = answered = 0
    for _ in range(120):  # about 0.6 s for each bound
        picked = rng.sample(RANDOM_HYPOTHESES, rng.randint(0, 4))
        lines = RANDOM_DECLS + [line for hyp in picked for line in hyp.splitlines()]
        alpha = " + ".join(f"w^({e})*{rng.randint(1, 2)}"
                           for e in rng.sample(RANDOM_EXPONENTS, rng.randint(1, 3)))
        registry = AtomRegistry()
        try:
            hyps = parse_hypotheses("\n".join(lines), registry)
            report = analyze(parse_term(alpha, registry), hyps, registry)
        except HypothesisError:  # ContradictionError is one
            continue
        expected = json.dumps(report.to_obj(), indent=2, sort_keys=True) + "\n"
        argv = ["analyze", alpha, "--format", "json",
                *(arg for line in lines for arg in ("--assume", line))]
        for _run in range(2):
            made.clear()
            assert cli.main(argv) == 0
            assert capsys.readouterr() == (expected, "")
        remade += len(made)
        answered += 1
    assert answered > 25 and rules._TEXTS.held <= memo_text
    assert (remade > 0) == (memo_text < 10000)


def test_kept_texts_at_the_bound_take_at_most_0_3_mb(capsys):
    """Filled to MEMO_TEXT with the saturate ladder's texts, the kept JSON texts take
    at most 0.3 MB by tracemalloc (0.20 MB measured with Python 3.11.7), the facts
    they are keyed by included: what clearing the table frees."""
    _answers(capsys, _ladder_lines(1), forget=False)
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(2, 20):
            _answers(capsys, _ladder_lines(n), forget=False)
        assert rules.MEMO_TEXT - 8000 < rules._TEXTS.held <= rules.MEMO_TEXT
        assert rules._TEXTS.held == sum(map(len, rules._TEXTS.values()))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rules._TEXTS.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed <= 0.3e6


@pytest.mark.parametrize("first,second,shared", [
    ("2^w_1 = w_2", "w_2 = 2^w_1", True), ("2^w_1 < w_3", "w_3 < 2^w_1", False)])
def test_equality_sides_share_a_closure(monkeypatch, capsys, first, second, shared):
    """a = b and b = a are one hypothesis to the kept closures, while a < b and b < a
    are two."""
    built = _count_closures(monkeypatch)
    lines = [["analyze", "w^(w_1+1)", "--assume", h] for h in (first, second)]
    answers = _answers(capsys, lines, forget=False)
    assert [status for status, _out, _err in answers] == [0, 0]
    assert len(built) == len(rules._CLOSURES) == (1 if shared else 2)


def test_contradiction_builds_its_closure_every_time(monkeypatch, capsys):
    """A closure that raises is not kept: each run of a contradictory line builds it
    again and prints the same chain."""
    built = _count_closures(monkeypatch)
    argv = ["analyze", "w^(w_1)", "--assume", "CH", "--assume", "c = w_2"]
    runs = _answers(capsys, [argv] * 3, forget=False)
    assert len(built) == 3 and rules._CLOSURES == {}
    status, out, err = runs[0]
    assert (status, out) == (1, "") and err.startswith("error: contradictory hypotheses")
    assert "  w_2 = c  [hypothesis]" in err.splitlines()
    assert runs == [runs[0]] * 3


def _singular_problem(rank: int):
    """analyze's inputs for w^mu with mu singular of rank ``rank``: a distinct closure
    for each rank."""
    registry = AtomRegistry()
    registry.declare("mu", rank, singular=True)
    return (parse_term("w^mu", registry), parse_hypotheses("2^mu = succ(mu)", registry),
            registry)


def test_kept_closures_stay_within_the_bound():
    """More distinct problems than MEMO_RELATIONS admits: the stored relations kept
    never pass it, and the oldest closures go out first."""
    held = []
    size = len(_Engine(*_singular_problem(50)).fb.rels)
    ranks = range(50, 50 + rules.MEMO_RELATIONS // size + 20)
    for rank in ranks:
        analyze(*_singular_problem(rank))
        held.append(sum(len(fb.rels) for fb in rules._CLOSURES.values()))
        assert rules._CLOSURES.held == held[-1]
    assert max(held) <= rules.MEMO_RELATIONS < len(ranks) * size
    kept = [fb.nodes for fb in rules._CLOSURES.values()]
    newest = [_Engine(*_singular_problem(rank)).fb.nodes
              for rank in ranks[len(ranks) - len(kept):]]
    assert kept == newest


def test_closure_larger_than_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(rules, "MEMO_RELATIONS", 5)
    analyze(*_singular_problem(50))
    assert rules._CLOSURES == {}


def test_builtin_worst_case_is_not_kept():
    """w_1..w_200 with GCH and w_i < 2^w_i stores more relations than the bound."""
    text = "GCH\n" + "\n".join(f"w_{i} < 2^w_{i}" for i in range(1, 201))
    report, _registry, _hyps = _run("w^w", text)
    assert report.facts and rules._CLOSURES == {}


def _dense_problem(k: int):
    """analyze's inputs for the saturate ladder's problem at k, which k = 20 and up
    makes a closure of 44 nodes or more and 660 stored relations or more."""
    registry = AtomRegistry()
    return (parse_term("w^(w_1+1)", registry),
            parse_hypotheses(f"GCH\n2^w_1 = w_2\nw_{k} < 2^w_{k}", registry), registry)


@pytest.mark.parametrize("problem,first", [(_singular_problem, 50), (_dense_problem, 20)])
def test_kept_closures_at_the_bound_take_at_most_4_5_mb(problem, first):
    """Filled up to MEMO_RELATIONS, with sparse closures (23 nodes and 134 stored
    relations each) or dense ones, the kept closures take at most 4.5 MB by
    tracemalloc: what clearing the table frees."""
    gc.collect()
    tracemalloc.start()
    try:
        _Engine(*problem(first))
        oldest = next(iter(rules._CLOSURES))
        while oldest in rules._CLOSURES:  # until a closure pushes the first one out
            first += 1
            _Engine(*problem(first))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rules._CLOSURES.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed <= 4.5e6


def test_kept_closure_answers_as_a_fresh_one():
    """The closure analyze keeps is the one it built: it has a fresh closure's nodes,
    relations, provenance and resolutions, and the chain of each relation replays as
    a contradiction's does."""
    alpha, hyps, registry = _singular_problem(50)
    engine = _Engine(alpha, hyps, registry)
    fb = engine.fb
    assert _Engine(alpha, hyps, registry).fb is fb is next(iter(rules._CLOSURES.values()))
    fresh = rules.closure(hyps, registry, extra_exprs=engine._candidates())
    assert fb.nodes == fresh.nodes and list(fb.relations()) == list(fresh.relations())
    assert list(fb.rels.items()) == list(fresh.rels.items())
    assert [fb.resolve(x) for x in fb.nodes] == [fresh.resolve(x) for x in fresh.nodes]
    for key in fb.relations():
        lines = fb.derivation(key)
        assert fb.chain(key) == [f"{render_rel(k)}  [{rule}]" for k, rule, _p in lines]
        keys = check_lines_replay(fb, lines)
        assert key in keys or key[0] == "le" and key[1] is key[2]
