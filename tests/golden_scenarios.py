"""Scenario table for the derivation battery; shared by the golden test and
the regeneration helper (python -m tests.golden_scenarios regenerates)."""
from __future__ import annotations

import json
import pathlib

from copyposet.atoms import AtomRegistry
from copyposet.parser import parse_term
from copyposet.cardexpr import parse_hypotheses
from copyposet.forcing import operand_text
from copyposet.rules import analyze

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SCENARIOS = [
    # Col(w_1, c) vs Col(w, c) for every case label realizable below c = w_2
    ("t410_countable", "w^w", "", "h < c\nc = w_2\n2^w_1 = w_2"),
    ("t410_case_a", "w^(w_1+1)", "", "h < c\nc = w_2\n2^w_1 = w_2"),
    ("t410_case_b", "w^(w_1*w + w_1)", "", "h < c\nc = w_2\n2^w_1 = w_2"),
    ("t410_case_d", "w^(w_1)", "", "h < c\nc = w_2\n2^w_1 = w_2"),
    ("t410_case_e", "w^(w_1*w_1)", "", "h < c\nc = w_2\n2^w_1 = w_2"),
    # maximal collapse to w under CH-style hypotheses
    ("t52_ch", "w^(w_1)", "", "CH"),
    ("t52_power_pinch", "w^(w_1)", "", "2^w_1 = w_2"),
    # singular kappa scenario
    ("t54_singular", "w^(ksing)", "card ksing rank 40 singular cf w_1",
     "2^w_1 < ksing\n2^ksing = succ(ksing)"),
    # reduced-power lift of the collapse, n = 1 and 2
    ("t56_n1", "w^(w_1+1)", "", "2^w_1 = w_2"),
    ("t56_n2", "w^(w_1+2)", "", "2^w_1 = w_2"),
    # collapse to w_1 at a singular mu of countable cofinality, four routes
    ("t58_mu_a", "w^(mu)", "card mu rank 100 singular cf w", "2^mu = succ(mu)"),
    ("t58_mu_b", "w^(mu)", "card mu rank 100 singular cf w", "2^<mu = mu"),
    ("t58_mu_c", "w^(mu)", "card mu rank 100 singular cf w", "MA mu=mu"),
    ("t58_mu_d", "w^(mu)", "card mu rank 100 singular cf w\ncard kreg rank 200",
     "CohenModel(kreg)"),
    # negative conclusion from a small chain-condition cardinal
    ("ex53_negative", "w^(w_1)", "", "cc(CP(w_1)) = w_3\nw_3 < 2^w_1"),
    # Cohen-model collapse of 2^w_1 = w_5 to w_1
    ("ex57_cohen", "w^(w_1+1)", "", "CohenModel(w_5)"),
]


def scenario_inputs(name: str):
    """(alpha, hypotheses, registry) of one scenario, in a fresh registry."""
    entry = next(s for s in SCENARIOS if s[0] == name)
    _name, alpha_text, decls, assume = entry
    registry = AtomRegistry()
    hyps = parse_hypotheses((decls + "\n" if decls else "") + assume, registry)
    alpha = parse_term(alpha_text, registry)
    return alpha, hyps, registry


def run_scenario(name: str):
    alpha, hyps, registry = scenario_inputs(name)
    return analyze(alpha, hyps, registry), registry


def snapshot(report) -> dict:
    def resolved_ops(f):
        resolved = dict(f.resolved)
        return [resolved.get(i, t) for i, t in enumerate(map(operand_text, f.operands))]

    facts = [{"kind": f.kind, "operands": resolved_ops(f),
              "rules": sorted({s.rule for s in f.trace})}
             for f in report.facts]
    obj = {"facts": facts}
    if report.ro_conclusion is not None:
        ro = report.ro_conclusion
        obj["ro_conclusion"] = {"kind": ro.kind, "operands": resolved_ops(ro),
                                "rules": sorted({s.rule for s in ro.trace})}
    else:
        obj["ro_conclusion"] = None
        obj["blocked"] = [[rid, ps] for rid, ps in report.blocked]
    if report.resolutions:
        obj["resolutions"] = dict(report.resolutions)
    return obj


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, *_rest in SCENARIOS:
        report, _registry = run_scenario(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(snapshot(report), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
