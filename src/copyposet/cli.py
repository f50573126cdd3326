"""Command-line front end: parse, dispatch, emit text or JSON with traces."""
from __future__ import annotations

import argparse
import sys

from .atoms import AtomError, AtomRegistry
from .terms import (
    OrdinalError, cardinality, cnf_base, cofinality, compare, is_indecomposable,
    pretty, term_to_obj,
)
from .parser import ParseError, parse_card, parse_term
from .classify import classify_exponent
from .cardinals import (
    ContradictionError, Hypothesis, HypothesisError, parse_hypothesis_line,
)
from .forcing import factorize, poset_to_obj, render_poset, fact_text
from .rules import SCHEMA_VERSION, analyze, rule_lookup, rule_table

# json, shlex and the finite lab (finsets) are imported where they are used, so a
# one-shot text command does not load them

_USAGE_ERROR = 2
_DOMAIN_ERROR = 1
# written out, as argparse wraps a generated usage line differently across versions
_USAGE = """%(prog)s [-h] [--batch PATH]
                 {norm,cmp,cof,card,cnfbase,classify,factorize,analyze,rules,copies}
                 ..."""


class _CliInputError(ValueError):
    """Bad command-line input (exit status 2)."""


class _CliDomainError(ValueError):
    """A precondition of the finite lab violated (exit status 1)."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--card", action="append", default=[], metavar="DECL",
                        help="atom declaration: 'name rank K [singular cf ATOM]'")
    common.add_argument("--assume", action="append", default=[], metavar="HYP",
                        help="inline hypothesis line")
    common.add_argument("--assume-file", action="append", default=[], metavar="PATH")

    top = argparse.ArgumentParser(prog="copyposet", usage=_USAGE,
                                  description="poset-of-copies workbench")
    top.add_argument("--batch", metavar="PATH",
                     help="run one sub-invocation per line of PATH")
    sub = top.add_subparsers(dest="command", prog="copyposet")

    p = sub.add_parser("norm", parents=[common], help="normalize an ordinal expression")
    p.add_argument("expr")
    p = sub.add_parser("cmp", parents=[common], help="compare two ordinals")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("cof", parents=[common], help="cofinality")
    p.add_argument("expr")
    p = sub.add_parser("card", parents=[common], help="cardinality")
    p.add_argument("expr")
    p = sub.add_parser("cnfbase", parents=[common], help="normal form in an atom base")
    p.add_argument("expr")
    p.add_argument("--base", required=True, metavar="ATOM")
    p = sub.add_parser("classify", parents=[common],
                       help="exponent case analysis with witnesses")
    p.add_argument("expr")
    p = sub.add_parser("factorize", parents=[common],
                       help="product decomposition of the copy poset")
    p.add_argument("expr")
    p = sub.add_parser("analyze", parents=[common],
                       help="derive forcing facts under hypotheses")
    p.add_argument("expr")
    p = sub.add_parser("rules", parents=[common], help="rule catalog")
    p.add_argument("rule_id", nargs="?")

    cop = sub.add_parser("copies", parents=[common], help="finitely presented sets lab")
    csub = cop.add_subparsers(dest="subcommand", required=True)
    c = csub.add_parser("type", parents=[common])
    c.add_argument("set")
    c = csub.add_parser("member", parents=[common])
    c.add_argument("set")
    c.add_argument("--power", type=int, required=True, metavar="M")
    c = csub.add_parser("subset", parents=[common])
    c.add_argument("left")
    c.add_argument("right")
    c = csub.add_parser("fuse", parents=[common])
    c.add_argument("sets", nargs="+")
    c = csub.add_parser("embed", parents=[common])
    c.add_argument("set")
    c.add_argument("--rank", type=int, required=True)
    c = csub.add_parser("reduce", parents=[common])
    c.add_argument("set")
    return top


def _load_registry_and_hyps(ns) -> tuple[AtomRegistry, list[Hypothesis]]:
    registry = AtomRegistry()
    for decl in ns.card:
        parse_card(decl, registry)
    hyps: list[Hypothesis] = []
    for path in ns.assume_file:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise _CliInputError(f"cannot read {path}: {exc}") from exc
        for line in text.splitlines():
            h = parse_hypothesis_line(line, registry)
            if h is not None:
                hyps.append(h)
    for line in ns.assume:
        h = parse_hypothesis_line(line, registry)
        if h is not None:
            hyps.append(h)
    return registry, hyps


def _load_set(literal: str) -> finsets.FinPresSet:
    import json
    from . import finsets
    text = literal
    if literal.startswith("@"):
        try:
            with open(literal[1:], encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise _CliInputError(f"cannot read {literal[1:]}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliInputError(f"bad set literal: {exc}") from exc
    try:
        return finsets.from_obj(obj)
    except finsets.FinPresError as exc:
        raise _CliInputError(str(exc)) from exc


def _emit(ns, text_lines, obj) -> None:
    if ns.format == "json":
        import json
        obj = {"schema_version": SCHEMA_VERSION, **obj}
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _dispatch(ns) -> int:
    registry, hyps = _load_registry_and_hyps(ns)
    cmd = ns.command
    if cmd == "norm":
        t = parse_term(ns.expr, registry)
        _emit(ns, [pretty(t)], {"input": ns.expr, "pretty": pretty(t),
                                "term": term_to_obj(t)})
    elif cmd == "cmp":
        a = parse_term(ns.left, registry)
        b = parse_term(ns.right, registry)
        word = {-1: "less", 0: "equal", 1: "greater"}[compare(a, b)]
        _emit(ns, [word], {"result": word})
    elif cmd == "cof":
        t = parse_term(ns.expr, registry)
        c = cofinality(t)
        _emit(ns, [pretty(c)], {"cofinality": term_to_obj(c), "pretty": pretty(c)})
    elif cmd == "card":
        t = parse_term(ns.expr, registry)
        cv = cardinality(t)
        _emit(ns, [str(cv)], {"cardinality": str(cv)})
    elif cmd == "cnfbase":
        t = parse_term(ns.expr, registry)
        base = registry.lookup(ns.base)
        if base is None:
            raise _CliInputError(f"unknown base atom {ns.base!r}")
        b = cnf_base(t, base)
        lines = [f"digit: exponent {pretty(xi)}  coefficient {pretty(z)}"
                 for xi, z in b.digits]
        lines.append(f"remainder: {pretty(b.remainder)}")
        _emit(ns, lines, {
            "base": base.name,
            "digits": [[term_to_obj(xi), term_to_obj(z)] for xi, z in b.digits],
            "remainder": term_to_obj(b.remainder),
            "indecomposable_input": is_indecomposable(t)})
    elif cmd == "classify":
        t = parse_term(ns.expr, registry)
        rep = classify_exponent(t)
        lines = [f"case {rep.label}", f"kappa = {pretty(rep.kappa)}"]
        if rep.theta is not None:
            lines.append(f"theta = {pretty(rep.theta)}")
        if rep.lam is not None:
            lines.append(f"lambda = {pretty(rep.lam)}")
        if rep.schema is not None:
            lines.append(f"sequence: t({rep.schema.var}) = {rep.schema.expr}"
                         f" for {rep.schema.var} < {pretty(rep.schema.range_)}")
        _emit(ns, lines, rep.to_obj())
    elif cmd == "factorize":
        t = parse_term(ns.expr, registry)
        p = factorize(t)
        notes = _cp_notes(t)
        lines = [render_poset(p)] + notes
        _emit(ns, lines, {"factorization": poset_to_obj(p), "notes": notes})
    elif cmd == "analyze":
        t = parse_term(ns.expr, registry)
        report = analyze(t, hyps, registry)
        lines = [f"alpha = {pretty(t)}",
                 f"factorization: {render_poset(report.factorization)}"]
        lines += [f"fact: {fact_text(f)}" for f in report.facts]
        if report.ro_conclusion is not None:
            lines.append(f"conclusion: {fact_text(report.ro_conclusion)}")
        else:
            lines.append("conclusion: undetermined")
            for rid, prems in report.blocked:
                lines.append(f"  blocked {rid}: unknown " + "; ".join(prems))
        _emit(ns, lines, report.to_obj())
    elif cmd == "rules":
        if ns.rule_id:
            info = rule_lookup(ns.rule_id)
            if info is None:
                raise _CliInputError(f"no rule {ns.rule_id!r}")
            _emit(ns, [f"{info.id}: {info.premises} => {info.conclusion}"],
                  {"rule": {"id": info.id, "premises": info.premises,
                            "conclusion": info.conclusion}})
        else:
            table = rule_table()
            _emit(ns, [f"{r.id}: {r.premises} => {r.conclusion}" for r in table],
                  {"rules": [{"id": r.id, "premises": r.premises,
                              "conclusion": r.conclusion} for r in table]})
    elif cmd == "copies":
        return _dispatch_copies(ns)
    else:
        raise _CliInputError("a command is required (see --help)")
    return 0


def _cp_notes(t) -> list[str]:
    from .atoms import CardinalAtom
    from .terms import ONE
    notes = []
    for (e, _c) in t.summands:
        if isinstance(e, CardinalAtom):
            notes.append(f"note: sq(P({e.name})) = CP({e.name})")
        elif e == ONE:
            notes.append("note: sq(P(w)) = CP(w)")
    return notes


def _dispatch_copies(ns) -> int:
    from . import finsets
    try:
        return _run_copies(ns, finsets)
    except finsets.FinPresError as exc:
        raise _CliDomainError(str(exc)) from exc


def _run_copies(ns, finsets) -> int:
    import json
    sub = ns.subcommand
    if sub == "type":
        a = _load_set(ns.set)
        t = finsets.order_type(a)
        _emit(ns, [pretty(t)], {"order_type": term_to_obj(t), "pretty": pretty(t)})
    elif sub == "member":
        a = _load_set(ns.set)
        report = finsets.criterion_report(a)
        verdict = finsets.contains_copy(a, ns.power)
        lines = [f"w^{ns.power} embeds: {'yes' if verdict else 'no'}"]
        for m, s, inf in report.levels:
            lines.append(f"S^{m} = {json.dumps(finsets.to_obj(s))}"
                         f" ({'infinite' if inf else 'finite'})")
        _emit(ns, lines, {"power": ns.power, "member": verdict,
                          "criterion": report.to_obj()})
    elif sub == "subset":
        a = _load_set(ns.left)
        b = _load_set(ns.right)
        v = finsets.subset_mod_ideal(a, b)
        _emit(ns, ["yes" if v else "no"], {"subset_mod_ideal": v})
    elif sub == "fuse":
        chain = [_load_set(s) for s in ns.sets]
        fused = finsets.fuse_chain(chain)
        _emit(ns, [json.dumps(finsets.to_obj(fused))], {"fused": finsets.to_obj(fused)})
    elif sub == "embed":
        s = _load_set(ns.set)
        out = finsets.embed_subset(s, ns.rank)
        _emit(ns, [json.dumps(finsets.to_obj(out))], {"embedded": finsets.to_obj(out)})
    elif sub == "reduce":
        a = _load_set(ns.set)
        out = finsets.reduction(a)
        _emit(ns, [json.dumps(finsets.to_obj(out))], {"reduction": finsets.to_obj(out)})
    return 0


def _run_one(argv, batch_line: int | None = None) -> int:
    """Run one command line; ``batch_line`` numbers a line of a batch file."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage errors itself; keep batch runs alive
        return int(exc.code or 0)
    if ns.batch:
        if batch_line is not None:
            print(f"error: line {batch_line}: --batch cannot be nested", file=sys.stderr)
            return _USAGE_ERROR
        return _run_batch(ns.batch)
    if not ns.command:
        parser.print_usage(sys.stderr)
        return _USAGE_ERROR
    try:
        return _dispatch(ns)
    except (_CliInputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except ContradictionError as exc:
        print(f"error: contradictory hypotheses: {exc}", file=sys.stderr)
        for line in exc.chain:
            print(f"  {line}", file=sys.stderr)
        return _DOMAIN_ERROR
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except AtomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (OrdinalError, _CliDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_ERROR


def _run_batch(path: str) -> int:
    import shlex
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    worst = 0
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:  # an unbalanced quote
            print(f"error: line {number}: {exc}", file=sys.stderr)
            worst = max(worst, _USAGE_ERROR)
            continue
        worst = max(worst, _run_one(argv, number))
    return worst


def main(argv=None) -> int:
    return _run_one(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
