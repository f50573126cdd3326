"""Command-line front end: parse, dispatch, emit text or JSON with traces."""
from __future__ import annotations

import argparse
import itertools
import os
import sys

from .atoms import AtomError, AtomRegistry, CardinalAtom
from .terms import (
    ONE, OrdinalError, cardinality, cnf_base, cofinality, compare, is_indecomposable,
    pretty, term_to_obj,
)
from .parser import ParseError, parse_card, parse_term
from .classify import classify_exponent
from .cardexpr import (
    ContradictionError, Hypothesis, HypothesisError, parse_hypothesis_line,
)
from .forcing import factorize, poset_to_obj, render_poset, fact_text
from .catalog import SCHEMA_VERSION, rule_lookup, rule_table

# json, shlex, the finite lab (finsets) and the analyzer (rules, and the closure in
# cardinals) are imported where they are used, so a one-shot command that needs none
# of them does not compile or load them

_USAGE_ERROR = 2
_DOMAIN_ERROR = 1
# the subcommands in the order of the help text, each with its help line
_COMMANDS = {
    "norm": "normalize an ordinal expression",
    "cmp": "compare two ordinals",
    "cof": "cofinality",
    "card": "cardinality",
    "cnfbase": "normal form in an atom base",
    "classify": "exponent case analysis with witnesses",
    "factorize": "product decomposition of the copy poset",
    "analyze": "derive forcing facts under hypotheses",
    "rules": "rule catalog",
    "copies": "finitely presented sets lab",
}
# written out, as argparse wraps a generated usage line differently across versions
_USAGE = """%(prog)s [-h] [--batch PATH]
                 {""" + ",".join(_COMMANDS) + """}
                 ..."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its invalid-choice message written out in one form:
    later patch releases (3.13.13, say) list the choices without their quotes, and
    argparse has no public hook for the message."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


class _CliInputError(ValueError):
    """Bad command-line input (exit status 2)."""


class _CliDomainError(ValueError):
    """A precondition of the finite lab violated (exit status 1)."""


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole command-line grammar, or given a subcommand's name, that subcommand's
    parser alone: a top-level parser with the prog and arguments it has in the whole
    grammar. argparse hands every argument after the subcommand's name to the
    subcommand's parser, so this parser parses such an argv as the whole grammar
    does, help and errors included, save arguments it leaves over, which the whole
    grammar's top level reports (``_parse_line`` parses again for those). A grammar
    subcommand is 1 parser and ``copies`` 7, its level and its six lab subcommands;
    the whole grammar is 17."""
    if command is not None:
        p = _Parser(prog=f"copyposet {command}")
        _add_arguments(p, command)
        return p
    top = _Parser(prog="copyposet", usage=_USAGE, description="poset-of-copies workbench")
    top.add_argument("--batch", metavar="PATH",
                     help="run one sub-invocation per line of PATH")
    sub = top.add_subparsers(dest="command", prog="copyposet")
    for name in _COMMANDS:
        _add_arguments(sub.add_parser(name, help=_COMMANDS[name]), name)
    return top


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    if name == "copies":
        _add_copies(p)
        return
    _add_format(p)
    p.add_argument("--card", action="append", default=[], metavar="DECL",
                   help="atom declaration: 'name rank K [singular cf ATOM]'")
    p.add_argument("--assume", action="append", default=[], metavar="HYP",
                   help="inline hypothesis line")
    p.add_argument("--assume-file", action="append", default=[], metavar="PATH")
    if name == "cmp":
        p.add_argument("left")
        p.add_argument("right")
    elif name == "rules":
        p.add_argument("rule_id", nargs="?")
    else:
        p.add_argument("expr")
    if name == "cnfbase":
        p.add_argument("--base", required=True, metavar="ATOM")


def _add_copies(cop: argparse.ArgumentParser) -> None:
    # the lab reads no atoms or hypotheses, so its subcommands take --format only; it
    # follows the subcommand: argparse would overwrite an option given before it with
    # the subcommand's default
    csub = cop.add_subparsers(dest="subcommand", required=True)

    def lab(name: str) -> argparse.ArgumentParser:
        c = csub.add_parser(name)
        _add_format(c)
        return c
    lab("type").add_argument("set")
    c = lab("member")
    c.add_argument("set")
    c.add_argument("--power", type=int, required=True, metavar="M")
    c = lab("subset")
    c.add_argument("left")
    c.add_argument("right")
    lab("fuse").add_argument("sets", nargs="+")
    c = lab("embed")
    c.add_argument("set")
    c.add_argument("--rank", type=int, required=True)
    lab("reduce").add_argument("set")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise _CliInputError(f"cannot read {path}: {exc}") from exc


def _load_registry_and_hyps(ns) -> tuple[AtomRegistry, list[Hypothesis]]:
    registry = AtomRegistry()
    for decl in ns.card:
        parse_card(decl, registry)
    hyps: list[Hypothesis] = []
    # file lines first; each file is read after the lines before it are parsed
    file_lines = (line for path in ns.assume_file for line in _read(path).splitlines())
    for line in itertools.chain(file_lines, ns.assume):
        h = parse_hypothesis_line(line, registry)
        if h is not None:
            hyps.append(h)
    return registry, hyps


def _load_set(literal: str) -> finsets.FinPresSet:
    import json
    from . import finsets
    text = _read(literal[1:]) if literal.startswith("@") else literal
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliInputError(f"bad set literal: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise _CliInputError("bad set literal: nested too deeply") from exc
    try:
        return finsets.from_obj(obj)
    except finsets.FinPresError as exc:
        raise _CliInputError(str(exc)) from exc


def _emit(ns, text_lines, obj) -> None:
    if ns.format == "json":
        _json_write({"schema_version": SCHEMA_VERSION, **obj}, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


class _Json:
    """A value ``_json_write`` writes as the text ``text_of(value)`` returns, the text
    it writes of the value at indent 0. The text is made when written, so a response
    holds the text of one such value at a time, besides the texts kept for reuse."""
    __slots__ = ("value", "text_of")

    def __init__(self, value, text_of) -> None:
        self.value, self.text_of = value, text_of


def _json_text(obj) -> str:
    """``obj``'s text as ``_json_write`` writes it."""
    parts: list[str] = []
    _json_write(obj, parts.append)
    return "".join(parts)


def _json_write(obj, out) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, passed to ``out``
    in blocks of at least 8,192 characters (the last may be shorter), so a large
    response never holds all of its text at once, save the text of a ``_Json``. It
    serves the trees the responses are made of: str, int, bool, None, lists, tuples
    and dicts with str keys, and ``_Json``, which stands for a value by the text this
    writes of the value at indent 0: the splice gives each newline of the text the
    indent of the place it fills. Every newline in the text is structure, as
    ``quote`` escapes one inside a string, so the splice writes what the value would.
    With an indent, json.dumps runs its pure-Python encoder, which spends most of its
    time on generator frames; this writes the same text directly. A float, a set or a
    key that is not a str raises ``TypeError``."""
    from json.encoder import encode_basestring_ascii as quote
    parts: list[str] = []
    put = parts.append

    def spill() -> None:
        text = "".join(parts)
        parts.clear()
        if len(text) >= 8192:  # bytes too, as the text is ASCII
            out(text)
        else:
            put(text)

    def write(o, pad: str) -> None:  # pad: a newline and the indent of o's line
        if len(parts) > 512:
            spill()
        if isinstance(o, str):
            put(quote(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for item in o:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(pad + "]")
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key in sorted(o):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(sep + quote(key) + ": ")
                write(o[key], inner)
                sep = "," + inner
            put(pad + "}")
        elif isinstance(o, _Json):
            put(o.text_of(o.value).replace("\n", pad))
            spill()  # a large text, so that parts holds few of them
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(obj, "\n")
    out("".join(parts))  # spill runs before a value's text is put, so parts holds its end
    del write  # it calls itself: a reference cycle, which would hold parts until collected


def _dispatch(ns) -> int:
    cmd = ns.command
    if cmd == "copies":
        return _dispatch_copies(ns)
    registry, hyps = _load_registry_and_hyps(ns)
    if cmd == "cmp":
        a = parse_term(ns.left, registry)
        b = parse_term(ns.right, registry)
        word = {-1: "less", 0: "equal", 1: "greater"}[compare(a, b)]
        _emit(ns, [word], {"result": word})
        return 0
    if cmd == "rules":
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
        return 0
    # every other command reads one expression
    t = parse_term(ns.expr, registry)
    if cmd == "norm":
        _emit(ns, [pretty(t)], {"input": ns.expr, "pretty": pretty(t),
                                "term": term_to_obj(t)})
    elif cmd == "cof":
        c = cofinality(t)
        _emit(ns, [pretty(c)], {"cofinality": term_to_obj(c), "pretty": pretty(c)})
    elif cmd == "card":
        cv = cardinality(t)
        _emit(ns, [str(cv)], {"cardinality": str(cv)})
    elif cmd == "cnfbase":
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
        p = factorize(t)
        notes = _cp_notes(t)
        lines = [render_poset(p)] + notes
        _emit(ns, lines, {"factorization": poset_to_obj(p), "notes": notes})
    else:  # analyze
        from .rules import analyze, kept_text
        report = analyze(t, hyps, registry)
        # the text lines and the report's JSON object (large for a long alpha) are
        # each built only when printed; the JSON states each fact and the
        # factorization by its kept text, and the texts made for this report share
        # each poset's object (memo)
        if ns.format == "json":
            memo: dict = {}
            text_of = lambda value: kept_text(value, _json_text, memo)
            _emit(ns, (), report.to_obj(lambda value: _Json(value, text_of)))
            return 0
        lines = [f"alpha = {pretty(t)}",
                 f"factorization: {render_poset(report.factorization)}"]
        lines += [f"fact: {fact_text(f)}" for f in report.facts]
        if report.ro_conclusion is not None:
            lines.append(f"conclusion: {fact_text(report.ro_conclusion)}")
        else:
            lines.append("conclusion: undetermined")
            for rid, prems in report.blocked:
                lines.append(f"  blocked {rid}: unknown " + "; ".join(prems))
        _emit(ns, lines, None)
    return 0


def _cp_notes(t) -> list[str]:
    notes = []
    for (e, _c) in t.summands:
        if isinstance(e, CardinalAtom):
            notes.append(f"note: sq(P({e.name})) = CP({e.name})")
        elif e == ONE:
            notes.append("note: sq(P(w)) = CP(w)")
    return notes


def _dispatch_copies(ns) -> int:
    import json
    from . import finsets
    sub = ns.subcommand
    try:
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
        else:  # fuse, embed and reduce each print one set
            if sub == "fuse":
                key, out = "fused", finsets.fuse_chain([_load_set(s) for s in ns.sets])
            elif sub == "embed":
                key, out = "embedded", finsets.embed_subset(_load_set(ns.set), ns.rank)
            else:
                key, out = "reduction", finsets.reduction(_load_set(ns.set))
            obj = finsets.to_obj(out)
            _emit(ns, [json.dumps(obj)], {key: obj})
    except finsets.FinPresError as exc:
        raise _CliDomainError(str(exc)) from exc
    return 0


def _parse_line(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, or the same help or
    usage error and SystemExit. An argv that starts with a subcommand's name is parsed
    by that subcommand's parser alone; only when that parser leaves arguments over,
    an error the whole grammar's top level reports, is the whole grammar built to
    parse the argv again."""
    if argv and argv[0] in _COMMANDS:
        ns, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            ns.batch, ns.command = None, argv[0]
            return ns
    return build_parser().parse_args(argv)


def _run_one(argv, batch_line: int | None = None) -> int:
    """Run one command line; ``batch_line`` numbers a line of a batch file."""
    try:
        ns = _parse_line(argv)
    except SystemExit as exc:
        # argparse reports usage errors itself; keep batch runs alive
        return int(exc.code or 0)
    if ns.batch is not None:
        if batch_line is not None:
            print(f"error: line {batch_line}: --batch cannot be nested", file=sys.stderr)
            return _USAGE_ERROR
        if ns.command:
            print(f"error: --batch takes no command, got {ns.command!r}", file=sys.stderr)
            return _USAGE_ERROR
        return _run_batch(ns.batch)
    if not ns.command:
        build_parser().print_usage(sys.stderr)
        return _USAGE_ERROR
    try:
        return _dispatch(ns)
    except ContradictionError as exc:  # before HypothesisError, its base
        print(f"error: contradictory hypotheses: {exc}", file=sys.stderr)
        for line in exc.chain:
            print(f"  {line}", file=sys.stderr)
        return _DOMAIN_ERROR
    except (_CliInputError, ParseError, HypothesisError, AtomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (OrdinalError, _CliDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_ERROR


def _run_batch(path: str) -> int:
    import shlex
    try:
        lines = _read(path).splitlines()
    except _CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    try:
        status = _run_one(list(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()
    except OSError as exc:  # stdout is closed (a broken pipe) or full
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # what stdout still buffers goes to devnull, so the flush at exit reports
        # nothing more (as the Python docs advise for SIGPIPE)
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stream with no file descriptor
            pass
        return _DOMAIN_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
