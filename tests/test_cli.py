import argparse
import hashlib
import importlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import textwrap
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import copyposet
from copyposet.atoms import MAX_BUILTIN_INDEX, AtomError, AtomRegistry
from copyposet.cardinals import MAX_UNIVERSE
from copyposet.cli import _json_write, build_parser, main
from copyposet.parser import parse_term
from copyposet.terms import MAX_SUMMANDS
import cli_corpus
from golden_scenarios import SCENARIOS
from test_cardinals import CONTRADICTIONS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm(capsys):
    code, out, _err = run(capsys, "norm", "w_2*w + w_2")
    assert code == 0
    assert out.strip() == "w^(w_2 + 1) + w_2"


def test_norm_json_roundtrips(capsys):
    code, out, _ = run(capsys, "norm", "w^3*2+5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["term"]["tail"] == 5
    code2, out2, _ = run(capsys, "norm", obj["pretty"])
    assert code2 == 0 and out2.strip() == obj["pretty"]


def test_cmp(capsys):
    code, out, _ = run(capsys, "cmp", "w_1+w", "w_1*2")
    assert code == 0 and out.strip() == "less"


def test_cof_and_card(capsys):
    code, out, _ = run(capsys, "cof", "w_2*w_1")
    assert (code, out.strip()) == (0, "w_1")
    code, out, _ = run(capsys, "card", "w^(w_2+w_1)")
    assert (code, out.strip()) == (0, "w_2")


def test_cnfbase(capsys):
    code, out, _ = run(capsys, "cnfbase", "w_2*w + w_2", "--base", "w_2")
    assert code == 0
    assert "exponent 1" in out and "coefficient w + 1" in out


def test_classify_example(capsys):
    code, out, _ = run(capsys, "classify", "w_2*w_1 + w_2")
    assert code == 0
    assert "case C" in out and "lambda = w_1" in out


def test_classify_preamble_atom(capsys):
    code, out, _ = run(capsys, "classify",
                       "card mu rank 60 singular cf w; mu")
    assert code == 0 and "case A" in out


def test_classify_schema_route_and_symbolic_sequences(capsys):
    """The schema's route and symbolic_only keys reach the JSON output, and a
    symbolic fundamental sequence nested in an exponent prints as one."""
    code, out, _ = run(capsys, "classify", "w_1^w_1", "--format", "json")
    assert code == 0 and json.loads(out)["schema"]["route"] == "power-limit"
    mu = ["--card", "mu rank 100 singular cf w"]
    code, out, _ = run(capsys, "classify", "mu + w_1", *mu, "--format", "json")
    assert code == 0 and json.loads(out)["schema"]["symbolic_only"] is True
    code, out, _ = run(capsys, "classify", "w^(mu*2) + w_1", *mu)
    assert code == 0
    assert "sequence: t(n) = w^(mu + cofseq_mu(n)) + w_1 for n < w" in out.splitlines()


def test_analyze_negative_example(capsys):
    code, out, _ = run(capsys, "analyze", "w^(w_1)",
                       "--assume", "cc(CP(w_1)) = w_3",
                       "--assume", "w_3 < 2^w_1")
    assert code == 0
    assert "not isomorphic to ro(Col(w, 2^w_1))" in out


def test_analyze_text_json_same_facts(capsys):
    args = ("analyze", "w^(w_1+1)", "--assume", "CohenModel(w_5)")
    code, text_out, _ = run(capsys, *args)
    code2, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == code2 == 0
    obj = json.loads(json_out)
    text_facts = [l[len("fact: "):] for l in text_out.splitlines()
                  if l.startswith("fact: ")]
    assert text_facts == [f["pretty"] for f in obj["facts"]]


def test_classify_json_schema_reparses(capsys):
    code, out, _ = run(capsys, "classify", "w_2*w + w_2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "B"
    schema = obj["schema"]
    from copyposet.atoms import AtomRegistry
    from copyposet.parser import parse_term
    from copyposet.terms import nat, mul, from_atom
    registry = AtomRegistry()
    t1 = parse_term(schema["expr"], registry, env={schema["var"]: nat(1)})
    assert t1 == mul(from_atom(registry.lookup("w_2")), nat(2))


def test_parse_error_exit_2(capsys):
    code, _out, err = run(capsys, "cof", "w^")
    assert code == 2 and "offset 2" in err


def test_bad_hypothesis_input_exit_2(capsys):
    for argv in (["--card", "mu rank abc"], ["--card", "mu rank 5 singular cf"],
                 ["--assume", "2^w_1 = w_2 = w_3"]):
        code, _out, err = run(capsys, "analyze", "w^w", *argv)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err


def test_long_numeral_exit_2(capsys):
    nines = "9" * 5000
    for argv in (["norm", nines], ["analyze", "w^w", "--card", f"mu rank {nines}"]):
        code, _out, err = run(capsys, *argv)
        assert code == 2 and "numeral longer than" in err and "Traceback" not in err


def test_oversized_arithmetic_exit_1(capsys):
    for expr in ("9999999999^500", "2^(w+99999999)", "9^9^9", "(w+1)^99999999999"):
        code, _out, err = run(capsys, "norm", expr)
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err


def test_deep_nesting_exit_2(capsys):
    for expr in ("(" * 3000 + "w" + ")" * 3000, "^".join(["w"] * 2000)):
        code, _out, err = run(capsys, "norm", expr)
        assert code == 2 and "nested deeper than" in err and "Traceback" not in err
    code, _out, err = run(capsys, "analyze", "w^w", "--assume", "2^" * 3000 + "w = c")
    assert code == 2 and "nested deeper than" in err


def _analyze_argv(alpha, *lines):
    argv = ["analyze", alpha, "--format", "json"]
    for line in lines:
        argv += ["--assume", line]
    return argv


def test_output_independent_of_hash_seed():
    """Expressions hash by identity and the universe is a set, so nothing the closure
    stores or prints may follow set order: two hash seeds give the same bytes."""
    cases = []
    for name in ("t410_case_b", "t54_singular", "t58_mu_d"):
        _name, alpha, decls, assume = next(s for s in SCENARIOS if s[0] == name)
        cases.append(_analyze_argv(alpha, *decls.splitlines(), *assume.splitlines()))
    for alpha, text in (CONTRADICTIONS[0], CONTRADICTIONS[-1]):
        cases.append(_analyze_argv(alpha, *text.splitlines()))
    src = str(pathlib.Path(copyposet.__file__).resolve().parent.parent)
    for argv in cases:
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "copyposet.cli", *argv], env=env,
                                  capture_output=True, timeout=60)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1], argv
        code, out, err = runs[0]
        assert (code == 0 and out) or (code == 1 and b"contradictory" in err), runs[0]


def test_card_error_offset_counts_from_the_value(capsys):
    for value in ("mu rank abc", "card mu rank abc"):
        code, _out, err = run(capsys, "analyze", "w^w", "--card", value)
        assert code == 2
        assert err.strip() == f"error: expected rank number at offset {value.index('abc')}"


def test_domain_error_exit_1(capsys):
    code, _out, err = run(capsys, "factorize", "5")
    assert code == 1 and "infinite" in err


def test_contradiction_exit_1(capsys):
    code, _out, err = run(capsys, "analyze", "w^w", "--assume", "2^w = w")
    assert code == 1 and "contradict" in err


def test_koenig_bounds_the_cofinality_of_the_continuum(capsys):
    """cf(2^x) > x holds for x = w too, where 2^w is c, a kind of its own."""
    for assume in ("cf(2^w_1) = w_1", "cf(c) = w"):
        code, _out, err = run(capsys, "analyze", "w^(w_1)", "--assume", assume)
        assert code == 1 and "[koenig]" in err, assume


def test_rules_lookup(capsys):
    code, out, _ = run(capsys, "rules", "T5.2")
    assert code == 0 and "Col(w, 2^|delta|)" in out
    code, _out, err = run(capsys, "rules", "bogus")
    assert code == 2


def test_copies_subcommands(capsys):
    full2 = json.dumps({"prefix": [], "tail": [{"prefix": "", "period": "1"}]})
    evens = json.dumps({"prefix": "", "period": "10"})
    code, out, _ = run(capsys, "copies", "type", full2)
    assert (code, out.strip()) == (0, "w^2")
    code, out, _ = run(capsys, "copies", "member", full2, "--power", "2")
    assert code == 0 and "yes" in out
    code, out, _ = run(capsys, "copies", "embed", evens, "--rank", "2")
    assert code == 0
    embedded = out.strip()
    code, out, _ = run(capsys, "copies", "subset", embedded, full2)
    assert (code, out.strip()) == (0, "yes")
    code, out, _ = run(capsys, "copies", "fuse", full2, embedded)
    assert code == 0
    code, out, _ = run(capsys, "copies", "reduce", embedded)
    assert code == 0 and json.loads(out)["period"] == "10"


def test_copies_set_from_file(tmp_path, capsys):
    f = tmp_path / "full2.json"
    f.write_text(json.dumps({"prefix": [], "tail": [{"prefix": "", "period": "1"}]}))
    code, out, _ = run(capsys, "copies", "type", f"@{f}")
    assert (code, out.strip()) == (0, "w^2")
    code, out, err = run(capsys, "copies", "type", f"@{tmp_path / 'missing.json'}")
    assert code == 2 and not out and err.startswith("error: cannot read")


def test_copies_bad_literal(capsys):
    code, _out, err = run(capsys, "copies", "type", "{not json")
    assert code == 2


def test_copies_domain_error(capsys):
    finite = json.dumps({"prefix": "111", "period": "0"})
    code, _out, err = run(capsys, "copies", "embed", finite, "--rank", "2")
    assert code == 1 and "infinite" in err


def test_assume_file_and_card(tmp_path, capsys):
    f = tmp_path / "hyps.txt"
    f.write_text("# scenario\ncard mu rank 100 singular cf w\n2^mu = succ(mu)\n")
    code, out, _ = run(capsys, "analyze", "w^mu", "--assume-file", str(f))
    assert code == 0 and "Col(w_1, 2^mu)" in out


def test_assume_files_are_read_in_order(tmp_path, capsys):
    """Hypothesis files are parsed in argv order, each read only after the lines before
    it are parsed, and all of them before the --assume lines, wherever those stand."""
    bad = tmp_path / "bad.txt"
    bad.write_text("2^ = w\n")
    code, out, err = run(capsys, "analyze", "w^w", "--assume-file", str(bad),
                         "--assume-file", str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "")
    assert err == "error: expected a cardinal expression at offset 3\n"
    good = tmp_path / "good.txt"
    good.write_text("card mu rank 5\n")
    code, out, err = run(capsys, "analyze", "w^w", "--assume", "mu < c",
                         "--assume-file", str(good))
    assert (code, err) == (0, "") and out.startswith("alpha = w^w\n")


def test_batch(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text('norm "w_2*w + w_2"\n# comment\ncmp w w^2\n')
    code, out, _ = run(capsys, "--batch", str(f))
    assert code == 0
    assert out.splitlines() == ["w^(w_2 + 1) + w_2", "less"]


def test_batch_survives_bad_line(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text("norm w+1 extra junk\ncmp w w^2\n")
    code, out, _ = run(capsys, "--batch", str(f))
    assert code == 2
    assert out.splitlines() == ["less"]


def test_batch_survives_unbalanced_quote(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text('norm "w+1\nnorm w\n')
    code, out, err = run(capsys, "--batch", str(f))
    assert code == 2
    assert out.splitlines() == ["w"]
    assert err.startswith("error: line 1: ") and "Traceback" not in err


def test_batch_does_not_nest(tmp_path, capsys, monkeypatch):
    """A line that gives --batch, even the batch file itself, is a usage error of
    that line; the batch goes on."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "other.batch").write_text("norm w*2\n")
    (tmp_path / "self.batch").write_text("--batch self.batch\nnorm w+1\n"
                                         "--batch=other.batch\n")
    code, out, err = run(capsys, "--batch", "self.batch")
    assert code == 2
    assert out.splitlines() == ["w + 1"]
    assert err.splitlines() == ["error: line 1: --batch cannot be nested",
                                "error: line 3: --batch cannot be nested"]


def test_batch_takes_no_command(tmp_path, capsys, monkeypatch):
    """A command given with --batch is a usage error, and the batch does not run; on a
    batch line, the nested --batch is reported first."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.txt").write_text("norm w+1\n--batch b.txt cmp w w_1\n")
    code, out, err = run(capsys, "--batch", "b.txt", "cmp", "w", "w_1")
    assert (code, out, err) == (2, "", "error: --batch takes no command, got 'cmp'\n")
    code, out, err = run(capsys, "--batch", "b.txt")
    assert (code, out, err) == (2, "w + 1\n", "error: line 2: --batch cannot be nested\n")


def test_empty_batch_path_is_a_path(tmp_path, capsys, monkeypatch):
    """--batch '' is a batch path like any other: it takes no command, it is read
    (and cannot be), and on a batch line it is nested."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--batch", "", "cmp", "w", "w_1")
    assert (code, out, err) == (2, "", "error: --batch takes no command, got 'cmp'\n")
    code, out, err = run(capsys, "--batch", "")
    assert (code, out) == (2, "") and err.startswith("error: cannot read : ")
    assert "usage:" not in err
    (tmp_path / "b.txt").write_text("norm w+1\n--batch '' norm w\n")
    code, out, err = run(capsys, "--batch", "b.txt")
    assert (code, out, err) == (2, "w + 1\n", "error: line 2: --batch cannot be nested\n")


def test_batch_lines_are_isolated(tmp_path, capsys):
    """A line's --card and --assume do not reach the next line: each line reads like
    the same command run on its own."""
    lines = ['analyze "w^(w_1+1)" --assume "2^w_1 = w_2"', 'analyze "w^(w_1+1)"',
             'norm "mu + 1" --card "mu rank 5"', 'norm "mu + 1"',
             'analyze "w^(w_1+1)" --assume "2^w_1 = w_2" --format json',
             'analyze "w^(w_1+1)" --format json']
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "--batch", str(f))
    alone = [run(capsys, *shlex.split(line)) for line in lines]
    assert code == max(c for c, _o, _e in alone) == 2
    assert (out, err) == ("".join(o for _c, o, _e in alone), "".join(e for _c, _o, e in alone))
    assert "undeclared atom 'mu'" in alone[3][2]
    assert alone[0][1] != alone[1][1] and "undetermined" in alone[1][1]


def test_one_line_builds_its_subcommand_alone(capsys, monkeypatch):
    """A command line builds the parsers of its own subcommand only: analyze's alone,
    the lab's level with its six subcommands, where the whole command line grammar
    takes 17; leftover arguments build the whole grammar, whose top level reports
    them."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _err = run(capsys, "analyze", "w^(w_1+1)")
    assert code == 0 and out.startswith("alpha = w^(w_1 + 1)")
    assert built == ["copyposet analyze"]
    built.clear()
    code, out, _err = run(capsys, "copies", "type", '{"prefix": "", "period": "10"}')
    assert code == 0 and len(built) == 7
    built.clear()
    build_parser()
    assert len(built) == 17
    built.clear()
    code, out, err = run(capsys, "norm", "w", "extra")
    assert (code, out) == (2, "") and len(built) == 1 + 17
    assert err.endswith("copyposet: error: unrecognized arguments: extra\n")


def _fresh(script: str) -> list[str]:
    """The stdout lines of a script run by a fresh interpreter on this checkout."""
    src = str(pathlib.Path(copyposet.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert "Traceback" not in done.stderr, done.stderr
    return done.stdout.splitlines()


# the modules a one-shot command loads only when it uses them
_LAZY_MODULES = ("copyposet.cardinals", "copyposet.finsets", "copyposet.rules",
                 "dataclasses", "inspect", "json", "shlex")
# subcommand -> (command lines run in one interpreter, the start of the first one's
# stdout, their exit statuses, the lazy modules the first of them loads)
ONE_SHOT = {
    "norm": ([["norm", "w^w+1"]], "w^w + 1", [0], []),
    "cmp": ([["cmp", "w_1", "w^w"]], "greater", [0], []),
    "cof": ([["cof", "w_1*w"]], "w", [0], []),
    "card": ([["card", "w_1+w"]], "w_1", [0], []),
    "cnfbase": ([["cnfbase", "w_1^2+w", "--base", "w_1"]], "digit: exponent 2", [0], []),
    "classify": ([["classify", "w_1+w_2"]], "case D", [0], []),
    "factorize": ([["factorize", "w^w*2+w"]], "sq(P(w^w))^2 x sq(P(w))", [0], []),
    "rules": ([["rules", "T5.2"]], "T5.2: case D or E", [0], []),
    # exit 2 for a bad literal and 1 for a domain error once the lab is loaded
    "copies": ([["copies", "type", '{"prefix": "", "period": "10"}'],
                ["copies", "type", "{not json"],
                ["copies", "embed", '{"prefix": "111", "period": "0"}', "--rank", "2"]],
               "w", [0, 2, 1], ["copyposet.finsets", "json"]),
    "analyze": ([["analyze", "w^(w_1+1)", "--assume", "2^w_1 = w_2"]],
                "alpha = w^(w_1 + 1)", [0], ["copyposet.cardinals", "copyposet.rules"]),
}


def test_one_shot_imports():
    """A one-shot command, each in a fresh interpreter, loads only the modules it
    uses: only `analyze` compiles the closure (cardinals) and the rule engine (rules),
    only `copies` the finite lab and json, and none loads dataclasses, inspect or
    shlex."""
    for command, (argvs, head, statuses, lazy) in ONE_SHOT.items():
        lines = _fresh(f"""
            import sys
            before = set(sys.modules)
            from copyposet.cli import main
            first, *more = {argvs!r}
            statuses = [main(first)]
            loaded = set(sys.modules) - before
            statuses += [main(argv) for argv in more]
            print("statuses:", *statuses)
            print("loaded:", *sorted(m for m in {_LAZY_MODULES!r} if m in loaded))
        """)
        assert lines[0].startswith(head), command
        assert lines[-2:] == [" ".join(["statuses:", *map(str, statuses)]),
                              " ".join(["loaded:", *lazy])], command


# every name the package exports, by the module that defines it
PACKAGE_EXPORTS = {
    "atoms": ("AtomRegistry", "CardinalAtom", "AtomError"),
    "terms": ("OrdinalTerm", "OrdinalError", "BaseCNF", "CardinalityValue", "ZERO", "ONE",
              "OMEGA", "add", "mul", "power", "compare", "cofinality", "cardinality",
              "cnf_base", "is_indecomposable", "nat", "from_atom", "omega_power", "pretty"),
    "parser": ("ParseError", "parse_term"),
    "classify": ("CaseReport", "SequenceSchema", "classify_exponent",
                 "fundamental_description", "instantiate"),
    "cardexpr": ("CardinalExpr", "Hypothesis", "HypothesisError", "ContradictionError",
                 "parse_hypotheses", "parse_hypothesis_line", "parse_cardinal_expr"),
    "cardinals": ("FactBase", "closure", "entails", "cohen_transfer"),
    "forcing": ("PosetExpr", "ForcingFact", "fact_text", "factorize", "rp_refine"),
    "rules": ("AnalysisReport", "analyze"),
    "catalog": ("rule_table", "rule_lookup"),
}


def test_package_exports():
    """Each exported name is its defining module's object, the analyzer's names
    included; an unknown name is an AttributeError. The README's Library section
    lists the same names by module."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    listed = {}
    for line in readme.split("## Library", 1)[1].splitlines():
        entry = re.fullmatch(r"- `(\w+)` \([^)]*\): (.*)", line)
        if entry:
            listed[entry[1]] = tuple(re.findall(r"`(\w+)`", entry[2]))
    assert listed == PACKAGE_EXPORTS
    for module_name, names in PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"copyposet.{module_name}")
        for name in names:
            value = getattr(copyposet, name)
            assert value is getattr(module, name), name
            assert value.__module__ == module.__name__, name
    with pytest.raises(AttributeError, match="no_such_name"):
        copyposet.no_such_name


def test_pinned_test_dependencies_agree():
    """CI's one pip install line installs pyproject's test extra and names no pin of
    its own, and the extra and the README's install section name the same pytest and
    hypothesis pins (read with a regex: 3.10 has no tomllib)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    pin = re.compile(r"\b(pytest|hypothesis)==(\d[\w.]*)")
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    installs = [line for line in workflow.splitlines() if "pip install" in line]
    assert len(installs) == 1
    assert installs[0].endswith('pip install -e ".[test]"') and not pin.search(installs[0])
    extra = re.search(r"^test = \[(.*)\]$",
                      (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    readme = (root / "README.md").read_text(encoding="utf-8")
    install_section = readme.split("## Install and test", 1)[1].split("\n## ", 1)[0]
    pins = [sorted(set(pin.findall(text))) for text in (extra[1], install_section)]
    assert [name for name, _version in pins[0]] == ["hypothesis", "pytest"]
    assert pins[0] == pins[1]


def test_readme_cli_examples_print_their_comments(capsys):
    """Every `copyposet ... # -> X` line of the README's CLI section prints X as its
    first line, run in process; the section's `NAME='...'` lines set the shell
    variables its commands quote as "$NAME"."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    shell = dict(re.findall(r"^(\w+)='(.*)'$", section, re.M))
    examples = re.findall(r"^copyposet (.*?)\s+# -> (.*)$", section, re.M)
    assert len(examples) >= 6
    for command, expected in examples:
        for name, value in shell.items():
            command = command.replace(f'"${name}"', shlex.quote(value))
        code, out, err = run(capsys, *shlex.split(command))
        assert (code, err, out.splitlines()[0]) == (0, "", expected), command


def test_package_import_defers_the_analyzer():
    """`import copyposet` loads neither the closure nor the rule engine; the first
    access to one of their names loads its module alone."""
    lines = _fresh("""
        import sys
        import copyposet
        heavy = ("copyposet.cardinals", "copyposet.rules")
        print("loaded:", *(m for m in heavy if m in sys.modules))
        copyposet.closure
        print("loaded:", *(m for m in heavy if m in sys.modules))
        copyposet.analyze
        print("loaded:", *(m for m in heavy if m in sys.modules))
    """)
    assert lines == ["loaded:", "loaded: copyposet.cardinals",
                     "loaded: copyposet.cardinals copyposet.rules"]


def test_reserved_atom_names_exit_2(capsys):
    """c and h read as the continuum and h in every expression, like w as omega."""
    for name in ("w", "c", "h"):
        with pytest.raises(AtomError, match="cannot be redeclared"):
            AtomRegistry().declare(name, 50)
        for argv in (["--card", f"{name} rank 50"], ["--assume", f"card {name} rank 50"]):
            code, out, err = run(capsys, "analyze", f"w^{name}", *argv)
            assert code == 2 and not out and "cannot be redeclared" in err


def test_builtin_index_limit(capsys):
    """Input may name builtins up to w_200 (MAX_BUILTIN_INDEX); past it, in an
    expression, a hypothesis or a declaration, is a usage error without a traceback."""
    code, out, err = run(capsys, "analyze", "w^w", "--assume", f"w_{MAX_BUILTIN_INDEX} < c")
    assert code == 0 and out and not err
    past = f"w_{MAX_BUILTIN_INDEX + 1}"
    for argv in (["analyze", f"w^{past}"], ["analyze", "w^w", "--assume", f"{past} < c"],
                 ["analyze", "w^w", "--card", f"{past} rank {MAX_BUILTIN_INDEX + 1}"],
                 ["cmp", "w", "w_" + "9" * 5000]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "largest builtin" in err and "Traceback" not in err
    # user atoms carry any rank, and the engine builds w_201 above w_200
    code, _out, _err = run(capsys, "analyze", "w^mu", "--card", "mu rank 5000",
                           "--assume", f"succ(w_{MAX_BUILTIN_INDEX}) < mu")
    assert code == 0


def test_closure_universe_limit(capsys):
    """400 declared atoms with a_i < 2^a_i need a closure of 2,020 expressions, past
    MAX_UNIVERSE: a usage error within a second, before the closure does its
    quadratic work (15 s and 620 MB without the limit)."""
    argv = ["analyze", "w^(a_400+1)"]
    for i in range(1, 401):
        argv += ["--card", f"a_{i} rank {1000 * i}", "--assume", f"a_{i} < 2^a_{i}"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: the closure needs 2020 cardinal expressions, more than the "
                   f"limit of {MAX_UNIVERSE}\n")


def test_cli_corpus_is_byte_identical():
    """Every line of the committed corpus prints what it printed when the corpus was
    generated: the same exit status, stdout and stderr (see cli_corpus.py)."""
    pairs = cli_corpus.read()
    assert len(pairs) > 500
    with cli_corpus.corpus_setting():
        changed = [shlex.join(argv) for sha, argv in pairs if cli_corpus.digest(argv) != sha]
    assert changed == []


@pytest.mark.parametrize("argv,message", [
    (["frobnicate", "w"], "copyposet: error: argument command: invalid choice: "
     "'frobnicate' (choose from 'norm', 'cmp', 'cof', 'card', 'cnfbase', 'classify', "
     "'factorize', 'analyze', 'rules', 'copies')"),
    (["--batch", "b.txt", "frobnicate"], "copyposet: error: argument command: invalid "
     "choice: 'frobnicate' (choose from 'norm', 'cmp', 'cof', 'card', 'cnfbase', "
     "'classify', 'factorize', 'analyze', 'rules', 'copies')"),
    (["norm", "w", "--format", "xml"], "copyposet norm: error: argument --format: "
     "invalid choice: 'xml' (choose from 'text', 'json')"),
    (["copies", "--format", "json", "type", "{}"], "copyposet copies: error: argument "
     "subcommand: invalid choice: 'json' (choose from 'type', 'member', 'subset', "
     "'fuse', 'embed', 'reduce')"),
    (["copies", "reduce", "{}", "--format", "xml"], "copyposet copies reduce: error: "
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
])
def test_invalid_choice_messages(capsys, argv, message):
    """An invalid choice is reported with the choices quoted, whatever argparse's own
    message on this Python release: later patch releases drop the quotes."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", message)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_is_an_error():
    """A full stdout, or a pipe whose reader has gone, ends in one error line and
    exit 1, with no traceback and nothing more reported at exit."""
    src = str(pathlib.Path(copyposet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "copyposet.cli", "analyze", "w^(w_1+2)",
            "--assume", "2^w_1 = w_2", "--format", "json"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    assert (done.returncode, done.stderr) == (
        1, b"error: cannot write output: [Errno 28] No space left on device\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv[:5], stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        1, b"error: cannot write output: [Errno 32] Broken pipe\n")


def test_no_command_usage(capsys):
    code, _out, _err = run(capsys)
    assert code == 2


def test_usage_lines_are_pinned(capsys):
    """The top-level usage text is written out, so every supported Python prints
    the same lines."""
    code, out, err = run(capsys, "frobnicate", "w")
    assert code == 2 and not out
    assert err.splitlines()[:3] == [
        "usage: copyposet [-h] [--batch PATH]",
        "                 {norm,cmp,cof,card,cnfbase,classify,factorize,analyze,rules,copies}",
        "                 ..."]
    assert err.splitlines()[3].startswith("copyposet: error: argument command: invalid choice")


def test_rank_rule_reads_the_closure_universe(capsys):
    """A user atom may not share its rank with a builtin the problem's closure holds
    (w^w_1 brings w_1..w_3 into it), and may take the rank of a builtin that only
    the rules build outside it."""
    code, out, err = run(capsys, "analyze", "w^w_1", "--card", "mu rank 3")
    assert (code, out, err) == (2, "", "error: cannot use w_3: rank 3 is taken by 'mu'\n")
    outputs = []
    for rank in (4, 100):
        code, out, err = run(capsys, "analyze", "w^w_1", "--card", f"mu rank {rank}",
                             "--format", "json")
        assert code == 0 and not err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_copies_take_only_format(capsys):
    """The lab reads no atoms or hypotheses, so after a lab subcommand --card,
    --assume and --assume-file are usage errors that never reach their grammars."""
    literal = json.dumps({"prefix": "", "period": "1"})
    for option in (["--assume", "bogus"], ["--card", "mu rank 5"],
                   ["--assume-file", "missing.txt"]):
        code, out, err = run(capsys, "copies", "type", literal, *option)
        assert code == 2 and not out
        assert "unrecognized arguments: " + " ".join(option) in err
        assert "undeclared" not in err and "Traceback" not in err


def test_copies_options_follow_the_subcommand(capsys):
    """The lab's common options belong to its subcommands: given before one, an
    option is a usage error instead of being dropped silently."""
    literal = json.dumps({"prefix": "", "period": "10"})
    code, out, err = run(capsys, "copies", "type", literal, "--format", "json")
    assert code == 0 and json.loads(out)["pretty"] == "w" and not err
    code, out, err = run(capsys, "copies", "--format", "json", "type", literal)
    assert code == 2 and not out and err.startswith("usage: copyposet copies")


def test_files_that_are_not_utf8_or_have_a_nul_in_the_path_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"GCH\n2^w_1 = w_2 \xff\n")
    for bad in (str(latin1), f"{latin1}\x00"):
        for argv in (["analyze", "w^w", "--assume-file", bad], ["copies", "type", f"@{bad}"],
                     ["--batch", bad]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert err.startswith(f"error: cannot read {bad}: ") and "Traceback" not in err


@pytest.mark.parametrize("literal", ['1', '{"period": 5}', '{"tail": 5}',
                                     '{"period": "1", "prefix": null}', '["period"]',
                                     '{"tail": ["period"]}', '{"prefix": 5, "tail": []}',
                                     pytest.param("[" * 5000, id="deep-json")])
def test_set_literals_of_the_wrong_shape_exit_2(capsys, literal):
    code, out, err = run(capsys, "copies", "type", literal)
    assert code == 2 and not out and err.startswith("error: ") and "Traceback" not in err


def test_set_literal_deeper_than_rank_3_exit_2(capsys):
    literal = '{"tail": [' * 400 + '{"period": "1"}' + "]}" * 400
    code, out, err = run(capsys, "copies", "type", literal)
    assert (code, out, err) == (2, "", "error: ranks above 3 are not supported\n")


def test_embed_ranks_are_2_to_3(capsys):
    evens = json.dumps({"prefix": "", "period": "10"})
    code, out, _err = run(capsys, "copies", "embed", evens, "--rank", "3")
    assert code == 0
    code, _out, _err = run(capsys, "copies", "type", out.strip())
    assert code == 0
    for rank in ("4", "2000"):
        code, out, err = run(capsys, "copies", "embed", evens, "--rank", rank)
        assert (code, out, err) == (1, "", "error: ranks above 3 are not supported\n")


@pytest.mark.parametrize("cards,message", [
    (["é rank 5"], "bad atom name 'é'"),
    (["mu rank 0"], "atom rank must be a positive integer"),
    (["mu rank 5", "mu rank 6"], "atom 'mu' already declared"),
    (["mu rank 5", "nu rank 5"], "rank 5 already taken by 'mu'"),
    (["w_3 rank 3 singular cf w"], "builtin atom 'w_3' is regular and cannot be singular"),
    (["w_3 rank 4"], "builtin atom 'w_3' must have rank 3"),
    (["mu rank 9 singular cf nu"], "declared cofinality 'nu' is not a known atom"),
    (["nu rank 5 singular cf w", "mu rank 9 singular cf nu"],
     "declared cofinality must be regular"),
    (["nu rank 9", "mu rank 5 singular cf nu"],
     "declared cofinality must lie strictly below the atom"),
])
def test_refused_declarations_exit_2(capsys, cards, message):
    argv = ["norm", "w"]
    for card in cards:
        argv += ["--card", card]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message} at offset 0\n")


def test_regular_atom_takes_no_declared_cofinality():
    with pytest.raises(AtomError, match="only singular atoms carry a declared cofinality"):
        AtomRegistry().declare("mu", 5, cofinality="w")


def test_builtin_on_a_declared_rank_exit_2(capsys):
    code, out, err = run(capsys, "norm", "w_3", "--card", "mu rank 3")
    assert (code, out, err) == (2, "", "error: cannot use w_3: rank 3 is taken by 'mu'\n")


def test_sums_are_bounded_like_products(capsys):
    """A sum written out summand by summand is refused past MAX_SUMMANDS like any
    other term, and reading the 10,000 summands before it takes about a second."""
    terms = " + ".join(f"w^(w*{k})" for k in range(MAX_SUMMANDS + 1, 0, -1))
    code, out, err = run(capsys, "norm", terms)
    assert (code, out, err) == (1, "", f"error: term of more than {MAX_SUMMANDS} summands\n")


# every character class the string escaper treats apart: ASCII, controls, quote and
# backslash, non-ASCII in and past the BMP, lone surrogates
_json_chars = st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "/", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f", "\u00e9",
     "\u2028", "\ud800", "\udfff", "\U0001f600"]))
_json_strings = st.text(_json_chars, max_size=8)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**80, 10**80),
    st.sampled_from([0, 1, -1, True, False, 2**63, -2**63 - 1]), _json_strings)
_json_trees = st.recursive(_json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(_json_strings, inner, max_size=5)), max_leaves=25)


def _json_text(obj) -> str:
    parts: list[str] = []
    _json_write(obj, parts.append)
    return "".join(parts)


@settings(max_examples=100, deadline=None)
@given(_json_trees)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_edges():
    deep: object = "leaf"
    for level in range(200):
        deep = [deep, {}] if level % 2 else {"k": deep, "e": [], "t": ()}
    wide = [{"k": i, "s": "x" * (i % 50), "t": (i, [None])} for i in range(3000)]
    for obj in (deep, [True, 1, False, 0, -0, None], {"b": 1, "a": {"": []}}, (),
                -10**200, wide):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    # the responses carry no float, set or non-str key, and the writer takes none
    for bad in (1.5, {"a": [0.5]}, {1, 2}, [frozenset()], {1: "a"}, {"a": {None: 0}}):
        with pytest.raises(TypeError):
            _json_text(bad)


def test_json_response_is_written_in_blocks(monkeypatch):
    """A large JSON response goes to stdout in blocks of at least 8 KB, the same bytes
    as json.dumps, and the writer never holds the whole text: at 300 summands the
    text is 2.1 MB and writing it peaks near 0.1 MB traced, where a writer that joins
    the whole text first peaks near 12 MB."""
    from copyposet import cli, rules
    registry = AtomRegistry()
    alpha = parse_term(" + ".join(f"w^{k}" for k in range(300, 0, -1)), registry)
    obj = rules.analyze(alpha, (), registry).to_obj()
    blocks: list[int] = []
    digest = hashlib.sha256()

    class Sink:
        def write(self, text):
            blocks.append(len(text))
            digest.update(text.encode())

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        cli._emit(argparse.Namespace(format="json"), None, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    text = json.dumps({"schema_version": cli.SCHEMA_VERSION, **obj}, indent=2,
                      sort_keys=True) + "\n"
    assert digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert sum(blocks) == len(text) > 2_000_000
    assert peak < 2**20
    # all but the last two are full blocks; the last is the newline
    assert len(blocks) > 100 and min(blocks[:-2]) >= 8192 and blocks[-1] == 1
