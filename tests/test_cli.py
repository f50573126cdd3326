import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap

import pytest

import copyposet
from copyposet.atoms import MAX_BUILTIN_INDEX, AtomError, AtomRegistry
from copyposet.cli import main
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


def test_one_shot_imports(tmp_path):
    """A one-shot text command loads neither dataclasses and inspect nor json, shlex
    or the finite lab; `copies` imports the lab when it runs and keeps its exit
    statuses (0, 2 for a bad literal, 1 for a domain error)."""
    script = tmp_path / "one_shot.py"
    script.write_text(textwrap.dedent("""
        import sys
        before = set(sys.modules)
        from copyposet.cli import main
        status = main(["rules", "T5.2"])
        loaded = set(sys.modules) - before
        lazy = ("dataclasses", "inspect", "copyposet.finsets", "json", "shlex")
        print("loaded:", status, *sorted(m for m in lazy if m in loaded))
        finite = '{"prefix": "111", "period": "0"}'
        for argv in (["copies", "type", '{"prefix": "", "period": "10"}'],
                     ["copies", "type", "{not json"],
                     ["copies", "embed", finite, "--rank", "2"]):
            print("status:", main(argv))
    """))
    src = str(pathlib.Path(copyposet.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("T5.2: ")
    assert lines[1:] == ["loaded: 0", "w", "status: 0", "status: 2", "status: 1"]
    assert "Traceback" not in done.stderr


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
