"""Hostile command lines for every subcommand, and batch files made of them.

A command line is built from fragments of the grammars (ordinal terms, cardinal
hypotheses, declarations, set literals); most then get a hostile piece in one
place: numerals at and past the digit limit, a sum of 10,000 summands, nesting
at and past the depth limit, the builtins w_200 and w_201, set literals of the
wrong JSON shape, lab ranks past 3, files and argv bytes that are not UTF-8 (in
argv as the surrogate escapes Python decodes them to). Whatever the input, the
CLI must exit 0, 1 or 2, print no traceback and finish within the deadline.
"""
import io
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from copyposet.cli import _parse_line, build_parser, main

NOT_UTF8 = os.fsdecode(b"w_\xff\xfe")  # argv bytes that are not UTF-8

DECLARATIONS = ["mu rank 50 singular cf w", "nu rank 20"]
ORDINALS = ["w", "7", "w_1", "w_2*w_1 + w_2", "w^(w_1+1)", "w_1*w + w_1", "w^(w_1*w + w_1)",
            "w^(w_3*w_1 + w_3) + w_2", "w^mu + w^(nu+1)*3", "(w+1)^w", "w^(mu+1)", "w^nu"]
CARDINALS = ["w", "c", "h", "w_1", "w_2", "mu", "nu", "2^w_1", "2^<mu", "succ(w_2)",
             "cc(CP(w_1))", "mu^w", "cf(2^w)", "(2^w)^w_1"]
SETS = ['{"prefix": "", "period": "10"}', '{"prefix": "1", "period": "0"}',
        '{"prefix": [], "tail": [{"prefix": "", "period": "1"}]}',
        '{"prefix": [], "tail": [{"prefix": [], "tail": [{"prefix": "01", "period": "1"}]}]}',
        "@set.json"]
# hostile pieces by the kind of argument they replace, or are appended to
HOSTILE = {
    "term": ["9" * 1000, "9" * 1001, "w^" + "9" * 1000, "+".join(["w_1"] * 10_000),
             "+".join(["1"] * 10_000), "(" * 100 + "w" + ")" * 100,
             "(" * 101 + "w" + ")" * 101, "w_200", "w^w_200", "w_201", "w_" + "9" * 1000],
    "hypothesis": ["succ(" * 99 + "w_1" + ")" * 99 + " < c", "2^" * 101 + "w = c",
                   "cc(CP(" * 40 + "w_1" + "))" * 40 + " < c", "w_200 < c", "w_201 < c",
                   "CohenModel(w_200)", "card w_201 rank 201", "c = " + "9" * 1000],
    "declaration": ["é rank 5", "mu rank 0", "w_3 rank 4", "mu rank " + "9" * 1001,
                    "w_200 rank 200", "w_201 rank 201", "mu rank 5 singular cf nu"],
    "set": ["1", '{"period": 5}', '{"tail": 5}', '{"period": "1", "prefix": null}',
            '{"tail": ["period"]}', "[" * 5000, '{"tail": [' * 400 + "1" + "]}" * 400,
            "{not json", "@latin1.txt", "@missing", "@set.json\x00"],
    "integer": ["4", "2000", "-1", "9" * 1000, "x"],
    "file": ["latin1.txt", "missing", ".", "hyps.txt\x00"],
    "any": [NOT_UTF8, "", "é", "\x00", "--format", "card", "w_201", "9" * 1001],
}

term = st.one_of(st.sampled_from(ORDINALS),
                 st.builds("{} {} {}".format, st.sampled_from(ORDINALS),
                           st.sampled_from(["+", "*", "^"]), st.sampled_from(ORDINALS)))
hypothesis_line = st.one_of(
    st.sampled_from(["GCH", "CH", "MA mu=w_1", "CohenModel(w_3)", "CohenModel(nu)"]),
    st.builds("{} {} {}".format, st.sampled_from(CARDINALS),
              st.sampled_from(["=", "<", "<=", ">", ">="]), st.sampled_from(CARDINALS)))


GRAMMAR_COMMANDS = ["analyze", "norm", "cmp", "cof", "card", "cnfbase", "classify",
                    "factorize", "rules"]


@st.composite
def grammatical_lines(draw, commands) -> list:
    """A command line of well-formed pieces (its hypotheses may still contradict), as
    (argument, kind) pairs."""
    command = draw(st.sampled_from(commands))
    args = [(command, "any")]
    if command == "cmp":
        args += [(draw(term), "term"), (draw(term), "term")]
    elif command == "cnfbase":
        args += [(draw(term), "term"), ("--base", "any"),
                 (draw(st.sampled_from(["w_1", "w_2", "mu"])), "term")]
    elif command == "rules":
        args += [(rule, "any") for rule in draw(st.lists(st.sampled_from(["T5.2", "T4.9b"]),
                                                         max_size=1))]
    elif command == "copies":
        sub = draw(st.sampled_from(["type", "member", "subset", "fuse", "embed", "reduce"]))
        count = {"subset": 2, "fuse": draw(st.integers(1, 3))}.get(sub, 1)
        args += [(sub, "any")] + [(draw(st.sampled_from(SETS)), "set") for _ in range(count)]
        if sub in ("member", "embed"):
            args += [("--power" if sub == "member" else "--rank", "any"),
                     (str(draw(st.integers(0, 3))), "integer")]
    else:
        args += [(draw(term), "term")]
    if command != "copies":
        for decl in DECLARATIONS:
            args += [("--card", "any"), (decl, "declaration")]
        for line in draw(st.lists(hypothesis_line, max_size=3)):
            args += [("--assume", "any"), (line, "hypothesis")]
        if draw(st.booleans()):
            args += [("--assume-file", "any"), ("hyps.txt", "file")]
    if draw(st.booleans()):
        args += [("--format", "any"), ("json", "any")]
    return args


@st.composite
def command_lines(draw, commands=GRAMMAR_COMMANDS + ["copies"]) -> list:
    """A grammatical command line; most get a hostile piece in place of, or
    appended to, one of their arguments, mostly one that is not an option name."""
    args = draw(grammatical_lines(commands))
    argv = [arg for arg, _kind in args]
    if draw(st.integers(0, 3)):
        values = [i for i, (_arg, kind) in enumerate(args) if kind != "any"]
        i = draw(st.sampled_from(values if values and draw(st.integers(0, 3))
                                 else range(len(args))))
        kind = draw(st.sampled_from([args[i][1]] * 3 + ["any"]))
        piece = draw(st.sampled_from(HOSTILE[kind]))
        argv[i] = piece if draw(st.booleans()) else argv[i] + draw(
            st.sampled_from(["+", "^", " ", ""])) + piece
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The files the command lines name, relative to the working directory."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "hyps.txt").write_text("# hypotheses\nGCH\n2^w_1 = w_2\n")
    (d / "latin1.txt").write_bytes(b"GCH\n2^w_1 = w_2 \xff\n")
    (d / "set.json").write_text('{"prefix": [], "tail": [{"prefix": "", "period": "1"}]}')
    return d


def _check(workdir, argv) -> None:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # strict, like a UTF-8 stdout
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(workdir)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    err.seek(0)
    stderr = err.read()
    assert code in (0, 1, 2), (argv, code, stderr)
    assert "Traceback" not in stderr, argv


FUZZ = settings(derandomize=True, database=None, deadline=timedelta(seconds=5))


@settings(FUZZ, max_examples=100)
@given(argv=command_lines(GRAMMAR_COMMANDS))
def test_hostile_command_lines(workdir, argv):
    _check(workdir, argv)


@settings(FUZZ, max_examples=80)
@given(argv=command_lines(["copies"]))
def test_hostile_lab_lines(workdir, argv):
    _check(workdir, argv)


@settings(FUZZ, max_examples=30)
@given(lines=st.lists(st.one_of(st.builds(shlex.join, command_lines()),
                                st.sampled_from(["--batch batch.txt", 'norm "w+1', NOT_UTF8])),
                      min_size=1, max_size=3),
       tail=st.sampled_from([b"", b"", b"", b"norm w \xff\n"]))
def test_hostile_batch_files(workdir, lines, tail):
    # a line with a surrogate escape goes to the file as the bytes it came from
    (workdir / "batch.txt").write_bytes(os.fsencode("\n".join(lines) + "\n") + tail)
    _check(workdir, ["--batch", "batch.txt"])


LAB_COMMANDS = ["type", "member", "subset", "fuse", "embed", "reduce"]
# every subcommand and lab subcommand, an unknown name, help, a prefix of --format,
# --batch, and each option with a good and a bad value
PARSER_WORDS = (GRAMMAR_COMMANDS + ["copies"] + LAB_COMMANDS + [
    "frobnicate", "-h", "--help", "--form", "--format", "--format=json", "json", "xml",
    "--", "--batch", "batch.txt", "--card", "mu rank 5", "--assume", "GCH",
    "--assume-file", "hyps.txt", "--base", "w_1", "--power", "--rank", "2", "x", "-1",
    "w", "w^w", SETS[0], "T5.2"])


def _parse(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


COMMAND_HEADS = GRAMMAR_COMMANDS + ["copies"] + [f"copies {sub}" for sub in LAB_COMMANDS]


def _with_help_examples(test):
    """Each head followed by -h, as an explicit example: a draw reaches few of them."""
    for head in COMMAND_HEADS:
        test = example(command=head, words=["-h"])(test)
    return test


@settings(FUZZ, max_examples=200)
@given(command=st.sampled_from(COMMAND_HEADS),
       words=st.lists(st.sampled_from(PARSER_WORDS), max_size=6))
@_with_help_examples
# arguments the subcommand leaves over, which the whole grammar's top level reports
@example(command="norm", words=["w", "extra"])
@example(command="cmp", words=["w", "w_1", "--batch", "x"])
@example(command="copies type", words=[SETS[0], "--bat", "x"])
def test_subcommand_parser_parses_like_the_whole(command, words):
    """A command line's parse step, which builds the parser of the subcommand the argv
    starts with, gives the same exit status, output and namespace as the parser of
    every subcommand."""
    argv = command.split() + words
    assert _parse(_parse_line, argv) == _parse(build_parser().parse_args, argv)
