"""The byte-identity corpus: command lines with a digest of what each one prints.

``cli_corpus.txt`` holds one command line a line, as ``<sha256> <argv>`` with the
argv written by ``shlex.join``; the digest is taken over the exit status, stdout
and stderr of ``copyposet.cli.main(argv)``, run in process with the lines before
it. Every line runs in this directory (the batch lines read
``cli_corpus_batch.txt``) with ``COLUMNS=80``, the width argparse wraps help to.

The lines are drawn from seeded rounds of the benchmark's three workloads (a
``derive`` round holds the contradictions too), with every ``analyze`` line in
text and in JSON, plus help, usage errors, option prefixes, ``--batch`` lines and
JSON lines for a product, the rule table and every other subcommand.
Regenerate the file only when the output changes on purpose, and name each
changed line in CHANGES.md; the script prints every line whose digest changed (or
that is new) and counts the lines that kept theirs:

    PYTHONPATH=src python3 tests/cli_corpus.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
from unittest import mock

from copyposet import cli

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.txt"

# rounds drawn from each workload, all with one seed
_ROUNDS = {"desk": 8, "derive": 4, "saturate": 3}
_SEED = 17

_EXTRA = [
    # help, top level and per subcommand
    ["-h"], ["--help"], ["norm", "-h"], ["cmp", "--help"], ["cnfbase", "-h"],
    ["classify", "-h"], ["analyze", "--help"], ["rules", "-h"], ["copies", "-h"],
    ["copies", "type", "-h"], ["copies", "member", "--help"], ["copies", "fuse", "-h"],
    # usage errors
    [], ["frobnicate", "w"], ["norm"], ["cmp", "w"], ["norm", "w", "extra"],
    ["norm", "w", "--format", "xml"], ["norm", "w", "--bogus"], ["cnfbase", "w_1"],
    ["copies"], ["copies", "type"], ["copies", "member", '{"prefix": "", "period": "1"}'],
    ["copies", "member", '{"prefix": "", "period": "1"}', "--power", "two"],
    ["copies", "--format", "json", "type", '{"prefix": "", "period": "1"}'],
    ["copies", "type", '{"prefix": "", "period": "1"}', "--card", "mu rank 5"],
    ["analyze", "w^w", "--assume"], ["analyze", "w^w", "--assume", "2^w_1 = "],
    ["analyze", "w^mu"], ["analyze", "w^w", "--card", "mu rank"],
    ["analyze", "w^w", "--assume-file", "no-such-file.txt"], ["cmp", "w", "w_1", "--batch", "x"],
    # option prefixes: unique ones stand for their option, an ambiguous one is an error
    ["norm", "w_1*2", "--form", "json"], ["norm", "w_1*2", "--f", "json"],
    ["norm", "mu + 1", "--car", "mu rank 5"], ["norm", "mu + 1", "--c", "mu rank 5"],
    ["analyze", "w^(w_1+1)", "--assume=2^w_1 = w_2", "--format=json"],
    ["analyze", "w^(w_1+1)", "--ass", "2^w_1 = w_2"], ["analyze", "w^w", "--as", "CH"],
    ["analyze", "w^w", "--assume-f", "no-such-file.txt"],
    ["cnfbase", "w_2*w_1 + 3", "--ba", "w_1"], ["cnfbase", "w_2*w_1 + 3", "--b=w_1"],
    ["copies", "member", '{"prefix": "", "period": "1"}', "--pow", "1"],
    ["copies", "embed", '{"prefix": "", "period": "10"}', "--r", "2", "--form", "json"],
    ["--bat", "cli_corpus_batch.txt"],
    # --batch: an empty path takes no command and cannot be read; a batch file runs
    # its lines, one of which nests --batch ''
    ["--batch", "", "cmp", "w", "w_1"], ["--batch", ""], ["--batch", "cli_corpus_batch.txt"],
    # JSON of a product, of the whole rule table and of every other subcommand
    ["factorize", "w^(w_2)*2 + w^3 + 5", "--format", "json"],
    *[["analyze", alpha, "--assume", "h < c", "--assume", "c = w_2",
       "--assume", "2^w_1 = w_2", *fmt]
      for alpha in ("w^w*2", "w_1*3 + w^w + 5", "w^(w_1+1)*2 + w^w_1")
      for fmt in ([], ["--format", "json"])],
    ["classify", "w_2*w_1 + w_2", "--format", "json"],  # case C
    ["classify", "w_1^w_1", "--format", "json"],  # case E, power-limit route
    ["rules"], ["rules", "--format", "json"],
    ["cof", "w_2*w_1", "--format", "json"], ["card", "w^(w_2+w_1)", "--format", "json"],
    ["cmp", "w_1+w", "w_1*2", "--format", "json"],
    ["copies", "type", '{"prefix": [], "tail": [{"prefix": "", "period": "1"}]}',
     "--format", "json"],
    ["copies", "member", '{"prefix": [], "tail": [{"prefix": "", "period": "1"}]}',
     "--power", "2", "--format", "json"],
    ["copies", "subset", '{"prefix": "", "period": "10"}', '{"prefix": "", "period": "1"}',
     "--format", "json"],
    ["copies", "fuse", '{"prefix": [], "tail": [{"prefix": "", "period": "1"}]}',
     '{"prefix": [], "tail": [{"prefix": "", "period": "10"}]}',
     '{"prefix": [], "tail": [{"prefix": "", "period": "1000"}]}', "--format", "json"],
    ["copies", "reduce", '{"prefix": [], "tail": [{"prefix": "", "period": "10"}]}',
     "--format", "json"],
    # two exponents over one delta0, each with its own T5.6 sub-analysis of w^(w_1);
    # T5.6 on a countable delta0, which its guard leaves to the countable rules
    *[["analyze", alpha, "--assume", hyp, *fmt]
      for alpha, hyp in (("w^(w_1+2) + w^(w_1+1)", "2^w_1 = w_2"), ("w^(w+1)", "CH"),
                         ("w^(w+1)", "2^w_1 = w_2"))
      for fmt in ([], ["--format", "json"])],
    ["cnfbase", "w_2*w_1", "--base", "zeta"],  # an unknown base atom
    # T5.6 of w^(w_2+1) reads its parent's closure, whose candidates from w^(w_6+1)
    # resolve 2^w_2 to w_5; w^(w_2)'s own closure lacks w_5
    *[["analyze", "w^(w_6+1) + w^(w_2+1)", "--assume", "2^w_1 = w_3",
       "--assume", "2^w_2 = succ(succ(2^w_1))", "--assume", "2^w_2 < cc(CP(w_2))", *fmt]
      for fmt in ([], ["--format", "json"])],
    # case E: sq(P(ksing)) collapses 2^ksing = succ(ksing) > w_3 to w, so it preserves
    # no cardinal >= cc(CP(cf(ksing))) = w_3, and F2.6e claims none
    *[["analyze", "w^(ksing)", "--card", "ksing rank 40 singular cf w_1",
       "--assume", "cc(CP(w_1)) = w_3", "--assume", "2^w_1 < ksing",
       "--assume", "2^ksing = succ(ksing)", *fmt]
      for fmt in ([], ["--format", "json"])],
    # numerals are ASCII: each non-ASCII digit is an unexpected character (exit 2)
    ["norm", "w^²"], ["norm", "w*٣"], ["analyze", "w^mu", "--card", "mu rank ²"],
    ["analyze", "w^w_1", "--assume", "card mu rank ²"],
]


def _argvs() -> list[list[str]]:
    """The corpus's command lines, drawn from the benchmark's request generators."""
    sys.path.insert(0, str(HERE.parent / "bench"))
    import workloads

    argvs = []
    for workload, count in _ROUNDS.items():
        rounds = workloads.rounds(workload, _SEED)
        for _ in range(count):
            for request in next(rounds):
                argv = request.argv
                argvs.append(argv)
                if argv[0] == "analyze":  # the generators send analyze as JSON
                    at = argv.index("--format")
                    argvs.append(argv[:at] + argv[at + 2:])
    return argvs + _EXTRA


def digest(argv: list[str]) -> str:
    """sha256 of the exit status, stdout and stderr of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return hashlib.sha256(json.dumps([status, out.getvalue(), err.getvalue()]).encode()
                          ).hexdigest()


@contextlib.contextmanager
def corpus_setting():
    """The directory and terminal width every corpus line runs with."""
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            yield
    finally:
        os.chdir(cwd)


def read() -> list[tuple[str, list[str]]]:
    """The corpus's (digest, argv) pairs, in file order."""
    pairs = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            sha, _, command = line.partition(" ")
            pairs.append((sha, shlex.split(command)))
    return pairs


def main() -> None:
    old = {shlex.join(argv): sha for sha, argv in read()} if CORPUS.exists() else {}
    argvs = _argvs()
    with corpus_setting():
        lines = [f"{digest(argv)} {shlex.join(argv)}" for argv in argvs]
    header = "# <sha256 of [status, stdout, stderr] as JSON> <argv>; see cli_corpus.py\n"
    CORPUS.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    kept = 0
    for number, line in enumerate(lines, 1):
        sha, _, command = line.partition(" ")
        if old.get(command) == sha:
            kept += 1
        else:
            print(f"{'changed' if command in old else 'new'}: line {number}: {command}")
    print(f"wrote {len(lines)} lines to {CORPUS}; {kept} kept their digest")


if __name__ == "__main__":
    main()
