"""Seeded request generators and their oracles, one generator per workload.

A workload is an endless sequence of rounds; a round is a list of
:class:`Request`. The worker sends requests one at a time and only starts a
round if time is left, so every run ends on a round boundary and measures a
whole number of rounds. Each request carries the check that judges its
response; a check returns ``None`` for a correct response, else the reason.
The `copies member` check compares with the `copies type` response to the
same set, sent just before it in the same round.
"""
from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import refmodel as ref

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


@dataclass
class Request:
    argv: list
    check: Callable[[int, str, str], "str | None"]


def _expect(status: int, stdout: str | None = None, usage: bool = False):
    def check(rc, out, err):
        if rc != status:
            return f"exit {rc}, expected {status}; stderr {err.strip()[:200]!r}"
        if "Traceback" in out + err:
            return "traceback in output"
        if usage and not (err.startswith("error:") or "usage:" in err):
            return f"no usage or parse error on stderr: {err.strip()[:200]!r}"
        if stdout is not None and out != stdout:
            return f"stdout {out[:200]!r}, expected {stdout[:200]!r}"
        return None
    return check


def _then(first, second):
    """Run the status check first, then a check of the parsed output."""
    def check(rc, out, err):
        return first(rc, out, err) or second(out)
    return check


# -- desk: cheap mixed requests, no closure work ---------------------------------

BUILTINS = [ref.W1, ref.W2, ref.W3]
USER_ATOMS = [ref.MU, ref.NU]

# Hand-labelled exponents for `classify`, with the case each must receive:
# A successor or cf = w; B theta + kappa with cf(theta) = w; C theta + kappa with
# w < cf(theta) < kappa; D theta + kappa with theta = 0 or cf(theta) >= kappa > w;
# E cf > w and not of the form theta + kappa.
CLASSIFY_CORPUS = [
    ("w_2+1", "A"), ("w_2+w", "A"), ("w_1*w", "A"), ("w^w", "A"), ("w_1^2*w", "A"),
    ("w_1*w + w_1", "B"), ("w_2*w + w_2", "B"), ("w_1^2*w + w_1", "B"),
    ("w_2*w_1 + w_2", "C"), ("w_3*w_1 + w_3", "C"), ("w_3*w_2 + w_3", "C"),
    ("w_1", "D"), ("w_2", "D"), ("w_1*2", "D"), ("w_1*3", "D"), ("w_2+w_2", "D"),
    ("w_1*(w+2)", "D"), ("w_1^2 + w_1", "D"), ("w_1^2 + w_1*2", "D"),
    ("w_1^3 + w_1*(w+3)", "D"), ("w_1^2*(w+1) + w_1", "D"), ("w_1^w_1 + w_1", "D"),
    ("w_1^(w+1)*3 + w_1", "D"), ("w_1^(w_1+1) + w_1^w_1*2 + w_1", "D"),
    ("w_1^(w_1*2) + w_1", "D"), ("w_2*w_2 + w_2", "D"),
    ("w_1^2", "E"), ("w_1^3", "E"), ("w_1^(w+1)", "E"), ("w_1^(w_1+1)", "E"),
    ("w_1^2*2", "E"), ("w_1^w_1", "E"), ("w_1^w_1*2", "E"), ("w_1^(w_1^2)", "E"),
    ("w_2*w_2", "E"),
]

# Requests that must end in a usage or parse error (exit 2).
MALFORMED = [
    ["norm", "w_1 +"], ["norm", "w^(w_1"], ["cmp", "w_1", "w_1 @ 2"], ["cof", "w_9x"],
    ["card", "(w+1))"], ["cnfbase", "w_2*w_1", "--base", "zeta"], ["frobnicate", "w"],
    ["copies", "type", "{not json"], ["copies", "type", '{"prefix": "012", "period": "1"}'],
    ["classify"], ["rules", "T9.9"], ["norm", "nu + 1"],
]

LAWS = [
    ("({a} + {b}) + {c}", "{a} + ({b} + {c})"),
    ("({a} * {b}) * {c}", "{a} * ({b} * {c})"),
    ("{a} * ({b} + {c})", "{a} * {b} + {a} * {c}"),
    ("{a} ^ ({b} + {c})", "{a} ^ {b} * {a} ^ {c}"),
    ("({a} ^ {b}) ^ {c}", "{a} ^ ({b} * {c})"),
]

# Bit densities of random sets: sparse sets often hold no full copy.
DENSITIES = (0.15, 0.3, 0.5, 0.8)

CMP_WORD = {-1: "less", 0: "equal", 1: "greater"}


def _term(rng, depth=3, user=False):
    """Mostly infinite terms; a finite one now and then."""
    atoms = BUILTINS + (USER_ATOMS if user else [])
    t = ref.random_term(rng, atoms, depth)
    while ref.is_finite(t) and rng.random() < 0.9:
        t = ref.random_term(rng, atoms, depth)
    return t


def _decls(*terms) -> list:
    argv = []
    for atom in sorted(set().union(*(ref.atoms_in(t) for t in terms)), key=lambda a: a.rank):
        if atom.decl:
            argv += ["--card", atom.decl]
    return argv


def _paren(rng, t) -> str:
    return f"({ref.spell(t, rng)})"


def _law_requests(rng) -> list:
    out = []
    for lhs, rhs in LAWS:
        a, b, c = (_term(rng, 2) for _ in range(3))
        texts = {k: _paren(rng, t) for k, t in zip("abc", (a, b, c))}
        out.append(Request(["cmp", lhs.format(**texts), rhs.format(**texts)],
                           _expect(0, "equal\n")))
    return out


def _cmp_pair(rng) -> list:
    user = rng.random() < 0.3
    a, b = _term(rng, user=user), _term(rng, user=user)
    if rng.random() < 0.2:
        b = a
    sa, sb = ref.spell(a, rng), ref.spell(b, rng)
    want = ref.compare(a, b)
    decls = _decls(a, b)
    return [Request(["cmp", sa, sb] + decls, _expect(0, CMP_WORD[want] + "\n")),
            Request(["cmp", sb, sa] + decls, _expect(0, CMP_WORD[-want] + "\n"))]


def _term_requests(rng) -> list:
    out = []
    for _ in range(2):
        t = _term(rng, user=rng.random() < 0.3)
        out.append(Request(["norm", ref.spell(t, rng)] + _decls(t),
                           _expect(0, ref.pretty(t) + "\n")))
    for _ in range(2):
        t = _term(rng, user=rng.random() < 0.3)
        out.append(Request(["cof", ref.spell(t, rng)] + _decls(t),
                           _expect(0, ref.cofinality_text(t) + "\n")))
    for _ in range(2):
        t = _term(rng, user=rng.random() < 0.3)
        out.append(Request(["card", ref.spell(t, rng)] + _decls(t),
                           _expect(0, ref.cardinality_text(t) + "\n")))
    for _ in range(2):
        t = _term(rng)
        base = rng.choice(BUILTINS)
        out.append(Request(["cnfbase", ref.spell(t, rng), "--base", base.name, "--format", "json"],
                           _then(_expect(0), _cnfbase_check(t, base))))
    for _ in range(2):
        t = _term(rng, user=rng.random() < 0.3)
        while ref.compare(t, ref.OMEGA) < 0:
            t = _term(rng)
        notes = [f"note: sq(P({e.name})) = CP({e.name})" if isinstance(e, ref.Atom)
                 else "note: sq(P(w)) = CP(w)" for e, _c in t[0]
                 if isinstance(e, ref.Atom) or e == ref.ONE]
        want = "\n".join([ref.factor_text(t)] + notes) + "\n"
        out.append(Request(["factorize", ref.spell(t, rng)] + _decls(t), _expect(0, want)))
    return out


def _cnfbase_check(t, base):
    atoms = {a.name: a for a in BUILTINS}

    def check(out):
        obj = json.loads(out)
        base_ord = (((base, 1),), 0)
        if obj["indecomposable_input"] != ref.is_indecomposable(t):
            return "indecomposable_input disagrees"
        digits = [(ref.from_obj(x, atoms), ref.from_obj(z, atoms)) for x, z in obj["digits"]]
        remainder = ref.from_obj(obj["remainder"], atoms)
        if ref.compare(remainder, base_ord) >= 0:
            return "remainder not below the base"
        for i, (xi, zeta) in enumerate(digits):
            if ref.is_zero(zeta) or ref.compare(zeta, base_ord) >= 0:
                return "digit coefficient out of range"
            if i and ref.compare(digits[i - 1][0], xi) <= 0:
                return "digit exponents not strictly decreasing"
        if all(a.rank < base.rank for a in ref.atoms_in(t)):
            if digits or remainder != t:
                return "a term below the base must be its own remainder"
        return None
    return check


def _classify_requests(rng, count: int) -> list:
    out = []
    for text, label in rng.sample(CLASSIFY_CORPUS, count):
        out.append(Request(["classify", text], _then(
            _expect(0), lambda o, label=label: None if o.startswith(f"case {label}\n")
            else f"classified {o.splitlines()[0]!r}, expected case {label}")))
    return out


def _set_arg(s, rank) -> str:
    return json.dumps(ref.to_obj(s, rank))


def _copies_requests(rng) -> list:
    out = []
    for rank in (2, 2, 3):
        s = ref.random_set(rng, rank, rng.choice(DENSITIES))
        want_type = ref.pretty(ref.order_type(s, rank))
        seen = {}

        def type_check(o, seen=seen, want=want_type):
            seen["type"] = o.strip()
            return None if o == want + "\n" else f"type {o.strip()!r}, expected {want!r}"

        def member_check(o, seen=seen, rank=rank):
            verdict = o.splitlines()[0]
            agrees = (verdict == f"w^{rank} embeds: yes") == (seen.get("type") == f"w^{rank}")
            return None if agrees else f"{verdict!r} disagrees with type {seen.get('type')!r}"

        out.append(Request(["copies", "type", _set_arg(s, rank)], _then(_expect(0), type_check)))
        out.append(Request(["copies", "member", _set_arg(s, rank), "--power", str(rank)],
                           _then(_expect(0), member_check)))
    for rank in (2, 3):
        b = ref.random_set(rng, rank, rng.choice(DENSITIES))
        a = ref.thin(b, rng, rank)
        out.append(Request(["copies", "subset", _set_arg(a, rank), _set_arg(b, rank)],
                           _expect(0, "yes\n")))
        if not ref.has_copy(b, rank):
            out.append(Request(["copies", "subset", _set_arg(ref.full(rank), rank),
                                _set_arg(b, rank)], _expect(0, "no\n")))
    rank = rng.choice((2, 3))
    s = ref.random_set(rng, rank, rng.choice(DENSITIES))
    if ref.has_copy(s, rank):
        want = json.dumps(ref.to_obj(ref.top_level_set(s, rank), 1)) + "\n"
        out.append(Request(["copies", "reduce", _set_arg(s, rank)], _expect(0, want)))
    else:
        out.append(Request(["copies", "reduce", _set_arg(s, rank)], _expect(1)))
    chain = ref.descending_chain(rng, 3)
    rank = rng.choice((2, 3))
    want = json.dumps(ref.to_obj(ref.embed(chain[0], rank), rank)) + "\n"
    out.append(Request(["copies", "embed", _set_arg(chain[0], 1), "--rank", str(rank)],
                       _expect(0, want)))
    literals = [_set_arg(ref.embed(s, rank), rank) for s in chain]

    def fused_check(o, rank=rank):
        fused = ref.set_from_obj(json.loads(o), rank)
        return None if ref.has_copy(fused, rank) else "fused set holds no copy"

    out.append(Request(["copies", "fuse"] + literals, _then(_expect(0), fused_check)))
    return out


def desk_rounds(rng) -> Iterator[list]:
    while True:
        reqs = _law_requests(rng)
        for _ in range(3):
            reqs += _cmp_pair(rng)
        reqs += _term_requests(rng)
        reqs += _classify_requests(rng, 5)
        reqs += _copies_requests(rng)
        rule = rng.choice(["T5.2", "T5.6", "F2.6b", "T4.10"])
        reqs.append(Request(["rules", rule], _then(
            _expect(0), lambda o, rule=rule: None if o.startswith(f"{rule}: ")
            else f"catalog entry {o[:60]!r} is not {rule}")))
        reqs.append(Request(list(rng.choice(MALFORMED)), _expect(2, "", usage=True)))
        yield reqs


# -- derive: the golden scenarios, spelled differently each time -----------------

# name -> (alpha spellings, card declarations, hypothesis lines with spellings)
DERIVE = {
    "t410_countable": (["w^w", "w^(1+w)", "w^(2 + w)"], [],
                       [["h < c", "c > h"], ["c = w_2", "w_2 = c"],
                        ["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t410_case_a": (["w^(w_1+1)", "w_1*w", "w^w_1*w", "w^(1 + w_1 + 1)"], [],
                    [["h < c", "c > h"], ["c = w_2", "w_2 = c"],
                     ["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t410_case_b": (["w^(w_1*w + w_1)", "w^(w_1*w)*w_1", "w^(w_1*w)*w^w_1"], [],
                    [["h < c", "c > h"], ["c = w_2", "w_2 = c"],
                     ["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t410_case_d": (["w^(w_1)", "w_1", "w^w_1", "w^w^w_1"], [],
                    [["h < c", "c > h"], ["c = w_2", "w_2 = c"],
                     ["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t410_case_e": (["w^(w_1*w_1)", "w_1^w_1", "w^(w_1^2)"], [],
                    [["h < c", "c > h"], ["c = w_2", "w_2 = c"],
                     ["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t52_ch": (["w^(w_1)", "w_1", "w^w_1"], [], [["CH"]]),
    "t52_power_pinch": (["w^(w_1)", "w_1", "w^w^w_1"], [], [["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t54_singular": (["w^(ksing)", "ksing", "w^ksing"], ["ksing rank 40 singular cf w_1"],
                     [["2^w_1 < ksing", "ksing > 2^w_1"],
                      ["2^ksing = succ(ksing)", "succ(ksing) = 2^ksing"]]),
    "t56_n1": (["w^(w_1+1)", "w_1*w", "w^(1 + w_1 + 1)"], [],
               [["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t56_n2": (["w^(w_1+2)", "w_1*w^2", "w^(w_1+1)*w", "w_1*w*w"], [],
               [["2^w_1 = w_2", "w_2 = 2^w_1"]]),
    "t58_mu_a": (["w^(mu)", "mu", "w^mu"], ["mu rank 100 singular cf w"],
                 [["2^mu = succ(mu)", "succ(mu) = 2^mu"]]),
    "t58_mu_b": (["w^(mu)", "mu", "w^mu"], ["mu rank 100 singular cf w"],
                 [["2^<mu = mu", "mu = 2^<mu"]]),
    "t58_mu_c": (["w^(mu)", "mu", "w^mu"], ["mu rank 100 singular cf w"], [["MA mu=mu"]]),
    "t58_mu_d": (["w^(mu)", "mu", "w^mu"],
                 ["mu rank 100 singular cf w", "kreg rank 200"], [["CohenModel(kreg)"]]),
    "ex53_negative": (["w^(w_1)", "w_1", "w^w_1"], [],
                      [["cc(CP(w_1)) = w_3", "w_3 = cc(CP(w_1))"],
                       ["w_3 < 2^w_1", "2^w_1 > w_3"]]),
    "ex57_cohen": (["w^(w_1+1)", "w_1*w", "w^w_1*w"], [], [["CohenModel(w_5)"]]),
}

# Contradictory hypothesis sets: exit 1 with a non-empty derivation chain.
CONTRADICTIONS = [
    ("w^(w_1)", ["CH", "c = w_2"]),
    ("w^(w_1+1)", ["2^w_1 = w_1"]),
    ("w^w", ["h < c", "c = w_1"]),
    ("w^(w_1*w_1)", ["w_2 < w_1"]),
]


def snapshot(response: dict) -> dict:
    """The golden snapshot rebuilt from a JSON `analyze` response."""
    def fact(f):
        resolved = f.get("resolved", {})
        ops = [resolved.get(str(i), _operand_text(o)) for i, o in enumerate(f["operands"])]
        return {"kind": f["kind"], "operands": ops,
                "rules": sorted({s["rule"] for s in f["trace"]})}

    obj = {"facts": [fact(f) for f in response["facts"]],
           "ro_conclusion": fact(response["ro_conclusion"])
           if "ro_conclusion" in response else None}
    if obj["ro_conclusion"] is None:
        obj["blocked"] = [[b["rule"], b["unknown_premises"]]
                          for b in response["undetermined"]["blocked_rules"]]
    if "resolutions" in response:
        obj["resolutions"] = response["resolutions"]
    return obj


def _operand_text(o) -> str:
    if isinstance(o, dict):
        return o["cardinal"] if "cardinal" in o else o["pretty"]
    return str(o)


def _golden_check(expected: dict):
    def check(out):
        got = snapshot(json.loads(out))
        for key in ("facts", "ro_conclusion", "blocked", "resolutions"):
            if got.get(key) != expected.get(key):
                return f"{key} differ from the golden snapshot"
        return None
    return check


def _chain_check(rc, out, err):
    lines = err.splitlines()
    if rc != 1 or not lines or not lines[0].startswith("error: contradictory hypotheses"):
        return f"exit {rc}, expected 1 with a contradiction; stderr {err.strip()[:200]!r}"
    if not any(line.startswith("  ") for line in lines[1:]):
        return "empty derivation chain"
    if "Traceback" in out + err:
        return "traceback in output"
    return None


def _analyze_argv(alpha: str, cards: list, hyps: list, rng) -> list:
    argv = ["analyze", alpha, "--format", "json"]
    for decl in cards:
        argv += ["--card", decl] if rng.random() < 0.5 else ["--assume", f"card {decl}"]
    hyps = list(hyps)
    rng.shuffle(hyps)
    for line in hyps:
        argv += ["--assume", line]
    return argv


def derive_rounds(rng) -> Iterator[list]:
    goldens = {name: json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
               for name in DERIVE}
    while True:
        reqs = []
        for name, (alphas, cards, hyp_choices) in DERIVE.items():
            hyps = [rng.choice(choices) for choices in hyp_choices]
            argv = _analyze_argv(rng.choice(alphas), cards, hyps, rng)
            reqs.append(Request(argv, _then(_expect(0), _golden_check(goldens[name]))))
        for alpha, hyps in CONTRADICTIONS:
            reqs.append(Request(_analyze_argv(alpha, [], hyps, rng), _chain_check))
        rng.shuffle(reqs)
        yield reqs


# -- saturate: dense GCH closures over a ladder of universe sizes ----------------

LADDER = range(2, 9)  # k: the hypothesis w_k < 2^w_k pulls w_1..w_k into the universe


def _saturate_check(n: int):
    want = [f"sq(P(w^(w_1 + {n})))", "Col(w_1, w_2)"]

    def check(out):
        ro = snapshot(json.loads(out))["ro_conclusion"]
        if ro is None or ro["kind"] != "RoIso" or ro["operands"] != want \
                or "T5.6" not in ro["rules"]:
            return f"conclusion {ro!r}, expected RoIso {want} by T5.6"
        return None
    return check


def saturate_rounds(rng) -> Iterator[list]:
    offset = rng.randrange(4)
    for round_no in range(1_000):
        n = 1 + offset + round_no  # a new n every round: no problem repeats in a run
        reqs = []
        for k in LADDER:
            alpha = rng.choice([f"w^(w_1+{n})", f"w_1*w^{n}", f"w^(1+w_1+{n})"])
            hyps = ["GCH", rng.choice(["2^w_1 = w_2", "w_2 = 2^w_1"]),
                    rng.choice([f"w_{k} < 2^w_{k}", f"2^w_{k} > w_{k}"])]
            reqs.append(Request(_analyze_argv(alpha, [], hyps, rng),
                                _then(_expect(0), _saturate_check(n))))
        rng.shuffle(reqs)
        yield reqs


WORKLOADS = {"desk": desk_rounds, "derive": derive_rounds, "saturate": saturate_rounds}


def rounds(workload: str, seed: int) -> Iterator[list]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
