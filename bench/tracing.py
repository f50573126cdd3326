"""Layer spans for the traced run, recorded from outside the program.

`install` replaces public functions of the `copyposet` modules with timing
wrappers, in the namespace where each caller looks them up: a name bound by
``from .terms import pretty`` lives in the caller's module dict, so
``cli.pretty``, ``parser.add`` and ``rules.closure`` are patched one by one;
`finsets` is used as a module (``finsets.order_type``), so its own dict is
patched. A wrapper opens a span only on the outermost entry into its layer:
a call made while the innermost open span already belongs to the same layer
runs unwrapped apart from its counters.

A span is ``[layer, start, end, parent, request]``; spans stay in memory and
`write` saves them at the end of the run. A layer's self time is the time of
its spans minus the time covered by their child spans.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

TERMS_API = ("add", "mul", "power", "nat", "from_atom", "omega_power", "canon_exp",
             "compare", "cofinality", "cardinality", "cnf_base", "is_indecomposable",
             "pretty", "term_to_obj")
FORCING_API = ("factorize", "render_poset", "poset_to_obj", "fact_text", "rp_refine")
FINSETS_API = ("from_obj", "to_obj", "order_type", "contains_copy", "criterion_report",
               "level_set", "subset_mod_ideal", "fuse_chain", "embed_subset", "reduction",
               "fp_bool")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.request = 0

    def wrap(self, layer: str, fn, hook=None, callers=None):
        """A wrapper timing `fn` as `layer`.

        hook(result, reentrant) updates counters after each call; with
        `callers`, a span opens only when the innermost open layer is one of them.
        """
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            top = spans[stack[-1]][0] if stack else None
            if top == layer or (callers is not None and top not in callers):
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result, True)
                return result
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(result, False)
            return result
        return wrapper

    def count(self, key: str, fn):
        """A wrapper that only counts calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self) -> tuple[dict, dict]:
        """Per layer: (number of spans, self seconds)."""
        child_time = defaultdict(float)
        for layer, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (layer, start, end, _parent, _req) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[i]
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["layer", "start", "end", "parent", "request"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _patch(module, names, wrap) -> None:
    for name in names:
        if name in vars(module):
            setattr(module, name, wrap(name, getattr(module, name)))


def install(tracer: Tracer):
    """Patch every layer boundary; returns the wrapped `cli.main`."""
    from copyposet import cardinals, classify, cli, finsets, forcing, parser, rules, terms

    counts = tracer.counts

    for module in (cli, parser, classify, forcing, finsets, rules):
        _patch(module, [n for n in TERMS_API if vars(module).get(n) is getattr(terms, n)],
               lambda name, fn: tracer.wrap("terms", fn))
    for module in (cli, rules):
        _patch(module, [n for n in FORCING_API if vars(module).get(n) is getattr(forcing, n)],
               lambda name, fn: tracer.wrap("forcing", fn))
        _patch(module, ["classify_exponent"], lambda name, fn: tracer.wrap("classify", fn))

    def bool_op(_result, _reentrant):
        counts["finsets.bool_ops"] += 1
    _patch(finsets, FINSETS_API,
           lambda name, fn: tracer.wrap("finsets", fn, bool_op if name == "fp_bool" else None))

    def tokens(result, _reentrant):
        counts["parser.tokens"] += len(result)
    _patch(parser, ["tokenize"], lambda name, fn: tracer.wrap("parser", fn, tokens))
    _patch(cli, ["parse_term"], lambda name, fn: tracer.wrap("parser", fn))
    _patch(cli, ["parse_hypothesis_line"], lambda name, fn: tracer.wrap("hyps", fn))

    def closure_sizes(fb, reentrant):
        if not reentrant:
            counts["closure.universe"] += len(fb.universe)
            counts["closure.relations"] += len(fb.rels)
    _patch(rules, ["closure"], lambda name, fn: tracer.wrap("closure", fn, closure_sizes))
    cardinals.FactBase.add = tracer.count("closure.add_attempts", cardinals.FactBase.add)
    for name in ("entails_rel", "resolve"):
        setattr(cardinals.FactBase, name,
                tracer.wrap("query", getattr(cardinals.FactBase, name), callers={"rules"}))

    def analysis(report, reentrant):
        if reentrant:
            counts["rules.sub_analyses"] += 1
        else:
            counts["rules.facts"] += len(report.facts)
            counts["rules.blocked"] += len(report.blocked)
    _patch(rules, ["analyze"], lambda name, fn: tracer.wrap("rules", fn, analysis))
    _patch(cli, ["analyze"], lambda name, fn: tracer.wrap("rules", fn, analysis))
    _patch(cli, ["rule_lookup", "rule_table"], lambda name, fn: tracer.wrap("rules", fn))

    _patch(cli, ["build_parser"], lambda name, fn: tracer.wrap("cli.build_parser", fn))
    _patch(cli, ["_emit"], lambda name, fn: tracer.wrap("cli.emit", fn))
    return tracer.wrap("cli", cli.main)
