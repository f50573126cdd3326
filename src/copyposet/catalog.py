"""The rule catalog: the id, premises and conclusion of every rule the analyzer
cites, and the schema version of the JSON responses. The engine (``rules``) never
reads the catalog, so ``copyposet rules`` loads this module alone."""
from __future__ import annotations

from .values import Value, init

SCHEMA_VERSION = 1


class RuleInfo(Value):
    __slots__ = ("id", "premises", "conclusion")

    def __init__(self, id: str, premises: str, conclusion: str) -> None:
        init(self, "id", id)
        init(self, "premises", premises)
        init(self, "conclusion", conclusion)


_CATALOG = [
    RuleInfo("T1.1a", "every CNF exponent of alpha is countable",
             "sq P(w^delta) is forcing equivalent to CP(w) * pi with pi a "
             "sigma-closed separative poset"),
    RuleInfo("T1.1b", "delta countable; h = w_1",
             "ro(sq P(w^delta)) ~ ro(CP(w))"),
    RuleInfo("T3.2", "alpha infinite, CNF w^{d_n}s_n + ... + w^{d_1}s_1 + m",
             "sq P(alpha) ~ product of (sq P(w^{d_i}))^{s_i}, tail dropped"),
    RuleInfo("T4.6", "w^delta is a kappa-sum of w^{delta_xi} with "
                     "cf(w^{delta_xi}) >= kappa",
             "CP(kappa) completely embeds into sq P(w^delta)"),
    RuleInfo("T4.7A", "case A (delta successor or cf(delta) = w)",
             "sq P(w^delta) sigma-closed; CP(w) completely embeds"),
    RuleInfo("T4.7B", "case B (delta = theta + kappa, cf(theta) = w)",
             "sq P(w^delta) sigma-closed; CP(w) completely embeds"),
    RuleInfo("T4.7C", "case C (delta = theta + kappa, w < lambda = cf(theta) < kappa)",
             "CP(lambda) completely embeds; collapses w_2 to w"),
    RuleInfo("T4.7D", "case D (delta = theta + kappa, theta = 0 or cf(theta) >= kappa)",
             "CP(kappa) completely embeds; collapses w_2 to w"),
    RuleInfo("T4.7E", "case E (delta a kappa-limit of cf-kappa ordinals)",
             "CP(kappa) completely embeds; collapses w_2 to w"),
    RuleInfo("T4.8", "delta = theta + kappa with lambda = cf(theta) < kappa",
             "CP(lambda) completely embeds into sq P(w^delta)"),
    RuleInfo("T4.9a", "every exponent in case A or B",
             "sq P(alpha) sigma-closed; CP(w)^k completely embeds, k the "
             "number of CNF factors"),
    RuleInfo("T4.9b", "some exponent in case C, D or E; optionally "
                      "cc(CP(lambda)) = succ(2^|alpha|)",
             "CP(lambda) completely embeds; collapses w_2 to w; optionally "
             "ro ~ Col(w, 2^|alpha|)"),
    RuleInfo("T4.10", "h < c; c = w_2; 2^w_1 = c; delta < w_2",
             "ro(sq P(w^delta)) ~ Col(w_1, c) in cases A/B or countable delta, "
             "~ Col(w, c) in cases D/E"),
    RuleInfo("T5.2", "case D or E; 2^cf(delta) = 2^|delta|; "
                     "2^<cf(delta) = cf(delta) or 2^cf(delta) = succ(cf(delta))",
             "ro(sq P(w^delta)) ~ Col(w, 2^|delta|)"),
    RuleInfo("T5.4", "delta a singular atom kappa with kappa > 2^cf(kappa), "
                     "cf(kappa) > w, 2^kappa = succ(kappa)",
             "ro(sq P(w^kappa)) ~ Col(w, 2^kappa)"),
    RuleInfo("T5.6", "delta = delta0 + n, n >= 1, delta0 >= w_1; sq P(w^delta0) "
                     "collapses 2^|delta0| to w, or is sigma-closed and "
                     "collapses it to w_1",
             "ro(sq P(w^(delta0+n))) ~ Col(w_1, 2^|delta0|)"),
    RuleInfo("T5.8", "delta a singular atom mu with cf(mu) = w and mu^w = 2^mu",
             "ro(sq P(w^mu)) ~ Col(w_1, 2^mu)"),
    RuleInfo("F2.4", "Cohen model over a GCH ground for c = kappa",
             "c = kappa; theta^mu computed in the ground model"),
    RuleInfo("F2.5", "separative lambda-closed P of size kappa = kappa^<lambda "
                     "forcing |kappa| = lambda",
             "ro(sq P) ~ Col(lambda, kappa)"),
    RuleInfo("F2.6a", "kappa infinite",
             "succ(succ(kappa)) <= cc(CP(kappa)) <= succ(2^kappa); cc is the "
             "least size admitting no antichain"),
    RuleInfo("F2.6b", "CP(w) completely embeds", "the poset collapses c to h"),
    RuleInfo("F2.6c", "kappa > cf(kappa) = w",
             "Col(w_1, kappa^w) completely embeds into ro(CP(kappa))"),
    RuleInfo("F2.6d", "kappa > 2^cf(kappa) > cf(kappa) > w",
             "Col(w, succ(kappa)) completely embeds into ro(CP(kappa))"),
    RuleInfo("F2.6e", "kappa regular uncountable; mu < cc(CP(kappa))",
             "CP(kappa) collapses mu to w"),
    RuleInfo("F5.1", "sq P(w^delta) lambda-closed and collapses 2^|delta| to "
                     "lambda, lambda in {w, w_1}, 2^|delta| > lambda",
             "ro(sq P(w^delta)) ~ Col(lambda, 2^|delta|)"),
    RuleInfo("F5.5a", "delta >= 1, n natural",
             "sq P(w^(delta+n)) ~ (rp^n(P(w^delta)/I))+"),
    RuleInfo("F5.5b", "kappa^w = kappa >= c",
             "ro(rp^n(Col(w, kappa))) ~ Col(w_1, kappa)"),
    RuleInfo("F5.5c", "kappa >= 2",
             "ro(rp^n(Col(w_1, kappa))) ~ Col(w_1, kappa^w)"),
    RuleInfo("Ex5.3", "delta a regular atom kappa; cc(CP(kappa)) determined",
             "ro ~ Col(w, 2^kappa) iff cc(CP(kappa)) = succ(2^kappa); "
             "cc-many cardinals preserved"),
    RuleInfo("sq-cp-ident", "delta a cardinal atom (so w^delta = delta)",
             "sq P(w^delta) = CP(delta)"),
    RuleInfo("roiso-trans", "ro(P) ~ ro(Q) and ro(Q) ~ ro(R)", "ro(P) ~ ro(R)"),
]

_CATALOG_BY_ID = {r.id: r for r in _CATALOG}


def rule_table() -> list[RuleInfo]:
    return list(_CATALOG)


def rule_lookup(rule_id: str) -> RuleInfo | None:
    return _CATALOG_BY_ID.get(rule_id)
