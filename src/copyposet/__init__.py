"""copyposet: a symbolic workbench for posets of copies of ordinals."""

from .atoms import AtomRegistry, CardinalAtom, AtomError
from .terms import (
    OrdinalTerm, OrdinalError, BaseCNF, CardinalityValue, ZERO, ONE, OMEGA,
    add, mul, power, compare, cofinality, cardinality, cnf_base,
    is_indecomposable, nat, from_atom, omega_power, pretty,
)
from .parser import ParseError, parse_term
from .classify import CaseReport, SequenceSchema, classify_exponent, \
    fundamental_description, instantiate
from .cardexpr import (
    CardinalExpr, Hypothesis, HypothesisError, ContradictionError,
    parse_hypotheses, parse_hypothesis_line, parse_cardinal_expr,
)
from .forcing import PosetExpr, ForcingFact, fact_text, factorize, rp_refine
from .catalog import rule_table, rule_lookup

__version__ = "0.1.0"

# the closure and the analyzer load on first access (PEP 562), so importing the
# package, as every CLI command does, compiles neither unless it is used
_LAZY = {"FactBase": "cardinals", "closure": "cardinals", "entails": "cardinals",
         "cohen_transfer": "cardinals", "AnalysisReport": "rules", "analyze": "rules"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
