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
from .cardinals import (
    CardinalExpr, Hypothesis, FactBase, HypothesisError, ContradictionError,
    closure, entails, cohen_transfer, parse_hypotheses,
    parse_hypothesis_line, parse_cardinal_expr,
)
from .forcing import PosetExpr, ForcingFact, fact_text, factorize, rp_refine
from .rules import AnalysisReport, analyze, rule_table, rule_lookup

__version__ = "0.1.0"
