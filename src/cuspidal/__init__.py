"""Exact invariants of plane cusp singularities.

The package computes, over exact rationals: truncated standard bases for the
local weighted order, the semimodule of differential values of a cusp via
Delorme's algorithm, Newton-Puiseux parametrizations used as independent
value oracles, Jacobian-ideal standard bases with the Tjurina number, and
certified subsets of Bernstein-Sato roots through an exact residue
criterion.  Every residue is zero or a single Gamma group, so each decision
is exact, and a root verdict is its kind, its root and the test exponent
whose residue is nonzero; mpmath is loaded only to display a residue's
value as an interval.
"""
from __future__ import annotations

from .bernstein import (Certificate, DeltaSequence, FourReport, GammaExpr,
                        NegativeK, PreconditionViolation, ResidueDecision,
                        RootCandidate, RootDecision, ZariskiReport,
                        certified_roots_from_semimodule, decide_root,
                        delta_sequences, four_condition_check,
                        interval_certificate, residue, residue_is_zero,
                        zariski_condition_check)
from .curve import (CurveEquation, CuspidalSets, NoSolution, NotAdapted,
                    Parametrization, Semigroup, cuspidal_sets, newton_puiseux)
from .differentials import (DifferentialBasis, OneForm, ValueMismatch,
                            apply_vector_field, delorme,
                            differential_value, monomial_value,
                            oracle_differential_value, random_form)
from .jacobian import (jacobian_basis_direct, jacobian_basis_via_differentials,
                       tjurina_number)
from .poly import Exponent, Term, TruncatedPoly, WeightedOrder, divides
from .rationals import Rat, rat
from .semimodules import (AbstractSemimodule, FourClassification, Unclassifiable,
                          classify_four, elements_outside, enumerate_increasing,
                          validate_basis)
from .specfile import (CoefficientOutsideJ, CurveSpec, InvalidPair, ParseError,
                       SpecError, parse_spec)
from .standard_basis import (FinalReduction, HorizonExhausted, StandardBasis,
                             buchberger, codimension, final_reduction,
                             reduce_step, s_process_min)

__version__ = "0.1.0"

__all__ = [
    "AbstractSemimodule", "Certificate", "CoefficientOutsideJ",
    "CurveEquation", "CurveSpec", "CuspidalSets",
    "DeltaSequence", "DifferentialBasis", "Exponent", "FinalReduction",
    "FourClassification", "FourReport", "GammaExpr", "HorizonExhausted",
    "InvalidPair", "NegativeK", "NoSolution", "NotAdapted", "OneForm",
    "Parametrization", "ParseError", "PreconditionViolation", "Rat",
    "ResidueDecision", "RootCandidate", "RootDecision", "Semigroup",
    "SpecError", "StandardBasis", "Term", "TruncatedPoly", "Unclassifiable",
    "ValueMismatch", "WeightedOrder", "ZariskiReport",
    "apply_vector_field", "buchberger", "certified_roots_from_semimodule",
    "classify_four", "codimension", "cuspidal_sets", "decide_root", "delorme",
    "delta_sequences", "differential_value", "divides", "elements_outside",
    "enumerate_increasing", "four_condition_check", "interval_certificate",
    "jacobian_basis_direct", "jacobian_basis_via_differentials",
    "monomial_value", "newton_puiseux", "oracle_differential_value",
    "parse_spec", "random_form", "rat",
    "reduce_step", "residue", "residue_is_zero", "s_process_min",
    "tjurina_number", "validate_basis",
    "zariski_condition_check",
]
