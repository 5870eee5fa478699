"""Exact-arithmetic engine for twisted Bernoulli identities over cyclotomic fields."""

from .bernoulli import (
    BernoulliPolynomial,
    ParameterError,
    TwistSpec,
    gen_bernoulli_numbers,
    gen_bernoulli_poly,
    power_sum,
    power_sum_egf_check,
)
from .dirichlet import DirichletCharacter, enumerate_characters, trivial_character, unit_group_structure
from .exactnum import CyclotomicNumber, Rational, cyclotomic_polynomial
from .identities import (
    THEOREMS,
    GridConfig,
    TheoremInstance,
    VerificationReport,
    grid_verify,
    redundancy_check,
    theorem_sides,
    verify_instance,
)
from .padic import MeasureQuery, PadicContext, PadicCycNumber, convergence_check, measure_value, riemann_sum
from .quotients import (
    FORMS,
    QUOTIENT_TYPES,
    ExpansionForm,
    QuotientType,
    closed_form_series,
    consistency_check,
    expansion_coefficients,
    form_weight,
)
from .series import NonUnitConstantError, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "BernoulliPolynomial",
    "CyclotomicNumber",
    "DirichletCharacter",
    "ExpansionForm",
    "FORMS",
    "GridConfig",
    "MeasureQuery",
    "NonUnitConstantError",
    "PadicContext",
    "PadicCycNumber",
    "ParameterError",
    "QUOTIENT_TYPES",
    "QuotientType",
    "Rational",
    "THEOREMS",
    "TheoremInstance",
    "TruncatedSeries",
    "TwistSpec",
    "VerificationReport",
    "closed_form_series",
    "consistency_check",
    "convergence_check",
    "cyclotomic_polynomial",
    "enumerate_characters",
    "expansion_coefficients",
    "form_weight",
    "gen_bernoulli_numbers",
    "gen_bernoulli_poly",
    "grid_verify",
    "measure_value",
    "power_sum",
    "power_sum_egf_check",
    "redundancy_check",
    "riemann_sum",
    "theorem_sides",
    "trivial_character",
    "unit_group_structure",
    "verify_instance",
]
