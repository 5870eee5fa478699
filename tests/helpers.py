"""Constructors and predicates that only the tests use, written against
the public data of the values they build or read."""

import math
from fractions import Fraction

from bernsym import quotients
from bernsym.bernoulli import TwistSpec
from bernsym.dirichlet import DirichletCharacter
from bernsym.exactnum import CyclotomicNumber
from bernsym.series import TruncatedSeries


def exp_linear(c, order: int, m: int | None = None) -> TruncatedSeries:
    """exp(c*t) truncated at t^order: coefficients c^n / n!, in Q(zeta_m),
    m defaulting to the conductor of c (1 for a rational c)."""
    if m is None:
        m = c.m if isinstance(c, CyclotomicNumber) else 1
    c = c.embed(m) if isinstance(c, CyclotomicNumber) else CyclotomicNumber.from_rational(c, m)
    cur = CyclotomicNumber.one(m)
    coeffs = [cur]
    for n in range(1, order + 1):
        cur = (cur * c).scale(Fraction(1, n))
        coeffs.append(cur)
    return TruncatedSeries(m, coeffs)


def from_json(data: dict) -> CyclotomicNumber:
    """The value that `CyclotomicNumber.to_json` wrote."""
    coeffs = [Fraction(c) for c in data["coeffs"]]
    den = math.lcm(*(c.denominator for c in coeffs))
    return CyclotomicNumber(int(data["m"]), [c.numerator * (den // c.denominator) for c in coeffs], den)


def as_rational(x: CyclotomicNumber) -> Fraction:
    """x as a Fraction; ValueError unless x is rational."""
    first, *rest = x.coefficients()
    if any(rest):
        raise ValueError("value is not rational")
    return first


def is_trivial(chi: DirichletCharacter) -> bool:
    """chi is the trivial character mod its d: every exponent is 0."""
    return not any(chi.exponents)


def series_constant(value, order: int, m: int = 1) -> TruncatedSeries:
    """The constant series `value` (an int, a Fraction or a cyclotomic
    number) truncated at t^order, in Q(zeta_m)."""
    return TruncatedSeries(m, [value] + [0] * order)


def series_one(order: int, m: int = 1) -> TruncatedSeries:
    return series_constant(1, order, m)


def series_zero(order: int, m: int = 1) -> TruncatedSeries:
    return series_constant(0, order, m)


def denom_series(chi: DirichletCharacter, twist: TwistSpec, scale: int, order: int) -> TruncatedSeries:
    """D_W = xi^(dW) e^(dWt) - 1 at W = scale for the pair (chi, twist),
    read from the series store as the closed forms read it."""
    return quotients._stored(quotients._denom_series, chi, twist, scale, order)


def char_ratio_series(chi: DirichletCharacter, twist: TwistSpec, scale: int, order: int) -> TruncatedSeries:
    """T_W/D_W at W = scale for the pair (chi, twist), T_W = sum_{a<d}
    chi(a) xi^(aW) e^(aWt), read from the series store as the closed forms'
    chains read it; r must not divide d*W."""
    return quotients._stored(quotients._ratio_series, chi, twist, scale, order)
