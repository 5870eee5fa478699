"""Constructors and predicates that only the tests use, written against
the public data of the values they build or read."""

import math
from fractions import Fraction

from bernsym import quotients
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


def denom_series(ctx: quotients.EvalContext, scale: int, order: int) -> TruncatedSeries:
    """D_W = xi^(dW) e^(dWt) - 1 at W = scale for the context's pair, read
    from the series store as the closed forms read it."""
    return quotients._stored(quotients._denom_series, ctx.chi, ctx.twist, scale, order)


def char_ratio_series(ctx: quotients.EvalContext, scale: int, order: int) -> TruncatedSeries:
    """T_W/D_W at W = scale for the context's pair, T_W = sum_{a<d} chi(a)
    xi^(aW) e^(aWt), read from the series store as the closed forms' chains
    read it; r must not divide d*W."""
    return quotients._stored(quotients._ratio_series, ctx.chi, ctx.twist, scale, order)
