"""Generalized twisted Bernoulli numbers, polynomials, and power sums.

B_{n,chi,xi} is the n-th EGF coefficient of

    t * sum_{a<d} chi(a) xi^a e^{at} / (xi^d e^{dt} - 1),

which requires xi^d != 1; with xi of exact order r that is r not dividing d
(and r not dividing w*d when the twist is xi^w).  The d = 1 case is the
plain twisted Bernoulli number.  Power sums S_k(n; chi, xi) use the
convention 0^0 = 1, which is what makes the closed quotient identity hold
at k = 0.  The power sums, the character-sum series (whose t^k/k!
coefficients they are) and the p-adic Riemann sums are all one class sum
of integer polynomials (`_class_sums`), read from cached class moments
(`_class_moments`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .dirichlet import DirichletCharacter
from .errors import ParameterError
from .exactnum import CyclotomicNumber, Scalar, _power_sums, _power_table, euler_phi
from .series import NonUnitConstantError, TruncatedSeries

# Ceilings on the field every series lives in, checked before any work.  An
# element of Q(zeta_m) is inverted with phi(m) - 1 products of phi(m)-long
# vectors, so the cost grows as phi(m)^3: one audit instance (theorem 1,
# d = 1, w = 1, n_max = 0) took 0.17 s at r = 113, 0.86 s at r = 199 (the
# largest prime under MAX_TWIST_ORDER), 1.0 s at r = 211 and 1.6 s at
# r = 251 on a 2-core Xeon.  MAX_TWIST_ORDER bounds r itself, so nothing
# factors a huge r; MAX_FIELD_DEGREE bounds phi(lcm(r, ord chi)), which
# the character's order can raise far past phi(r).
MAX_TWIST_ORDER = 200
MAX_FIELD_DEGREE = 200
# The ceiling on a series' order (`quotient --order`, the --n-max of
# `bernoulli`, `consistency` and `verify`, and a grid's n_max), checked
# before any series is built.  A product at order N multiplies about N^2/2
# pairs of coefficients whose packed widths grow with N, so the cost grows
# about as N^3: on a 2-core VM (Python 3.11.7), `quotient --type L23:3`
# with d = 5, a character of order 4 and r = 7 (degree 12) took 0.11 s at
# order 32, 0.85 s at 64 and 5.9 s at 128, and 7.0 s at order 32 and 45 s
# at 64 in the widest field (d = 1, r = 199, degree 198); `consistency`
# (L23:2) and `verify` (theorem 10) at degree 12 took 0.83 s and 1.2 s at
# n_max 64.
MAX_SERIES_ORDER = 64

__all__ = [
    "BernoulliPolynomial",
    "EgfCheckResult",
    "MAX_FIELD_DEGREE",
    "MAX_SERIES_ORDER",
    "MAX_TWIST_ORDER",
    "ParameterError",
    "TwistSpec",
    "bernoulli_egf",
    "character_sum_series",
    "field_conductor",
    "gen_bernoulli_numbers",
    "gen_bernoulli_poly",
    "power_sum",
    "power_sum_egf_check",
    "twisted_exp_minus_one",
    "twisted_sum",
]


@dataclass(frozen=True)
class TwistSpec:
    """The twist root xi = zeta_r^j, required primitive of exact order r."""

    r: int
    j: int = 1

    def __post_init__(self):
        if self.r < 2:
            raise ParameterError("twist root must differ from 1 (r >= 2)")
        require_twist_order(self.r)
        if not 0 < self.j < self.r or math.gcd(self.j, self.r) != 1:
            raise ParameterError(f"j={self.j} does not give a primitive {self.r}-th root")

    def root_power(self, w: int, conductor: int | None = None) -> CyclotomicNumber:
        xi = CyclotomicNumber.zeta(self.r, (self.j * w) % self.r)
        return xi.embed(conductor) if conductor else xi

    def require_coprime(self, d: int) -> None:
        if math.gcd(self.r, d) != 1:
            raise ParameterError(f"gcd(r, d) = gcd({self.r}, {d}) != 1")


def require_twist_order(r: int) -> None:
    """Refuse a twist order r over MAX_TWIST_ORDER, before anything factors it."""
    if r > MAX_TWIST_ORDER:
        raise ParameterError(f"twist order r={r} is above the ceiling of {MAX_TWIST_ORDER}")


def require_series_order(order: int, name: str = "order") -> None:
    """Refuse a negative series order or one over MAX_SERIES_ORDER, before
    any series is built."""
    if order < 0:
        raise ParameterError(f"{name} must be nonnegative")
    if order > MAX_SERIES_ORDER:
        raise ParameterError(f"{name}={order} is above the ceiling of {MAX_SERIES_ORDER}")


def field_conductor(chi: DirichletCharacter, twist: TwistSpec) -> int:
    """Smallest conductor containing the character values and the twist
    root, refused when its degree is over MAX_FIELD_DEGREE."""
    m = math.lcm(twist.r, chi.order)
    if euler_phi(m) > MAX_FIELD_DEGREE:
        raise ParameterError(
            f"the field Q(zeta_{m}) of r={twist.r} and a character of order {chi.order} "
            f"has degree {euler_phi(m)}, above the ceiling of {MAX_FIELD_DEGREE}"
        )
    return m


def twisted_exp_minus_one(twist: TwistSpec, x: int, s: int, order: int, m: int) -> TruncatedSeries:
    """xi^x e^(s t) - 1 truncated at `order`: the D factor of every quotient."""
    return TruncatedSeries.exp_sum([(twist.root_power(x, m), s), (-CyclotomicNumber.one(m), 0)], order, m)


def character_sum_series(chi: DirichletCharacter, twist: TwistSpec, w: int,
                         order: int, upper: int | None = None) -> TruncatedSeries:
    """sum_{a<upper} chi(a) xi^{w a} e^{a t} truncated at `order`;
    `upper` defaults to the modulus d.

    Its t^k/k! coefficient is the power sum S_k(upper - 1; chi, xi^w), so
    its rows are the class sums of x^0..x^order (`_class_sums`): past
    order + 1 + lcm(d, r) terms each row reads the class moments and one
    `_power_sums` table, so the cost does not grow with upper, and no class
    is read once the moments of the order and of (upper mod lcm(d, r)) are
    cached; a shorter sum is walked term by term."""
    upper = chi.d if upper is None else upper
    monomials = [[(k, 1)] for k in range(order + 1)]
    return TruncatedSeries.from_egf_rows(field_conductor(chi, twist),
                                         _class_sums(monomials, upper - 1, chi, twist, w))


def bernoulli_egf(chi: DirichletCharacter, twist: TwistSpec, w: int, order: int) -> TruncatedSeries:
    """t * sum_{a<d} chi(a) xi^{wa} e^{at} / (xi^{wd} e^{dt} - 1), exact to `order`."""
    require_series_order(order)
    m = field_conductor(chi, twist)
    numerator = character_sum_series(chi, twist, w, order).shift_up(1).truncate(order)
    try:
        return numerator / twisted_exp_minus_one(twist, w * chi.d, chi.d, order, m)
    except NonUnitConstantError as exc:
        raise NonUnitConstantError(
            f"xi^(w*d) = xi^({w}*{chi.d}) = 1: r={twist.r} divides w*d", factor="xi^(w*d) e^(d t) - 1"
        ) from exc


def gen_bernoulli_numbers(chi: DirichletCharacter, twist: TwistSpec, w: int, order: int) -> list[CyclotomicNumber]:
    """B_{n, chi, xi^w} for n = 0..order."""
    egf = bernoulli_egf(chi, twist, w, order)
    return [egf.egf_coefficient(n) for n in range(order + 1)]


class BernoulliPolynomial:
    """B_{n, chi, xi^w}(x) = sum_k C(n,k) B_k x^{n-k}; coeffs stored by x-power."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: list[CyclotomicNumber]):
        self.n = n
        self.coeffs = list(coeffs)

    def __call__(self, x: Union[Scalar, CyclotomicNumber]) -> CyclotomicNumber:
        if isinstance(x, CyclotomicNumber):
            acc = CyclotomicNumber.zero(math.lcm(x.m, self.coeffs[0].m))
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        x = Fraction(x)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc.scale(x) + c
        return acc

    def __eq__(self, other):
        return isinstance(other, BernoulliPolynomial) and self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"BernoulliPolynomial(n={self.n})"


def gen_bernoulli_poly(chi: DirichletCharacter, twist: TwistSpec, w: int, n: int) -> BernoulliPolynomial:
    numbers = gen_bernoulli_numbers(chi, twist, w, n)
    coeffs = [numbers[n - i].scale(math.comb(n, i)) for i in range(n + 1)]
    return BernoulliPolynomial(n, coeffs)


@functools.lru_cache(maxsize=1024)
def _class_weights(chi: DirichletCharacter, twist: TwistSpec,
                   w: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The classes c mod lcm(d, r) whose weight chi(c) xi^(wc) is not zero,
    ascending, each with the nonzero coordinates (i, x) of its weight's
    integer vector at the field conductor: a weight is zero or a root of
    unity, with denominator 1, so it is one row of `exactnum._power_table`."""
    m = field_conductor(chi, twist)
    table = _power_table(m)
    # chi(c) = zeta_m^(s*m/order) and xi^(wc) = zeta_m^(j*w*c*m/r): one row
    chi_step, xi_step = m // chi.order, m // twist.r * twist.j * w
    exponents = ((c, chi._value_exponent(c)) for c in range(math.lcm(chi.d, twist.r)))
    return tuple((c, tuple((i, x) for i, x in enumerate(table[(s * chi_step + xi_step * c) % m]) if x))
                 for c, s in exponents if s is not None)


# Entries of the class-moment cache (`_class_moments`), least recently used
# first out.  An entry holds the nonzero coordinates of deg + 1 moments, the
# k-th of about k log2(L) bits: deg <= MAX_SERIES_ORDER, phi(m) <=
# MAX_FIELD_DEGREE and L = lcm(d, r) <= 40,000 put the worst entry at about
# 1.3 MB (d = 199, r = 197), so the whole cache at about 82 MB.  The
# working set of the `padic_moments` pool is 27 entries of at most 600 B,
# which the bound holds twice over; the first 3,000 ops of
# `consistency_sample` read 230 distinct entries of at most 5.6 KB, 29% of
# the reads repeating, which no small bound holds, and each rebuild is one
# pass over at most L classes
MOMENT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=MOMENT_CACHE_SIZE)
def _class_moments(chi: DirichletCharacter, twist: TwistSpec, w: int, rho: int,
                   degree: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """M_rho(k) = sum_{c<rho} chi(c) xi^(wc) c^k for k = 0..degree, with
    0^0 = 1, built in one pass over `_class_weights`: each coordinate of the
    field conductor that some class c < rho touches, with its integers in
    M_rho(0), ..., M_rho(degree)."""
    columns: dict[int, list[int]] = {}
    for c, coords in _class_weights(chi, twist, w):
        if c >= rho:
            break
        powers = [c ** k for k in range(degree + 1)]
        for i, x in coords:
            column = columns.get(i, [0] * (degree + 1))
            columns[i] = [m + x * y for m, y in zip(column, powers)]
    return tuple((i, tuple(column)) for i, column in sorted(columns.items()))


def _class_sums(polys: Sequence[Sequence[tuple[int, int]]], upper: int, chi: DirichletCharacter,
                twist: TwistSpec, w: int) -> list[list[int]]:
    """The integer vectors of sum_{a=0}^{upper} chi(a) xi^{wa} f(a) at the
    field conductor, one for each integer polynomial f of `polys`, given as
    its (i, f_i) terms, with 0^0 = 1: the one class sum behind the power
    sums, the character-sum series and the p-adic Riemann sums.

    chi(a) xi^(wa) depends only on a mod L = lcm(d, r).  Write
    upper + 1 = qL + rho with 0 <= rho < L: the a = c + jL with j < q fill q
    whole periods, and the rest are qL + c with c < rho.  So with the class
    moments M_rho (`_class_moments`) and S_e(q) = sum_{j<q} (jL)^e
    (`exactnum._power_sums`),

        sum_{a<=upper} chi(a) xi^(wa) a^i
            = sum_{e<=i} C(i, e) (S_e(q) M_L(i - e) + (qL)^e M_rho(i - e)).

    Each f folds into one integer per moment, and a half with q = 0 or
    rho = 0 is skipped.  With T the terms of all f, that costs about
    (deg + 1)^2 integer operations for the `_power_sums` table, T (deg + 1)
    for the folds and one dot product per f and coordinate a table
    touches, plus deg + 1 powers for each of the L + rho classes when the
    two tables are built; once they are cached a call loops over no class,
    whatever upper is.  When walking the upper + 1 terms of every f,
    T (upper + 1) powers, costs no more than the moments would with nothing
    cached, about (deg + 1)(deg + 1 + L), the terms are walked class by
    class instead: both ways give the same integers."""
    period = math.lcm(chi.d, twist.r)
    degree = max([i for f in polys for i, _ in f], default=0)
    count = max(upper + 1, 0)
    w %= twist.r
    totals = [[0] * euler_phi(field_conductor(chi, twist)) for _ in polys]
    if count * sum(map(len, polys)) <= (degree + 1) * (degree + 1 + period):
        for c, coords in _class_weights(chi, twist, w):
            if c >= count:
                break
            points = range(c, count, period)
            for total, f in zip(totals, polys):
                s = sum(x * sum([a ** i for a in points]) for i, x in f)
                if s:
                    for k, y in coords:
                        total[k] += y * s
        return totals
    q, rho = divmod(count, period)
    halves = []  # (the sums S_e(q) or (qL)^e, the moments they multiply)
    if q:
        halves.append((_power_sums(q, period, degree), _class_moments(chi, twist, w, period, degree)))
    if rho:
        start = q * period
        halves.append(([start ** e for e in range(degree + 1)], _class_moments(chi, twist, w, rho, degree)))
    for total, f in zip(totals, polys):
        for values, moments in halves:
            folded = [0] * (max([i for i, _ in f], default=-1) + 1)  # the integer multiplying each M(k)
            for i, x in f:
                for e in range(i + 1):
                    folded[i - e] += x * math.comb(i, e) * values[e]
            for k, column in moments:
                total[k] += sum(map(operator.mul, folded, column))
    return totals


def twisted_sum(terms: Sequence[tuple[int, int]], upper: int, chi: DirichletCharacter,
                twist: TwistSpec, w: int) -> CyclotomicNumber:
    """sum_{a=0}^{upper} chi(a) xi^{wa} f(a) for the integer polynomial
    f = sum f_i x^i given as its (i, f_i) terms, with 0^0 = 1: the class
    sum (`_class_sums`) of [f]."""
    return CyclotomicNumber(field_conductor(chi, twist), _class_sums([terms], upper, chi, twist, w)[0])


def power_sum(k: int, upper: int, chi: DirichletCharacter, twist: TwistSpec, w: int) -> CyclotomicNumber:
    """S_k(upper; chi, xi^w) = sum_{a=0}^{upper} chi(a) xi^{wa} a^k, with 0^0 = 1:
    the class sum of f = x^k (`twisted_sum`).  S_k is the t^k/k! coefficient
    of the character-sum series, so k is bounded by MAX_SERIES_ORDER too,
    before any class is summed."""
    if k < 0 or upper < 0:
        raise ParameterError("power sum needs k >= 0 and upper >= 0")
    require_series_order(k, "k")
    return twisted_sum([(k, 1)], upper, chi, twist, w)


@dataclass
class EgfCheckResult:
    passed: bool
    order: int
    first_failure: tuple[int, CyclotomicNumber, CyclotomicNumber] | None = None

    def __bool__(self):
        return self.passed


def power_sum_egf_check(chi: DirichletCharacter, twist: TwistSpec, w: int, order: int) -> EgfCheckResult:
    """Verify the closed quotient identity to the given order: the closed
    quotient (xi^{dw} e^{dwt} - 1)/(xi^d e^{dt} - 1) * sum_{a<d} chi(a) xi^a e^{at}
    equals the expanded sum_{a<dw} chi(a) xi^a e^{at}, whose EGF
    coefficients are the power sums S_k(dw - 1; chi, xi).  The first
    failure is (k, closed, expanded) at the first unequal t^k/k!
    coefficient."""
    d = chi.d
    if w % twist.r == 0:
        raise ParameterError(f"r={twist.r} divides w={w}")
    if d * w % twist.r == 0:
        raise ParameterError(f"r={twist.r} divides d*w={d * w}")
    m = field_conductor(chi, twist)
    closed = twisted_exp_minus_one(twist, d * w, d * w, order, m) \
        / twisted_exp_minus_one(twist, d, d, order, m) * character_sum_series(chi, twist, 1, order)
    expanded = character_sum_series(chi, twist, 1, order, upper=d * w)
    for k in range(order + 1):
        lhs, rhs = closed.egf_coefficient(k), expanded.egf_coefficient(k)
        if lhs != rhs:
            return EgfCheckResult(False, order, (k, lhs, rhs))
    return EgfCheckResult(True, order)
