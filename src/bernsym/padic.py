"""Finite-level realization of the twist measure in an unramified p-adic ring.

Elements live in Z[x]/(Phi_r(x), p^M) with gcd(r, p) = 1, which avoids
factoring Phi_r mod p; the coefficientwise valuation is the minimum over
the ring's components and suffices for convergence checks.  An element is
inverted as adj(x) N(x)^-1 mod p^M, with the adjugate and norm of its
integer representative in Z[zeta_r]; it is a unit exactly when p does not
divide N(x).  The measure assigns a residue class a + d p^N Z_p the value
z^a / (z^(d p^N) - 1) with z the image of the twist root, and integrals
are finite Riemann sums over residue classes whose p-adic limits are
checked against the algebraic Bernoulli moments.  The numerator of a
level-N sum, sum_{a < d p^N} chi(a) z^a f(a), is a twisted power sum of f,
computed by the one class sum that also gives the power sums and the
character-sum series (`bernoulli._class_sums`).  With L = lcm(r, chi.d)
and d p^N = qL + rho it reads two tables of class moments,
sum_{c<rho} chi(c) z^c c^k and the same below L, each built once in one
pass over its classes and cached, and one table of the sums of (jL)^e
over j < q: once the tables are cached a level costs about
(deg f + 1)^2 integer operations, whatever N and L are, and a level of
few residues is walked term by term.  A convergence check makes every
check once and then sums each level (`_level_sum`).  The span d p^N is
formed only under the level ceiling (`_level_span`), and every power
z^(d p^N) is read from d p^N mod r (`_span_exponent`).  The measure's
preconditions (`_measure_exponent`) and the level ceiling each have one
home, checked before any work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bernoulli import (MAX_SERIES_ORDER, ParameterError, TwistSpec, _class_sums, gen_bernoulli_numbers,
                        require_twist_order)
from .dirichlet import DirichletCharacter, trivial_character
from .exactnum import CyclotomicNumber, _adjugate, _power_vec, _vec_mul_mod, euler_phi

DEFAULT_PRECISION = 40
GUARD_BAND = 4
# d p^N residues times deg f + 1 terms one Riemann-sum level may span: the
# size of the residue walk, one Horner step per term, that the class sums
# replaced, which took 2-3 s at the ceiling on a 2-core Xeon.  A level at the
# ceiling now takes under a millisecond there; the refusal stays until a
# cost model for the closed form replaces it
MAX_HORNER_STEPS = 20_000_000
# bits of the modulus p^M, counted as M * bit_length(p): ring elements are
# p^M-sized integers and an inverse multiplies them unreduced, so the cost
# grows faster than M.  At the ceiling a four-level run with phi(r) <= 6
# took under 0.9 s on a 2-core Xeon
MAX_PRECISION_BITS = 60_000


class NonUnitInverseError(ValueError):
    """Inversion of a non-unit in Z[x]/(Phi_r, p^M)."""


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# this bound; a larger p is refused, far past what any level >= 1 admits
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < MAX_PRIME: at most 13
    modular exponentiations."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    twos = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = odd * 2^twos
    odd = (p - 1) >> twos
    for a in _PRIME_BASES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PadicContext:
    """The quotient ring Z[x]/(Phi_r(x), p^M)."""

    p: int
    M: int
    r: int

    def __post_init__(self):
        if self.p >= MAX_PRIME:
            raise ParameterError(f"p={self.p} is not below {MAX_PRIME}, the bound of the primality test")
        if not _is_prime(self.p):
            raise ParameterError(f"p={self.p} is not prime")
        if self.M < 1:
            raise ParameterError("precision M must be positive")
        if self.M * self.p.bit_length() > MAX_PRECISION_BITS:
            raise ParameterError(
                f"precision M={self.M} at p={self.p} spans M*bit_length(p) = "
                f"{self.M * self.p.bit_length()} bits, more than the ceiling of {MAX_PRECISION_BITS}"
            )
        require_twist_order(self.r)
        if self.r < 1 or math.gcd(self.r, self.p) != 1:
            raise ParameterError(f"unramified twist needs gcd(r, p) = 1, got r={self.r}, p={self.p}")

    # cached: every element built reads both; hash and equality use the fields
    @functools.cached_property
    def modulus(self) -> int:
        return self.p ** self.M

    @functools.cached_property
    def degree(self) -> int:
        return euler_phi(self.r)

    def zero(self) -> "PadicCycNumber":
        return PadicCycNumber(self, (0,) * self.degree)

    def one(self) -> "PadicCycNumber":
        return PadicCycNumber(self, (1,) + (0,) * (self.degree - 1))

    def x_power(self, k: int) -> "PadicCycNumber":
        """Image of zeta_r^k (the class of x^k)."""
        return PadicCycNumber(self, _power_vec(self.r, k))


class PadicCycNumber:
    """An element of Z[x]/(Phi_r(x), p^M), coefficients reduced mod p^M."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PadicContext, coeffs: Sequence[int]):
        if len(coeffs) != ctx.degree:
            raise ValueError(f"expected {ctx.degree} coefficients")
        mod = ctx.modulus
        self.ctx = ctx
        self.coeffs = tuple(c % mod for c in coeffs)

    def _check(self, other: "PadicCycNumber") -> None:
        if self.ctx != other.ctx:
            raise ValueError("operands live in different rings")

    def __add__(self, other: "PadicCycNumber") -> "PadicCycNumber":
        self._check(other)
        return PadicCycNumber(self.ctx, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PadicCycNumber") -> "PadicCycNumber":
        self._check(other)
        return PadicCycNumber(self.ctx, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "PadicCycNumber":
        return PadicCycNumber(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicCycNumber(self.ctx, [a * other for a in self.coeffs])
        self._check(other)
        return PadicCycNumber(self.ctx, _vec_mul_mod(self.ctx.r, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PadicCycNumber":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            if k > 1:
                base = base * base
            k >>= 1
        return out

    def inverse(self) -> "PadicCycNumber":
        """adj(x) / N(x) mod p^M, with adj(x) the product of the other
        Galois conjugates of x and N(x) its norm (`exactnum._adjugate`,
        reduced mod p^M as it goes): x is a unit exactly when p does not
        divide N(x)."""
        p, r = self.ctx.p, self.ctx.r
        adj, norm = _adjugate(r, self.coeffs, self.ctx.modulus)
        if norm % p == 0:
            raise NonUnitInverseError(
                f"the element's norm is divisible by p={p}; not a unit mod (Phi_{r}, {p})"
            )
        return PadicCycNumber(self.ctx, adj) * pow(norm, -1, self.ctx.modulus)

    def valuation(self) -> int:
        """Largest k <= M with p^k dividing every coefficient."""
        p, M = self.ctx.p, self.ctx.M
        best = M
        for c in self.coeffs:
            if c == 0:
                continue
            v = 0
            while c % p == 0 and v < best:
                c //= p
                v += 1
            best = min(best, v)
            if best == 0:
                return 0
        return best

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PadicCycNumber) and self.ctx == other.ctx and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"PadicCycNumber(p={self.ctx.p}, M={self.ctx.M}, r={self.ctx.r}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# embedding of exact algebraic values


def embed_algebraic(value: CyclotomicNumber, ctx: PadicContext) -> PadicCycNumber:
    """Ring homomorphism Q(zeta_c) -> Z[x]/(Phi_r, p^M) for c | r: the value
    embedded in Q(zeta_r) (`CyclotomicNumber.embed`), its integer vector
    times its denominator inverted mod p^M."""
    c = value.conductor
    if ctx.r % c:
        raise ParameterError(f"conductor {c} does not divide r={ctx.r}")
    if value.den % ctx.p == 0:
        raise ParameterError(f"denominator {value.den} is divisible by p={ctx.p}")
    image = value.embed(ctx.r)
    return PadicCycNumber(ctx, image.num) * pow(image.den, -1, ctx.modulus)


# ---------------------------------------------------------------------------
# the measure and its Riemann sums


@dataclass(frozen=True)
class MeasureQuery:
    """One residue class a + d p^N Z_p and the twist power used as z."""

    d: int
    level: int
    twist_exp: int
    residue: int

    def __post_init__(self):
        _require_level(self.d, self.level)
        if self.residue < 0:
            raise ParameterError("residue must be nonnegative")


def _require_level(d: int, level: int) -> None:
    """Refuse d < 1 or a negative level: the residue classes a + d p^N Z_p
    need both."""
    if d < 1 or level < 0:
        raise ParameterError("need d >= 1 and level N >= 0")


def _level_span(d: int, p: int, level: int, steps: int) -> int:
    """d p^N, the residues of a level-N sum, refused when they times
    `steps` = deg f + 1 >= 1 terms each exceed MAX_HORNER_STEPS: the one
    level ceiling.  p >= 2, so capping N at the ceiling's bit length keeps
    p^N small and still over the ceiling for an absurd N."""
    _require_level(d, level)
    span = d * p ** min(level, MAX_HORNER_STEPS.bit_length())
    if span * steps > MAX_HORNER_STEPS:
        raise ParameterError(
            f"level {level} spans d*p^N = {d}*{p}^{level} residues of deg f + 1 = {steps} "
            f"terms each, more than the ceiling of {MAX_HORNER_STEPS}"
        )
    return span


def _measure_exponent(ctx: PadicContext, twist: TwistSpec, twist_exp: int) -> int:
    """The exponent j twist_exp of z = xi^twist_exp, refused unless the
    ring's order is the twist's and z != 1: the measure's preconditions."""
    if ctx.r != twist.r:
        raise ParameterError("ring and twist orders differ")
    z_exp = twist.j * twist_exp
    if z_exp % twist.r == 0:
        raise ParameterError("z = 1 does not define a measure")
    return z_exp


def _span_exponent(ctx: PadicContext, z_exp: int, d: int, level: int) -> int:
    """e < r with z^(d p^N) = x^e for z = x^z_exp, read from p^N mod r."""
    return z_exp * d * pow(ctx.p, level, ctx.r) % ctx.r


@functools.lru_cache(maxsize=256)
def _denominator_inverse(ctx: PadicContext, exp: int) -> PadicCycNumber:
    """1 / (x^exp - 1), the measure's denominator z^(d p^N) - 1 inverted;
    callers pass exp mod r, so each ring has at most r of them."""
    return (ctx.x_power(exp) - ctx.one()).inverse()


def measure_value(query: MeasureQuery, twist: TwistSpec, ctx: PadicContext) -> PadicCycNumber:
    """mu_z(a + d p^N Z_p) = z^a / (z^(d p^N) - 1), z = xi^twist_exp.

    z has order r, so z^(d p^N) is read from d p^N mod r: the cost does not
    grow with the level."""
    z_exp = _measure_exponent(ctx, twist, query.twist_exp)
    # p^k > residue at k = residue.bit_length(), so capping N there decides
    # residue < d p^N without forming a p^N that grows with the level
    if query.residue >= query.d * ctx.p ** min(query.level, query.residue.bit_length()):
        raise ParameterError(
            f"residue {query.residue} outside 0..d*p^N - 1 = {query.d}*{ctx.p}^{query.level} - 1"
        )
    den_inv = _denominator_inverse(ctx, _span_exponent(ctx, z_exp, query.d, query.level))
    return ctx.x_power(z_exp * query.residue) * den_inv


def riemann_sum(f_coeffs: Sequence, chi: Optional[DirichletCharacter],
                twist: TwistSpec, d: int, level: int, ctx: PadicContext,
                twist_exp: int = 1) -> PadicCycNumber:
    """The level-N sum over residues a < d p^N of chi(a) f(a) mu(a + ...).

    f is a polynomial given by rational coefficients (low degree first)
    whose denominators must be prime to p; when chi is supplied its order
    must divide r so the values embed in the ring.  Every input is checked
    before any work, the level against the ceiling on d p^N residues times
    deg f + 1 terms (`_level_span`); f's coefficients are then taken mod
    p^M, and the sum is `_level_sum`'s.
    """
    _level_span(d, ctx.p, level, max(1, len(f_coeffs)))
    z_exp = _measure_exponent(ctx, twist, twist_exp)
    fracs = [Fraction(c) for c in f_coeffs]
    for c in fracs:
        if c.denominator % ctx.p == 0:
            raise ParameterError(f"coefficient {c} has denominator divisible by p={ctx.p}")
    if chi is not None and ctx.r % chi.order:
        raise ParameterError(
            f"character order {chi.order} does not divide r={ctx.r}; values do not embed"
        )

    mod = ctx.modulus
    terms = [(i, c.numerator * pow(c.denominator, -1, mod) % mod) for i, c in enumerate(fracs) if c]
    return _level_sum(terms, chi or trivial_character(1), z_exp, d, level, ctx)


def _level_sum(terms: Sequence[tuple[int, int]], chi: DirichletCharacter, z_exp: int,
               d: int, level: int, ctx: PadicContext) -> PadicCycNumber:
    """The level sum of `riemann_sum` for inputs it has checked: f's (i, f_i)
    terms reduced mod p^M and z = x^z_exp (`_measure_exponent`).

    mu(a + d p^N Z_p) = z^a / (z^(d p^N) - 1), so the sum is the twisted
    power sum sum_{a < d p^N} chi(a) z^a f(a), the one class sum
    (`bernoulli._class_sums`) at the twist x = zeta_r, times the inverted
    denominator.  chi's order divides r, so the class sum lives at
    conductor r: its integer vector is the ring element's."""
    total = _class_sums([terms], d * ctx.p ** level - 1, chi, TwistSpec(ctx.r, 1), z_exp)[0]
    den_inv = _denominator_inverse(ctx, _span_exponent(ctx, z_exp, d, level))
    return PadicCycNumber(ctx, _vec_mul_mod(ctx.r, total, den_inv.coeffs))


def distribution_check(twist: TwistSpec, d: int, level: int, residue: int,
                       ctx: PadicContext, twist_exp: int = 1) -> bool:
    """Exact finite-level compatibility: the p classes refining
    a + d p^N Z_p sum to its measure.  Every power of z is read from
    d p^N mod r, so the cost does not grow with the level."""
    coarse = measure_value(MeasureQuery(d, level, twist_exp, residue), twist, ctx)
    z_exp = _measure_exponent(ctx, twist, twist_exp)
    step = _span_exponent(ctx, z_exp, d, level)
    fine_den_inv = _denominator_inverse(ctx, _span_exponent(ctx, z_exp, d, level + 1))
    total = ctx.zero()
    for i in range(ctx.p):
        total = total + ctx.x_power(z_exp * residue + i * step)
    return total * fine_den_inv == coarse


# ---------------------------------------------------------------------------
# convergence of moments to Bernoulli values


@dataclass
class ConvergenceReport:
    moment: int
    p: int
    M: int
    r: int
    j: int
    d: int
    levels: list[int]
    valuations: list[int]
    exact: list[bool]
    passed: bool

    def to_json(self) -> dict:
        return {
            "moment": self.moment,
            "p": self.p,
            "M": self.M,
            "r": self.r,
            "j": self.j,
            "d": self.d,
            "table": [
                {"level": lv, "valuation": v, "exact": ex}
                for lv, v, ex in zip(self.levels, self.valuations, self.exact)
            ],
            "pass": self.passed,
        }


@functools.lru_cache(maxsize=256)
def _moment_target(chi: DirichletCharacter, twist: TwistSpec, moment: int) -> CyclotomicNumber:
    """B_{n+1,chi,xi}/(n+1), the limit of the level-N moment sums."""
    numbers = gen_bernoulli_numbers(chi, twist, 1, moment + 1)
    return numbers[moment + 1].scale(Fraction(1, moment + 1))


def convergence_check(moment: int, chi: DirichletCharacter, twist: TwistSpec,
                      levels: Sequence[int], ctx: PadicContext) -> ConvergenceReport:
    """Compare level-N sums of chi(z) z^n against B_{n+1,chi,xi}/(n+1).

    Valuations of the differences must be nondecreasing in the level and
    strictly larger at the last level than the first (or the difference is
    exactly zero at every level, the level-exact case), so at least two
    distinct levels are needed.  Verdicts only trust valuations below M
    minus a guard band.

    Every input is refused before any work: the least and largest levels
    (a range's ends, so it is not walked) and B_{n+1}'s series order are
    checked before the levels are listed or the target is built.  Those
    checks cover every check `riemann_sum` makes, so each level is summed
    by `_level_sum` directly, with f = x^n reduced once: z = xi is checked
    by `_measure_exponent`; the least and largest levels by `_level_span`,
    whose ceiling only tightens as N grows; chi's order divides r; and x^n
    has denominator 1.  The levels are then judged in ascending order,
    whatever order the caller lists them in."""
    d = chi.d
    z_exp = _measure_exponent(ctx, twist, 1)
    if moment < 0:
        raise ParameterError("moment index must be nonnegative")
    ends = (levels[0], levels[-1]) if isinstance(levels, range) and levels else levels
    if len(set(ends)) < 2:
        raise ParameterError("need at least two distinct levels")
    for level in (min(ends), max(ends)):
        _level_span(d, ctx.p, level, moment + 1)
    if moment + 1 > MAX_SERIES_ORDER:
        raise ParameterError(f"moment n={moment} needs B_(n+1) at series order {moment + 1}, "
                             f"above the ceiling of {MAX_SERIES_ORDER}")
    if ctx.p <= moment + 1:
        raise ParameterError(f"need p > n+1 = {moment + 1} to keep 1/(n+1) a unit")
    if ctx.r % chi.order:
        raise ParameterError(f"character order {chi.order} does not divide r={ctx.r}")
    if math.gcd(twist.r, ctx.p * d) != 1:
        raise ParameterError("need gcd(r, p*d) = 1")
    levels = sorted(levels)

    target_ring = embed_algebraic(_moment_target(chi, twist, moment), ctx)

    terms = [(moment, 1)]
    valuations, exact = [], []
    for lv in levels:
        diff = _level_sum(terms, chi, z_exp, d, lv, ctx) - target_ring
        valuations.append(diff.valuation())
        exact.append(diff.is_zero())

    monotone = all(a <= b for a, b in zip(valuations, valuations[1:]))
    growing = valuations[-1] > valuations[0]
    trustworthy = valuations[0] < ctx.M - GUARD_BAND
    passed = all(exact) or (monotone and growing and trustworthy)
    return ConvergenceReport(moment, ctx.p, ctx.M, ctx.r, twist.j, d,
                             levels, valuations, exact, passed)
