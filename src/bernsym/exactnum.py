"""Exact rational and cyclotomic-field arithmetic.

Every algebraic value in the engine lives in some Q(zeta_m).  Elements are
represented on the power basis 1, zeta_m, ..., zeta_m^{phi(m)-1} as the
canonical remainder modulo the m-th cyclotomic polynomial, stored as one
integer coefficient vector over a common positive denominator.  The
representation is unique, so equality is componentwise; there is no
floating point anywhere.  An element x of Z[zeta_m] is inverted through
x * adj(x) = N(x), adj(x) the product of the other Galois conjugates of x
and N(x) its norm, a rational integer (`_adjugate`); the p-adic ring of
`bernsym.padic` inverts with the same pair.

`Rational` is an alias for `fractions.Fraction`, which already provides the
required canonical form (reduced, positive denominator).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class CycDivisionError(ZeroDivisionError):
    """Division by zero inside a cyclotomic field."""


def _factorize(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1 by trial division, primes ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=1024)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("m must be positive")
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _factorize(m))


def divisors(m: int) -> list[int]:
    out = [1]
    for p, e in _factorize(m):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=128)
def _power_sums(count: int, step: int, degree: int) -> tuple[int, ...]:
    """sum_{j<count} (j*step)^e for e = 0..degree, with 0^0 = 1: step^e S_e,
    from the telescoping sum (e+1) S_e = count^(e+1) - sum_{i<e} C(e+1, i) S_i
    for S_e = sum_{j<count} j^e.  A class sum reads one table, for its
    count of whole periods; the other entries keep the tables of recent
    calls, such as the levels of a p-adic convergence check."""
    sums: list[int] = []
    row = [1]
    power = 1
    for e in range(degree + 1):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]  # C(e+1, i)
        power *= count
        sums.append((power - sum(c * s for c, s in zip(row, sums))) // (e + 1))
    return tuple(s * step ** e for e, s in enumerate(sums))


def _poly_divmod_int(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials (low-to-high coeffs); den must be monic."""
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(1, len(num) - dden)
    for k in range(len(num) - 1, dden - 1, -1):
        c = num[k]
        if c == 0:
            continue
        quot[k - dden] = c
        for i, dc in enumerate(den):
            num[k - dden + i] -= c * dc
    rem = num[:dden]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, computed by exact division
    of x^m - 1 by the product of Phi_d over proper divisors d of m."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d == m:
            continue
        poly, rem = _poly_divmod_int(poly, cyclotomic_polynomial(d))
        if any(rem):
            raise ArithmeticError(f"Phi_{d} does not divide x^{m}-1")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows r[k - phi] with x^k == r (mod Phi_m) for k = phi .. 2*phi - 2
    (the one row of x^phi when phi = 1), read from `_power_table`."""
    table = _power_table(m)
    phi = len(table[0])
    return tuple(table[k % m] for k in range(phi, max(2 * phi - 1, phi + 1)))


def _vec_mul_mod(m: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two power-basis vectors modulo Phi_m: their schoolbook
    convolution, whose coefficients of x^phi .. x^(2*phi-2) fold back below
    x^phi with `_reduction_rows(m)`."""
    phi = len(a)
    if phi == 1:
        return [a[0] * b[0]]
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for c, row in zip(conv[phi:], _reduction_rows(m)):
        if c:
            for i in range(phi):
                out[i] += c * row[i]
    return out


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Integer vectors of zeta_m^k reduced modulo Phi_m, for k = 0 .. m - 1:
    each row is the one before times x, its x^phi coefficient folded back."""
    phi = euler_phi(m)
    base = tuple(-c for c in cyclotomic_polynomial(m)[:phi])
    rows = [(1,) + (0,) * (phi - 1)]
    for _ in range(m - 1):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple(s + top * b for s, b in zip((0,) + prev[:-1], base)))
    return tuple(rows)


def _power_vec(m: int, k: int) -> tuple[int, ...]:
    """Integer vector of zeta_m^k reduced modulo Phi_m."""
    return _power_table(m)[k % m]


@lru_cache(maxsize=None)
def _embed_rows(m: int, big: int) -> tuple[tuple[int, ...], ...]:
    """Image of the basis powers zeta_m^i inside Q(zeta_big), m | big."""
    if big % m:
        raise ValueError(f"conductor {m} does not divide {big}")
    step = big // m
    return tuple(_power_vec(big, i * step) for i in range(euler_phi(m)))


def _combine_rows(num: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """sum_i num[i] * rows[i], the image of `num` under the linear map whose
    basis images are `rows`."""
    out = [0] * len(rows[0])
    for c, row in zip(num, rows):
        if c:
            for i, e in enumerate(row):
                out[i] += c * e
    return out


def _adjugate(m: int, num: Sequence[int], modulus: int | None = None) -> tuple[list[int], int]:
    """(adj, N) with x * adj = N for the element x of Z[zeta_m] with integer
    vector `num`: adj is the product of the other Galois conjugates of x,
    sigma_k(x) with zeta_m -> zeta_m^k for k in (Z/m)*, k != 1, and N is the
    norm of x, a rational integer (zero exactly when x is).  With a
    modulus, each partial product and N are reduced by it, so operands stay
    the modulus's size: (adj, N) mod modulus, for the p-adic ring."""
    table = _power_table(m)
    phi = len(num)
    adj = [1] + [0] * (phi - 1)
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            conj = _combine_rows(num, [table[i * k % m] for i in range(phi)])
            adj = _vec_mul_mod(m, adj, conj)
            if modulus:
                adj = [c % modulus for c in adj]
    norm = _vec_mul_mod(m, num, adj)
    if modulus:
        norm = [c % modulus for c in norm]
    if any(norm[1:]):
        raise ArithmeticError(f"x * adj(x) is not rational in Q(zeta_{m})")
    return adj, norm[0]


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise CycDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = den
    for c in num:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return tuple(num), den
    if g == den and not any(num):
        return tuple(num), 1
    return tuple(c // g for c in num), den // g


class CyclotomicNumber:
    """An exact element of Q(zeta_m) on the power basis modulo Phi_m."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: Sequence[int], den: int = 1, _normalized: bool = False):
        self.m = m
        if _normalized:
            self.num = tuple(num)
            self.den = den
        else:
            self.num, self.den = _normalize(list(num), den)

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_rational(value: Scalar, m: int = 1) -> "CyclotomicNumber":
        fr = Fraction(value)
        phi = euler_phi(m)
        return CyclotomicNumber(m, (fr.numerator,) + (0,) * (phi - 1), fr.denominator)

    @staticmethod
    def zero(m: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(m, (0,) * euler_phi(m), 1, _normalized=True)

    @staticmethod
    def one(m: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(m, (1,) + (0,) * (euler_phi(m) - 1), 1, _normalized=True)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CyclotomicNumber":
        """zeta_m^k as an element of Q(zeta_m)."""
        return CyclotomicNumber(m, _power_vec(m, k))

    # ------------------------------------------------------------------
    # structure

    @property
    def conductor(self) -> int:
        return self.m

    def coefficients(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Rationals."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def embed(self, big: int) -> "CyclotomicNumber":
        """Image under the ring embedding zeta_m -> zeta_big^(big/m)."""
        if big == self.m:
            return self
        return CyclotomicNumber(big, _combine_rows(self.num, _embed_rows(self.m, big)), self.den)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "CyclotomicNumber | None":
        if isinstance(other, CyclotomicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, 1)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _to_common(self, o)
        if a.den == b.den:
            return CyclotomicNumber(a.m, [x + y for x, y in zip(a.num, b.num)], a.den)
        lcm = math.lcm(a.den, b.den)
        fa, fb = lcm // a.den, lcm // b.den
        return CyclotomicNumber(a.m, [x * fa + y * fb for x, y in zip(a.num, b.num)], lcm)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.m, tuple(-c for c in self.num), self.den, _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = _to_common(self, other)
        return CyclotomicNumber(a.m, _vec_mul_mod(a.m, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def scale(self, fr: Scalar) -> "CyclotomicNumber":
        fr = Fraction(fr)
        return CyclotomicNumber(self.m, [c * fr.numerator for c in self.num], self.den * fr.denominator)

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise CycDivisionError(f"division by zero in Q(zeta_{self.m})")
        if self.is_rational():
            q = Fraction(self.num[0], self.den)
            return CyclotomicNumber.from_rational(1 / q, self.m)
        adj, norm = _adjugate(self.m, self.num)
        return CyclotomicNumber(self.m, [a * self.den for a in adj], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.inverse())

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicNumber.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.m == o.m:
            return self.den == o.den and self.num == o.num
        a, b = _to_common(self, o)
        return a.den == b.den and a.num == b.num

    # Cross-conductor equality would require canonical compression to hash
    # consistently; values are compared, not hashed.
    __hash__ = None  # type: ignore[assignment]

    def __bool__(self):
        return any(self.num)

    # ------------------------------------------------------------------
    # presentation

    def to_json(self) -> dict:
        """The conductor and each coordinate as str(Fraction) writes it,
        "n" or "n/d" in lowest terms, without building the Fractions."""
        coeffs = []
        for x in self.num:
            g = math.gcd(x, self.den)
            coeffs.append(str(x // g) if g == self.den else f"{x // g}/{self.den // g}")
        return {"m": self.m, "coeffs": coeffs}

    def __str__(self):
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        parts = []
        for i, c in enumerate(self.coefficients()):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def __repr__(self):
        return f"CyclotomicNumber({self.m}, {list(self.coefficients())})"


def _to_common(a: CyclotomicNumber, b: CyclotomicNumber) -> tuple[CyclotomicNumber, CyclotomicNumber]:
    if a.m == b.m:
        return a, b
    big = math.lcm(a.m, b.m)
    return a.embed(big), b.embed(big)


def linear_combination(terms: Iterable[tuple[Scalar, CyclotomicNumber]], m: int) -> CyclotomicNumber:
    """Sum of coeff * value over terms, all values at conductor m.

    Accumulates integer vectors over one running denominator, which is much
    cheaper than repeated pairwise additions in hot loops.
    """
    phi = euler_phi(m)
    acc = [0] * phi
    den = 1
    for coeff, val in terms:
        fr = Fraction(coeff)
        t_den = val.den * fr.denominator
        lcm = math.lcm(den, t_den)
        if lcm != den:
            f = lcm // den
            acc = [c * f for c in acc]
            den = lcm
        f = den // t_den
        cn = fr.numerator * f
        for i, c in enumerate(val.num):
            if c:
                acc[i] += c * cn
    return CyclotomicNumber(m, acc, den)
