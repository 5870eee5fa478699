"""Truncated formal power series over a cyclotomic field.

The exponential-generating-function engine: a series stores coefficients
c_0..c_N exactly; every binary operation truncates to the smaller order, so
each computed coefficient is exact.  The analytic convergence region of the
source expressions plays no role here; coefficients are formal.

Products and quotients are batched integer convolutions.  Each operand's
coefficients are brought to one common denominator, and each coefficient's
phi(m) integer coordinates are packed into one Python int, coordinate x at
bit offset x*B with signed digits.  One big-int multiply of two packed
coefficients then yields all 2*phi - 1 coordinates of their polynomial
product, and the products summed for one output coefficient are unpacked,
reduced modulo Phi_m and normalised once.  The width

    B = bitlen(max|a|) + bitlen(max|b|) + bitlen(phi * terms) + 2

(max|.| over the operands' integer coordinates, `terms` the number of
products summed) bounds every unpacked digit by 2^(B-2), so no digit
overflows into its neighbour.  Packing a whole series into one int as well
was measured to be no faster at the orders used here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence, Union

from .errors import ParameterError
from .exactnum import CycDivisionError, CyclotomicNumber, Scalar, _reduce_mod_phi, euler_phi


class NonUnitConstantError(ParameterError):
    """Series division with a non-invertible constant term.

    In this engine a zero constant term is the arithmetic signal that some
    parameter choice made xi^(d*w) collapse to 1.
    """

    def __init__(self, message: str, factor: str | None = None):
        super().__init__(message)
        self.factor = factor


def _as_cyc(value, m: int) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value.embed(m) if value.m != m else value
    return CyclotomicNumber.from_rational(value, m)


def _common_rows(coeffs: Sequence[CyclotomicNumber]) -> tuple[int, list[Sequence[int]], int]:
    """The coefficients' integer coordinates over one common denominator:
    (denominator, one row per coefficient, largest absolute coordinate)."""
    den = math.lcm(*(c.den for c in coeffs))
    rows = [c.num if c.den == den else [x * (den // c.den) for x in c.num] for c in coeffs]
    return den, rows, max(map(abs, chain.from_iterable(rows)))


def _pack_width(bound_a: int, bound_b: int, terms: int, phi: int) -> int:
    return bound_a.bit_length() + bound_b.bit_length() + (phi * terms).bit_length() + 2


def _pack(row: Sequence[int], width: int) -> int:
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


def _unpack_reduce(m: int, phi: int, packed: int, width: int, den: int) -> CyclotomicNumber:
    """The element whose unreduced coordinates are the 2*phi - 1 signed
    digits of `packed`, over `den`.  Adding half of 2^width to every digit
    makes them all nonnegative, so each is read off with a shift and mask."""
    count = 2 * phi - 1
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    packed += half * (((1 << (count * width)) - 1) // mask)
    digits = [((packed >> (i * width)) & mask) - half for i in range(count)]
    return CyclotomicNumber(m, _reduce_mod_phi(m, digits), den)


class TruncatedSeries:
    """Formal power series over Q(zeta_m) truncated at an explicit order."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Sequence[Union[CyclotomicNumber, Scalar]]):
        if not coeffs:
            raise ValueError("a series stores at least the constant term")
        self.m = m
        self.coeffs = tuple(_as_cyc(c, m) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def constant(value, order: int, m: int = 1) -> "TruncatedSeries":
        c = _as_cyc(value, m)
        zero = CyclotomicNumber.zero(m)
        return TruncatedSeries(m, (c,) + (zero,) * order)

    @staticmethod
    def one(order: int, m: int = 1) -> "TruncatedSeries":
        return TruncatedSeries.constant(1, order, m)

    @staticmethod
    def zero(order: int, m: int = 1) -> "TruncatedSeries":
        return TruncatedSeries.constant(0, order, m)

    @staticmethod
    def exp_linear(c, order: int, m: int | None = None) -> "TruncatedSeries":
        """exp(c*t) truncated: coefficients c^n / n!."""
        if m is None:
            m = c.m if isinstance(c, CyclotomicNumber) else 1
        cur = CyclotomicNumber.one(m)
        coeffs = [cur]
        cc = _as_cyc(c, m)
        for n in range(1, order + 1):
            cur = (cur * cc).scale(Fraction(1, n))
            coeffs.append(cur)
        return TruncatedSeries(m, coeffs)

    # ------------------------------------------------------------------
    # arithmetic (binary ops truncate to the common order)

    def _common(self, other: "TruncatedSeries") -> tuple["TruncatedSeries", "TruncatedSeries", int]:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        m = self.m if self.m == other.m else math.lcm(self.m, other.m)
        a = self if self.m == m else TruncatedSeries(m, self.coeffs)
        b = other if other.m == m else TruncatedSeries(m, other.coeffs)
        return a, b, min(a.order, b.order)

    def __add__(self, other):
        a, b, n = self._common(other)
        return TruncatedSeries(a.m, [x + y for x, y in zip(a.coeffs[: n + 1], b.coeffs[: n + 1])])

    def __sub__(self, other):
        a, b, n = self._common(other)
        return TruncatedSeries(a.m, [x - y for x, y in zip(a.coeffs[: n + 1], b.coeffs[: n + 1])])

    def __neg__(self):
        return TruncatedSeries(self.m, [-c for c in self.coeffs])

    def __mul__(self, other):
        """Cauchy product, truncated to the smaller order.

        Each operand is packed once, one int per coefficient (see the module
        docstring).  Output coefficient k is the sum of the big-int products
        packed_a[k - j] * packed_b[j] over the nonzero b_j, unpacked and
        reduced modulo Phi_m once, over the denominator den_a * den_b.
        """
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        a, b, n = self._common(other)
        m = a.m
        phi = euler_phi(m)
        den_a, rows_a, bound_a = _common_rows(a.coeffs[: n + 1])
        den_b, rows_b, bound_b = _common_rows(b.coeffs[: n + 1])
        width = _pack_width(bound_a, bound_b, n + 1, phi)
        packed_a = [_pack(row, width) for row in rows_a]
        nonzero_b = [(j, _pack(row, width)) for j, row in enumerate(rows_b) if any(row)]
        zero = CyclotomicNumber.zero(m)
        out = []
        for k in range(n + 1):
            acc = 0
            for j, pb in nonzero_b:
                if j > k:
                    break
                acc += packed_a[k - j] * pb
            out.append(_unpack_reduce(m, phi, acc, width, den_a * den_b) if acc else zero)
        return TruncatedSeries(m, out)

    __rmul__ = __mul__

    def scale(self, value) -> "TruncatedSeries":
        c = _as_cyc(value, self.m) if isinstance(value, CyclotomicNumber) else value
        if isinstance(c, CyclotomicNumber):
            return TruncatedSeries(self.m, [x * c for x in self.coeffs])
        return TruncatedSeries(self.m, [x.scale(c) for x in self.coeffs])

    def __truediv__(self, other):
        """Quotient by a series with invertible constant term b_0.

        out_k = (a_k - sum_{i=1..k} b_i * out_{k-i}) / b_0.  The out_j are
        only known one at a time, so the sum for each k packs its own terms
        (one width from their bounds, as in `__mul__`) and is reduced modulo
        Phi_m once.
        """
        a, b, n = self._common(other)
        b0 = b.coeffs[0]
        if b0.is_zero():
            raise NonUnitConstantError("series division by a series with zero constant term")
        try:
            inv0 = b0.inverse()
        except CycDivisionError as exc:  # pragma: no cover - guarded above
            raise NonUnitConstantError(str(exc)) from exc
        m = a.m
        phi = euler_phi(m)
        nonzero_b = [i for i in range(1, n + 1) if not b.coeffs[i].is_zero()]
        out = [a.coeffs[0] * inv0]
        for k in range(1, n + 1):
            acc = a.coeffs[k]
            terms = [i for i in nonzero_b if i <= k]
            if terms:
                den_b, rows_b, bound_b = _common_rows([b.coeffs[i] for i in terms])
                den_o, rows_o, bound_o = _common_rows([out[k - i] for i in terms])
                width = _pack_width(bound_b, bound_o, len(terms), phi)
                packed = sum(_pack(rb, width) * _pack(ro, width) for rb, ro in zip(rows_b, rows_o))
                if packed:
                    acc = acc - _unpack_reduce(m, phi, packed, width, den_b * den_o)
            out.append(acc * inv0)
        return TruncatedSeries(m, out)

    # ------------------------------------------------------------------
    # series-specific helpers

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, keeping all known coefficients (order grows by k)."""
        zero = CyclotomicNumber.zero(self.m)
        return TruncatedSeries(self.m, (zero,) * k + self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.m, self.coeffs[: order + 1])

    def scale_variable(self, w) -> "TruncatedSeries":
        """Substitute t -> w*t, mapping c_n to w^n * c_n."""
        out = []
        power = CyclotomicNumber.one(self.m) if isinstance(w, CyclotomicNumber) else Fraction(1)
        for n, c in enumerate(self.coeffs):
            if n:
                power = power * w
            out.append(c * power if isinstance(power, CyclotomicNumber) else c.scale(power))
        return TruncatedSeries(self.m, out)

    def egf_coefficient(self, n: int) -> CyclotomicNumber:
        """n! times the coefficient of t^n."""
        if n > self.order:
            raise IndexError(f"index {n} beyond truncation order {self.order}")
        return self.coeffs[n].scale(math.factorial(n))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b, n = self._common(other)
        return a.coeffs[: n + 1] == b.coeffs[: n + 1] and a.order == b.order

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"TruncatedSeries(m={self.m}, order={self.order})"
