"""Truncated formal power series over a cyclotomic field.

The exponential-generating-function engine: a series stores coefficients
c_0..c_N exactly; every binary operation truncates to the smaller order, so
each computed coefficient is exact.  The analytic convergence region of the
source expressions plays no role here; coefficients are formal.

A series holds its integer form: one common positive denominator, one row
of phi(m) integer coordinates per coefficient, and an upper bound on the
coordinates' absolute values.  A series built from coefficients derives
that form once, on its first product, and keeps it; a product or quotient
returns a series built from rows alone.  Products and quotients read their
operands' rows, never their coefficients, so the cached factors of a
closed form are put into integer form once, not once per product.  Three
more operations work on rows alone: sums of exponentials with integer
rates (`exp_sum`), products with exp(c*t) for a rational c (`mul_exp`) and
the substitution t -> q*t for a rational q (`scale_variable`).

Normalisation happens only at the edges:

  * a product divides its rows and denominator by their one common content
    gcd, which leaves the least common denominator of its coefficients;
  * `coeffs`, the public tuple of canonical `CyclotomicNumber`s, is built
    from the rows on its first read and cached; `egf_coefficient` reduces
    the one coefficient it returns;
  * equality cross-multiplies the two sides' rows by the other side's
    denominator (and by any weights) and normalises nothing.

Products and quotients are batched integer convolutions.  Each
coefficient's phi(m) coordinates are packed into one Python int,
coordinate x at bit offset x*B with signed digits.  One big-int multiply of
two packed coefficients then yields all 2*phi - 1 coordinates of their
polynomial product, and the products summed for one output coefficient are
reduced modulo Phi_m once, on the packed int: each of the phi - 1 high
digits times its packed reduction row is added to the low phi digits, which
are then unpacked.  The width

    B = bitlen(max|a|) + bitlen(max|b|) + bitlen(phi * terms) + 2 + F_m

(max|.| over the operands' integer coordinates, `terms` the number of
products summed, F_m the bits the fold can add, see `_fold_bits`) bounds
every digit, before and after the fold, by 2^(B-2), so no digit overflows
into its neighbour.  Packing a whole series into one int as well was
measured to be no faster at the orders used here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence, Union

from .errors import ParameterError
from .exactnum import CycDivisionError, CyclotomicNumber, Scalar, _reduction_rows, _vec_mul_mod, euler_phi

# (common denominator, one coordinate list per coefficient, bound on |coordinate|)
RowForm = tuple[int, tuple[list[int], ...], int]


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


def _bound(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)))


def _common_rows(fractions: Iterable[tuple[int, Sequence[int]]]) -> RowForm:
    """Rows given as (denominator, row) pairs, over their least common
    denominator."""
    fractions = list(fractions)
    den = math.lcm(*(d for d, _ in fractions))
    rows = tuple(list(row) if d == den else [x * (den // d) for x in row] for d, row in fractions)
    return den, rows, _bound(rows)


def _content_reduced(den: int, rows: list[list[int]]) -> RowForm:
    """rows / den with their one common content gcd divided out."""
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return den, tuple(rows), _bound(rows)


@lru_cache(maxsize=None)
def _fold_bits(m: int) -> int:
    """Bits a coordinate may gain in the fold modulo Phi_m: it becomes its
    own digit plus the high digits times the entries of `_reduction_rows`."""
    rows = _reduction_rows(m)
    return max(1 + sum(abs(row[i]) for row in rows) for i in range(len(rows[0]))).bit_length()


def _pack_width(m: int, phi: int, bound_a: int, bound_b: int, terms: int) -> int:
    return bound_a.bit_length() + bound_b.bit_length() + (phi * terms).bit_length() + 2 + _fold_bits(m)


def _pack(row: Sequence[int], width: int) -> int:
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


@lru_cache(maxsize=1024)
def _fold_table(m: int, width: int) -> tuple[tuple[int, ...], int, int]:
    """(the rows of x^phi .. x^(2*phi-2) mod Phi_m packed at `width`, half
    of 2^width in each of 2*phi - 1 digits, the mask of the low phi digits)."""
    rows = _reduction_rows(m)
    phi = len(rows[0])
    count = 2 * phi - 1
    offset = (1 << (width - 1)) * (((1 << (count * width)) - 1) // ((1 << width) - 1))
    return tuple(_pack(row, width) for row in rows), offset, (1 << (phi * width)) - 1


def _unpack_reduce(m: int, phi: int, packed: int, width: int) -> list[int]:
    """The coordinates, reduced modulo Phi_m, of the polynomial whose
    2*phi - 1 coefficients are the signed digits of `packed`.

    The fold stays packed: each high digit x^(phi+k) is read off and its
    packed reduction row, times the digit, is added to the low phi digits,
    which are read off last.  Adding half of 2^width to every digit makes
    them all nonnegative, so each is read with a shift and mask; the
    width's `_fold_bits` keep the folded digits below half of 2^width."""
    if phi == 1:
        return [packed]
    rows, offset, low_mask = _fold_table(m, width)
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    packed += offset
    high = packed >> (phi * width)
    low = packed & low_mask
    for row in rows:
        digit = (high & mask) - half
        if digit:
            low += digit * row
        high >>= width
    return [((low >> shift) & mask) - half for shift in range(0, phi * width, width)]


class TruncatedSeries:
    """Formal power series over Q(zeta_m) truncated at an explicit order.

    Held as coefficients, as integer rows (see the module docstring), or
    both; each form is derived from the other at most once."""

    __slots__ = ("m", "_coeffs", "_form")

    def __init__(self, m: int, coeffs: Sequence[Union[CyclotomicNumber, Scalar]]):
        if not coeffs:
            raise ValueError("a series stores at least the constant term")
        self.m = m
        self._coeffs = tuple(_as_cyc(c, m) for c in coeffs)
        self._form: RowForm | None = None

    @staticmethod
    def _from_rows(m: int, form: RowForm) -> "TruncatedSeries":
        series = object.__new__(TruncatedSeries)
        series.m = m
        series._coeffs = None
        series._form = form
        return series

    def _rows(self) -> RowForm:
        form = self._form
        if form is None:
            form = self._form = _common_rows((c.den, c.num) for c in self._coeffs)
        return form

    @property
    def coeffs(self) -> tuple[CyclotomicNumber, ...]:
        """The coefficients c_0..c_N, each in canonical form."""
        coeffs = self._coeffs
        if coeffs is None:
            den, rows, _ = self._form
            coeffs = self._coeffs = tuple(CyclotomicNumber(self.m, row, den) for row in rows)
        return coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs if self._coeffs is not None else self._form[1]) - 1

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
    def exp_sum(terms: Sequence[tuple[CyclotomicNumber, int]], order: int, m: int) -> "TruncatedSeries":
        """sum_j v_j * exp(s_j*t) truncated at `order`, for values v_j at
        conductor m and integers s_j, on integer rows: with L the common
        denominator of the v_j and N = order, row n is
        sum_j num_j * (L/den_j) * s_j^n * N!/n! over L * N!, which then loses
        its one content gcd."""
        phi = euler_phi(m)
        lcd = math.lcm(*(v.den for v, _ in terms))
        fact = math.factorial(order)
        rows = []
        for n in range(order + 1):
            acc = [0] * phi
            for v, s in terms:
                q = (lcd // v.den) * s ** n
                if q:
                    acc = [x + q * y for x, y in zip(acc, v.num)]
            scale = fact // math.factorial(n)
            rows.append([x * scale for x in acc])
        return TruncatedSeries._from_rows(m, _content_reduced(lcd * fact, rows))

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

        Each operand's rows are packed once, one int per coefficient (see
        the module docstring).  Output row k is the sum of the big-int
        products packed_a[k - j] * packed_b[j] over the nonzero b_j,
        unpacked and reduced modulo Phi_m once, over den_a * den_b; the
        whole product then loses its one content gcd.
        """
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        a, b, n = self._common(other)
        m = a.m
        phi = euler_phi(m)
        den_a, rows_a, bound_a = a._rows()
        den_b, rows_b, bound_b = b._rows()
        width = _pack_width(m, phi, bound_a, bound_b, n + 1)
        packed_a = [_pack(row, width) for row in rows_a[: n + 1]]
        nonzero_b = [(j, _pack(row, width)) for j, row in enumerate(rows_b[: n + 1]) if any(row)]
        zero = [0] * phi
        out = []
        for k in range(n + 1):
            acc = 0
            for j, pb in nonzero_b:
                if j > k:
                    break
                acc += packed_a[k - j] * pb
            out.append(_unpack_reduce(m, phi, acc, width) if acc else zero)
        return TruncatedSeries._from_rows(m, _content_reduced(den_a * den_b, out))

    __rmul__ = __mul__

    def scale(self, value) -> "TruncatedSeries":
        c = _as_cyc(value, self.m) if isinstance(value, CyclotomicNumber) else value
        if isinstance(c, CyclotomicNumber):
            return TruncatedSeries(self.m, [x * c for x in self.coeffs])
        return TruncatedSeries(self.m, [x.scale(c) for x in self.coeffs])

    def __truediv__(self, other):
        """Quotient by a series with invertible constant term b_0.

        out_k = (a_k - sum_{i=1..k} b_i * out_{k-i}) / b_0, on integer rows.
        The out_j are only known one at a time, so the sum for each k packs
        its own terms (one width from their bounds, as in `__mul__`), is
        reduced modulo Phi_m once and multiplied by the row of 1/b_0; each
        out_k loses its own content gcd, which keeps the next sums small.
        """
        a, b, n = self._common(other)
        m = a.m
        phi = euler_phi(m)
        den_a, rows_a, _ = a._rows()
        den_b, rows_b, bound_b = b._rows()
        if not any(rows_b[0]):
            raise NonUnitConstantError("series division by a series with zero constant term")
        try:
            inv0 = CyclotomicNumber(m, rows_b[0], den_b).inverse()
        except CycDivisionError as exc:  # pragma: no cover - guarded above
            raise NonUnitConstantError(str(exc)) from exc
        nonzero_b = [i for i in range(1, n + 1) if any(rows_b[i])]
        out: list[tuple[int, list[int]]] = []   # (denominator, row) of each out_k
        for k in range(n + 1):
            terms = [i for i in nonzero_b if i <= k]
            num, den = rows_a[k], den_a
            if terms:
                den_o, rows_o, bound_o = _common_rows(out[k - i] for i in terms)
                width = _pack_width(m, phi, bound_b, bound_o, len(terms))
                packed = sum(_pack(rows_b[i], width) * _pack(ro, width) for i, ro in zip(terms, rows_o))
                if packed:
                    # a_k - s / (den_b * den_o), over den_a * den_b * den_o
                    s = _unpack_reduce(m, phi, packed, width)
                    scale = den_b * den_o
                    num = [x * scale - y * den_a for x, y in zip(num, s)]
                    den = den_a * scale
            den, (row,), _ = _content_reduced(den * inv0.den, [_vec_mul_mod(m, num, inv0.num)])
            out.append((den, row))
        return TruncatedSeries._from_rows(m, _common_rows(out))

    # ------------------------------------------------------------------
    # series-specific helpers

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, keeping all known coefficients (order grows by k)."""
        den, rows, bound = self._rows()
        return TruncatedSeries._from_rows(self.m, (den, ([0] * euler_phi(self.m),) * k + rows, bound))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        den, rows, bound = self._rows()
        return TruncatedSeries._from_rows(self.m, (den, rows[: order + 1], bound))

    def mul_exp(self, c: Fraction) -> "TruncatedSeries":
        """self * exp(c*t) at self's order, for a rational c, on integer rows.

        With c = a/b and N the order, row n is
        sum_k row[n-k] * a^k * b^(N-k) * N!/k! over den * b^N * N!, which
        then loses its one content gcd: integer multiply-adds only."""
        c = Fraction(c)
        if not c:
            return self
        den, rows, _ = self._rows()
        order = self.order
        a, b = c.numerator, c.denominator
        fact = math.factorial(order)
        weights = [a ** k * b ** (order - k) * (fact // math.factorial(k)) for k in range(order + 1)]
        out = []
        for n in range(order + 1):
            acc = [0] * len(rows[0])
            for q, row in zip(weights, rows[n::-1]):
                acc = [x + q * y for x, y in zip(acc, row)]
            out.append(acc)
        return TruncatedSeries._from_rows(self.m, _content_reduced(den * b ** order * fact, out))

    def mul_exp_coefficient(self, c: Fraction | int, n: int) -> CyclotomicNumber:
        """n! times the t^n coefficient of self * exp(c*t), for a rational
        c = a/b: sum_k n!/(n-k)! * a^(n-k) * b^k * row[k] over den * b^n,
        without building the product series."""
        den, rows, _ = self._rows()
        a, b = c.numerator, c.denominator
        acc = [0] * len(rows[0])
        for k in range(n + 1):
            q = math.factorial(n) // math.factorial(n - k) * a ** (n - k) * b ** k
            if q:
                acc = [x + q * y for x, y in zip(acc, rows[k])]
        return CyclotomicNumber(self.m, acc, den * b ** n)

    def scale_variable(self, q) -> "TruncatedSeries":
        """Substitute t -> q*t for a rational q, mapping c_n to q^n * c_n, on
        integer rows: with q = a/b and N the order, row n times a^n * b^(N-n)
        over den * b^N, which then loses its one content gcd."""
        q = Fraction(q)
        den, rows, _ = self._rows()
        order = self.order
        a, b = q.numerator, q.denominator
        weights = (a ** n * b ** (order - n) for n in range(order + 1))
        out = [[x * wn for x in row] for wn, row in zip(weights, rows)]
        return TruncatedSeries._from_rows(self.m, _content_reduced(den * b ** order, out))

    def egf_coefficient(self, n: int) -> CyclotomicNumber:
        """n! times the coefficient of t^n, reduced."""
        if n > self.order:
            raise IndexError(f"index {n} beyond truncation order {self.order}")
        den, rows, _ = self._rows()
        fact = math.factorial(n)
        return CyclotomicNumber(self.m, [x * fact for x in rows[n]], den)

    def vanishes_below(self, k: int) -> bool:
        """Whether c_0..c_(k-1) are all zero."""
        return not any(map(any, self._rows()[1][:k]))

    def scaled_equal(self, other: "TruncatedSeries", wa: int = 1, wb: int = 1) -> bool:
        """self / wa == other / wb, coefficient by coefficient at one order.

        The rows are compared cross-multiplied, row_a * wb * den_b ==
        row_b * wa * den_a, so no coefficient is normalised."""
        a, b, n = self._common(other)
        if a.order != b.order:
            return False
        den_a, rows_a, _ = a._rows()
        den_b, rows_b, _ = b._rows()
        fa, fb = wb * den_b, wa * den_a
        g = math.gcd(fa, fb)
        fa, fb = fa // g, fb // g
        if fa == fb:
            return rows_a == rows_b
        return all(u * fa == v * fb for x, z in zip(rows_a, rows_b) for u, v in zip(x, z))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.scaled_equal(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"TruncatedSeries(m={self.m}, order={self.order})"

