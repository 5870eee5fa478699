"""Truncated formal power series over a cyclotomic field.

The exponential-generating-function engine: a series stores coefficients
c_0..c_N exactly; every binary operation truncates to the smaller order, so
each computed coefficient is exact.  The analytic convergence region of the
source expressions plays no role here; coefficients are formal.

A series holds one form, its integer rows: one common positive
denominator, one row of phi(m) integer coordinates per coefficient, and
per row a bound on the coordinates' bit lengths (see below), derived on the
first read that needs it.  A series built from coefficients derives its
rows when it is built; a product or quotient returns a series built from
rows alone.  Products and quotients read their operands' rows, never their
coefficients, so the cached factors of a closed form are put into integer
form once, not once per product.  Three more operations work on rows
alone: sums of exponentials with integer rates (`exp_sum`), products with
exp(c*t) for a rational c (`mul_exp`) and the substitution t -> q*t for a
rational q (`scale_variable`).

Normalisation happens only at the edges:

  * a product divides its rows and denominator by their one common content
    gcd, which leaves the least common denominator of its coefficients;
  * `coeffs`, the public tuple of canonical `CyclotomicNumber`s, is built
    from the rows on its first read and cached; `egf_coefficient` reduces
    the one coefficient it returns;
  * equality cross-multiplies the two sides' rows by the other side's
    denominator (and by any weights) and normalises nothing;
  * `normal_form` gives a series divided by a weight in lowest terms, for
    callers that compare one series with many others.

Products and quotients are batched integer convolutions.  Each
coefficient's phi(m) coordinates are packed into one Python int,
coordinate x at bit offset x*W with signed digits: the row of a(x) packs to
a(2^W).  x -> 2^W is a ring map from Z[x]/Phi_m onto Z/N, N = Phi_m(2^W),
so a chain of factors f_1 .. f_k (`product`) is multiplied left to right
entirely in Z/N: each step sums the big-int products for one output
coefficient and takes one `%` by N, with no unpacking and no content gcd
between factors.  The last step's sums, lifted into (-N/2, N/2], are
r(2^W) themselves, r the reduced coordinates of the exact product's
coefficient, and their phi digits are read off with shifts and masks.  The
product then loses its one content gcd.

The width comes from per-row bounds.  With L[t] the bit length of the
largest |coordinate| of row t (0 for a zero row, as |x| < 2^0 means
x = 0), a series' row form keeps the prefix maxima B[t] = max(L[0..t])
(`_row_bounds`): every coordinate of rows 0..t is below 2^B[t], and B is
nondecreasing.  With n the number of coefficients kept, B_l the row
bounds of f_l and G = B_1 + .. + B_(k-1) element by element, let

    top = max_t (G[t] + B_k[n - 1 - t]),
    W = top + (k - 1) * (bitlen(phi * n) + F_m) + 2,

rounded up to a multiple of WIDTH_STEP bits, with
F_m = bitlen(max_i (1 + sum_k |x^(phi+k) mod Phi_m|_i)) (see `_fold_bits`).
For two factors top is the largest L_1[i] + L_2[j] over i + j <= n - 1:
the largest pair that a truncated product multiplies, never two top rows.
Then every reduced coordinate of the product satisfies |r_i| < 2^(W-2), so
no digit overflows into its neighbour.  By induction on the chain, with
step = bitlen(phi * n) + F_m: the reduced coordinates of coefficient t of
g = f_1 .. f_j are below 2^(G_j[t] + (j - 1) * step), G_j = B_1 + .. + B_j
(at j = 1 this is the row bound).  Coefficient t of g * f_(j+1) before
reduction sums t + 1 <= n products g[i] * f_(j+1)[t - i], and each
coordinate of such a product sums at most phi products of coordinates,
each below 2^(G_j[i] + B_(j+1)[t - i] + (j - 1) * step) <=
2^(G_j[t] + B_(j+1)[t] + (j - 1) * step), the bounds being nondecreasing.
Reduction modulo Phi_m adds to each coordinate the high coordinates times
the entries of `_reduction_rows`, which multiplies the bound by less than
2^F_m, so the coordinates of coefficient t are below
2^(G_(j+1)[t] + j * step).  At the last factor each term of coefficient t
is bounded the same way by 2^(G[i] + B_k[n - 1 - i] + (k - 2) * step) <=
2^(top + (k - 2) * step), as t - i <= n - 1 - i, so after reduction every
coordinate is below 2^(top + (k - 1) * step) = 2^(W-2) for the unrounded
W; rounding up only widens it.  W is never above the width from each
factor's largest bound alone, sum_l B_l[n - 1] + (k - 1) * step + 2.  The
lift is exact too: with S = sum_{i<phi} 2^(iW) and A the largest
|coefficient| of Phi_m below its leading 1,

    2 |r(2^W)| < 2^(W-1) S,    N >= 2^(phi W) - A S,

so 2 |r(2^W)| < N once (2^(W-1) + A) S <= 2^(phi W); as
S (2^W - 1) < 2^(phi W), A <= 2^(W-1) - 1 suffices.  The row of x^phi
mod Phi_m is minus Phi_m's low coefficients, so A < 2^F_m <= 2^(W-3): the
width needs no further floor for any m.

A quotient sizes each of its sums from that sum's own terms the same way,
and a product with exp(c*t) sizes its weighted sums from the weights and
the row bounds, with no reduction (`mul_exp`).  Truncation keeps a prefix
of the row bounds and `shift_up` puts a 0 in front for each new row, so
neither reads a coordinate.

Rounding the width up lets a series keep its packed rows per width
(`_packed_rows`): a stored factor is packed at a few widths for the whole
process, and every truncation of it shares its packings.  A series keeps a
packing only up to twice its largest row bound plus KEPT_WIDTH_SLACK bits,
which every product of the standard workloads meets, so that the bytes it
keeps alive have a bound of their own (`TruncatedSeries.held_bytes`); a
wider packing is made for its one product.  Packing a whole series into one
int as well was measured to be no faster at the orders used here.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from operator import add, mul
from typing import Iterable, Optional, Sequence, Union

from .errors import ParameterError
from .exactnum import (CycDivisionError, CyclotomicNumber, Scalar, _reduction_rows, _vec_mul_mod,
                       cyclotomic_polynomial, euler_phi)

# (common denominator, one coordinate list per coefficient, the row bounds
# (`_row_bounds`) or None until first needed)
RowForm = tuple[int, tuple[list[int], ...], Optional[tuple[int, ...]]]


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


def _bit_lengths(rows) -> list[int]:
    """The bit length of each row's largest |coordinate|, 0 for a zero row."""
    return [max(map(abs, row)).bit_length() for row in rows]


def _row_bounds(rows) -> tuple[int, ...]:
    """Row t's bound: the bit length of the largest |coordinate| in rows
    0..t, 0 while those rows are zero."""
    return tuple(accumulate(_bit_lengths(rows), max))


def _common_rows(fractions: Iterable[tuple[int, Sequence[int]]]) -> RowForm:
    """Rows given as (denominator, row) pairs, over their least common
    denominator."""
    fractions = list(fractions)
    den = math.lcm(*(d for d, _ in fractions))
    rows = tuple(list(row) if d == den else [x * (den // d) for x in row] for d, row in fractions)
    return den, rows, None


def _content_reduced(den: int, rows: list[list[int]]) -> RowForm:
    """rows / den with their one common content gcd divided out."""
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return den, tuple(rows), None


@lru_cache(maxsize=None)
def _fold_bits(m: int) -> int:
    """Bits a coordinate may gain in its reduction modulo Phi_m: it becomes its
    own digit plus the high digits times the entries of `_reduction_rows`."""
    rows = _reduction_rows(m)
    return max(1 + sum(abs(row[i]) for row in rows) for i in range(len(rows[0]))).bit_length()


# product widths are rounded up to a multiple of this many bits, so that a
# stored factor is packed at a few widths only (see `_packed_rows`)
WIDTH_STEP = 32
# packed widths a series keeps, oldest first out
PACKED_WIDTHS = 4
# a series keeps a packing of at most 2*B + KEPT_WIDTH_SLACK bits, B its
# largest row bound: the standard workloads pack at most 2*B + 96 bits
KEPT_WIDTH_SLACK = 128


def _int_bytes(bits: int) -> int:
    """An upper bound of the size of an int of at most `bits` bits."""
    digits = max(1, -(-bits // sys.int_info.bits_per_digit))
    return sys.getsizeof(1) + (digits - 1) * sys.int_info.sizeof_digit


_INT_BYTES = _int_bytes(1)


def _list_bytes(length: int) -> int:
    """An upper bound of the size of a list of `length` items built by
    appending, with its over-allocation."""
    return sys.getsizeof([]) + (length + (length >> 3) + 6) * (sys.getsizeof([None]) - sys.getsizeof([]))


@lru_cache(maxsize=1024)
def _shape_bytes(n: int, phi: int, bound: int) -> int:
    """An upper bound of the bytes a series of n rows of phi coordinates,
    each coordinate below 2^bound, keeps alive beside its denominator and
    the n denominators of its `coeffs` view: the object, its conductor and
    its row form;
    n rows and n row bounds (each below 2^30); the `coeffs` view, built or
    not, n `CyclotomicNumber` objects whose coordinates are no larger than
    the rows'; and a dict of PACKED_WIDTHS packed copies of every row at
    the widest kept width, 2*bound + KEPT_WIDTH_SLACK bits (`_packed_rows`),
    each row a phi*width-bit int."""
    coords = n * phi * _int_bytes(bound)
    rows = (sys.getsizeof(object.__new__(TruncatedSeries)) + _INT_BYTES + sys.getsizeof((0, 0, 0))
            + sys.getsizeof((0,) * n) + n * _list_bytes(phi) + sys.getsizeof((0,) * n) + n * _INT_BYTES)
    view = sys.getsizeof((0,) * n) + n * (sys.getsizeof(CyclotomicNumber.zero(1)) + sys.getsizeof((0,) * phi))
    width = -(-(2 * bound + KEPT_WIDTH_SLACK) // WIDTH_STEP) * WIDTH_STEP
    packed = sys.getsizeof({i: None for i in range(PACKED_WIDTHS)}) + PACKED_WIDTHS * (
        _list_bytes(n) + _int_bytes(width.bit_length()) + n * _int_bytes(phi * width))
    return 2 * coords + rows + view + packed


def _chain_top(bounds: Sequence[Sequence[int]], n: int) -> int:
    """top = max_t (G[t] + B_k[n - 1 - t]) for the row bounds B_1 .. B_k of
    a chain's factors, over its n kept rows, with G = B_1 + .. + B_(k-1)
    element by element (see the module docstring)."""
    grown, *middle, last = bounds
    for prefix in middle:
        grown = list(map(add, grown, prefix))
    return max(map(add, grown, reversed(last[:n])))


def _pack_width(m: int, phi: int, top: int, factors: int, terms: int) -> int:
    """The width of a product of `factors` factors with `terms` coefficients
    kept, whose largest pair of row bounds sums to `top` (see the module
    docstring)."""
    step = (phi * terms).bit_length() + _fold_bits(m)
    width = top + (factors - 1) * step + 2
    return -(-width // WIDTH_STEP) * WIDTH_STEP


def _pack(row: Sequence[int], width: int) -> int:
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


@lru_cache(maxsize=1024)
def _digit_offset(phi: int, width: int) -> int:
    """Half of 2^width in each of `phi` digits of `width` bits."""
    return (1 << (width - 1)) * (((1 << (phi * width)) - 1) // ((1 << width) - 1))


@lru_cache(maxsize=1024)
def _modulus(m: int, width: int) -> tuple[int, int, int]:
    """(N, h, lift): N = Phi_m(2^width) and h = floor(N/2).  N is odd, so
    for any x the residue of x in (-N/2, N/2] is (x + h) % N - h, and
    (x + h) % N + lift is that residue with half of 2^width added to each of
    its phi digits, ready to be read with shifts and masks."""
    modulus = _pack(cyclotomic_polynomial(m), width)
    half = modulus >> 1
    return modulus, half, _digit_offset(euler_phi(m), width) - half


def _unpack(packed: int, phi: int, width: int) -> list[int]:
    """The `phi` signed digits of `packed`, each below half of 2^width."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    packed += _digit_offset(phi, width)
    return [((packed >> shift) & mask) - half for shift in range(0, phi * width, width)]


class TruncatedSeries:
    """Formal power series over Q(zeta_m) truncated at an explicit order.

    Held as integer rows (see the module docstring); `coeffs` is a view of
    them, built on its first read and cached."""

    __slots__ = ("m", "_coeffs", "_form", "_packed", "__weakref__")

    def __init__(self, m: int, coeffs: Sequence[Union[CyclotomicNumber, Scalar]]):
        if not coeffs:
            raise ValueError("a series stores at least the constant term")
        self.m = m
        self._coeffs = tuple(_as_cyc(c, m) for c in coeffs)
        self._form: RowForm = _common_rows((c.den, c.num) for c in self._coeffs)
        self._packed: dict[int, list[int]] | None = None

    @staticmethod
    def _from_rows(m: int, form: RowForm, packed: dict[int, list[int]] | None = None) -> "TruncatedSeries":
        series = object.__new__(TruncatedSeries)
        series.m = m
        series._coeffs = None
        series._form = form
        series._packed = packed
        return series

    def _rows(self) -> RowForm:
        """The row form with its row bounds, derived on the first call: the
        readers that need only the denominator and rows take `_form`, so a
        product that is only compared or read never derives its bounds."""
        form = self._form
        if form[2] is None:
            form = self._form = (form[0], form[1], _row_bounds(form[1]))
        return form

    def _packed_rows(self, width: int) -> list[int]:
        """Each row packed at `width`, kept per width (at most PACKED_WIDTHS
        of them) in a cache shared with every truncation of this series.  A
        truncation packs only its own rows, so a shared list shorter than
        this series' rows is packed again in full.  A width above
        2*B + KEPT_WIDTH_SLACK, B the largest row bound, is packed and not
        kept."""
        cache = self._packed
        if cache is None:
            cache = self._packed = {}
        packed = cache.get(width)
        rows = self._form[1]
        if packed is None or len(packed) < len(rows):
            packed = [_pack(row, width) for row in rows]
            if width > 2 * self._rows()[2][-1] + KEPT_WIDTH_SLACK:
                return packed
            if width not in cache and len(cache) >= PACKED_WIDTHS:
                del cache[next(iter(cache))]
            cache[width] = packed
        return packed

    def held_bytes(self) -> int:
        """An upper bound of the bytes this series keeps alive, for a cache
        that charges what it holds (`quotients._stored`), worked out from its
        shape, its largest row bound and its denominator (`_shape_bytes`)."""
        den, rows, bounds = self._rows()
        return _shape_bytes(len(rows), len(rows[0]), bounds[-1]) + (len(rows) + 1) * sys.getsizeof(den)

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
        return len(self._form[1]) - 1

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def exp_sum(terms: Sequence[tuple[CyclotomicNumber, int]], order: int, m: int) -> "TruncatedSeries":
        """sum_j v_j * exp(s_j*t) truncated at `order`, for values v_j at
        conductor m and integers s_j, on integer rows: with L the common
        denominator of the v_j, the t^n/n! coefficient is
        sum_j num_j * (L/den_j) * s_j^n over L (`from_egf_rows`)."""
        phi = euler_phi(m)
        lcd = math.lcm(*(v.den for v, _ in terms))
        rows = []
        for n in range(order + 1):
            acc = [0] * phi
            for v, s in terms:
                q = (lcd // v.den) * s ** n
                if q:
                    acc = [x + q * y for x, y in zip(acc, v.num)]
            rows.append(acc)
        return TruncatedSeries.from_egf_rows(m, rows, lcd)

    @staticmethod
    def from_egf_rows(m: int, rows: Sequence[Sequence[int]], den: int = 1) -> "TruncatedSeries":
        """sum_n (row_n / den) t^n/n! for integer rows of phi(m)
        coordinates, truncated at the last row: with N the order, row n
        times N!/n! over den * N!, which then loses its one content gcd."""
        fact = math.factorial(len(rows) - 1)
        out = [[x * (fact // math.factorial(n)) for x in row] for n, row in enumerate(rows)]
        return TruncatedSeries._from_rows(m, _content_reduced(den * fact, out))

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
        """Cauchy product, truncated to the smaller order (`product`)."""
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        return product((self, other))

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
        its own terms at one width, from the largest sum of b_i's row bound
        and out_(k-i)'s bit length over its terms (as in `product`), is
        reduced modulo Phi_m(2^width) once, unpacked and multiplied by the
        row of 1/b_0; each out_k loses its own content gcd, which keeps the
        next sums small.
        """
        a, b, n = self._common(other)
        m = a.m
        phi = euler_phi(m)
        den_a, rows_a, _ = a._form
        den_b, rows_b, bounds_b = b._rows()
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
                den_o, rows_o, _ = _common_rows(out[k - i] for i in terms)
                top = max(map(add, (bounds_b[i] for i in terms), _bit_lengths(rows_o)))
                width = _pack_width(m, phi, top, 2, len(terms))
                packed = sum(_pack(rows_b[i], width) * _pack(ro, width) for i, ro in zip(terms, rows_o))
                if packed:
                    # a_k - s / (den_b * den_o), over den_a * den_b * den_o
                    modulus, half, _ = _modulus(m, width)
                    s = _unpack((packed + half) % modulus - half, phi, width)
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
        den, rows, bounds = self._form
        if bounds is not None:
            bounds = (0,) * k + bounds
        return TruncatedSeries._from_rows(self.m, (den, ([0] * euler_phi(self.m),) * k + rows, bounds))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        den, rows, bounds = self._rows()
        packed = self._packed
        if packed is None:
            packed = self._packed = {}
        return TruncatedSeries._from_rows(self.m, (den, rows[: order + 1], bounds[: order + 1]), packed)

    def mul_exp(self, c: Fraction) -> "TruncatedSeries":
        """self * exp(c*t) at self's order, for a rational c, on integer rows.

        With c = a/b and N the order, row n is
        sum_k row[n-k] * a^k * b^(N-k) * N!/k! over den * b^N * N!, which
        then loses its one content gcd: on packed rows, one big-int
        multiply-add per term and no reduction.  Row n sums n + 1 <= N + 1
        terms weight_k * row[n-k], each below 2^(bitlen(weight_k) + B[N-k])
        for the row bounds B (nondecreasing, and n - k <= N - k), so the
        width holds the largest of these bounds times N + 1, and a sign
        bit."""
        c = Fraction(c)
        if not c:
            return self
        den, rows, bounds = self._rows()
        order = self.order
        a, b = c.numerator, c.denominator
        fact = math.factorial(order)
        weights = [a ** k * b ** (order - k) * (fact // math.factorial(k)) for k in range(order + 1)]
        phi = len(rows[0])
        top = max(map(add, map(int.bit_length, weights), reversed(bounds)))
        width = top + (order + 1).bit_length() + 1
        packed = [_pack(row, width) for row in rows]
        out = [_unpack(sum(map(mul, weights, packed[n::-1])), phi, width) for n in range(order + 1)]
        return TruncatedSeries._from_rows(self.m, _content_reduced(den * b ** order * fact, out))

    def mul_exp_coefficient(self, c: Fraction | int, n: int) -> CyclotomicNumber:
        """n! times the t^n coefficient of self * exp(c*t), for a rational
        c = a/b: sum_k n!/(n-k)! * a^(n-k) * b^k * row[k] over den * b^n,
        without building the product series.  Each call reads its n + 1
        rows once, so packing them, as `mul_exp` does, costs more than
        summing them coordinate-wise at the small n of a witness scan."""
        den, rows, _ = self._form
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
        den, rows, _ = self._form
        order = self.order
        a, b = q.numerator, q.denominator
        weights = (a ** n * b ** (order - n) for n in range(order + 1))
        out = [[x * wn for x in row] for wn, row in zip(weights, rows)]
        return TruncatedSeries._from_rows(self.m, _content_reduced(den * b ** order, out))

    def egf_coefficient(self, n: int) -> CyclotomicNumber:
        """n! times the coefficient of t^n, reduced."""
        if n > self.order:
            raise IndexError(f"index {n} beyond truncation order {self.order}")
        den, rows, _ = self._form
        fact = math.factorial(n)
        return CyclotomicNumber(self.m, [x * fact for x in rows[n]], den)

    def vanishes_below(self, k: int) -> bool:
        """Whether c_0..c_(k-1) are all zero."""
        return not any(map(any, self._form[1][:k]))

    def normal_form(self, weight: int = 1) -> tuple[int, tuple[int, ...]]:
        """self / weight in lowest terms, for a positive integer weight:
        (D, the coordinates of every row in order) over the one common
        denominator D = den * weight / g, g the gcd of den * weight and every
        coordinate.  Two series at one conductor and order, each divided by
        its weight, are equal exactly when their normal forms are.  g is
        taken from the rows, so a series whose rows are not content-reduced
        gets the same form."""
        den, rows, _ = self._form
        den *= weight
        flat = tuple(chain.from_iterable(rows))
        g = math.gcd(den, *flat)
        if g > 1:
            return den // g, tuple([x // g for x in flat])
        return den, flat

    def scaled_equal(self, other: "TruncatedSeries", wa: int = 1, wb: int = 1) -> bool:
        """self / wa == other / wb, coefficient by coefficient at one order.

        The rows are compared cross-multiplied, row_a * wb * den_b ==
        row_b * wa * den_a, so no coefficient is normalised."""
        a, b = self, other
        if not isinstance(other, TruncatedSeries) or other.m != self.m:
            a, b, _ = self._common(other)
        den_a, rows_a, _ = a._form
        den_b, rows_b, _ = b._form
        if len(rows_a) != len(rows_b):
            return False
        fa, fb = wb * den_b, wa * den_a
        if fa == fb:
            return rows_a == rows_b
        g = math.gcd(fa, fb)
        fa, fb = fa // g, fb // g
        return [u * fa for x in rows_a for u in x] == [v * fb for z in rows_b for v in z]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.scaled_equal(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"TruncatedSeries(m={self.m}, order={self.order})"


def product(factors: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """The Cauchy product of the chain f_1 .. f_k, left to right, truncated
    to the smallest order, at the lcm of the factors' conductors.

    Every factor's rows are packed at one width (`_pack_width`), sized from
    the factors' row bounds (`_chain_top`) and read from
    its packed-rows cache.  Each step's output coefficient k is the sum of
    the big-int products g[k - j] * f[j] over the factor's nonzero f_j,
    reduced modulo N = Phi_m(2^width) once and kept packed; the last step's
    sums are lifted and unpacked instead (see the module docstring), over
    the product of the denominators, and the product then loses its one
    content gcd.
    """
    if len(factors) == 1:
        return factors[0]
    m = factors[0].m
    if any(f.m != m for f in factors):
        m = math.lcm(*(f.m for f in factors))
        factors = [f if f.m == m else TruncatedSeries(m, f.coeffs) for f in factors]
    forms = [f._rows() for f in factors]
    n = min(len(rows) for _, rows, _ in forms)
    phi = len(forms[0][1][0])
    width = _pack_width(m, phi, _chain_top([form[2] for form in forms], n), len(forms), n)
    modulus, half, lift = _modulus(m, width)
    acc = factors[0]._packed_rows(width)
    last = len(factors) - 1
    for step in range(1, last + 1):
        nonzero = [(j, pb) for j, pb in enumerate(factors[step]._packed_rows(width)[:n]) if pb]
        sums = []
        for k in range(n):
            s = 0
            for j, pb in nonzero:
                if j > k:
                    break
                s += acc[k - j] * pb
            sums.append(s if step == last else s % modulus)
        acc = sums
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    shifts = range(0, phi * width, width)
    zero = [0] * phi
    out = []
    for s in acc:
        if s:
            s = (s + half) % modulus + lift
            out.append([((s >> shift) & mask) - top for shift in shifts])
        else:
            out.append(zero)
    return TruncatedSeries._from_rows(m, _content_reduced(math.prod(den for den, _, _ in forms), out))
