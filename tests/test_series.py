"""Truncated series arithmetic and the EGF helpers."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.bernoulli import TwistSpec
from bernsym.dirichlet import trivial_character
from bernsym.exactnum import CyclotomicNumber as Cyc, euler_phi
from bernsym import quotients
from bernsym.quotients import QUOTIENT_TYPES, closed_form_series, mono_val
from bernsym.series import (KEPT_WIDTH_SLACK, PACKED_WIDTHS, WIDTH_STEP, NonUnitConstantError, TruncatedSeries as TS,
                            product)

from helpers import exp_linear, series_one, series_zero


def test_basic_mul():
    one_plus_t = TS(1, [1, 1, 0, 0, 0])
    one_minus_t = TS(1, [1, -1, 0, 0, 0])
    prod = one_plus_t * one_minus_t
    assert prod == TS(1, [1, 0, -1, 0, 0])


def test_order_is_min_of_operands():
    a = TS(1, [1, 2, 3])
    b = TS(1, [1, 1])
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_egf_coefficient():
    e2 = exp_linear(2, 5)
    assert e2.egf_coefficient(3) == 8
    assert series_zero(5).egf_coefficient(4) == 0
    with pytest.raises(IndexError):
        e2.egf_coefficient(6)


def hand_expansion_t_over_z3_exp_minus_one():
    """Oracle: expand t / (zeta_3 e^t - 1) by hand to order 1.

    zeta_3 e^t - 1 = (zeta_3 - 1) + zeta_3 t + ..., and the unit constant
    inverts to (zeta_3^2 - 1)/3.
    """
    z = Cyc.zeta(3)
    c0 = Cyc.zero(3)
    c1 = (z ** 2 - 1).scale(Fraction(1, 3))
    return c0, c1


def test_quotient_example_to_order_one():
    z = Cyc.zeta(3)
    num = TS(3, [0, 1])  # t, order 1
    den = exp_linear(z, 1).scale(z) - series_one(1, 3)
    q = num / den
    c0, c1 = hand_expansion_t_over_z3_exp_minus_one()
    assert q.coeffs[0] == c0
    assert q.coeffs[1] == c1
    assert q.egf_coefficient(1) == c1


def test_div_zero_constant_term():
    t = TS(1, [0, 1, 0])
    with pytest.raises(NonUnitConstantError):
        series_one(2) / t


def small_series(m, order):
    coeff = st.integers(min_value=-5, max_value=5)
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TS(m, [Cyc.from_rational(c, m) for c in cs])
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_div_is_section_of_mul(data):
    a = data.draw(small_series(3, 4))
    b = data.draw(small_series(3, 4))
    if b.coeffs[0].is_zero():
        b = b + series_one(4, 3)
    assert (a * b) / b == a


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mul_assoc_comm(data):
    a = data.draw(small_series(4, 3))
    b = data.draw(small_series(4, 3))
    c = data.draw(small_series(4, 3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# The packed kernel of __mul__ and __truediv__ on full phi(m)-coordinate
# coefficients with nontrivial denominators, against the schoolbook Cauchy
# product written with CyclotomicNumber * and +.

# the standard grid's conductors, m = 2, two wider fields, and m = 105,
# whose Phi_m has a coefficient -2: the exact lift of the residue modulo
# Phi_m(2^W) leans on the largest |coefficient| of Phi_m
KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 10, 12, 14, 20, 28, 105)


def cyc_elements(m, low=-300, high=300):
    phi = euler_phi(m)
    element = st.builds(
        lambda num, den: Cyc(m, num, den),
        st.lists(st.integers(low, high), min_size=phi, max_size=phi),
        st.integers(1, 720),
    )
    return st.one_of(st.just(Cyc.zero(m)), element)


def cyc_series(m, order, **bounds):
    return st.lists(cyc_elements(m, **bounds), min_size=order + 1, max_size=order + 1).map(lambda cs: TS(m, cs))


def invertible(series):
    if series.coeffs[0].is_zero():
        return series + series_one(series.order, series.m)
    return series


def schoolbook(a, b):
    m = math.lcm(a.m, b.m)
    a = [c.embed(m) for c in a.coeffs]
    b = [c.embed(m) for c in b.coeffs]
    out = []
    for k in range(min(len(a), len(b))):
        acc = Cyc.zero(m)
        for j in range(k + 1):
            acc = acc + a[k - j] * b[j]
        out.append(acc)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 6), st.integers(0, 6), st.data())
def test_mul_matches_schoolbook(m, order_a, order_b, data):
    a = data.draw(cyc_series(m, order_a))
    b = data.draw(cyc_series(m, order_b))
    prod = a * b
    assert prod.m == m and prod.order == min(order_a, order_b)
    assert list(prod.coeffs) == schoolbook(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 5), st.data())
def test_div_undoes_mul_on_full_coordinates(m, order, data):
    a = data.draw(cyc_series(m, order))
    b = invertible(data.draw(cyc_series(m, order)))
    assert (a * b) / b == a


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.data())
def test_mixed_conductors_meet_at_lcm(order, data):
    a = data.draw(cyc_series(4, order))
    b = invertible(data.draw(cyc_series(6, order)))
    prod = a * b
    assert prod.m == 12
    assert list(prod.coeffs) == schoolbook(a, b)
    assert prod / b == TS(12, a.coeffs)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.data())
def test_coefficients_near_two_to_the_200(m, data):
    big = st.integers(2 ** 200 - 2 ** 12, 2 ** 200)
    signed_big = st.builds(lambda x, neg: -x if neg else x, big, st.booleans())
    phi = euler_phi(m)
    coeff = st.builds(lambda num, den: Cyc(m, num, den),
                      st.lists(signed_big, min_size=phi, max_size=phi), st.integers(1, 7))
    a = TS(m, data.draw(st.lists(coeff, min_size=5, max_size=5)))
    b = TS(m, data.draw(st.lists(coeff, min_size=5, max_size=5)))
    assert list((a * b).coeffs) == schoolbook(a, b)
    assert (a * b) / b == a


def extreme_series(m, order, bits):
    """Series whose every coordinate is +-(2^bits - 1), the largest value of
    its bit length, all of one sign or of drawn signs."""
    phi = euler_phi(m)
    size = phi * (order + 1)
    top = 2 ** bits - 1
    signs = st.one_of(st.just([1] * size), st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size))
    return signs.map(lambda sg: TS(m, [Cyc(m, [top * x for x in sg[k * phi:(k + 1) * phi]])
                                       for k in range(order + 1)]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 5), st.sampled_from([1, 2, 7, 64, 200]), st.data())
def test_operands_at_their_coordinate_bounds(m, order, bits, data):
    # the width has no slack left for the convolution sums or the reduction,
    # and equal signs make the sums as large as they get
    a, b = data.draw(extreme_series(m, order, bits)), data.draw(extreme_series(m, order, bits))
    assert a._rows()[2] == b._rows()[2] == (bits,) * (order + 1)
    assert list((a * b).coeffs) == schoolbook(a, b)
    assert list((a / b).coeffs) == schoolbook_div(a.coeffs, b.coeffs)


def exp_rates():
    return st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction),
                     st.fractions(-7, 7, max_denominator=9))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 7), exp_rates(), st.data())
def test_mul_exp_rows_match_the_product_with_exp_linear(m, order, c, data):
    # operands at their coordinate bounds fill the width of the weighted sums
    series = data.draw(st.one_of(cyc_series(m, order), extreme_series(m, order, 30)))
    want = series * exp_linear(c, order)
    assert series.mul_exp(c)._rows() == want._rows()
    for n in range(order + 1):
        value = series.mul_exp_coefficient(c, n)
        expected = want.egf_coefficient(n)
        assert (value.num, value.den) == (expected.num, expected.den)


def test_scale_variable():
    s = exp_linear(1, 5)
    assert s.scale_variable(3) == exp_linear(3, 5)
    z = Cyc.zeta(4)
    sz = exp_linear(z, 4).scale_variable(2)
    assert sz == exp_linear(z.scale(2), 4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 3, 12, 20)), st.integers(0, 7), st.data())
def test_scale_variable_rows_match_scaled_coefficients(m, order, data):
    # t -> q*t on rows holds exactly the rows that c_n * q^n, coefficient by
    # coefficient, derives; also from a truncated series, whose rows keep
    # the denominator of the longer one
    q = data.draw(st.one_of(st.just(Fraction(1)), st.integers(-9, -1).map(Fraction),
                            st.fractions(-5, 5, max_denominator=12).filter(lambda f: f.denominator > 1)))
    long = data.draw(cyc_series(m, order + 2, low=-40, high=40))
    for series in (long, long.truncate(order)):
        want = TS(m, [c.scale(q ** n) for n, c in enumerate(series.coeffs)])
        assert series.scale_variable(q)._rows() == want._rows()


def test_shift_and_truncate():
    a = TS(1, [1, 2])
    shifted = a.shift_up(2)
    assert shifted.order == 3
    assert shifted.coeffs[2] == 1 and shifted.coeffs[3] == 2
    assert shifted.truncate(2).order == 2


# `product`: a chain multiplied at one width modulo Phi_m(2^W), each factor
# packed from its cache of packed rows, against the schoolbook products.

CHAIN_CONDUCTORS = (1, 3, 12, 20, 28)


def schoolbook_chain(factors):
    expected = list(factors[0].coeffs)
    for f in factors[1:]:
        expected = schoolbook(TS(f.m, expected), f)
    return expected


def big_series(m, order):
    big = st.integers(2 ** 200 - 2 ** 12, 2 ** 200)
    signed_big = st.builds(lambda x, neg: -x if neg else x, big, st.booleans())
    coeff = st.one_of(st.just(Cyc.zero(m)),
                      st.builds(lambda num, den: Cyc(m, num, den),
                                st.lists(signed_big, min_size=euler_phi(m), max_size=euler_phi(m)),
                                st.integers(1, 720)))
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(lambda cs: TS(m, cs))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CHAIN_CONDUCTORS), st.integers(1, 4), st.data())
def test_product_of_a_chain_matches_schoolbook(m, length, data):
    factors = [data.draw(big_series(m, data.draw(st.integers(0, 5)))) for _ in range(length)]
    held = product(factors)
    assert held.order == min(f.order for f in factors)
    assert list(held.coeffs) == schoolbook_chain(factors)


@pytest.mark.parametrize("m", CHAIN_CONDUCTORS)
@pytest.mark.parametrize("length", (2, 3, 4))
def test_product_at_a_width_with_no_rounding_slack(m, length):
    # coordinates of one sign at their largest for their bit length, the
    # bit lengths summing to 2 below a multiple of WIDTH_STEP: rounding the
    # width up adds nothing, so each step's bits must be in the width itself
    bits = [200] * (length - 1)
    bits.append(-(-(sum(bits) + 150) // WIDTH_STEP) * WIDTH_STEP - 2 - sum(bits))
    phi = euler_phi(m)
    factors = [TS(m, [Cyc(m, [2 ** b - 1] * phi)] * 7) for b in bits]
    assert sum(bits) % WIDTH_STEP == WIDTH_STEP - 2
    assert list(product(factors).coeffs) == schoolbook_chain(factors)


def test_packed_rows_are_kept_per_width():
    # one factor multiplied at two widths keeps a packing for each, and at
    # more widths than it keeps, the oldest go first; its 901-bit rows keep
    # every one of these widths (see test_a_wide_packing_is_not_kept)
    a = TS(3, [Cyc(3, [2 ** 900 + k, -2 * k]) for k in range(5)])
    narrow = TS(3, [Cyc(3, [1, k]) for k in range(5)])
    wide = TS(3, [Cyc(3, [2 ** 300 + k, -(2 ** 299)], 7) for k in range(5)])
    for other in (narrow, wide, narrow):
        assert list((a * other).coeffs) == schoolbook(a, other)
        assert list((other * a).coeffs) == schoolbook(other, a)
    assert len(a._packed) == 2
    for bits in range(400, 400 + 3 * PACKED_WIDTHS * WIDTH_STEP, 3 * WIDTH_STEP):
        other = TS(3, [Cyc(3, [2 ** bits - k, 1]) for k in range(5)])
        assert list((a * other).coeffs) == schoolbook(a, other)
    assert len(a._packed) == PACKED_WIDTHS
    assert list((a * narrow).coeffs) == schoolbook(a, narrow)


def test_a_wide_packing_is_not_kept():
    # a series keeps a packing only up to 2*B + KEPT_WIDTH_SLACK bits, B its
    # largest row bound; a wider one is made for its product and dropped
    a = TS(3, [Cyc(3, [k, -2 * k]) for k in range(5)])
    wide = TS(3, [Cyc(3, [2 ** 300 + k, 1]) for k in range(5)])
    assert list((a * wide).coeffs) == schoolbook(a, wide)
    assert list((wide * a).coeffs) == schoolbook(wide, a)
    assert a._packed == {} and len(wide._packed) == 1


def _deep_bytes(series) -> int:
    """The bytes a series keeps alive, walked object by object, each once:
    its object and row form, the rows, row bounds, `coeffs` view and
    packed copies, with every int in them (the conductor aside)."""
    seen, total = set(), sys.getsizeof(series)
    stack = [series._form, series._coeffs, series._packed]
    while stack:
        item = stack.pop()
        if item is None or id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, (tuple, list)):
            stack += item
        elif isinstance(item, dict):
            stack += [*item.keys(), *item.values()]
        elif isinstance(item, Cyc):
            stack += [item.num, item.den]
    return total


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 12), st.integers(0, 400), st.data())
def test_held_bytes_bound_what_a_series_keeps(m, order, bits, data):
    # with its coeffs view built and every packed copy it keeps, each at
    # the widest width it keeps, a series holds no more than it is charged
    series = data.draw(cyc_series(m, order, low=-(2 ** bits), high=2 ** bits))
    assert series.coeffs
    bound = series._rows()[2][-1]
    widest = (2 * bound + KEPT_WIDTH_SLACK) // WIDTH_STEP * WIDTH_STEP
    for width in range(widest, max(widest - PACKED_WIDTHS * WIDTH_STEP, 0), -WIDTH_STEP):
        series._packed_rows(width)
    assert len(series._packed) == min(PACKED_WIDTHS, widest // WIDTH_STEP)
    assert _deep_bytes(series) <= series.held_bytes()


def test_stored_series_hold_no_more_than_their_charge(cold_store):
    # every series a standard-grid audit cell stores, packed as the cell
    # packed it and with its coeffs view built, holds no more than its charge
    from bernsym.identities import GridConfig, grid_verify
    grid_verify(GridConfig(theorems=(8,), d_values=(5,), r_values=(7,), w_components=(1, 2, 3), n_max=6))
    values = [entry[0] for entry in cold_store._entries.values() if isinstance(entry[0], TS)]
    assert len(values) > 100 and any(value._packed for value in values)
    for value in values:
        assert value.coeffs
        assert _deep_bytes(value) <= value.held_bytes()


@pytest.mark.parametrize("parent_first", (True, False))
def test_truncation_shares_its_parents_packed_rows(parent_first):
    # a truncation packs only its own rows into the cache it shares with its
    # parent, so the parent, packed after it at the same width, packs again
    parent = TS(1, [k - 3 for k in range(9)])
    child = parent.truncate(4)
    other = TS(1, [2 * k + 1 for k in range(9)])
    pairs = [(parent, other), (other, parent)]
    pairs = pairs + [(child, other), (other, child)] if parent_first else [(child, other), (other, child)] + pairs
    for a, b in pairs:
        assert list((a * b).coeffs) == schoolbook(a, b)
        assert list(product((a, b, a)).coeffs) == schoolbook_chain((a, b, a))
    assert child._packed is parent._packed and len(parent._packed) == 1


# The row-held kernel: a series keeps one common denominator and one integer
# row per coefficient, products hand rows on without normalising, and only
# coeffs, egf_coefficient and equality look at the values.

def schoolbook_div(a, b):
    """out_k = (a_k - sum_{i=1..k} b_i out_{k-i}) / b_0 with Cyc arithmetic."""
    a, b = list(a), list(b)
    inv0 = b[0].inverse()
    out = []
    for k in range(min(len(a), len(b))):
        acc = a[k]
        for i in range(1, k + 1):
            acc = acc - b[i] * out[k - i]
        out.append(acc * inv0)
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(3, 8), st.integers(0, 5), st.data())
def test_product_chain_and_quotient_match_schoolbook(m, length, order, data):
    # unit constant terms, so that no product or quotient term vanishes early
    factors = [invertible(data.draw(cyc_series(m, order + data.draw(st.integers(0, 2)), low=-40, high=40)))
               for _ in range(length)]
    divisor = invertible(data.draw(cyc_series(m, order, low=-40, high=40)))
    held = factors[0]
    expected = list(factors[0].coeffs)
    for f in factors[1:]:
        held = held * f
        expected = schoolbook(TS(m, expected), f)
    assert held.order == min(f.order for f in factors)
    assert list(held.coeffs) == expected
    quotient = held / divisor
    assert list(quotient.coeffs) == schoolbook_div(expected, divisor.coeffs)


def row_bounds(rows):
    """For each row t, the bit length of the largest |coordinate| in rows
    0..t, as a row form holds it."""
    bounds, top = [], 0
    for row in rows:
        top = max([top] + [abs(x).bit_length() for x in row])
        bounds.append(top)
    return tuple(bounds)


def rescaled(series, factor):
    """The same series held as rows over `factor` times its common denominator."""
    den, rows, _ = series._rows()
    rows = tuple([x * factor for x in row] for row in rows)
    return TS._from_rows(series.m, (den * factor, rows, row_bounds(rows)))


def bumped(series, k, i):
    """The series with coordinate i of coefficient k raised by 1 / den."""
    den, rows, _ = series._rows()
    rows = list(rows)
    rows[k] = [x + (j == i) for j, x in enumerate(rows[k])]
    return TS._from_rows(series.m, (den, tuple(rows), row_bounds(rows)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 4), st.integers(2, 60), st.data())
def test_equality_across_denominators_and_holdings(m, order, factor, data):
    a = data.draw(cyc_series(m, order))
    b = data.draw(cyc_series(m, order))
    product = a * b                       # row-held, least common denominator
    by_coeffs = TS(m, product.coeffs)     # coefficient-held, the same values
    wider = rescaled(product, factor)     # row-held over factor * den
    for x in (product, by_coeffs, wider):
        for y in (product, by_coeffs, wider):
            assert x == y
    # a / 1 == (factor * a) / factor, and a / 1 != (factor * a) / 1 unless a = 0
    assert a.scaled_equal(a.scale(factor), 1, factor)
    assert a.scaled_equal(a.scale(factor), 1, 1) == (a == series_zero(order, m))
    k = data.draw(st.integers(0, order))
    i = data.draw(st.integers(0, euler_phi(m) - 1))
    changed = bumped(wider, k, i)
    for x in (product, by_coeffs, wider):
        assert x != changed and changed != x
        assert x != TS(m, changed.coeffs)


def test_truncated_rows_keep_the_wider_denominator():
    s = TS(3, [Cyc(3, [1, 2], 5), Cyc(3, [0, 1], 1), Cyc(3, [1, 0], 7)])
    head = s.truncate(1)
    assert head._rows()[0] == 35
    assert head == TS(3, [Cyc(3, [1, 2], 5), Cyc(3, [0, 1], 1)])
    assert head.coeffs[1].den == 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 5), st.data())
def test_egf_coefficients_are_reduced(m, order, data):
    a = data.draw(cyc_series(m, order))
    b = invertible(data.draw(cyc_series(m, order)))
    for series in (a * b, a / b, (a * b).shift_up(2).truncate(order), rescaled(a, 6)):
        for n in range(order + 1):
            value = series.egf_coefficient(n)
            assert value.den > 0 and math.gcd(value.den, *value.num) == 1
            assert value == series.coeffs[n].scale(math.factorial(n))


def test_closed_forms_multiply_every_ordering(monkeypatch, cold_store):
    # criterion 5 compares the closed form over every ordering of w; a cache
    # keyed on the multiset of w would make that comparison vacuous.  So
    # each ordering reads the one value stored under its own ordered
    # scales: the core of a type with a numerator (`_core`), else its chain
    # of T_W/D_W.  Every distinct core is built once, as one product of the
    # chains of those same ordered scales, and every distinct ordered chain
    # once, left to right from its stored factors in that order; chains
    # whose scales differ are distinct objects
    frames = []      # (products, inner reads) of each store read still open
    reads = []       # (build, key, value) of each value a closed form reads
    built = {}       # (build, key) -> (products, inner reads) of each build
    mul = TS.__mul__

    def recording_mul(self, other):
        out = mul(self, other)
        if frames:
            frames[-1][0].append((self, other, out))
        return out

    def recording_store(build, chi, twist, *key):
        misses = cold_store.cache_info().misses
        if frames:
            frames[-1][1].append((build, key))
        frames.append(([], []))
        try:
            out = cold_store(build, chi, twist, *key)
        finally:
            products, inner = frames.pop()
        if build in (quotients._chain, quotients._core):
            if not frames:
                reads.append((build, key, out))
            if cold_store.cache_info().misses > misses:
                assert (build, key) not in built, key
                built[build, key] = (products, inner)
        return out

    monkeypatch.setattr(TS, "__mul__", recording_mul)
    monkeypatch.setattr(quotients, "_stored", recording_store)
    chi, twist, order = trivial_character(1), TwistSpec(7, 1), 6
    y = (Fraction(1, 2), Fraction(2), Fraction(3, 5))
    read = set()
    for qt in QUOTIENT_TYPES.values():
        for w in ((1, 2, 3), (1, 1, 2)):
            seen = []
            for sigma in itertools.permutations(w[: qt.arity]):
                reads.clear()
                seen.append(closed_form_series(qt, sigma, y[: qt.y_count], chi, twist, order))
                chars = tuple(mono_val(mono, sigma) for mono in qt.chars)
                if qt.numer:
                    want = (quotients._core, (chars, tuple(mono_val(mono, sigma) for mono in qt.numer), order))
                else:
                    want = (quotients._chain, (quotients._ratio_series, chars, order))
                assert [(build, key) for build, key, _ in reads] == [want], (qt.name, sigma)
                read.add(want)
            assert all(s == seen[0] for s in seen), qt.name
    assert read <= set(built)
    chains = {}
    for (build, key), (products, inner) in built.items():
        if build is quotients._core:
            chars, numer, _ = key
            kept = max(order - len(chars) + len(numer), 0)
            assert inner == [(quotients._chain, (quotients._ratio_series, chars, order)),
                             (quotients._chain, (quotients._denom_series, numer, order))], key
            [(left, right, _)] = products
            for side, (kind, chain) in zip((left, right), inner):
                assert side == cold_store(kind, chi, twist, *chain).truncate(kept), key
            continue
        factor, scales, _ = key
        stored = [cold_store(factor, chi, twist, scale, order) for scale in scales]
        acc = stored[0]
        assert len(products) == len(scales) - 1
        for (left, right, out), f in zip(products, stored[1:]):
            assert left is acc and right is f, (factor.__name__, scales)
            acc = out
        chains[key] = cold_store(build, chi, twist, *key)
    assert len({id(chain) for chain in chains.values()}) == len(chains)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS), st.integers(0, 8), st.data())
def test_exp_sum_rows_match_summed_exponentials(m, order, data):
    # the integer-row sum holds exactly the rows (denominator, coordinates,
    # bound) that the coefficient-by-coefficient sum of scaled exponentials
    # derives from its canonical coefficients
    terms = data.draw(st.lists(st.tuples(cyc_elements(m, low=-20, high=20), st.integers(-6, 6)),
                               max_size=5))
    summed = series_zero(order, m)
    for value, s in terms:
        summed = summed + exp_linear(s, order, m).scale(value)
    assert TS.exp_sum(terms, order, m)._rows() == TS(m, summed.coeffs)._rows()


# Widths from per-row bounds.  Operands whose rows rise, fall, spike or
# start with zero rows (as after shift_up), at coordinates as large as their
# bit lengths allow: a width that misses a reachable pair of rows, or a
# step's bits, lets a digit overflow into its neighbour.

def rows_at_bits(m, bits, signs=None):
    """A series whose row t holds +-(2^bits[t] - 1) in every coordinate (a
    zero row where bits[t] = 0), of one sign unless `signs` are given."""
    phi = euler_phi(m)
    signs = signs or [1] * (phi * len(bits))
    return TS(m, [Cyc(m, [s * (2 ** b - 1) for s in signs[t * phi:(t + 1) * phi]]) for t, b in enumerate(bits)])


def shaped_bits(shape, order, low, high, at=0):
    """Row bit lengths 0..order: rising or falling from low to high, or low
    with one spike of high at row `at`."""
    if shape == "rising":
        return [low + (high - low) * t // max(order, 1) for t in range(order + 1)]
    if shape == "falling":
        return [high - (high - low) * t // max(order, 1) for t in range(order + 1)]
    return [high if t == at else low for t in range(order + 1)]


@st.composite
def skewed_series(draw, m, order):
    """A rising, falling or spiked series, or one of those shifted up behind
    zero rows, with coordinates at their bit lengths' largest values."""
    shape = draw(st.sampled_from(("rising", "falling", "spike")))
    zeros = draw(st.integers(0, order))
    inner = order - zeros
    low = draw(st.integers(0, 40))
    bits = shaped_bits(shape, inner, low, draw(st.integers(low, 240)), draw(st.integers(0, inner)))
    size = euler_phi(m) * (inner + 1)
    signs = draw(st.one_of(st.none(), st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size)))
    series = rows_at_bits(m, bits, signs)
    return series.shift_up(zeros) if zeros else series


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHAIN_CONDUCTORS), st.integers(1, 4), st.data())
def test_skewed_chains_match_schoolbook(m, length, data):
    factors = [data.draw(skewed_series(m, data.draw(st.integers(0, 6)))) for _ in range(length)]
    held = product(factors)
    expected = schoolbook_chain(factors)
    assert list(held.coeffs) == expected
    divisor = invertible(data.draw(skewed_series(m, held.order)))
    assert list((held / divisor).coeffs) == schoolbook_div(expected, divisor.coeffs)
    c = data.draw(exp_rates())
    for series in (factors[0], held):
        assert list(series.mul_exp(c).coeffs) == schoolbook(series, exp_linear(c, series.order))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHAIN_CONDUCTORS), st.integers(0, 6), st.integers(0, 3), st.data())
def test_row_bounds_are_the_prefix_maxima_of_the_rows(m, order, zeros, data):
    # every way a row form is handed on keeps bounds equal to the prefix
    # maxima of its rows' bit lengths: one per row, 0 for leading zero rows
    a = data.draw(skewed_series(m, order))
    b = invertible(data.draw(skewed_series(m, order)))
    cut = data.draw(st.integers(0, order))
    for series in (a, a.shift_up(zeros), a.shift_up(zeros).truncate(order), a.truncate(cut),
                   a.shift_up(zeros).truncate(cut), a * b, a / b, a.mul_exp(Fraction(3, 2)),
                   a.scale_variable(Fraction(-2, 3)), (a * b).shift_up(zeros).truncate(cut)):
        assert series._rows()[2] == row_bounds(series._rows()[1])
        assert len(series._rows()[2]) == series.order + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHAIN_CONDUCTORS), st.integers(2, 4), st.data())
def test_width_is_never_above_the_sum_of_largest_bounds(m, length, data):
    # the width a product packs at, against the width from each factor's
    # largest coordinate over all its rows
    from unittest import mock
    from bernsym import series as series_module
    factors = [data.draw(skewed_series(m, data.draw(st.integers(0, 6)))) for _ in range(length)]
    n = min(f.order for f in factors) + 1
    largest = sum(max(abs(x) for row in f._rows()[1] for x in row).bit_length() for f in factors)
    step = (euler_phi(m) * n).bit_length() + series_module._fold_bits(m)
    widest = -(-(largest + (length - 1) * step + 2) // WIDTH_STEP) * WIDTH_STEP
    with mock.patch.object(series_module, "_modulus", wraps=series_module._modulus) as modulus:
        assert list(product(factors).coeffs) == schoolbook_chain(factors)
    (_, width), = {call.args for call in modulus.call_args_list}
    assert width <= widest


def formula_top(bits):
    """top = max_t (G[t] + B_k[n - 1 - t]), B_l the prefix maxima of factor
    l's row bit lengths and G the sum of all but the last."""
    prefix = [[max(b[: t + 1]) for t in range(len(b))] for b in bits]
    n = len(bits[0])
    return max(sum(p[t] for p in prefix[:-1]) + prefix[-1][n - 1 - t] for t in range(n))


SKEWS = {
    # every pair binds, and every term of a weighted sum
    "flat": lambda a, l, n: [a] * n,
    # every anti-diagonal pair binds: bits a + 20 t
    "rising": lambda a, l, n: [a + 20 * t for t in range(n)],
    # the first rows bind
    "falling": lambda a, l, n: [a + 20 * (n - 1 - t) for t in range(n)],
    # factor l has one spike, at row l; the spikes' rows sum to at most n - 1
    "spike": lambda a, l, n: [a if t == l else 1 for t in range(n)],
}


@pytest.mark.parametrize("m", CHAIN_CONDUCTORS)
@pytest.mark.parametrize("length", (2, 3, 4))
@pytest.mark.parametrize("shape", sorted(SKEWS))
@pytest.mark.parametrize("slack", ("none", "step"))
def test_skewed_product_at_a_width_with_no_rounding_slack(m, length, shape, slack):
    # the binding rows' bits, plus the step bits ("none") or alone ("step"),
    # land 2 below a multiple of WIDTH_STEP, so rounding the width up adds
    # nothing to what the bound itself provides
    from bernsym.series import _fold_bits
    n, phi = 7, euler_phi(m)
    step = (phi * n).bit_length() + _fold_bits(m)
    bits = [SKEWS[shape](150, l, n) for l in range(length)]
    target = formula_top(bits) + (length - 1) * step * (slack == "none")
    bits[-1] = SKEWS[shape](150 + (WIDTH_STEP - 2 - target) % WIDTH_STEP, length - 1, n)
    target = formula_top(bits) + (length - 1) * step * (slack == "none")
    assert target % WIDTH_STEP == WIDTH_STEP - 2
    factors = [rows_at_bits(m, b) for b in bits]
    assert list(product(factors).coeffs) == schoolbook_chain(factors)


@pytest.mark.parametrize("m", CHAIN_CONDUCTORS)
@pytest.mark.parametrize("shape", sorted(SKEWS))
@pytest.mark.parametrize("c", (Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-7, 3)))
def test_mul_exp_of_skewed_rows(m, shape, c):
    # weighted sums of coordinates of one sign: the weights' sum, not only
    # the largest weight, must fit in the width
    series = rows_at_bits(m, SKEWS[shape](90, 0, 9))
    assert list(series.mul_exp(c).coeffs) == schoolbook(series, exp_linear(c, series.order))
    shifted = series.shift_up(3)
    assert list(shifted.mul_exp(c).coeffs) == schoolbook(shifted, exp_linear(c, shifted.order))
