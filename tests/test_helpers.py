"""The test-side constructors and predicates of `helpers`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.exactnum import CyclotomicNumber as Cyc, euler_phi
from bernsym.series import TruncatedSeries

from helpers import as_rational, exp_linear, from_json, series_one, series_scaled, series_sum


def test_exp_linear_values():
    e0 = exp_linear(0, 4)
    assert e0 == series_one(4)
    e2 = exp_linear(2, 4)
    assert e2.coeffs[3] == Fraction(4, 3)
    ez = exp_linear(Cyc.zeta(3), 3)
    assert ez.coeffs[2] == (Cyc.zeta(3) ** 2).scale(Fraction(1, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_exp_linear_is_homomorphism(x, y):
    n = 6
    assert exp_linear(x, n) * exp_linear(y, n) == exp_linear(x + y, n)


def test_serialization_roundtrip():
    v = (Cyc.zeta(12) ** 5).scale(Fraction(3, 7)) - Fraction(1, 2)
    data = v.to_json()
    assert data["m"] == 12 and len(data["coeffs"]) == euler_phi(12)
    assert from_json(data) == v


def test_as_rational_reads_only_rational_values():
    assert as_rational(Cyc.from_rational(Fraction(-3, 4), 12)) == Fraction(-3, 4)
    with pytest.raises(ValueError, match="not rational"):
        as_rational(Cyc.zeta(3))


def test_series_sum_and_scaled_act_coefficient_by_coefficient():
    # a sum keeps the smaller order, at the lcm of the two conductors; a
    # scaled series multiplies each coefficient by an int, a Fraction or a
    # cyclotomic number, at the lcm of its conductor and the value's
    a = TruncatedSeries(4, [Cyc.zeta(4), 1, Fraction(1, 2)])
    b = TruncatedSeries(6, [2, Cyc.zeta(6)])
    total = series_sum(a, b)
    assert total.m == 12 and total.order == 1
    assert list(total.coeffs) == [(Cyc.zeta(4) + 2).embed(12), (Cyc.zeta(6) + 1).embed(12)]
    scaled = series_scaled(a, Cyc.zeta(3))
    assert scaled.m == 12 and list(scaled.coeffs) == [(c * Cyc.zeta(3)).embed(12) for c in a.coeffs]
    for value in (-3, Fraction(2, 5)):
        assert list(series_scaled(a, value).coeffs) == [c.scale(value) for c in a.coeffs]
