"""The test-side constructors and predicates of `helpers`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.exactnum import CyclotomicNumber as Cyc, euler_phi

from helpers import as_rational, exp_linear, from_json, series_one


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
