"""Checks against sympy, an oracle that shares no code with bernsym."""

from fractions import Fraction

import pytest
import sympy

from bernsym.bernoulli import TwistSpec, gen_bernoulli_numbers
from bernsym.dirichlet import trivial_character
from bernsym.exactnum import cyclotomic_polynomial

N_MAX = 10


def classical_bernoulli(n):
    """B_n with B_1 = -1/2 (sympy.bernoulli(1) is +1/2)."""
    if n == 1:
        return Fraction(-1, 2)
    b = sympy.bernoulli(n)
    return Fraction(int(b.p), int(b.q))


@pytest.mark.parametrize("r", (3, 5, 7, 11))
def test_twisted_numbers_sum_over_nontrivial_twists(r):
    # sum over the r-th roots of unity z of t/(z e^t - 1) is r t/(e^(rt) - 1),
    # so the twists z != 1 sum to (r^n - 1) B_n
    chi = trivial_character(1)
    total = [0] * (N_MAX + 1)
    for j in range(1, r):
        for n, b in enumerate(gen_bernoulli_numbers(chi, TwistSpec(r, j), 1, N_MAX)):
            total[n] = b + total[n]
    assert total == [(r ** n - 1) * classical_bernoulli(n) for n in range(N_MAX + 1)]


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 120):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected), m
