"""Checks against sympy, an oracle that shares no code with bernsym."""

import functools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bernsym.bernoulli import TwistSpec, gen_bernoulli_numbers, gen_bernoulli_poly
from bernsym.dirichlet import trivial_character
from bernsym.exactnum import CyclotomicNumber, cyclotomic_polynomial, divisors, euler_phi
from bernsym.padic import MAX_PRIME, _is_prime

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


# CyclotomicNumber arithmetic against sympy polynomial arithmetic modulo Phi_m

X = sympy.Symbol("x")


def cyclotomic_elements(m, nonzero=False):
    phi = euler_phi(m)
    num = st.lists(st.integers(-50, 50), min_size=phi, max_size=phi)
    if nonzero:
        num = num.filter(any)
    return st.builds(lambda n, d: CyclotomicNumber(m, n, d), num, st.integers(1, 30))


def as_sympy(value):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in value.coefficients()]
    return sympy.Poly(list(reversed(coeffs)), X, domain=sympy.QQ)


def coordinates(poly, phi):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (phi - len(coeffs)))


def phi_poly(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain=sympy.QQ)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 59), st.data())
def test_cyclotomic_mul_matches_sympy_remainder(m, data):
    a = data.draw(cyclotomic_elements(m))
    b = data.draw(cyclotomic_elements(m))
    expected = (as_sympy(a) * as_sympy(b)).rem(phi_poly(m))
    assert (a * b).coefficients() == coordinates(expected, euler_phi(m))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 59), st.data())
def test_cyclotomic_inverse_matches_sympy_invert(m, data):
    # the inverse modulo Phi_m is unique and a.inverse() is reduced (phi(m)
    # coordinates), so a * a^-1 == 1 mod Phi_m pins it down as firmly as
    # sympy's invert, which is far slower
    a = data.draw(cyclotomic_elements(m, nonzero=True))
    product = (as_sympy(a) * as_sympy(a.inverse())).rem(phi_poly(m))
    assert product == sympy.Poly(1, X, domain=sympy.QQ)


# The unit groups and characters mod d against sympy.ntheory

from bernsym.dirichlet import _smallest_primitive_root, enumerate_characters, unit_group_structure  # noqa: E402
from sympy import totient  # noqa: E402
from sympy.ntheory import n_order, primitive_root  # noqa: E402

D_LIMIT = 200


def test_euler_phi_and_divisors_match_sympy():
    for m in range(1, 301):
        assert euler_phi(m) == sympy.totient(m), m
        assert divisors(m) == sympy.divisors(m), m


def test_primality_matches_sympy():
    # 561 is a Carmichael number; 3215031751 and 3825123056546413051 are
    # strong pseudoprimes to every prime base up to 7 and up to 23
    pseudoprimes = [561, 1105, 2047, 3215031751, 3825123056546413051, 318665857834031151167461]
    primes = [2, 3, 41, 43, 100000000000031, 1000000000000000003, 2 ** 61 - 1]
    big = [MAX_PRIME - k for k in range(1, 200)]
    for n in list(range(-2, 3000)) + pseudoprimes + primes + big:
        assert _is_prime(n) == sympy.isprime(n), n


def test_unit_group_orders_multiply_to_totient():
    for d in range(1, D_LIMIT):
        orders = [n for _, n in unit_group_structure(d)]
        assert sympy.prod(orders) == totient(d), d


def test_unit_group_generators_have_their_orders():
    for d in range(3, D_LIMIT):
        for g, n in unit_group_structure(d):
            assert n_order(g, d) == n, (d, g)


def test_smallest_primitive_roots_of_odd_prime_powers():
    prime_powers = [q for q in range(3, D_LIMIT, 2) if len(sympy.factorint(q)) == 1]
    assert len(prime_powers) == 53  # 45 odd primes and 9, 25, 27, 49, 81, 121, 125, 169
    for q in prime_powers:
        assert _smallest_primitive_root(q) == primitive_root(q, smallest=True), q


@functools.lru_cache(maxsize=None)
def _zeta_terms(order, s):
    """The nonzero coordinates (i, x) of zeta_order^s."""
    return tuple((i, x) for i, x in enumerate(CyclotomicNumber.zeta(order, s).num) if x)


def _zeta_sum(counts, order):
    """The integer coordinates of sum_s counts[s] zeta_order^s."""
    total = [0] * euler_phi(order)
    for s, c in counts.items():
        for i, x in _zeta_terms(order, s):
            total[i] += c * x
    return total


def test_character_orthogonality():
    # sum_a chi(a) = 0 for chi != 1, and sum_chi chi(a) = phi(d) [a = 1 mod d];
    # chi(a) = zeta_order(chi)^s is tallied by s, so each sum is exact
    for d in range(1, D_LIMIT):
        phi_d = int(totient(d))
        chars = enumerate_characters(d)
        assert len(chars) == phi_d
        exponent = math.lcm(*(n for _, n in unit_group_structure(d)))
        by_unit = {a: {} for a in range(d) if math.gcd(a, d) == 1}
        for chi in chars:
            order = chi.order
            tally = {}
            for a, counts in by_unit.items():
                s = chi._value_exponent(a)
                tally[s] = tally.get(s, 0) + 1
                lifted = s * (exponent // order)
                counts[lifted] = counts.get(lifted, 0) + 1
            total = _zeta_sum(tally, order)
            assert total == [phi_d if is_trivial(chi) and i == 0 else 0 for i in range(len(total))], \
                (d, chi.exponents)
        for a, counts in by_unit.items():
            total = _zeta_sum(counts, exponent)
            assert total == [phi_d if a % d == 1 % d and i == 0 else 0 for i in range(len(total))], (d, a)


# power sums at a large upper against sympy's Faulhaber sums

from bernsym.bernoulli import power_sum  # noqa: E402
from bernsym.dirichlet import DirichletCharacter  # noqa: E402

# real characters by their values: trivial mod d, and the quadratic
# characters mod 4 and mod 5 as Jacobi symbols
REAL_CHARACTERS = {
    (1, ()): lambda a: 1,
    (3, (0,)): lambda a: 1 if a % 3 else 0,
    (4, (1,)): lambda a: sympy.jacobi_symbol(-1, a) if a % 2 else 0,
    (5, (2,)): lambda a: sympy.jacobi_symbol(a, 5),
}


@pytest.mark.parametrize("d,label,r,w,k,upper", [
    (1, (), 3, 1, 3, 10 ** 12),
    (3, (0,), 4, 3, 2, 10 ** 12 + 5),
    (4, (1,), 5, 1, 3, 10 ** 12),
    (4, (1,), 3, 2, 6, 10 ** 15 + 3),
    (5, (2,), 3, 1, 4, 10 ** 12 + 1),
    (5, (2,), 7, 2, 0, 10 ** 18),
    (5, (2,), 7, 2, 5, 38),
])
def test_power_sum_matches_sympy_at_large_upper(d, label, r, w, k, upper):
    # sum_{a<=U} chi(a) zeta_r^(wa) a^k: sympy sums (c + jL)^k over j < n
    # in closed form, L = lcm(d, r), and each class c takes its own n;
    # sympy's x^0 is 1, the 0^0 = 1 convention
    chi_value = REAL_CHARACTERS[(d, label)]
    chi = DirichletCharacter(d, label)
    assert [chi(a).coefficients() for a in range(d)] == [(Fraction(int(chi_value(a))),) for a in range(d)]
    m = math.lcm(r, chi.order)
    L = math.lcm(d, r)
    c, j, n = sympy.symbols("c j n", integer=True, nonnegative=True)
    class_sum = sympy.summation((c + j * L) ** k, (j, 0, n - 1))
    expected = sum(chi_value(a) * class_sum.subs({c: a, n: (upper - a) // L + 1})
                   * X ** ((m // r) * w * a % m) for a in range(L))
    expected = sympy.Poly(expected, X, domain=sympy.QQ).rem(phi_poly(m))
    value = power_sum(k, upper, chi, TwistSpec(r, 1), w)
    assert value.m == m
    assert value.coefficients() == coordinates(expected, euler_phi(m))


# Each quotient type's closed form, built from its row of QUOTIENT_TYPES
# (the specification) in sympy arithmetic over QQ[x]/Phi_m: the characters
# from sympy's primitive roots and discrete logs, the series products and
# quotients as sympy polynomial products and inverses modulo Phi_m

from sympy.ntheory import discrete_log  # noqa: E402

from bernsym.quotients import QUOTIENT_TYPES, closed_form_series  # noqa: E402

CLOSED_FORM_ORDER = 6
# (d, e, r): d prime and chi(g) = zeta_(d-1)^e at the smallest primitive
# root g mod d, the generator a label (e,) refers to; the twist xi = zeta_r
CLOSED_FORM_CONTEXTS = [(5, 1, 3), (7, 2, 4), (3, 1, 5)]
CLOSED_FORM_Y = (Fraction(1, 2), Fraction(2), Fraction(3, 5))
CLOSED_FORM_W = [(1, 2, 4), (2, 1, 3), (3, 2, 1), (1, 4, 5), (5, 3, 2)]


def _monomial(mono, w):
    return math.prod(x ** e for x, e in zip(w, mono))


class _ClosedFormOracle:
    """The closed form t^s * prod_W (T_W/D_W) * prod_V D_V * exp(c*t) of one
    quotient type, T_W = sum_{a<d} chi(a) xi^(aW) e^(aWt) and
    D_W = xi^(dW) e^(dWt) - 1, and the Bernoulli numbers and polynomials,
    as lists of coefficients of t^n.  At d = 1 chi is trivial, and its one
    term is a = 0 with chi(0) = 1."""

    def __init__(self, d, e, r, order):
        chi_order = (d - 1) // math.gcd(d - 1, e) if d > 1 else 1
        self.d, self.r, self.order = d, r, order
        self.m = math.lcm(r, chi_order)
        self.modulus = phi_poly(self.m)
        self.chi = {0: 0} if d == 1 else {}     # a -> the exponent of zeta_m that is chi(a)
        g = primitive_root(d, smallest=True) if d > 1 else None
        for a in range(1, d):
            exponent = sympy.Rational(e * discrete_log(d, a, g) * self.m, d - 1)
            assert exponent.q == 1
            self.chi[a] = int(exponent)

    def zeta(self, k):
        return sympy.Poly(X ** (k % self.m), X, domain=sympy.QQ).rem(self.modulus)

    def constant(self, q):
        return sympy.Poly(q, X, domain=sympy.QQ)

    def exp_sum(self, terms):
        """sum_j v_j e^(s_j t) for field elements v_j and rationals s_j."""
        return [sum((v * self.constant(sympy.Rational(s) ** n / math.factorial(n)) for v, s in terms),
                    self.constant(0)).rem(self.modulus) for n in range(self.order + 1)]

    def mul(self, a, b):
        return [sum((a[i] * b[k - i] for i in range(k + 1)), self.constant(0)).rem(self.modulus)
                for k in range(self.order + 1)]

    def div(self, a, b):
        inverse = b[0].invert(self.modulus)
        out = []
        for k in range(self.order + 1):
            rest = a[k] - sum((b[i] * out[k - i] for i in range(1, k + 1)), self.constant(0))
            out.append((rest * inverse).rem(self.modulus))
        return out

    def denominator(self, big_w):
        return self.exp_sum([(self.zeta(self.m // self.r * self.d * big_w), self.d * big_w),
                             (self.constant(-1), 0)])

    def ratio(self, big_w):
        numerator = self.exp_sum([(self.zeta(e + self.m // self.r * a * big_w), a * big_w)
                                  for a, e in self.chi.items()])
        return self.div(numerator, self.denominator(big_w))

    def bernoulli(self, w, x=Fraction(0)):
        """B_{n,chi,xi^w}(x) for n <= order: n! [t^n] of
        t * sum_{a<d} chi(a) xi^(wa) e^((a+x)t) / (xi^(wd) e^(dt) - 1)."""
        numerator = self.exp_sum([(self.zeta(e + self.m // self.r * w * a), a + x)
                                  for a, e in self.chi.items()])
        denominator = self.exp_sum([(self.zeta(self.m // self.r * w * self.d), self.d),
                                    (self.constant(-1), 0)])
        quotient = self.div(numerator, denominator)
        return [self.constant(0)] + [quotient[n - 1] * math.factorial(n) for n in range(1, self.order + 1)]

    def closed_form(self, qt, w, y):
        series = self.exp_sum([(self.constant(1), 0)])
        for mono in qt.chars:
            series = self.mul(series, self.ratio(_monomial(mono, w)))
        for mono in qt.numer:
            series = self.mul(series, self.denominator(_monomial(mono, w)))
        rate = sum(_monomial(mono, w) for mono in qt.ymul) * sum(y[:qt.y_count], Fraction(0))
        series = self.mul(series, self.exp_sum([(self.constant(1), rate)]))
        shift = len(qt.chars) - len(qt.numer)
        return [self.constant(0)] * shift + series[: self.order + 1 - shift]


@pytest.mark.parametrize("d,e,r", CLOSED_FORM_CONTEXTS)
def test_closed_forms_match_the_sympy_product_of_their_rows(d, e, r):
    assert unit_group_structure(d) == ((primitive_root(d, smallest=True), d - 1),)
    oracle = _ClosedFormOracle(d, e, r, CLOSED_FORM_ORDER)
    chi, twist = DirichletCharacter(d, (e,)), TwistSpec(r, 1)
    assert not is_trivial(chi)
    for qt in QUOTIENT_TYPES.values():
        # the first w whose D monomials are units: r divides none of them
        w = next(w[: qt.arity] for w in CLOSED_FORM_W
                 if all(_monomial(mono, w[: qt.arity]) % r for mono in qt.chars + qt.numer))
        series = closed_form_series(qt, w, CLOSED_FORM_Y[: qt.y_count], chi, twist, CLOSED_FORM_ORDER)
        assert series.m == oracle.m
        expected = oracle.closed_form(qt, w, CLOSED_FORM_Y)
        phi = int(totient(oracle.m))
        assert [c.coefficients() for c in series.coeffs] == [coordinates(p, phi) for p in expected], (qt.name, w)


BERNOULLI_ORDER = 6
BERNOULLI_X = (Fraction(1, 2), Fraction(-5, 3))


@pytest.mark.parametrize("d,e,r", CLOSED_FORM_CONTEXTS + [(1, 0, 3), (1, 0, 4)])
def test_bernoulli_numbers_and_polynomials_match_the_sympy_egf(d, e, r):
    # B(x) is read from e^(xt) in the EGF, never from the binomial sum
    oracle = _ClosedFormOracle(d, e, r, BERNOULLI_ORDER)
    chi, twist = (DirichletCharacter(d, (e,)) if d > 1 else trivial_character(1)), TwistSpec(r, 1)
    phi = int(totient(oracle.m))
    for w in (1, 2, 3):
        if w * d % r == 0:
            continue
        numbers = gen_bernoulli_numbers(chi, twist, w, BERNOULLI_ORDER)
        assert [b.coefficients() for b in numbers] == [coordinates(p, phi) for p in oracle.bernoulli(w)], w
        for x in BERNOULLI_X:
            values = [gen_bernoulli_poly(chi, twist, w, n)(x) for n in range(BERNOULLI_ORDER + 1)]
            expected = oracle.bernoulli(w, x)
            assert [v.coefficients() for v in values] == [coordinates(p, phi) for p in expected], (w, x)


# The character-sum series against sympy's sums over each class: at each
# upper below, some classes are walked and the rest summed in closed form,
# or all of them are summed in closed form

from bernsym.bernoulli import character_sum_series  # noqa: E402

from helpers import is_trivial


@pytest.mark.parametrize("d,e,r,w,order,uppers", [
    (3, 1, 5, 1, 8, (1, 7, 15 * 9 + 1, 10 ** 9)),
    (7, 2, 4, 3, 12, (28 * 13 + 5, 10 ** 12)),
    (5, 1, 7, 2, 16, (35 * 17 + 1, 10 ** 5)),
])
def test_character_sum_rows_match_sympy(d, e, r, w, order, uppers, sympy_character_sums):
    chi, twist = DirichletCharacter(d, (e,)), TwistSpec(r, 1)
    assert unit_group_structure(d) == ((primitive_root(d, smallest=True), d - 1),)
    for upper in uppers:
        series = character_sum_series(chi, twist, w, order, upper=upper)
        assert [c.coefficients() for c in series.coeffs] == sympy_character_sums(d, e, r, w, order, upper), upper
