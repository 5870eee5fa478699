"""Exact cyclotomic arithmetic: oracles, field axioms, embeddings."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.dirichlet import enumerate_characters, trivial_character
from bernsym.exactnum import (
    CycDivisionError,
    CyclotomicNumber as Cyc,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    linear_combination,
)


# ---------------------------------------------------------------------------
# independent oracle: naive polynomial arithmetic over Q

def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - 1, len(den) - 2, -1):
        if num[k] == 0:
            continue
        c = num[k] / den[-1]
        q[k - len(den) + 1] = c
        for i, dc in enumerate(den):
            num[k - len(den) + 1 + i] -= c * dc
    rem = num[: len(den) - 1] or [Fraction(0)]
    return q, rem


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)          # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)        # x^2 + 1
    # Phi_6 via the division oracle: (x^6-1) / (Phi_1 * Phi_2 * Phi_3)
    denom = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    num = [Fraction(-1)] + [Fraction(0)] * 5 + [Fraction(1)]
    q, rem = poly_divmod(num, denom)
    assert all(r == 0 for r in rem)
    assert tuple(int(c) for c in q) == cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_product_and_divisibility(m):
    # product over d | m of Phi_d equals x^m - 1, and each Phi_d divides exactly
    prod = [Fraction(1)]
    for d in divisors(m):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    target = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    assert prod == target
    _, rem = poly_divmod(target, list(cyclotomic_polynomial(m)))
    assert all(r == 0 for r in rem)
    assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def test_zeta_relations():
    assert Cyc.zeta(4) * Cyc.zeta(4) == -1
    assert Cyc.zeta(3) + Cyc.zeta(3) ** 2 == -1
    inv = (Cyc.zeta(3) - 1).inverse()
    assert inv == (Cyc.zeta(3) ** 2 - 1).scale(Fraction(1, 3))
    assert (Cyc.zeta(3) - 1) * inv == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 30])
def test_zeta_order(m):
    z = Cyc.zeta(m)
    assert z ** m == 1
    for k in range(1, m):
        assert z ** k != 1


def test_embed_examples():
    assert Cyc.zeta(3).embed(12) == Cyc.zeta(12) ** 4
    assert Cyc.from_rational(Fraction(1, 2)).embed(20) == Fraction(1, 2)
    assert Cyc.zeta(2).embed(6) == Cyc.zeta(6) ** 3
    assert Cyc.zeta(6) ** 3 == -1
    with pytest.raises(ValueError):
        Cyc.zeta(4).embed(6)


def test_field_operators():
    z = Cyc.zeta(5)
    assert z * z == z ** 2
    assert (z - 1) + 1 == z
    assert z / z == 1
    assert z ** 5 == 1
    with pytest.raises(CycDivisionError):
        z / Cyc.zero(5)


def test_mixed_conductor_arithmetic():
    # zeta_3 * zeta_4 = zeta_12^7
    assert Cyc.zeta(3) * Cyc.zeta(4) == Cyc.zeta(12) ** 7
    assert Cyc.zeta(3) + Cyc.zeta(4) == Cyc.zeta(12) ** 4 + Cyc.zeta(12) ** 3


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3, 4, 12, 20]), st.data())
def test_to_json_writes_each_coordinate_as_fraction_str(m, data):
    # zero, negative and huge coordinates over a common denominator, each
    # written as str(Fraction) writes it
    phi = euler_phi(m)
    coord = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-2 ** 200, 2 ** 200))
    num = data.draw(st.lists(coord, min_size=phi, max_size=phi))
    den = data.draw(st.one_of(st.integers(1, 720), st.integers(1, 2 ** 120)))
    v = Cyc(m, num, den)
    assert v.to_json() == {"m": m, "coeffs": [str(Fraction(x, v.den)) for x in v.num]}
    assert v.to_json()["coeffs"] == [str(c) for c in v.coefficients()]


# ---------------------------------------------------------------------------
# randomized field axioms

def cyc_elements(m):
    phi = euler_phi(m)
    coeff = st.integers(min_value=-9, max_value=9)
    return st.tuples(
        st.lists(coeff, min_size=phi, max_size=phi),
        st.integers(min_value=1, max_value=6),
    ).map(lambda t: Cyc(m, t[0], t[1]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]), st.data())
def test_field_axioms(m, data):
    a = data.draw(cyc_elements(m))
    b = data.draw(cyc_elements(m))
    c = data.draw(cyc_elements(m))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embed_is_homomorphism(data):
    a = data.draw(cyc_elements(4))
    b = data.draw(cyc_elements(4))
    assert (a + b).embed(12) == a.embed(12) + b.embed(12)
    assert (a * b).embed(12) == a.embed(12) * b.embed(12)


def test_linear_combination_matches_naive():
    terms = [
        (Fraction(1, 3), Cyc.zeta(12)),
        (2, Cyc.zeta(12) ** 5),
        (Fraction(-7, 4), Cyc.one(12)),
    ]
    naive = Cyc.zero(12)
    for c, v in terms:
        naive = naive + v.scale(c)
    assert linear_combination(terms, 12) == naive


def test_canonical_form_invariants():
    v = Cyc(6, [2, 4], 6)
    assert v.den == 3 and v.num == (1, 2)
    assert math.gcd(math.gcd(*v.num), v.den) == 1
    w = Cyc(6, [-2, -4], -6)
    assert w.den == 3 and w.num == (1, 2)


def horner_walk(coeffs, start, step, count):
    """sum_{j<count} f(start + j*step), one Horner evaluation per term."""
    total = 0
    for j in range(count):
        a, fa = start + j * step, 0
        for c in reversed(coeffs):
            fa = fa * a + c
        total += fa
    return total


# The progression sums live in the class kernel (`bernoulli._class_sums`):
# each class c mod L is the progression c, c + L, ... <= upper, walked or
# summed from `_power_sums` and the class moments.  With r = 2 and a
# character mod d of
# order at most 2, every weight chi(c) (-1)^(wc) is 0 or +-1 and the field is
# Q, so the kernel's one coordinate is checked against horner_walk in
# integers alone, chi(c) read from Euler's criterion.

def _real_character(d):
    return trivial_character(1) if d == 1 else next(c for c in enumerate_characters(d) if c.order == 2)


def _real_weight(d, w, c):
    """chi(c) (-1)^(wc) for the real character mod d of `_real_character`."""
    if d > 1 and c % d == 0:
        return 0
    legendre = 1 if d == 1 or pow(c, (d - 1) // 2, d) == 1 else -1
    return legendre * (-1) ** (w * c)


def _class_walk(coeffs, d, w, upper):
    """sum_{a<=upper} chi(a) (-1)^(wa) f(a), one Horner walk per class."""
    period = math.lcm(d, 2)
    return sum(_real_weight(d, w, c) * horner_walk(coeffs, c, period, (upper - c) // period + 1)
               for c in range(min(period, upper + 1)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=9), min_size=1, max_size=4),
       st.sampled_from([1, 3, 5, 7, 11]), st.integers(0, 3),
       st.one_of(st.sampled_from([-1, 0]), st.integers(1, 240), st.integers(1000, 6000)))
def test_progression_sum_matches_walk(polys, d, w, upper):
    # one to four polynomials of degrees 0..8 summed over the classes mod
    # L = lcm(d, 2) in 2..22, with upper below one period, at a few periods
    # and at hundreds; Horner gives f(0) = f_0, the 0^0 = 1 convention
    from bernsym.bernoulli import TwistSpec, _class_sums

    terms = [[(i, c) for i, c in enumerate(coeffs) if c] for coeffs in polys]
    assert _class_sums(terms, upper, _real_character(d), TwistSpec(2, 1), w) == \
        [[_class_walk(coeffs, d, w, upper)] for coeffs in polys]


@pytest.mark.parametrize("polys", [
    [[(3, 1)]],
    [[(0, 5), (2, -1)], [(7, 2)]],
    [[(k, 1)] for k in range(13)],
])
def test_progression_walks_exactly_the_short_progressions(polys, monkeypatch):
    # the class kernel walks the count = upper + 1 terms of every f when
    # count times the terms of all f is at most (deg + 1)(deg + 1 + L),
    # the cost of reading them from class moments with nothing cached, and
    # reads the moments otherwise.  Here L = 14 (the real character mod 7,
    # r = 2), so the counts run past a period and both ways must agree
    # with horner_walk
    from bernsym import bernoulli

    chi, twist, period = _real_character(7), bernoulli.TwistSpec(2, 1), 14
    degree = max(i for f in polys for i, _ in f)
    limit = (degree + 1) * (degree + 1 + period) // sum(map(len, polys))
    read = []
    moments = bernoulli._class_moments

    def counted(*key):
        read.append(key)
        return moments(*key)

    monkeypatch.setattr(bernoulli, "_class_moments", counted)
    coeffs = [[dict(f).get(i, 0) for i in range(degree + 1)] for f in polys]
    walked = []
    for count in range(limit + 3):
        before = len(read)
        assert bernoulli._class_sums(polys, count - 1, chi, twist, 1) == \
            [[_class_walk(f, 7, 1, count - 1)] for f in coeffs], count
        if len(read) == before:
            walked.append(count)
    assert walked == list(range(limit + 1))
