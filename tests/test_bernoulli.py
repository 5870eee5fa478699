"""Twisted Bernoulli numbers/polynomials and power sums against oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.bernoulli import (
    MAX_SERIES_ORDER,
    EgfCheckResult,
    ParameterError,
    TwistSpec,
    bernoulli_egf,
    character_sum_series,
    field_conductor,
    gen_bernoulli_numbers,
    gen_bernoulli_poly,
    power_sum,
    power_sum_egf_check,
    twisted_sum,
)
from bernsym.dirichlet import DirichletCharacter, enumerate_characters, trivial_character
from bernsym.exactnum import CyclotomicNumber as Cyc
from bernsym.series import NonUnitConstantError, TruncatedSeries

from helpers import exp_linear, series_one


CHI1 = trivial_character(1)
Z3 = TwistSpec(3, 1)


def bernoulli_via_recurrence(chi, twist, w, order):
    """Independent oracle: solve the defining relation coefficientwise.

    (xi^{wd} e^{dt} - 1) * sum B_n t^n/n! = t * sum_{a<d} chi(a) xi^{wa} e^{at}
    gives, comparing t^n/n! and isolating B_n,
    B_n = [n * sum_a chi(a) xi^{wa} a^{n-1}
           - xi^{wd} * sum_{k<n} C(n,k) d^{n-k} B_k] / (xi^{wd} - 1).
    """
    m = field_conductor(chi, twist)
    d = chi.d
    zeta_wd = twist.root_power(w * d, m)
    out = [Cyc.zero(m)]
    for n in range(1, order + 1):
        rhs = Cyc.zero(m)
        for a in range(d):
            val = chi(a)
            if val.is_zero():
                continue
            apow = 1 if n == 1 else a ** (n - 1)
            if apow:
                rhs = rhs + (val.embed(m) * twist.root_power(w * a, m)).scale(n * apow)
        lower = Cyc.zero(m)
        for k in range(n):
            lower = lower + out[k].scale(math.comb(n, k) * d ** (n - k))
        out.append((rhs - zeta_wd * lower) / (zeta_wd - Cyc.one(m)))
    return out


def test_twist_spec_validation():
    with pytest.raises(ParameterError):
        TwistSpec(1, 1)
    with pytest.raises(ParameterError):
        TwistSpec(4, 2)
    assert TwistSpec(4, 3).root_power(1) == Cyc.zeta(4) ** 3


def test_first_values_d1_zeta3():
    b = gen_bernoulli_numbers(CHI1, Z3, 1, 2)
    z = Cyc.zeta(3)
    assert b[0].is_zero()
    assert b[1] == (z ** 2 - 1).scale(Fraction(1, 3))
    assert b[2] == Fraction(2, 3)


def test_d1_reduces_to_plain_twisted_numbers():
    # Eq-(6)-style computation: t / (xi e^t - 1), no character machinery
    order = 8
    xi = Cyc.zeta(3)
    t = TruncatedSeries(3, [Cyc.zero(3), Cyc.one(3)] + [Cyc.zero(3)] * (order - 1))
    plain = t / (exp_linear(1, order, 3).scale(xi) - series_one(order, 3))
    b = gen_bernoulli_numbers(CHI1, Z3, 1, order)
    for n in range(order + 1):
        assert b[n] == plain.egf_coefficient(n)


@pytest.mark.parametrize("d,r,w", [(1, 3, 1), (3, 4, 1), (4, 3, 2), (5, 3, 1), (5, 4, 3)])
def test_b0_vanishes_and_recurrence_agrees(d, r, w):
    twist = TwistSpec(r, 1)
    for chi in enumerate_characters(d):
        b = gen_bernoulli_numbers(chi, twist, w, 6)
        oracle = bernoulli_via_recurrence(chi, twist, w, 6)
        assert b[0].is_zero()
        assert b == oracle


def test_unit_denominator_violation_surfaces_series_error():
    with pytest.raises(NonUnitConstantError):
        gen_bernoulli_numbers(CHI1, Z3, 3, 4)  # r | w*d
    chi3 = trivial_character(3)
    with pytest.raises(NonUnitConstantError):
        gen_bernoulli_numbers(chi3, Z3, 1, 4)  # r | d


def test_poly_examples():
    z = Cyc.zeta(3)
    b1 = (z ** 2 - 1).scale(Fraction(1, 3))
    p1 = gen_bernoulli_poly(CHI1, Z3, 1, 1)
    # B_0 = 0 kills the x term: constant polynomial
    assert p1(Fraction(7, 2)) == b1
    assert p1(0) == b1
    p2 = gen_bernoulli_poly(CHI1, Z3, 1, 2)
    assert p2(0) == Fraction(2, 3)
    x = Fraction(5, 4)
    assert p2(x) == b1.scale(2 * x) + Fraction(2, 3)


@pytest.mark.parametrize("d,r", [(1, 3), (4, 5), (5, 4)])
def test_poly_at_zero_is_number(d, r):
    twist = TwistSpec(r, 1)
    for chi in enumerate_characters(d)[:2]:
        numbers = gen_bernoulli_numbers(chi, twist, 1, 8)
        for n in range(9):
            assert gen_bernoulli_poly(chi, twist, 1, n)(0) == numbers[n]


@pytest.mark.parametrize("x,y", [(Fraction(1, 2), Fraction(1, 3)), (2, 3), (Fraction(-3, 5), 1)])
def test_binomial_shift_identity(x, y):
    # B_n(x+y) = sum_k C(n,k) B_k(x) y^{n-k}
    chi = DirichletCharacter(5, (1,))
    twist = TwistSpec(4, 1)
    for n in range(6):
        lhs = gen_bernoulli_poly(chi, twist, 1, n)(Fraction(x) + Fraction(y))
        rhs_terms = [
            gen_bernoulli_poly(chi, twist, 1, k)(x).scale(math.comb(n, k) * Fraction(y) ** (n - k))
            for k in range(n + 1)
        ]
        rhs = rhs_terms[0]
        for t in rhs_terms[1:]:
            rhs = rhs + t
        assert lhs == rhs


def test_poly_accepts_cyclotomic_argument():
    p2 = gen_bernoulli_poly(CHI1, Z3, 1, 2)
    z = Cyc.zeta(3)
    expected = ((z ** 2 - 1).scale(Fraction(2, 3))) * z + Fraction(2, 3)
    assert p2(z) == expected


def test_power_sum_examples():
    z = Cyc.zeta(3)
    assert power_sum(1, 2, CHI1, Z3, 1) == z + (z ** 2).scale(2)
    chi4 = DirichletCharacter(4, (1,))
    xi = TwistSpec(5, 1)
    expected = xi.root_power(1) - xi.root_power(3)
    assert power_sum(0, 3, chi4, xi, 1) == expected
    assert power_sum(0, 0, CHI1, Z3, 1) == 1  # 0^0 = 1
    assert power_sum(3, 0, CHI1, Z3, 1).is_zero()


def test_power_sum_any_twist_power():
    # no measure here: w may be any integer, even a multiple of r
    assert power_sum(2, 4, CHI1, Z3, 3) == Fraction(1 + 4 + 9 + 16)
    assert power_sum(0, 2, CHI1, Z3, -1) == 1 + Cyc.zeta(3) ** 2 + Cyc.zeta(3)


@pytest.mark.parametrize("d,r,w", [(1, 3, 2), (4, 3, 2), (5, 3, 1), (3, 5, 4), (5, 7, 3)])
def test_power_sum_over_several_periods_matches_termwise_sum(d, r, w):
    # upper spans more than two periods lcm(d, r), so each residue class
    # holds several terms; a = 0 contributes 0^0 = 1 at k = 0
    twist = TwistSpec(r, 1)
    upper = 2 * math.lcm(d, r) + 3
    for chi in enumerate_characters(d):
        m = field_conductor(chi, twist)
        for k in (0, 1, 4):
            want = Cyc.zero(m)
            for a in range(upper + 1):
                want = want + chi(a).embed(m) * Cyc.zeta(r, w * a).embed(m) * (a ** k)
            assert power_sum(k, upper, chi, twist, w) == want, (chi, k)
    # the class sum of a multi-term f, below, at and above one period
    f = [(0, 3), (1, -2), (4, 5)]
    period = math.lcm(d, r)
    for chi in enumerate_characters(d):
        m = field_conductor(chi, twist)
        for upper in (period - 2, period - 1, period, 3 * period + 1):
            want = Cyc.zero(m)
            for a in range(upper + 1):
                fa = sum(c * a ** i for i, c in f)
                want = want + chi(a).embed(m) * Cyc.zeta(r, w * a).embed(m) * fa
            assert twisted_sum(f, upper, chi, twist, w) == want, (chi, upper)


def test_egf_check_examples():
    assert power_sum_egf_check(CHI1, Z3, 2, 10).passed
    # the d=4 instance needs r coprime to w; w=3 forces a twist of order != 3
    chi4 = DirichletCharacter(4, (1,))
    assert power_sum_egf_check(chi4, TwistSpec(5, 1), 3, 10).passed
    assert power_sum_egf_check(chi4, Z3, 2, 10).passed
    with pytest.raises(ParameterError):
        power_sum_egf_check(CHI1, Z3, 3, 5)


def test_egf_check_reports_failure_against_corrupted_sum(monkeypatch):
    import bernsym.bernoulli as bernoulli
    chi4 = DirichletCharacter(4, (1,))
    assert power_sum_egf_check(chi4, Z3, 2, 6).passed
    build = bernoulli.character_sum_series

    def corrupted(chi, twist, w, order, upper=None):
        # the expanded route, sum_{a<dw}, off by 1 at t^3 and t^5
        series = build(chi, twist, w, order, upper)
        if upper is None:
            return series
        coeffs = list(series.coeffs)
        for k in (3, 5):
            coeffs[k] = coeffs[k] + 1
        return TruncatedSeries(series.m, coeffs)

    monkeypatch.setattr(bernoulli, "character_sum_series", corrupted)
    res = power_sum_egf_check(chi4, Z3, 2, 6)
    assert isinstance(res, EgfCheckResult) and not res.passed
    k, closed, expanded = res.first_failure
    assert k == 3
    assert closed == power_sum(3, 7, chi4, Z3, 1)
    assert expanded == closed + math.factorial(3)


def test_egf_check_compares_its_two_routes_only(monkeypatch):
    # the closed quotient against the expanded sum; S_k(dw - 1) is their
    # t^k/k! coefficient, checked against the term walk and sympy elsewhere,
    # so the check itself sums no power
    import bernsym.bernoulli as bernoulli

    def refuse(*args):
        raise AssertionError("power_sum called")

    monkeypatch.setattr(bernoulli, "power_sum", refuse)
    assert power_sum_egf_check(CHI1, Z3, 2, 10).passed
    assert power_sum_egf_check(DirichletCharacter(5, (1,)), TwistSpec(7, 1), 4, 12).passed


# The character sums read long uppers from their classes' closed forms; the
# term walk below shares no code with that path (no class weights, no
# progression sums), so it checks character_sum_series, and with it the
# power sums S_k that power_sum_egf_check's expanded route carries as its
# t^k/k! coefficients, independently.

STANDARD_CONTEXTS = [(chi, TwistSpec(r, 1)) for d in (1, 3, 4, 5) for chi in enumerate_characters(d)
                     for r in (3, 4, 5, 7) if math.gcd(r, d) == 1]


def character_sum_by_terms(chi, twist, w, order, upper):
    """sum_{a<upper} chi(a) xi^(wa) a^k / k! for k = 0..order, term by term."""
    m = field_conductor(chi, twist)
    out = [Cyc.zero(m)] * (order + 1)
    for a in range(upper):
        value = chi(a).embed(m) * Cyc.zeta(twist.r, twist.j * w * a % twist.r).embed(m)
        out = [c + value.scale(Fraction(a ** k, math.factorial(k))) for k, c in enumerate(out)]
    return out


def test_character_sum_rows_equal_the_term_walk():
    # order 3 walks a class of at most 4 terms (count * 4 <= 4^2); the
    # uppers give classes of 1 to 33 terms, so both paths are taken
    assert len(STANDARD_CONTEXTS) == 28
    order = 3
    for chi, twist in STANDARD_CONTEXTS:
        for w in (1, 2):
            for upper in sorted({0, 1, chi.d, 2 * chi.d, 4 * chi.d + 1, 97}):
                series = character_sum_series(chi, twist, w, order, upper=upper)
                assert list(series.coeffs) == character_sum_by_terms(chi, twist, w, order, upper), \
                    (chi.d, chi.exponents, twist.r, w, upper)


def test_character_sum_egf_middle_equality_against_the_term_walk():
    # power_sum_egf_check's expanded route, the sums at upper d*w, against
    # the term walk
    for chi, twist in STANDARD_CONTEXTS:
        for w in (1, 2, 4):
            if (chi.d * w) % twist.r == 0 or w % twist.r == 0:
                continue
            series = character_sum_series(chi, twist, 1, 6, upper=chi.d * w)
            assert list(series.coeffs) == character_sum_by_terms(chi, twist, 1, 6, chi.d * w)
            assert power_sum_egf_check(chi, twist, w, 6).passed


@pytest.mark.parametrize("upper", (10 ** 4, 10 ** 6))
def test_long_classes_read_one_power_sum_table_per_count(upper, sympy_character_sums):
    # d = 5, chi of order 4, r = 7, order 12: the q whole periods of 35 of
    # every degree k <= 12 read one `_power_sums(q, 35, 12)`, where each
    # class once read its own count's table (at most two counts)
    from bernsym import exactnum
    chi = DirichletCharacter(5, (1,))
    assert chi.order == 4
    twist, order, period = TwistSpec(7, 1), 12, 35
    m = field_conductor(chi, twist)
    exactnum._power_sums.cache_clear()
    series = character_sum_series(chi, twist, 1, order, upper=upper)
    assert exactnum._power_sums.cache_info().misses == 1
    assert [c.coefficients() for c in series.coeffs] == sympy_character_sums(5, 1, 7, 1, order, upper)
    if upper <= 10 ** 4:
        weights = [chi(c).embed(m) * Cyc.zeta(twist.r, twist.j * c % twist.r).embed(m) for c in range(period)]
        by_terms = [sum((weight.scale(sum(a ** k for a in range(c, upper, period)))
                         for c, weight in enumerate(weights)), Cyc.zero(m)).scale(Fraction(1, math.factorial(k)))
                    for k in range(order + 1)]
        assert list(series.coeffs) == by_terms


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 13), st.integers(2, 13), st.data())
def test_class_weights_are_the_products_of_their_roots(d, r, data):
    # each class weight, read as one row of the power table, is the
    # cyclotomic product chi(c) * xi^(wc) at the field conductor, for every
    # character mod d, every j coprime to r and every w <= 2r
    from bernsym.bernoulli import _class_weights

    chi = data.draw(st.sampled_from(enumerate_characters(d)))
    twist = TwistSpec(r, data.draw(st.sampled_from([j for j in range(1, r) if math.gcd(j, r) == 1])))
    w = data.draw(st.integers(0, 2 * r))
    m = field_conductor(chi, twist)
    weights = ((c, chi(c).embed(m) * twist.root_power(w * c, m)) for c in range(math.lcm(chi.d, twist.r)))
    assert _class_weights.__wrapped__(chi, twist, w) == tuple(
        (c, tuple((i, x) for i, x in enumerate(weight.num) if x)) for c, weight in weights if weight)


def _count_class_visits(monkeypatch):
    """The classes that each walk or class-moment table reads from
    `_class_weights`, one list per read, with the moment tables emptied
    first."""
    from bernsym import bernoulli

    reads = []
    weights = bernoulli._class_weights

    def counted(*key):
        visited = []
        reads.append(visited)
        for item in weights(*key):
            visited.append(item[0])
            yield item

    bernoulli._class_moments.cache_clear()
    monkeypatch.setattr(bernoulli, "_class_weights", counted)
    return reads


def test_verify_at_a_huge_w_walks_no_long_class(monkeypatch, cold_store):
    # a slot's power sums over a < d*U are walked only when they hold at
    # most (deg + 1)(deg + 1 + L) / T terms, and read from class moments
    # otherwise, each walk or table one pass over at most the 15 classes
    # mod lcm(5, 3): theorems 3 and 7 still verify at w = 10^6 (the walk
    # over every a took 17-18 s there) reading a few hundred classes
    from bernsym.identities import TheoremInstance, verify_instance

    reads = _count_class_visits(monkeypatch)
    chi = next(c for c in enumerate_characters(5) if c.order == 4)
    for theorem, w in ((3, (1, 10 ** 6)), (7, (1, 2, 10 ** 6))):
        report = verify_instance(TheoremInstance(theorem, 5, chi.exponents, 3, 1, w, 4, "normalized"))
        assert report.passed and not report.pass_as_stated
    assert reads and max(map(len, reads)) <= 15
    assert sum(map(len, reads)) <= 500


def test_order_64_series_walks_no_class_longer_than_its_order(monkeypatch):
    # the series of x^0..x^64 walks its terms only while their 65 (upper)
    # powers cost no more than 65 (65 + 35), that is upper <= 100 at
    # L = 35: at most 3 terms a class, where a rule of (order + 1)^2 terms
    # once walked about 2,857 of each class mod 35 at upper 10^5.  Past
    # that every class is read from the moment tables, one pass over at
    # most the 35 classes each (and the first class past rho): upper 10^5
    # (q = 2857, rho = 5) builds the
    # tables of 35 and 5, and 101 (q = 2, rho = 31) only that of 31
    from bernsym import bernoulli

    reads = _count_class_visits(monkeypatch)
    chi, twist, order = DirichletCharacter(5, (1,)), TwistSpec(7, 1), MAX_SERIES_ORDER
    character_sum_series(chi, twist, 1, order, upper=10 ** 5)
    assert bernoulli._class_moments.cache_info().misses == 2
    assert [len(v) for v in reads] == [28, 5]
    walked = character_sum_series(chi, twist, 1, order, upper=100)
    assert bernoulli._class_moments.cache_info().misses == 2
    assert [len(v) for v in reads] == [28, 5, 28]
    read = character_sum_series(chi, twist, 1, order, upper=101)
    assert bernoulli._class_moments.cache_info().misses == 3
    assert [len(v) for v in reads] == [28, 5, 28, 25]
    # chi(100) = 0, so the walk below 100 and the moments below 101 agree
    # row by row, and power_sum's one f walks all 101 terms
    assert list(read.coeffs) == list(walked.coeffs)
    assert read.egf_coefficient(order) == power_sum(order, 100, chi, twist, 1)


def _dense_polys(order):
    """Three polynomials with every degree 0..order: their T = 3 (order + 1)
    terms make the kernel read class moments at q = 0, where it walks the
    monomials x^0..x^order."""
    return [[(k, 1) for k in range(order + 1)], [(k, k + 1) for k in range(order + 1)],
            [(k, (-1) ** k) for k in range(order + 1)]]


@pytest.mark.parametrize("order", (0, 12, MAX_SERIES_ORDER))
def test_class_sums_match_sympy_at_every_cut(order, sympy_character_sums):
    # upper + 1 = qL + rho with L = 35 (d = 5, chi of order 4, r = 7), cut
    # at q = 0 (rho = 20 and rho = L - 1 = 34, and the empty sum), rho = 0,
    # rho = L - 1 and q >= 10^6: the kernel's rows against sympy's, order
    # 64 at three cuts.  The monomials are walked below 36 + order terms
    # and read from moments above; the three dense polynomials are read
    # from moments at q = 0 from 20 terms on (34 at order 64)
    from bernsym.bernoulli import _class_sums

    chi, twist = DirichletCharacter(5, (1,)), TwistSpec(7, 1)
    monomials = [[(k, 1)] for k in range(order + 1)]
    cuts = (34, 35, 35 * 10 ** 6 + 34) if order == MAX_SERIES_ORDER else \
        (0, 20, 34, 35, 35 * 3, 35 * 3 + 34, 35 * 10 ** 6, 35 * 10 ** 6 + 34)
    for count in cuts:
        rows = _class_sums(monomials, count - 1, chi, twist, 1)
        expected = sympy_character_sums(5, 1, 7, 1, order, count)
        assert [tuple(Fraction(x, math.factorial(k)) for x in row) for k, row in enumerate(rows)] == \
            expected, count
        sums = [[x * math.factorial(k) for x in row] for k, row in enumerate(expected)]
        assert _class_sums(_dense_polys(order), count - 1, chi, twist, 1) == \
            [[sum(c * sums[k][i] for k, c in f) for i in range(len(rows[0]))] for f in _dense_polys(order)], count


def test_power_sum_degree_over_ceiling_refused_before_any_class(monkeypatch):
    # S_k is the t^k coefficient of the character-sum series, so k has the
    # series' ceiling: k = 200 walked 28,571 terms of a^200 per class at
    # upper 10^6, and k = 1000 took 55 s there
    from bernsym import bernoulli

    def summed(*args, **kwargs):
        raise AssertionError("a class was summed")

    chi, twist, top = DirichletCharacter(5, (1,)), TwistSpec(7, 1), MAX_SERIES_ORDER
    monkeypatch.setattr(bernoulli, "_class_sums", summed)
    for k in (top + 1, 1000):
        with pytest.raises(ParameterError, match=f"^k={k} is above the ceiling of {top}$"):
            power_sum(k, 10 ** 6, chi, twist, 1)
    with pytest.raises(AssertionError, match="a class was summed"):
        power_sum(top, 10 ** 6, chi, twist, 1)


def test_bernoulli_egf_matches_numbers():
    egf = bernoulli_egf(CHI1, Z3, 1, 7)
    numbers = gen_bernoulli_numbers(CHI1, Z3, 1, 7)
    for n, b in enumerate(numbers):
        assert egf.egf_coefficient(n) == b


def test_twist_order_over_ceiling_refused_before_factoring(monkeypatch):
    # r = 1009 spent its time inverting in a degree-1008 field, and
    # r = 10^38 + 7 in trial division; both are refused on their value
    from bernsym import bernoulli, exactnum, padic

    def factor(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(exactnum, "_factorize", factor)
    for r in (1009, 10 ** 38 + 7, bernoulli.MAX_TWIST_ORDER + 1):
        with pytest.raises(ParameterError, match=f"r={r} is above the ceiling of {bernoulli.MAX_TWIST_ORDER}"):
            TwistSpec(r, 1)
        with pytest.raises(ParameterError, match="ceiling"):
            padic.PadicContext(5, 40, r)
    TwistSpec(bernoulli.MAX_TWIST_ORDER, 1)


def test_series_order_over_ceiling_refused_before_any_series(monkeypatch):
    # every entry that takes an order or n_max refuses one over the ceiling
    # before it builds a series; the ceiling itself is accepted
    from bernsym import bernoulli
    from bernsym.identities import GridConfig, TheoremInstance
    from bernsym.quotients import QUOTIENT_TYPES, closed_form_series, consistency_check

    top = bernoulli.MAX_SERIES_ORDER
    bernoulli.require_series_order(top)

    def build(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(TruncatedSeries, "__init__", build)
    monkeypatch.setattr(TruncatedSeries, "_from_rows", staticmethod(build))
    chi, twist, g0 = DirichletCharacter(5, (1,)), TwistSpec(7, 1), QUOTIENT_TYPES["G0"]
    refusals = [
        (lambda: bernoulli_egf(chi, twist, 1, top + 1), "order"),
        (lambda: gen_bernoulli_poly(chi, twist, 1, top + 1), "order"),
        (lambda: closed_form_series(g0, (1, 2), (), chi, twist, top + 1), "order"),
        (lambda: consistency_check(g0, (1, 2), (Fraction(1), Fraction(2)), chi, twist, top + 1), "n_max"),
        (lambda: TheoremInstance(1, 5, (1,), 7, 1, (1, 2), top + 1).validate(), "n_max"),
        (lambda: GridConfig(n_max=top + 1), "n_max"),
    ]
    for call, name in refusals:
        with pytest.raises(ParameterError, match=f"^{name}={top + 1} is above the ceiling of {top}$"):
            call()


def test_field_degree_over_ceiling_refused_before_any_series(monkeypatch):
    # r = 199 alone gives degree 198; a character of order 138 lifts the
    # field to Q(zeta_27462), of degree 8712
    from bernsym import bernoulli, quotients

    def build(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(TruncatedSeries, "__mul__", build)
    monkeypatch.setattr(TruncatedSeries, "__truediv__", build)
    monkeypatch.setattr(quotients, "product", build)
    monkeypatch.setattr(Cyc, "inverse", build)
    chi = DirichletCharacter(139, (1,))
    assert chi.order == 138
    assert field_conductor(CHI1, TwistSpec(199, 1)) == 199
    message = f"has degree 8712, above the ceiling of {bernoulli.MAX_FIELD_DEGREE}"
    with pytest.raises(ParameterError, match=message):
        field_conductor(chi, TwistSpec(199, 1))
    with pytest.raises(ParameterError, match=message):
        bernoulli_egf(chi, TwistSpec(199, 1), 1, 4)
