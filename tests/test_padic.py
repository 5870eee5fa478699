"""The unramified p-adic sandbox: ring arithmetic, measure, Riemann sums."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.bernoulli import ParameterError, TwistSpec
from bernsym.dirichlet import DirichletCharacter, enumerate_characters, trivial_character
from bernsym.exactnum import CyclotomicNumber as Cyc, _adjugate
from bernsym import exactnum, padic
from bernsym.padic import (
    ConvergenceReport,
    MeasureQuery,
    NonUnitInverseError,
    PadicContext,
    PadicCycNumber,
    convergence_check,
    distribution_check,
    embed_algebraic,
    measure_value,
    riemann_sum,
)

CTX = PadicContext(5, 20, 3)
Z3 = TwistSpec(3, 1)


def test_context_validation():
    with pytest.raises(ParameterError):
        PadicContext(6, 10, 5)
    with pytest.raises(ParameterError):
        PadicContext(5, 10, 10)  # gcd(r, p) != 1
    with pytest.raises(ParameterError):
        PadicContext(5, 0, 3)


def test_context_refuses_precision_over_ceiling(no_padic_work):
    # p^M is counted in bits, M * bit_length(p), before any element exists
    bits = (5).bit_length()
    PadicContext(5, padic.MAX_PRECISION_BITS // bits, 3)
    over = padic.MAX_PRECISION_BITS // bits + 1
    with pytest.raises(ParameterError, match=f"ceiling of {padic.MAX_PRECISION_BITS}"):
        PadicContext(5, over, 3)
    with pytest.raises(ParameterError, match="ceiling"):
        PadicContext(1000003, padic.MAX_PRECISION_BITS // 20 + 1, 3)
    # M = 40 at p = 101, the largest p of the tests and the benchmark, is
    # under a hundredth of it
    assert padic.DEFAULT_PRECISION * (101).bit_length() * 100 < padic.MAX_PRECISION_BITS


def test_ring_relations():
    # Phi_3 relation: x^2 + x + 1 = 0
    val = CTX.x_power(2) + CTX.x_power(1) + CTX.one()
    assert val.is_zero()
    assert CTX.x_power(5) == CTX.x_power(2)


def test_inverse_example():
    z3m1 = CTX.x_power(1) - CTX.one()
    inv = z3m1.inverse()
    assert z3m1 * inv == CTX.one()
    assert z3m1.inverse() == inv
    # norm of zeta_3 - 1 is 3, a unit mod 5
    # random round trips; (Z/12)* is not cyclic, so r = 12 takes the
    # adjugate over a non-cyclic Galois group
    for p, r in [(5, 3), (7, 4), (11, 7), (13, 12)]:
        ctx = PadicContext(p, 30, r)
        rng = random.Random(p * 100 + r)
        inverted = 0
        for _ in range(20):
            x = PadicCycNumber(ctx, [rng.randrange(ctx.modulus) for _ in range(ctx.degree)])
            try:
                inv = x.inverse()
            except NonUnitInverseError:
                continue
            assert x * inv == ctx.one() == inv * x, (p, r)
            inverted += 1
        # a random element lies in one of the at most phi(r) primes above p,
        # each of index p^f, with probability at most phi(r)/p (4/13 at r = 12)
        assert inverted >= 10, (p, r)


def _units(ctx, seed, count):
    """`count` seeded random units of the ring, each with its exact
    adjugate and norm (`_adjugate` with no modulus)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = PadicCycNumber(ctx, [rng.randrange(ctx.modulus) for _ in range(ctx.degree)])
        adj, norm = _adjugate(ctx.r, x.coeffs)
        if norm % ctx.p:
            out.append((x, adj, norm))
    return out


@pytest.mark.parametrize("p,r,M", [(5, 7, 1000), (11, 7, 1000), (13, 12, 1200)])
def test_reduced_adjugate_inverts_like_the_exact_one(p, r, M):
    # the inverse reduces the adjugate's partial products mod p^M; the
    # exact adjugate and norm, reduced at the end, give the same inverse
    ctx = PadicContext(p, M, r)
    for x, adj, norm in _units(ctx, p * 1000 + r, 3):
        assert x.inverse() == PadicCycNumber(ctx, adj) * pow(norm, -1, ctx.modulus), (p, r)
        assert x * x.inverse() == ctx.one()


def test_reduced_adjugate_keeps_operands_near_the_modulus(monkeypatch):
    # unreduced, the product of phi(r) - 1 = 5 conjugates grows to about
    # five times the modulus's bit length
    ctx = PadicContext(5, 1000, 7)
    units = _units(ctx, 57, 2)
    bits = []
    vec_mul_mod = exactnum._vec_mul_mod

    def recording(m, a, b):
        out = vec_mul_mod(m, a, b)
        bits.append(max(abs(c).bit_length() for c in (*a, *b, *out)))
        return out

    monkeypatch.setattr(exactnum, "_vec_mul_mod", recording)
    for x, _, _ in units:
        x.inverse()
    assert bits and max(bits) <= 2 * ctx.M * ctx.p.bit_length() + 16


@pytest.mark.parametrize("p,r,coeffs", [
    (5, 3, (5, 0)),     # 5 itself is not a unit mod 5^M
    (7, 3, (-2, 1)),    # zeta_3 - 2: norm Phi_3(2) = 7, and 7 splits in Q(zeta_3)
    (13, 12, (-2, 1, 0, 0)),   # zeta_12 - 2: norm Phi_12(2) = 13
    (11, 5, (-3, 1, 0, 0)),    # zeta_5 - 3: norm Phi_5(3) = 11^2
], ids=["5-mod-5", "zeta3-2-mod-7", "zeta12-2-mod-13", "zeta5-3-mod-11"])
def test_non_unit_inverse(p, r, coeffs):
    # the last three are not divisible by p, yet lie in a prime above it
    x = PadicCycNumber(PadicContext(p, 20, r), coeffs)
    with pytest.raises(NonUnitInverseError):
        x.inverse()


def test_valuation_shift():
    rng = random.Random(7)
    for _ in range(20):
        x = PadicCycNumber(CTX, [rng.randrange(CTX.modulus) for _ in range(CTX.degree)])
        if x.is_zero():
            continue
        v = x.valuation()
        assert (x * 5).valuation() == min(v + 1, CTX.M)
    assert CTX.zero().valuation() == CTX.M


def test_valuation_superadditive():
    rng = random.Random(11)
    for _ in range(20):
        x = PadicCycNumber(CTX, [rng.randrange(CTX.modulus) for _ in range(CTX.degree)])
        y = PadicCycNumber(CTX, [rng.randrange(CTX.modulus) for _ in range(CTX.degree)])
        assert (x * y).valuation() >= min(x.valuation() + y.valuation(), CTX.M)


def test_embed_examples():
    ctx2 = PadicContext(5, 2, 3)
    third = embed_algebraic(Cyc.from_rational(Fraction(1, 3)), ctx2)
    assert third.coeffs[0] == 17
    zeta = embed_algebraic(Cyc.zeta(3), CTX)
    assert zeta == CTX.x_power(1)
    with pytest.raises(ParameterError):
        embed_algebraic(Cyc.from_rational(Fraction(1, 5)), CTX)
    with pytest.raises(ParameterError):
        embed_algebraic(Cyc.zeta(4), CTX)


def test_embed_is_ring_homomorphism():
    a = (Cyc.zeta(3) - 1).scale(Fraction(2, 7))
    b = Cyc.zeta(3) ** 2 + Fraction(1, 3)
    assert embed_algebraic(a * b, CTX) == embed_algebraic(a, CTX) * embed_algebraic(b, CTX)
    assert embed_algebraic(a + b, CTX) == embed_algebraic(a, CTX) + embed_algebraic(b, CTX)


def test_measure_value_example():
    # mu(0 + 5 Z_5) = 1/(z^5 - 1) = 1/(z^2 - 1) = (z - 1)/3 in the ring
    val = measure_value(MeasureQuery(1, 1, 1, 0), Z3, CTX)
    expected = embed_algebraic((Cyc.zeta(3) - 1).scale(Fraction(1, 3)), CTX)
    assert val == expected


def test_measure_z_shift():
    lhs = measure_value(MeasureQuery(1, 1, 1, 3), Z3, CTX)
    rhs = CTX.x_power(1) * measure_value(MeasureQuery(1, 1, 1, 2), Z3, CTX)
    assert lhs == rhs


def test_measure_range_check():
    with pytest.raises(ParameterError):
        measure_value(MeasureQuery(1, 1, 1, 5), Z3, CTX)


@pytest.mark.parametrize("p,r,d", [(5, 3, 1), (5, 4, 1), (7, 3, 1), (7, 4, 1), (5, 3, 4), (7, 3, 4)])
def test_distribution_compatibility(p, r, d):
    ctx = PadicContext(p, 25, r)
    twist = TwistSpec(r, 1)
    for level in range(4):
        span = d * p ** level
        for residue in {0, 1, span - 1, span // 2} & set(range(span)):
            assert distribution_check(twist, d, level, residue, ctx)


@pytest.mark.parametrize("level", [10 ** 6, 10 ** 6 + 1])
@pytest.mark.parametrize("p,r,d", [(5, 3, 1), (7, 4, 1), (5, 3, 4), (7, 3, 4), (11, 7, 5)])
def test_measure_at_a_huge_level_reads_p_to_the_n_mod_r(p, r, d, level):
    # z has order r, so level N and N mod ord_r(p) give the same p^N mod r
    # and the same measure; neither function forms p^N
    ctx = PadicContext(p, 25, r)
    twist = TwistSpec(r, 1)
    low = level % min(k for k in range(1, r) if pow(p, k, r) == 1)
    assert pow(p, low, r) == pow(p, level, r)
    for residue in {0, 1, d - 1, d * p ** low - 1} & set(range(d * p ** low)):
        for twist_exp in (1, 2):
            query = MeasureQuery(d, level, twist_exp, residue)
            assert measure_value(query, twist, ctx) == measure_value(
                MeasureQuery(d, low, twist_exp, residue), twist, ctx)
            assert distribution_check(twist, d, level, residue, ctx, twist_exp)
    with pytest.raises(ParameterError, match=rf"^residue {d * p} outside 0\.\.d\*p\^N - 1 = {d}\*{p}\^1 - 1$"):
        measure_value(MeasureQuery(d, 1, 1, d * p), twist, ctx)


def test_riemann_sum_constant_is_level_exact():
    target = (CTX.x_power(1) - CTX.one()).inverse()
    for level in range(5):
        assert riemann_sum([1], None, Z3, 1, level, CTX) == target


def test_riemann_sum_linear_in_f():
    f1, f2 = [0, 1], [Fraction(1, 2), 0, 3]
    combined = [Fraction(1, 2), 1, 3]
    lhs = riemann_sum(combined, None, Z3, 1, 2, CTX)
    rhs = riemann_sum(f1, None, Z3, 1, 2, CTX) + riemann_sum(f2, None, Z3, 1, 2, CTX)
    assert lhs == rhs


def test_riemann_sum_identity_varies_with_level():
    a = riemann_sum([0, 1], None, Z3, 1, 1, CTX)
    b = riemann_sum([0, 1], None, Z3, 1, 2, CTX)
    assert a != b
    assert (a - b).valuation() > 0


def test_riemann_sum_rejects_bad_denominator():
    with pytest.raises(ParameterError):
        riemann_sum([Fraction(1, 5)], None, Z3, 1, 1, CTX)


def test_riemann_sum_rejects_unembeddable_character():
    chi = enumerate_characters(4)[1]  # order 2, does not divide r=3
    with pytest.raises(ParameterError):
        riemann_sum([1], chi, Z3, 4, 1, CTX)


def test_riemann_sum_rejects_mismatched_ring_order():
    with pytest.raises(ParameterError, match="ring and twist orders differ"):
        riemann_sum([1], None, Z3, 1, 1, PadicContext(5, 20, 6))


@pytest.mark.parametrize("measure", [
    lambda ctx, e: measure_value(MeasureQuery(1, 1, e, 0), Z3, ctx),
    lambda ctx, e: riemann_sum([1], None, Z3, 1, 1, ctx, twist_exp=e),
    lambda ctx, e: distribution_check(Z3, 1, 1, 0, ctx, twist_exp=e),
], ids=["measure_value", "riemann_sum", "distribution_check"])
def test_measure_preconditions_refuse_z_one_and_a_foreign_ring(measure):
    with pytest.raises(ParameterError, match="^z = 1 does not define a measure$"):
        measure(CTX, 3)
    with pytest.raises(ParameterError, match="^ring and twist orders differ$"):
        measure(PadicContext(5, 20, 4), 1)


def test_riemann_sum_refuses_level_over_ceiling(monkeypatch, no_padic_work):
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(PadicContext, "x_power", walk)
    with pytest.raises(ParameterError, match="ceiling"):
        riemann_sum([1], None, Z3, 1, 40, CTX)
    with pytest.raises(ParameterError, match="ceiling"):
        riemann_sum([1], None, Z3, padic.MAX_HORNER_STEPS + 1, 0, CTX)
    with pytest.raises(ParameterError):
        riemann_sum([1], None, Z3, 1, -1, CTX)


def test_riemann_sum_ceiling_counts_horner_steps(monkeypatch, no_padic_work):
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(PadicContext, "x_power", walk)
    ctx = PadicContext(101, 40, 3)
    # 101^3 residues at deg f = 0 are under the ceiling; at deg f = 90 they are not
    assert padic._level_span(1, 101, 3, 1) == 101 ** 3
    with pytest.raises(ParameterError, match="91 terms each, more than the ceiling"):
        riemann_sum([0] * 90 + [1], None, Z3, 1, 3, ctx)
    # the largest request of criterion 9 (d = 4, p = 7, level 6, moment 3) fits
    assert padic._level_span(4, 7, 6, 4) == 4 * 7 ** 6


def test_riemann_sum_high_degree_short_level_walks_its_terms():
    # the 25 residues of level 2 at deg f = 2000 are walked term by term
    # in a few ms, as they cost less than the power sums S_k, k <= 2000,
    # that the class moments would read (about 8 s on a 2-core Xeon); the
    # sum is that of the measure's values
    start = time.perf_counter()
    total = riemann_sum([0] * 2000 + [1], None, Z3, 1, 2, CTX)
    assert time.perf_counter() - start < 2
    by_terms = CTX.zero()
    for a in range(25):
        by_terms = by_terms + measure_value(MeasureQuery(1, 2, 1, a), Z3, CTX) * a ** 2000
    assert total == by_terms


def _two_branch_refusal(d, p, level, steps):
    """The level rule before the ceiling had one branch: d p^N residues over
    the residue ceiling, which equalled MAX_HORNER_STEPS, or those residues
    times deg f + 1 steps over MAX_HORNER_STEPS."""
    ceiling = padic.MAX_HORNER_STEPS
    span = d * p ** min(level, ceiling.bit_length())
    return span > ceiling or span * steps > ceiling


@pytest.mark.parametrize("d", [1, 4, 200])
@pytest.mark.parametrize("p", [2, 5, 101])
def test_level_span_refuses_what_the_two_branch_rule_refused(d, p):
    for level in [*range(31), 10 ** 6]:
        for steps in (1, 2, 91, 10 ** 7):
            try:
                span = padic._level_span(d, p, level, steps)
            except ParameterError:
                assert _two_branch_refusal(d, p, level, steps), (level, steps)
            else:
                assert not _two_branch_refusal(d, p, level, steps), (level, steps)
                assert span == d * p ** level


FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def riemann_cases(draw):
    p = draw(st.sampled_from([5, 7]))
    r = draw(st.sampled_from([3, 4]))
    d = draw(st.sampled_from([d for d in (1, 3, 4, 5) if math.gcd(r, p * d) == 1]))
    chars = [chi for chi in enumerate_characters(d) if r % chi.order == 0]
    chi = draw(st.sampled_from([None] + chars))
    twist_exp = draw(st.integers(1, 2 * r).filter(lambda e: e % r))
    f = draw(st.lists(FRACTIONS, min_size=1, max_size=7))
    return p, r, d, chi, twist_exp, f, draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(riemann_cases())
def test_riemann_sum_matches_per_residue_sum(case):
    # the grouped sum against the definition: one measure value per residue
    p, r, d, chi, twist_exp, f, level = case
    ctx = PadicContext(p, 12, r)
    twist = TwistSpec(r, 1)
    expected = ctx.zero()
    for a in range(d * p ** level):
        fa = sum(c * a ** i for i, c in enumerate(f))
        term = embed_algebraic(Cyc.from_rational(Fraction(fa)), ctx) * measure_value(
            MeasureQuery(d, level, twist_exp, a), twist, ctx)
        if chi is not None:
            term = term * embed_algebraic(chi(a), ctx)
        expected = expected + term
    assert riemann_sum(f, chi, twist, d, level, ctx, twist_exp=twist_exp) == expected


def test_convergence_exact_at_moment_zero():
    ctx = PadicContext(5, 40, 3)
    rep = convergence_check(0, trivial_character(1), Z3, [1, 2, 3], ctx)
    assert rep.passed and all(rep.exact)


@pytest.mark.parametrize("p,r", [(5, 3), (5, 4), (7, 3), (7, 4)])
def test_convergence_moments(p, r):
    ctx = PadicContext(p, 40, r)
    twist = TwistSpec(r, 1)
    for n in (1, 2):
        rep = convergence_check(n, trivial_character(1), twist, [1, 2, 3, 4], ctx)
        assert isinstance(rep, ConvergenceReport)
        assert rep.passed
        assert rep.valuations == sorted(rep.valuations)
        assert rep.valuations[-1] > rep.valuations[0]


def test_convergence_precondition_small_prime():
    ctx = PadicContext(2, 40, 3)
    with pytest.raises(ParameterError):
        convergence_check(1, trivial_character(1), Z3, [1, 2], ctx)


def test_convergence_rejects_mismatched_ring_order():
    with pytest.raises(ParameterError, match="ring and twist orders differ"):
        convergence_check(1, trivial_character(1), TwistSpec(3, 1), [1, 2, 3, 4],
                          PadicContext(5, 40, 6))


def test_convergence_refuses_level_over_ceiling(no_padic_work):
    # a range of levels is read from its ends, never walked
    for levels in ([1, 30, 2], range(1, 10 ** 18), range(10 ** 18, 0, -1)):
        with pytest.raises(ParameterError, match="ceiling"):
            convergence_check(1, trivial_character(1), Z3, levels, PadicContext(5, 40, 3))


@pytest.mark.parametrize("levels", [[], [3], [2, 2], range(0), range(3, 4)])
def test_convergence_needs_two_distinct_levels(levels, no_padic_work):
    # the verdict compares the last level with the first, so one level
    # would always fail
    with pytest.raises(ParameterError, match="^need at least two distinct levels$"):
        convergence_check(1, trivial_character(1), Z3, levels, PadicContext(5, 40, 3))


def test_convergence_refuses_before_any_work(no_padic_work):
    # a negative level or a moment past the series ceiling is refused
    # before the target is built
    ctx = PadicContext(67, 40, 3)
    with pytest.raises(ParameterError, match="level N >= 0"):
        convergence_check(1, trivial_character(1), Z3, range(-10 ** 18, 3), ctx)
    with pytest.raises(ParameterError, match="level N >= 0"):
        convergence_check(1, trivial_character(1), Z3, [2, 1, -1], ctx)
    top = padic.MAX_SERIES_ORDER
    with pytest.raises(ParameterError, match=f"^moment n={top} needs B_\\(n\\+1\\) at series order {top + 1}, "):
        convergence_check(top, trivial_character(1), Z3, [1, 2], ctx)


@pytest.mark.parametrize("p", [5, 67])
def test_convergence_judges_levels_in_level_order(p):
    # the levels are sorted once they are checked, so a list in any order
    # and a range give the report of the ascending list; [3, 1, 2] once
    # reported valuations [3, 1, 2] and failed
    ctx = PadicContext(p, 40, 3)
    ascending = convergence_check(1, trivial_character(1), Z3, [1, 2, 3], ctx)
    assert ascending.passed
    for levels in ([3, 1, 2], [2, 3, 1], range(1, 4), range(3, 0, -1)):
        assert convergence_check(1, trivial_character(1), Z3, levels, ctx) == ascending, levels


def test_no_padic_work_fixture_stops_a_valid_check(no_padic_work):
    # the positive control of every guard that refuses under the fixture:
    # valid input reaches the patched work, so those guards cannot pass
    # because the work moved off the patched path
    with pytest.raises(AssertionError, match="^the p-adic work started$"):
        convergence_check(1, trivial_character(1), Z3, [1, 2], PadicContext(5, 40, 3))
    with pytest.raises(AssertionError, match="^the p-adic work started$"):
        riemann_sum([0, 1], None, Z3, 1, 2, CTX)
    with pytest.raises(AssertionError, match="^the p-adic work started$"):
        padic._moment_target.__wrapped__(trivial_character(1), Z3, 1)


def test_second_convergence_check_loops_over_no_class(monkeypatch):
    # a check reads each level of more than (n + 1)(n + 1 + L) residues
    # from the class moments of chi, z and its remainder d p^N mod L: a
    # second check on the same ring and chi, with the levels in another
    # order, builds no moment table and reads no class.  Here L = 12 and
    # n = 2, so levels 2..4 (196 residues and up) are read from moments,
    # where level 1's 28 residues are walked
    from bernsym import bernoulli

    chi, twist, ctx = DirichletCharacter(4, (0,)), Z3, PadicContext(7, 40, 3)
    first = convergence_check(2, chi, twist, [2, 3, 4], ctx)
    built = bernoulli._class_moments.cache_info().misses

    def walked(*args):
        raise AssertionError("a class was read")

    monkeypatch.setattr(bernoulli, "_class_weights", walked)
    assert convergence_check(2, chi, twist, [4, 2, 3], ctx) == first
    assert bernoulli._class_moments.cache_info().misses == built
    with pytest.raises(AssertionError, match="^a class was read$"):
        convergence_check(2, chi, twist, [1, 2], ctx)
