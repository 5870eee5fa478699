"""Closed forms, expansion forms, weights, and the master reconciliation."""

import functools
import gc
import math
import operator
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from bernsym.bernoulli import ParameterError, TwistSpec, character_sum_series, gen_bernoulli_numbers, power_sum
from bernsym.dirichlet import DirichletCharacter, trivial_character
from bernsym.exactnum import CyclotomicNumber as Cyc, euler_phi
from bernsym import bernoulli, quotients
from bernsym.identities import TheoremInstance, verify_instance
from bernsym.quotients import (
    FORMS,
    QUOTIENT_TYPES,
    BSlot,
    EvalContext,
    SSlot,
    _slot_keys,
    closed_form_series,
    consistency_check,
    expansion_coefficients,
    expansion_polys,
    form_weight,
    mono_name,
    mono_val,
    parse_quotient_type,
    perm_apply,
    perm_monomial,
    point_series,
    point_value,
    side_series,
    spread_ypolys,
)
from bernsym.series import NonUnitConstantError, TruncatedSeries, _content_reduced, product as series_product

from helpers import as_rational, char_ratio_series, denom_series, exp_linear
from mutants import KINDS, data_mutants, mutation, planted

CHI1 = trivial_character(1)
Z3 = TwistSpec(3, 1)


def b1_z3():
    return (Cyc.zeta(3) ** 2 - 1).scale(Fraction(1, 3))


def test_catalog_shape():
    assert sorted(FORMS) == sorted(
        ["G0", "G1", "G2"]
        + [f"L23:{i}" for i in range(4)]
        + [f"L13:{i}" for i in range(4)]
        + ["L12:0", "L12:1"]
    )
    assert len(FORMS["G1"]) == 2
    assert len(FORMS["L23:2"]) == 3
    assert len(FORMS["L13:2"]) == 3


def test_l13_derivation_matches_hand_computation():
    # L13:1-form-1 should be B(w1)B(w2)S(d*w1*w2-1; xi^{w3}) with scales w1,w2,w3
    f = FORMS["L13:1"][0]
    b1, b2, s = f.slots
    assert isinstance(b1, BSlot) and b1.twist == (1, 0, 0)
    assert b1.arg_scale == (0, 1, 1) and b1.y_var == 0
    assert isinstance(b2, BSlot) and b2.twist == (0, 1, 0) and b2.arg_scale == (1, 0, 1)
    assert isinstance(s, SSlot) and s.upper == (1, 1, 0) and s.twist == (0, 0, 1)
    # L13:2-form-2: a-sum over a < d*w1*w3 with xi^(a w2), frac w2w3/w1w3 = w2/w1
    f22 = FORMS["L13:2"][1]
    b = f22.slots[0]
    assert b.asums[0].upper == (1, 0, 1)
    assert b.asums[0].twist == (0, 1, 0)
    from bernsym.quotients import mono_val
    w = (2, 3, 5)
    assert Fraction(mono_val(b.arg_scale, w), mono_val(b.asums[0].upper, w)) == Fraction(3, 2)


def test_weight_examples():
    assert form_weight(FORMS["G1"][0], (1, 2)) == 1
    assert form_weight(FORMS["G1"][0], (2, 1)) == 2
    assert form_weight(FORMS["L23:0"][0], (2, 3, 4)) == 576
    assert form_weight(FORMS["L12:1"][0], (9, 9, 9)) == 1
    assert mono_name(FORMS["L23:0"][0].weight_mono()) == "w1^2*w2^2*w3^2"


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _linear_power(c, slope, k):
    """(c + slope*z)^k as a coefficient list in z."""
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, [Fraction(c), Fraction(slope)])
    return out


@pytest.mark.parametrize("name", sorted(FORMS))
def test_slot_tensor_degrees_and_generating_function(name):
    # a slot's factor is P_s(t) exp(c_s z t), so its z^e coefficient at t^k
    # is P_s[k - e] c_s^e/e!, of degree k in all.  With every B_i and S_p
    # set to 1 (B_0 too: it is carried as a value, 0 in practice, not
    # skipped) a B slot sums to ts^k/k! (A z + F + 1)^k at t^k, an S slot
    # to ts^k/k!
    n = 6
    ctx = EvalContext(CHI1, TwistSpec(7, 1))
    for form in FORMS[name]:
        for w in product(range(1, 5), repeat=form.qt.arity):
            def val(mono):
                return math.prod(x ** e for x, e in zip(w, mono))

            for idx, slot in enumerate(form.slots):
                keys, c = _slot_keys(ctx, slot, w)
                # a factor's t-scale ends its key; sum_i 1 * (scale*t)^i/i!
                # is exp(scale*t)
                series = functools.reduce(operator.mul, [exp_linear(key[-1], n, ctx.m)
                                                         for key in keys])
                ts = val(slot.twist)
                for k in range(n + 1):
                    got = [as_rational(series.coeffs[k - e]) * Fraction(c ** e, math.factorial(e))
                           for e in range(k + 1)]
                    scale = Fraction(ts ** k, math.factorial(k))
                    if isinstance(slot, SSlot):
                        want = [scale] + [Fraction(0)] * k
                    else:
                        arg = val(slot.arg_scale)
                        shift = sum(Fraction(arg, val(a.upper)) for a in slot.asums)
                        want = [scale * x for x in _linear_power(shift + 1, arg, k)]
                    assert got == want, (form.form_id, w, idx, k)


SLOT_CASES = [(trivial_character(1), TwistSpec(3, 1)), (DirichletCharacter(4, (1,)), TwistSpec(5, 2)),
              (DirichletCharacter(5, (1,)), TwistSpec(3, 1)), (DirichletCharacter(3, (1,)), TwistSpec(7, 3))]


@pytest.mark.parametrize("chi, twist", SLOT_CASES)
def test_bern_series_is_scaled_bernoulli_numbers(chi, twist, cold_store):
    # coefficient i of the Bernoulli slot series is B_i * s^i/i!; the orders
    # run below, at and past the stored EGF's first order 8
    for w_exp in (1, 2, twist.r + 1):
        if (chi.d * w_exp) % twist.r == 0:
            continue
        for scale, n in ((1, 3), (3, 8), (-2, 11), (6, 5)):
            numbers = gen_bernoulli_numbers(chi, twist, w_exp, n)
            [series] = quotients._factors(chi, twist, [("B", w_exp % twist.r, scale)], n)
            assert series.order == n
            assert list(series.coeffs) == [b.scale(Fraction(scale) ** i / math.factorial(i))
                                           for i, b in enumerate(numbers)], (w_exp, scale, n)


@pytest.mark.parametrize("chi, twist", SLOT_CASES)
def test_psum_series_is_scaled_power_sums(chi, twist):
    # coefficient p of the power-sum slot series is S_p(upper) * q^p/p!, for
    # a rational q and twist exponents past r
    for upper, w_exp, q in ((0, 1, Fraction(1)), (chi.d * 2 - 1, 2, Fraction(3, 2)),
                            (chi.d * 3 - 1, twist.r + 2, Fraction(-5, 3)),
                            (chi.d * 6 - 1, 2 * twist.r, Fraction(2))):
        n = 7
        [series] = quotients._factors(chi, twist, [("S", upper, w_exp % twist.r, q)], n)
        assert series.order == n
        want = [power_sum(p, upper, chi, twist, w_exp).scale(q ** p / math.factorial(p))
                for p in range(n + 1)]
        assert list(series.coeffs) == want, (upper, w_exp, q)


def test_contexts_for_one_pair_share_their_series(cold_store):
    # the series live in the process-wide store, not in the context: a
    # second context for the same (chi, twist) builds nothing
    chi, twist = DirichletCharacter(5, (1,)), TwistSpec(3, 1)
    first, second = EvalContext(chi, twist), EvalContext(chi, twist)
    reads = (lambda ctx: ctx.side_product((("B", 2, 3), ("S", 9, 1, Fraction(3, 2))), 6),
             lambda ctx: char_ratio_series(ctx, 2, 6),
             lambda ctx: denom_series(ctx, 4, 6))
    for read in reads:
        series = read(first)
        misses = cold_store.cache_info().misses
        assert read(second) is series
        assert cold_store.cache_info().misses == misses
    # a slot's twist exponent is keyed mod r (the B slot of G0 at w1 = 5:
    # class 2, scale 5); another twist root is another store entry
    keys, _ = quotients._slot_keys(first, FORMS["G0"][0].slots[0], (5, 1))
    assert keys == [("B", 2, 5)]
    assert EvalContext(chi, TwistSpec(3, 2)).side_product(tuple(keys), 6) != first.side_product(tuple(keys), 6)


@pytest.mark.parametrize("order", (0, 1, 2, 12))
def test_closed_forms_keep_only_the_coefficients_they_return(order):
    # every factor is truncated to order - shift, as the shift by t^shift
    # drops the rest: the untruncated chain, shifted and truncated, is the
    # same series, also for order < shift, where it is zero
    chi, twist = DirichletCharacter(4, (1,)), TwistSpec(5, 1)
    ctx = EvalContext(chi, twist)
    y = (Fraction(1, 2), Fraction(2), Fraction(-3, 5))
    for qt in QUOTIENT_TYPES.values():
        w = (1, 2, 3)[: qt.arity]
        factors = [char_ratio_series(ctx, mono_val(mono, w), order) for mono in qt.chars]
        factors += [denom_series(ctx, mono_val(mono, w), order) for mono in qt.numer]
        c = sum(mono_val(mono, w) for mono in qt.ymul) * sum(y[: qt.y_count], Fraction(0))
        full = functools.reduce(operator.mul, factors).mul_exp(c).shift_up(qt.shift).truncate(order)
        got = closed_form_series(qt, w, y[: qt.y_count], chi, twist, order, ctx)
        assert got.order == order
        assert got == full, (qt.name, order)


def test_family_types_share_one_chars_chain(monkeypatch, cold_store):
    # L13:0..3 and L12:0..1 all read the chain T_w1/D_w1 * T_w2/D_w2 *
    # T_w3/D_w3; stored at the order and truncated to order - shift on
    # read, it is built once for all six, and each closed form is still
    # the plain left-to-right product of all its truncated factors
    chains = []
    build = quotients._chain

    def counted(chi, twist, factor, scales, order):
        chains.append((factor, scales))
        return build(chi, twist, factor, scales, order)

    monkeypatch.setattr(quotients, "_chain", counted)
    chi, twist, order = DirichletCharacter(5, (1,)), TwistSpec(7, 1), 8
    ctx = EvalContext(chi, twist)
    w, y = (1, 2, 3), (Fraction(1, 2), Fraction(2), Fraction(-3, 5))
    for name in ("L13:0", "L13:1", "L13:2", "L13:3", "L12:0", "L12:1"):
        qt = QUOTIENT_TYPES[name]
        kept = max(order - qt.shift, 0)
        factors = [char_ratio_series(ctx, mono_val(mono, w), order).truncate(kept) for mono in qt.chars]
        factors += [denom_series(ctx, mono_val(mono, w), order).truncate(kept) for mono in qt.numer]
        c = sum(mono_val(mono, w) for mono in qt.ymul) * sum(y[: qt.y_count], Fraction(0))
        want = functools.reduce(operator.mul, factors).mul_exp(c).shift_up(qt.shift).truncate(order)
        assert closed_form_series(qt, w, y[: qt.y_count], chi, twist, order, ctx) == want, name
    assert [scales for factor, scales in chains if factor is quotients._ratio_series] == [(1, 2, 3)]
    assert [scales for factor, scales in chains if factor is quotients._denom_series] == \
        [(6,), (6, 6), (6, 6, 6), (6, 3, 2)]


def test_closed_form_g1_collapses_at_d1():
    qt = parse_quotient_type("G1")
    s = closed_form_series(qt, (1, 2), (0,), CHI1, Z3, 6)
    # equals t/(xi e^t - 1): EGF coefficient 1 is B_1
    assert s.coeffs[0].is_zero()
    assert s.egf_coefficient(1) == b1_z3()
    assert s.egf_coefficient(2) == Fraction(2, 3)


def test_closed_form_permutation_invariance_samples():
    chi = DirichletCharacter(4, (1,))
    twist = TwistSpec(5, 2)
    y = (Fraction(1, 3), Fraction(2), Fraction(5, 7))
    for name in ("L23:1", "L13:0", "L12:0", "L12:1", "L23:3"):
        qt = parse_quotient_type(name)
        base = closed_form_series(qt, (1, 2, 3), y[: max(1, qt.y_count)], chi, twist, 8)
        for sigma in permutations((1, 2, 3)):
            w = perm_apply(sigma, (1, 2, 3))
            assert closed_form_series(qt, w, y[: max(1, qt.y_count)], chi, twist, 8) == base
    qt = parse_quotient_type("G0")
    base = closed_form_series(qt, (2, 3), y[:2], chi, twist, 8)
    assert closed_form_series(qt, (3, 2), y[:2], chi, twist, 8) == base


def test_closed_form_condition_violation_names_factor():
    qt = parse_quotient_type("G0")
    with pytest.raises(ParameterError) as err:
        closed_form_series(qt, (3, 1), (0, 0), CHI1, Z3, 4)
    assert "w1" in str(err.value)
    qt23 = parse_quotient_type("L23:1")
    with pytest.raises(ParameterError):
        closed_form_series(qt23, (1, 1, 3), (0, 0), CHI1, Z3, 4)


def test_closed_form_names_a_factor_only_when_refusing_it(monkeypatch):
    # each T_W/D_W is checked for a unit denominator by its scale alone, and
    # its name is formatted for the refusal only: valid closed forms of
    # every type name nothing, and a refused one keeps its message and factor
    names = []
    name = quotients.mono_name
    monkeypatch.setattr(quotients, "mono_name", lambda mono: names.append(mono) or name(mono))
    chi, twist = DirichletCharacter(5, (1,)), TwistSpec(7, 1)
    for qt in QUOTIENT_TYPES.values():
        closed_form_series(qt, (1, 2, 4)[:qt.arity], (0,) * qt.y_count, chi, twist, 4)
    assert names == []
    with pytest.raises(NonUnitConstantError) as err:
        closed_form_series(parse_quotient_type("G0"), (1, 2), (0, 0), trivial_character(3), Z3, 2)
    assert str(err.value) == "xi^(d*w1) = 1 at w-scale 1: r=3 divides d*1"
    assert err.value.factor == "w1" and names == [(1, 0)]


def test_negative_n_max_is_parameter_error():
    # the CLI reaches the other entry points' checks (tests/test_cli.py)
    ctx = EvalContext(CHI1, Z3)
    with pytest.raises(ParameterError, match="^n_max must be nonnegative$"):
        expansion_polys(FORMS["G0"][0], (1, 2), ctx, -1)


def test_expansion_examples_g1():
    f1, f2 = FORMS["G1"]
    v1 = expansion_coefficients(f1, (1, 2), (0,), CHI1, Z3, 1)
    v2 = expansion_coefficients(f2, (1, 2), (0,), CHI1, Z3, 1)
    assert v1[1] == b1_z3()
    assert v2[1] == b1_z3()
    # G0 at n=0 vanishes: both factors carry B_0 = 0
    v0 = expansion_coefficients(FORMS["G0"][0], (1, 2), (0, 0), CHI1, Z3, 0)
    assert v0[0].is_zero()


def test_lambda12_1_with_equal_w_is_cube_of_char_sum():
    # w = (1,1,1): numerator and denominator factors coincide, so the closed
    # form is (sum_a chi(a) xi^a e^(at))^3
    chi = DirichletCharacter(4, (1,))
    twist = TwistSpec(3, 1)
    qt = parse_quotient_type("L12:1")
    s = closed_form_series(qt, (1, 1, 1), (), chi, twist, 6)
    t = character_sum_series(chi, twist, 1, 6)
    cube = t * t * t
    assert s == cube


def test_closed_forms_never_read_the_bernoulli_series(monkeypatch, cold_store):
    # T_W/D_W equals B_W(Wt)/(Wt), but the closed form is built from its own
    # factors: built from the Bernoulli series, the consistency check of the
    # all-B forms (G0, L23:0, L13:0, L12:0) would compare P with itself.
    # Factors read from a warm store would pass without being built here
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form read a Bernoulli series")

    chi, twist = DirichletCharacter(5, (1,)), TwistSpec(3, 1)
    ctx = EvalContext(chi, twist)
    monkeypatch.setattr(quotients, "_bern_series", refuse)
    monkeypatch.setattr(bernoulli, "bernoulli_egf", refuse)
    monkeypatch.setattr(quotients, "bernoulli_egf", refuse)
    with pytest.raises(AssertionError):
        side_series(FORMS["G0"][0], (1, 2), ctx, 6)   # the guard bites
    for qt in QUOTIENT_TYPES.values():
        w = (1, 2, 4)[: qt.arity]
        y = (Fraction(1, 2),) * qt.y_count
        assert closed_form_series(qt, w, y, chi, twist, 6, ctx).order == 6
        assert closed_form_series(qt, w, y, chi, twist, 6).order == 6


def _slot_by_slot(form, w, ctx, n):
    """P multiplied slot by slot: each B slot's series times its a-sums'
    first, then the slots' products left to right."""
    def factor(*key):
        return quotients._factors(ctx.chi, ctx.twist, [key], n)[0]

    products = []
    for slot in form.slots:
        ts = mono_val(slot.twist, w)
        if isinstance(slot, SSlot):
            products.append(factor("S", ctx.d * mono_val(slot.upper, w) - 1, ts % ctx.r, ts))
            continue
        p = factor("B", ts % ctx.r, ts)
        arg = mono_val(slot.arg_scale, w)
        for asum in slot.asums:
            upper = mono_val(asum.upper, w)
            p = p * factor("S", ctx.d * upper - 1, mono_val(asum.twist, w) % ctx.r, Fraction(arg, upper) * ts)
        products.append(p)
    return functools.reduce(operator.mul, products)


@pytest.mark.parametrize("chi, twist", ((DirichletCharacter(4, (1,)), TwistSpec(5, 1)),
                                        (DirichletCharacter(5, (1,)), TwistSpec(7, 1))))
def test_flat_chain_rows_equal_the_slot_by_slot_product(chi, twist):
    # a side is one product over the flat factor chain; an exact product
    # reduced by its content gcd is canonical, so its rows and bound equal
    # those of the slot-by-slot association, here also in Q(zeta_28), phi 12
    ctx = EvalContext(chi, twist)
    assert euler_phi(ctx.m) in (4, 12)
    for name, forms in sorted(FORMS.items()):
        tuples = ((1, 2), (2, 3), (4, 3)) if forms[0].qt.arity == 2 else ((1, 2, 3), (2, 3, 4), (4, 1, 2))
        for form, w in product(forms, tuples):
            p, _ = side_series(form, w, ctx, 6)
            assert p._rows() == _slot_by_slot(form, w, ctx, 6)._rows(), (form.form_id, w)


def _counting_products(monkeypatch) -> list:
    """The factor lists of every side product multiplied from here on,
    counted at the class (`EvalContext.sym_product`), so that the store's
    own builds are counted too."""
    calls = []
    multiply = EvalContext.sym_product
    monkeypatch.setattr(EvalContext, "sym_product", staticmethod(lambda factors: calls.append(factors)
                                                                  or multiply(factors)))
    return calls


def _stored_side_products(store) -> list:
    """The keys of the side products the store holds."""
    return [key for key in store._entries if key[0] is quotients._side_product]


@pytest.mark.parametrize("name", ("G1", "L23:1", "L23:2", "L13:1", "L13:2"))
def test_folded_forms_share_one_product_per_consistency_call(name, monkeypatch, cold_store):
    # every form of these types folds power sums into the Bernoulli argument
    # of one chain: one stored product serves them all, and a second check
    # reads it and multiplies none
    chi, twist = DirichletCharacter(4, (1,)), TwistSpec(5, 1)
    ctx = EvalContext(chi, twist)
    calls = _counting_products(monkeypatch)
    qt = parse_quotient_type(name)
    assert len(FORMS[name]) > 1
    w = (2, 3) if qt.arity == 2 else (2, 1, 3)
    y = (Fraction(1, 2), Fraction(-1), Fraction(3, 2))[:qt.y_count]
    for call in (1, 2):
        assert consistency_check(qt, w, y, chi, twist, 6, ctx).passed
        assert len(calls) == 1, call
        assert len(_stored_side_products(cold_store)) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_mutated_consistency_check_leaves_the_products_clean(kind, monkeypatch, cold_store):
    # a mutated side is multiplied on its own: it reads and fills no side
    # product, and a clean check after the mutated one, on the same
    # context, passes with its forms' product multiplied once, as before
    chi, twist = DirichletCharacter(4, (1,)), TwistSpec(5, 1)
    ctx = EvalContext(chi, twist)
    qt, w, y = parse_quotient_type("L23:2"), (2, 1, 3), (Fraction(1, 2),)
    form = FORMS["L23:2"][2]
    clean = quotients._build_side(form, w, ctx, 4)
    with mutation(kind):
        assert not consistency_check(qt, w, y, chi, twist, 4, ctx).passed
        assert quotients._build_side(form, w, ctx, 4)[0] != clean[0]
    assert _stored_side_products(cold_store) == []
    calls = _counting_products(monkeypatch)
    assert consistency_check(qt, w, y, chi, twist, 4, ctx).passed
    assert len(calls) == 1
    assert len(_stored_side_products(cold_store)) == 1
    assert quotients._build_side(form, w, ctx, 4) == clean


def test_a_warm_check_and_closed_form_multiply_nothing(monkeypatch, cold_store):
    # the second consistency check and closed form of each type, in the
    # same process, read every product from the store: no series is
    # multiplied, and the report and the series equal the first ones
    chi, twist = DirichletCharacter(5, (1,)), TwistSpec(7, 1)
    y = (Fraction(1, 2), Fraction(-1), Fraction(3, 2))
    first = {}
    for qt in QUOTIENT_TYPES.values():
        w = (2, 1, 3)[: qt.arity]
        first[qt.name] = (consistency_check(qt, w, y, chi, twist, 6),
                          closed_form_series(qt, w, y[: qt.y_count], chi, twist, 8))
        assert first[qt.name][0].passed
    products, mul = [], TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(quotients, "product", lambda factors: products.append(1) or series_product(factors))
    misses = cold_store.cache_info().misses
    for qt in QUOTIENT_TYPES.values():
        w = (2, 1, 3)[: qt.arity]
        ctx = EvalContext(chi, twist)
        report, series = first[qt.name]
        assert consistency_check(qt, w, y, chi, twist, 6, ctx) == report, qt.name
        assert closed_form_series(qt, w, y[: qt.y_count], chi, twist, 8, ctx) == series, qt.name
    assert products == []
    assert cold_store.cache_info().misses == misses


@pytest.mark.parametrize("share", ("by-rows", "one-key"))
def test_an_order_dependent_chain_defect_fails_criterion_5(share, monkeypatch, cold_store):
    # a chain that drops its last factor depends on the order of its
    # scales, so at a w with distinct scales every type's orderings
    # disagree: from a cold store and from the warm one it leaves, while
    # equal cores are held once, also when every core has one share key
    chi, twist, order = DirichletCharacter(5, (1,)), TwistSpec(7, 1), 6
    ctx = EvalContext(chi, twist)
    y = (Fraction(1, 2), Fraction(2), Fraction(3, 5))

    def orderings_agree(qt) -> bool:
        series = [closed_form_series(qt, sigma, y[: qt.y_count], chi, twist, order, ctx)
                  for sigma in permutations((1, 2, 3)[: qt.arity])]
        return all(s == series[0] for s in series)

    assert all(map(orderings_agree, QUOTIENT_TYPES.values()))
    cold_store.cache_clear()
    build = quotients._chain
    monkeypatch.setattr(quotients, "_chain", lambda chi, twist, factor, scales, order:
                        build(chi, twist, factor, scales[:-1] or scales, order))
    if share == "one-key":
        monkeypatch.setattr(quotients, "_share_key", lambda series: ("collision",))
    try:
        assert not any(map(orderings_agree, QUOTIENT_TYPES.values()))
        misses = cold_store.cache_info().misses
        assert not any(map(orderings_agree, QUOTIENT_TYPES.values()))
        assert cold_store.cache_info().misses == misses
    finally:
        cold_store.cache_clear()   # the defect's cores are stored under the true `_core`


def test_a_forced_share_key_collision_keeps_two_objects(monkeypatch):
    # every series gets one share key here: an unequal series under a held
    # key stays its own object, and only an exactly equal one is merged
    monkeypatch.setattr(quotients, "_share_key", lambda series: ("collision",))
    one, two = TruncatedSeries.constant(1, 3), TruncatedSeries.constant(2, 3)
    assert quotients._shared(one) is one
    assert quotients._shared(two) is two
    assert quotients._shared(TruncatedSeries.constant(1, 3)) is one
    assert quotients._SHARED[("collision",)] is one


def test_the_shared_products_live_no_longer_than_the_store(cold_store):
    # the table of shared side products holds them weakly: once the store
    # has dropped its entries, and no side holds them, the table is empty
    inst = TheoremInstance(4, 5, (1,), 7, 1, (2, 3, 1), 4)
    assert verify_instance(inst).pass_as_stated
    assert len(quotients._SHARED) > 0
    cold_store.cache_clear()
    gc.collect()
    assert len(quotients._SHARED) == 0


@pytest.mark.parametrize("name", sorted(FORMS))
def test_consistency_every_type(name):
    chi = DirichletCharacter(5, (1,))
    twist = TwistSpec(3, 1)
    qt = parse_quotient_type(name)
    w = (1, 2) if qt.arity == 2 else (1, 2, 4)
    y = tuple(Fraction(i + 1, 2) for i in range(max(1, qt.y_count)))
    rep = consistency_check(qt, w, y, chi, twist, 6)
    assert rep.passed, rep.to_json()


def test_consistency_weight_direction():
    # at w=(2,1) the G1 reconciliation only passes with weight w1 = 2
    qt = parse_quotient_type("G1")
    rep = consistency_check(qt, (2, 1), (0,), CHI1, Z3, 4)
    assert rep.passed
    closed = closed_form_series(qt, (2, 1), (0,), CHI1, Z3, 1)
    v = expansion_coefficients(FORMS["G1"][1], (2, 1), (0,), CHI1, Z3, 1)
    assert v[1] == b1_z3().scale(2)
    assert closed.egf_coefficient(1) == b1_z3()


def test_consistency_reads_the_y_values_of_its_type():
    # the y-point rule of closed_form_series: a short y is refused, not
    # padded with zeros, and values past y_count are not reported
    g0 = parse_quotient_type("G0")
    assert g0.y_count == 2
    for check in (consistency_check, closed_form_series):
        with pytest.raises(ParameterError, match=r"^G0 needs 2 y value\(s\)$"):
            check(g0, (1, 2), (), CHI1, Z3, 2)
    rep = consistency_check(g0, (1, 2), (1, 2, 3, 4), CHI1, Z3, 2)
    assert rep.passed and rep.to_json()["y"] == ["1", "2"]
    assert rep.to_json() == consistency_check(g0, (1, 2), (1, 2), CHI1, Z3, 2).to_json()


def test_mutation_breaks_consistency():
    qt = parse_quotient_type("L23:1")
    chi = DirichletCharacter(4, (1,))
    twist = TwistSpec(5, 1)
    # w1 > 1 so the w-power perturbation is visible
    clean = consistency_check(qt, (2, 1, 3), (1, 2), chi, twist, 4)
    assert clean.passed
    for mut in (("binomial", 0, 1), ("twist", 0), ("wpower", 1)):
        with mutation(*mut):
            rep = consistency_check(qt, (2, 1, 3), (1, 2), chi, twist, 4)
        assert not rep.passed, mut


def test_every_single_site_data_mutant_fails_consistency(monkeypatch):
    # each form with one slot monomial's exponent moved by 1 (kept >= 0,
    # an a-sum's upper end and twist included) or one B slot moved to
    # another y variable, planted as its type's only form, fails
    # consistency_check at a sampled point: three contexts, w a permutation
    # of distinct components from {2, 3, 5}, n_max = 4; a point that
    # refuses the type or the mutant is passed over.  The count pins the
    # generator
    y = (Fraction(1, 2), Fraction(-1), Fraction(3, 2))
    contexts = [(DirichletCharacter(d, label), TwistSpec(r, 1)) for d, label, r in ((1, (), 7), (4, (1,), 5),
                                                                                      (5, (1,), 3))]

    def killed(qt):
        for chi, twist in contexts:
            for w in permutations((2, 3, 5), qt.arity):
                try:
                    if not consistency_check(qt, w, y[:qt.y_count], chi, twist, 4).passed:
                        return True
                except ParameterError:
                    continue
        return False

    mutants = list(data_mutants())
    survivors = []
    for name, mutant in mutants:
        monkeypatch.setitem(quotients.FORMS, name, (mutant,))
        if not killed(mutant.qt):
            survivors.append((name, mutant.form_no, mutant.slots))
    assert len(mutants) == 496
    assert not survivors


def test_perm_helpers():
    assert perm_apply((2, 1, 3), ("a", "b", "c")) == ("b", "a", "c")
    assert perm_monomial((2, 3, 1), (1, 0, 2)) == (2, 1, 0)
    # permuting the weight monomial matches evaluating at permuted w
    mono = FORMS["L23:1"][0].weight_mono()
    from bernsym.quotients import mono_val
    for sigma in permutations((1, 2, 3)):
        w = (2, 3, 5)
        assert mono_val(perm_monomial(sigma, mono), w) == mono_val(mono, perm_apply(sigma, w))


def test_parse_quotient_type_errors():
    with pytest.raises(ParameterError):
        parse_quotient_type("L23:9")


def test_type_shapes_and_conditions():
    # (arity, y-count, monomials r must not divide) as the theorems state them
    e, p, q = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((1, 1, 1),)
    expected = {
        "G0": (2, 2, ((1, 0), (0, 1))), "G1": (2, 1, ((1, 1),)), "G2": (2, 0, ((1, 1),)),
        "L23:0": (3, 3, p), "L13:0": (3, 3, e), "L12:0": (3, 1, e), "L12:1": (3, 0, p),
        **{f"{fam}:{i}": (3, 3 - i, q) for fam in ("L23", "L13") for i in (1, 2, 3)},
    }
    for name, (arity, y_count, conditions) in expected.items():
        qt = parse_quotient_type(name)
        assert (qt.arity, qt.y_count, qt.conditions()) == (arity, y_count, conditions), name


# ---------------------------------------------------------------------------
# values at a y-point: point_series against the y-monomial spread


def eval_ypoly(poly, y, m):
    """The oracle: a y-polynomial summed term by term at the point."""
    total = Cyc.zero(m)
    for exps, val in poly.items():
        scalar = Fraction(1)
        for yv, e in zip(y, exps):
            scalar *= Fraction(yv) ** e
        total = total + val.scale(scalar)
    return total


@st.composite
def row_held_series(draw, m, order):
    phi = euler_phi(m)
    rows = draw(st.lists(st.lists(st.integers(-40, 40), min_size=phi, max_size=phi),
                         min_size=order + 1, max_size=order + 1))
    return TruncatedSeries._from_rows(m, _content_reduced(draw(st.integers(1, 60)), rows))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((1, 3, 12, 20)), st.integers(0, 8), st.integers(0, 2), st.data())
def test_point_series_matches_ypoly_spread(m, n_max, extra, data):
    p = data.draw(row_held_series(m, n_max + extra))
    ys = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)))
    y = tuple(data.draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                                 min_size=len(ys), max_size=len(ys))))
    e = point_series((p, ys), y, n_max)
    assert e.order == n_max
    polys = spread_ypolys(p, ys, n_max)
    for n in range(n_max + 1):
        assert e.egf_coefficient(n) == eval_ypoly(polys[n], y, m), n


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((1, 3, 12, 20)), st.integers(0, 8), st.data())
def test_point_value_is_the_point_series_coefficient(m, order, data):
    # point_value sums one coefficient straight from P's rows; at integer
    # and rational y-points alike it is point_series' canonical coefficient
    p = data.draw(row_held_series(m, order))
    ys = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)))
    y = tuple(data.draw(st.lists(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6),
                                 min_size=len(ys), max_size=len(ys))))
    e = point_series((p, ys), y, order)
    for n in range(order + 1):
        value = point_value((p, ys), y, n)
        assert value.to_json() == e.egf_coefficient(n).to_json(), n


def test_point_series_is_the_side_itself_at_c_zero():
    p = TruncatedSeries(3, [Cyc(3, [1, 2], 5), Cyc(3, [0, 1]), Cyc(3, [4, 0], 7)])
    assert point_series((p, (2, 3)), (Fraction(3), Fraction(-2)), 2) is p
    assert point_series((p, (0, 5)), (Fraction(1, 2),), 2) is p   # y_2 missing: 0


def consistency_oracle(qt, w, y, chi, twist, n_max):
    """consistency_check's witness (or None) from the y-polynomial spread."""
    ctx = EvalContext(chi, twist)
    closed = closed_form_series(qt, w, y, chi, twist, n_max, ctx)
    for form in FORMS[qt.name]:
        weight = form_weight(form, w)
        for n, poly in enumerate(expansion_polys(form, w, ctx, n_max)):
            lhs = eval_ypoly(poly, y, ctx.m)
            rhs = closed.egf_coefficient(n).scale(weight)
            if lhs != rhs:
                return {"form": form.form_id, "n": n, "expansion": lhs.to_json(),
                        "weighted_closed_form": rhs.to_json()}
    return None


def outcome(call):
    try:
        return call()
    except ParameterError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_mutated_consistency_matches_spread_oracle(name):
    chi = DirichletCharacter(4, (1,))
    twist = TwistSpec(5, 1)
    qt = parse_quotient_type(name)
    w = (2, 3) if qt.arity == 2 else (2, 1, 3)
    y = (Fraction(1, 2), Fraction(-1), Fraction(3, 2))[:qt.y_count]
    n_max = 4
    ctx = EvalContext(chi, twist)
    slots = max(len(f.slots) for f in FORMS[name])
    mutations = [None] + [(kind, slot, 2) for kind in KINDS for slot in range(slots)]
    mismatches = 0
    for mut in mutations:
        # the oracle's forms are mutated too, through `expansion_polys`
        with planted(mut):
            got = outcome(lambda: consistency_check(qt, w, y, chi, twist, n_max, ctx).to_json())
            want = outcome(lambda: consistency_oracle(qt, w, y, chi, twist, n_max))
        if isinstance(got, dict):
            assert got.get("witness") == want, mut
            mismatches += want is not None
        else:
            assert got == want, mut
    assert mismatches >= 3   # each kind breaks slot 0


def test_passing_forms_are_decided_without_a_walk(monkeypatch):
    # a passing form is settled by one row comparison, E / weight == closed;
    # only a failing one is read coefficient by coefficient
    qt = parse_quotient_type("G1")
    chi = DirichletCharacter(5, (1,))
    twist = TwistSpec(3, 1)
    ctx = EvalContext(chi, twist)
    assert [form_weight(f, (2, 1)) for f in FORMS["G1"]] == [2, 2]
    assert consistency_check(qt, (2, 1), (Fraction(1, 3),), chi, twist, 5, ctx).passed
    reads = []
    read = TruncatedSeries.egf_coefficient
    monkeypatch.setattr(TruncatedSeries, "egf_coefficient", lambda s, n: reads.append(n) or read(s, n))
    assert consistency_check(qt, (2, 1), (Fraction(1, 3),), chi, twist, 5, ctx).passed
    assert reads == []
    with mutation("binomial", 0, 3):
        rep = consistency_check(qt, (2, 1), (Fraction(1, 3),), chi, twist, 5, ctx)
    assert rep.mismatch.n == 3 and reads


def test_passing_consistency_builds_no_exponential(monkeypatch):
    # the y-point enters a form and its closed form only through
    # exp(c*t), so a passing check compares the y-free products and never
    # builds a point series or multiplies by an exponential
    exps = []
    mul_exp = TruncatedSeries.mul_exp
    monkeypatch.setattr(TruncatedSeries, "mul_exp", lambda s, c: exps.append(c) or mul_exp(s, c))

    def no_point_series(*args):
        raise AssertionError("point_series on a passing form")

    monkeypatch.setattr(quotients, "point_series", no_point_series)
    chi, twist = DirichletCharacter(4, (1,)), TwistSpec(5, 1)
    ctx = EvalContext(chi, twist)
    for name, qt in sorted(QUOTIENT_TYPES.items()):
        w = (2, 3) if qt.arity == 2 else (2, 1, 3)
        y = (Fraction(1, 2), Fraction(-1), Fraction(3, 2))[:qt.y_count]
        assert consistency_check(qt, w, y, chi, twist, 6, ctx).passed, name
    assert not any(exps)


@pytest.mark.parametrize("name", ("G0", "G1", "L23:0", "L23:2", "L13:1", "L12:0"))
def test_side_with_another_rate_fails_like_its_point_series(name, monkeypatch):
    # the same P under another y multiplier C: the rates differ, so P is
    # multiplied by exp((c_form - c_closed)*t) before the comparison, and the
    # witness is the one read from the point series E against the weighted
    # closed form
    build = quotients._build_side

    def other_rate(*args, **kwargs):
        p, ys = build(*args, **kwargs)
        return p, tuple(c + 1 for c in ys)

    monkeypatch.setattr(quotients, "_build_side", other_rate)
    chi, twist = DirichletCharacter(4, (1,)), TwistSpec(5, 1)
    qt = parse_quotient_type(name)
    w = (2, 3) if qt.arity == 2 else (2, 1, 3)
    y = (Fraction(1, 2), Fraction(2), Fraction(3, 2))[:qt.y_count]
    n_max = 5
    ctx = EvalContext(chi, twist)
    closed = closed_form_series(qt, w, y, chi, twist, n_max, ctx)
    want = None
    for form in FORMS[name]:
        series = point_series(other_rate(form, w, ctx, n_max), y, n_max)
        for n in range(n_max + 1):
            lhs, rhs = series.egf_coefficient(n), closed.egf_coefficient(n).scale(form_weight(form, w))
            if lhs != rhs:
                want = {"form": form.form_id, "n": n, "expansion": lhs.to_json(),
                        "weighted_closed_form": rhs.to_json()}
                break
        if want:
            break
    assert want is not None
    assert consistency_check(qt, w, y, chi, twist, n_max, ctx).to_json()["witness"] == want
