"""Relations between outputs, over every context at once.

* Galois equivariance.  Every quantity is built from (chi, xi) by field
  operations over Q with rational data, so for a coprime to
  m = lcm(r, ord chi) the automorphism sigma_a: zeta_m -> zeta_m^a maps it
  to the same quantity built from (chi^a, xi^a).  sigma_a is written here,
  on power-basis coordinates, not taken from `src/`.
* Reflection.  t -> -t relates the twists xi and xi^-1.
* Slot factors against closed-form factors.  Each factor an expansion
  multiplies is the closed-form factor it integrates, built independently.
"""

import functools
import math
from fractions import Fraction

import pytest

from bernsym.bernoulli import TwistSpec, gen_bernoulli_numbers
from bernsym.dirichlet import DirichletCharacter, enumerate_characters, unit_group_structure
from bernsym.exactnum import CyclotomicNumber as Cyc
from bernsym.exactnum import euler_phi
from bernsym import quotients
from bernsym.quotients import FORMS, QUOTIENT_TYPES, EvalContext, closed_form_series, side_series

from helpers import char_ratio_series, denom_series

N_MAX = 6
STANDARD_CONTEXTS = [(chi, TwistSpec(r, 1)) for d in (1, 3, 4, 5) for chi in enumerate_characters(d)
                     for r in (3, 4, 5, 7) if math.gcd(r, d) == 1]


def _conductor(chi, twist):
    return math.lcm(twist.r, chi.order)


def _units(m):
    """The a != 1 coprime to m, each sigma_a once."""
    return [a for a in range(2, m) if math.gcd(a, m) == 1]


@functools.lru_cache(maxsize=None)
def _sigma_rows(m, a):
    """Row i: the coordinates of zeta_m^(a*i), the image of the i-th basis
    element under sigma_a."""
    return tuple(Cyc.zeta(m, a * i % m).num for i in range(euler_phi(m)))


def sigma(a, x):
    """sigma_a(x) for x in Q(zeta_m): sum_i x_i zeta_m^(a*i), over x's
    denominator."""
    rows = _sigma_rows(x.m, a)
    out = [0] * len(rows)
    for xi, row in zip(x.num, rows):
        if xi:
            out = [u + xi * v for u, v in zip(out, row)]
    return Cyc(x.m, out, x.den)


def character_power(chi, a):
    """chi^a: every exponent of the label times a, modulo its factor's order."""
    gens = unit_group_structure(chi.d)
    return DirichletCharacter(chi.d, tuple(a * k % n for k, (_, n) in zip(chi.exponents, gens)))


@pytest.mark.parametrize("chi, twist", STANDARD_CONTEXTS, ids=str)
def test_galois_maps_bernoulli_numbers_to_the_conjugate_context(chi, twist):
    # sigma_a(B_{n,chi,xi}) = B_{n,chi^a,xi^a}, with xi^a given both as the
    # root zeta_r^a and as the twist exponent w = a of xi
    m = _conductor(chi, twist)
    numbers = gen_bernoulli_numbers(chi, twist, 1, N_MAX)
    for a in _units(m):
        image = [sigma(a, b) for b in numbers]
        chi_a = character_power(chi, a)
        assert image == gen_bernoulli_numbers(chi_a, TwistSpec(twist.r, a % twist.r), 1, N_MAX), a
        assert image == gen_bernoulli_numbers(chi_a, twist, a, N_MAX), a


@pytest.mark.parametrize("chi, twist", STANDARD_CONTEXTS, ids=str)
def test_reflection_of_bernoulli_numbers(chi, twist):
    # F(t) = t sum_{a<d} chi(a) xi^a e^(at) / (xi^d e^(dt) - 1).  Multiplying
    # F(-t)'s numerator and denominator by xi^-d e^(dt) and putting b = d - a
    # (chi(d - b) = chi(-1) chi(b)) gives
    #     F(-t) = chi(-1) t sum_{b=1..d} chi(b) xi^-b e^(bt) / (xi^-d e^(dt) - 1),
    # which is chi(-1) F at xi^-1 except that b runs over 1..d, not 0..d-1.
    # For d > 1, chi(0) = chi(d) = 0 and the two sums agree.  For d = 1,
    # chi = 1 everywhere: the b = 1 term replaces the b = 0 term, and
    # t xi^-1 e^t / (xi^-1 e^t - 1) = t + t / (xi^-1 e^t - 1), so F(-t) is
    # t plus F at xi^-1, which adds 1 at n = 1 only.
    sign = 1 if chi(-1) == 1 else -1
    numbers = gen_bernoulli_numbers(chi, twist, 1, N_MAX)
    # xi^-1 as the root zeta_r^(r-1) and as the twist exponent w = r - 1
    for inverse in (gen_bernoulli_numbers(chi, TwistSpec(twist.r, twist.r - 1), 1, N_MAX),
                    gen_bernoulli_numbers(chi, twist, twist.r - 1, N_MAX)):
        for n, (b, b_inv) in enumerate(zip(numbers, inverse)):
            extra = 1 if chi.d == 1 and n == 1 else 0
            assert b.scale((-1) ** n) == b_inv.scale(sign) + extra, n


# (d, r) with every character mod d: two fields of degree 2 and 12 at d = 5
GALOIS_FORM_CONTEXTS = [(chi, TwistSpec(r, 1)) for d, r in ((5, 3), (5, 7), (4, 5), (3, 7))
                        for chi in enumerate_characters(d)]
FORM_ORDER = 4
Y_POINT = (Fraction(1, 2), Fraction(2), Fraction(3, 5))


@pytest.mark.parametrize("chi, twist", GALOIS_FORM_CONTEXTS, ids=str)
def test_galois_maps_closed_forms_and_sides_to_the_conjugate_context(chi, twist):
    # every type's closed form, and every form's (P, C), at w = (1, 2, 4):
    # P's coefficients map under sigma_a, and C, the rational y multipliers,
    # stays
    m = _conductor(chi, twist)
    ctx = EvalContext(chi, twist)
    for a in _units(m):
        chi_a, twist_a = character_power(chi, a), TwistSpec(twist.r, a % twist.r)
        ctx_a = EvalContext(chi_a, twist_a)
        for name, qt in sorted(QUOTIENT_TYPES.items()):
            w = (1, 2, 4)[:qt.arity]
            closed = closed_form_series(qt, w, Y_POINT, chi, twist, FORM_ORDER, ctx)
            closed_a = closed_form_series(qt, w, Y_POINT, chi_a, twist_a, FORM_ORDER, ctx_a)
            assert [sigma(a, c) for c in closed.coeffs] == list(closed_a.coeffs), (a, name)
            for form in FORMS[name]:
                p, ys = side_series(form, w, ctx, FORM_ORDER)
                p_a, ys_a = side_series(form, w, ctx_a, FORM_ORDER)
                assert ys == ys_a and [sigma(a, c) for c in p.coeffs] == list(p_a.coeffs), \
                    (a, form.form_id)


@pytest.mark.parametrize("chi, twist", STANDARD_CONTEXTS, ids=str)
def test_slot_factors_are_the_closed_form_factors_they_integrate(chi, twist):
    # with T_W = sum_{a<d} chi(a) xi^(aW) e^(aWt) and D_W = xi^(dW) e^(dWt) - 1:
    # a B slot's Bernoulli series at twist and scale W is (W t) T_W / D_W, and
    # an S slot's character sum over a < dU at twist and scale X is
    # T_X D_(XU) / D_X, summing the classes a = c + d*b, c < d, b < U
    ctx = EvalContext(chi, twist)
    for scale in (1, 2, 4):
        if chi.d * scale % twist.r == 0:
            continue
        ratio = char_ratio_series(ctx, scale, N_MAX)
        [bern] = quotients._factors(chi, twist, [("B", scale % twist.r, scale)], N_MAX)
        assert bern == ratio.shift_up(1).truncate(N_MAX).scale(scale), scale
        for upper in (1, 2, 3):
            [psum] = quotients._factors(chi, twist, [("S", chi.d * upper - 1, scale % twist.r, scale)], N_MAX)
            assert psum == ratio * denom_series(ctx, scale * upper, N_MAX), (scale, upper)
