"""Every expansion form against its displayed sum, evaluated term by term.

The oracle reads only the slot data (`FORMS`, `mono_val`) from the
expansion code.  It sums the displayed coefficient of t^n/n!,

    sum over k_1 + .. + k_s = n of  n!/prod k_s! * prod_s T_s^k_s * v_s(k_s),

with gen_bernoulli_poly, power_sum and scalar CyclotomicNumber arithmetic,
and compares it with `expansion_coefficients` at one rational y point.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from bernsym.bernoulli import TwistSpec, gen_bernoulli_poly, power_sum
from bernsym.dirichlet import DirichletCharacter, trivial_character
from bernsym.exactnum import CyclotomicNumber
from bernsym.quotients import FORMS, expansion_coefficients, mono_val

N = 4
Y = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))
# one (character, twist) per d; r is prime to d and to every condition
# monomial and d*twist at w in {1, 2}
CONTEXTS = (
    (trivial_character(1), TwistSpec(3, 1)),
    (DirichletCharacter(3, (1,)), TwistSpec(5, 1)),
    (DirichletCharacter(4, (1,)), TwistSpec(3, 1)),
    (DirichletCharacter(5, (1,)), TwistSpec(3, 2)),
)


def compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def slot_values(slot, w, chi, twist, m):
    """v(0..N): S_k(d*U - 1; chi, xi^tw) for an S slot; for a B slot, over
    its a-sums, prod_l chi(a_l) xi^(a_l*X_l) * B_{k,chi,xi^tw}(A*y_v + sum_l f_l*a_l)."""
    d, tw = chi.d, mono_val(slot.twist, w)
    if not hasattr(slot, "asums"):
        return [power_sum(k, d * mono_val(slot.upper, w) - 1, chi, twist, tw) for k in range(N + 1)]
    polys = [gen_bernoulli_poly(chi, twist, tw, k) for k in range(N + 1)]
    values = [CyclotomicNumber.zero(m)] * (N + 1)
    for a in product(*(range(d * mono_val(s.upper, w)) for s in slot.asums)):
        weight = CyclotomicNumber.one(m)
        x = mono_val(slot.arg_scale, w) * Y[slot.y_var]
        for a_l, s in zip(a, slot.asums):
            weight = weight * chi(a_l).embed(m) * twist.root_power(a_l * mono_val(s.twist, w), m)
            x += Fraction(mono_val(slot.arg_scale, w), mono_val(s.upper, w)) * a_l
        if not weight.is_zero():
            values = [v + weight * poly(x) for v, poly in zip(values, polys)]
    return values


def displayed_sum(form, w, chi, twist):
    m = math.lcm(twist.r, chi.order)
    values = [slot_values(slot, w, chi, twist, m) for slot in form.slots]
    scales = [mono_val(slot.twist, w) for slot in form.slots]
    out = []
    for n in range(N + 1):
        total = CyclotomicNumber.zero(m)
        for ks in compositions(n, len(form.slots)):
            coeff = math.factorial(n)
            term = CyclotomicNumber.one(m)
            for k, scale, v in zip(ks, scales, values):
                coeff = coeff * scale ** k // math.factorial(k)
                term = term * v[k]
            total = total + term * coeff
        out.append(total)
    return out


@pytest.mark.parametrize("form", [f for name in sorted(FORMS) for f in FORMS[name]],
                         ids=lambda f: f.form_id)
def test_expansion_matches_displayed_sum(form):
    y = Y[:max(1, form.qt.y_count)]
    for chi, twist in CONTEXTS:
        for w in product((1, 2), repeat=form.qt.arity):
            want = displayed_sum(form, w, chi, twist)
            got = expansion_coefficients(form, w, y, chi, twist, N)
            assert got == want, (form.form_id, chi.d, w)
