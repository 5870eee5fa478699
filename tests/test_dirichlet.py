"""Dirichlet character enumeration, evaluation, conductors."""

import math
from itertools import product

import pytest

from bernsym.errors import ParameterError
from bernsym.exactnum import CyclotomicNumber as Cyc, euler_phi
from bernsym.dirichlet import (
    DirichletCharacter,
    enumerate_characters,
    trivial_character,
    unit_group_structure,
)

from helpers import is_trivial


def brute_force_is_generator(g, d):
    """Oracle: does g generate the full unit group mod d?"""
    units = {a for a in range(d) if math.gcd(a, d) == 1}
    seen, x = set(), 1
    for _ in range(len(units)):
        x = (x * g) % d
        seen.add(x)
    return seen == units


def test_unit_group_examples():
    assert unit_group_structure(1) == ()
    assert unit_group_structure(2) == ()
    assert unit_group_structure(4) == ((3, 2),)
    assert unit_group_structure(5) == ((2, 4),)
    assert brute_force_is_generator(2, 5)


@pytest.mark.parametrize("d", range(1, 31))
def test_unit_group_structure_generates(d):
    gens = unit_group_structure(d)
    # orders multiply to phi(d) and the products cover all units
    total = 1
    for g, order in gens:
        assert math.gcd(g, d) == 1
        assert pow(g, order, d) == 1
        total *= order
    assert total == euler_phi(d)
    produced = set()
    for exps in product(*[range(o) for _, o in gens]):
        a = 1
        for (g, _), e in zip(gens, exps):
            a = a * pow(g, e, d) % d
        produced.add(a % d)
    assert produced == {a % d for a in range(d) if math.gcd(a, d) == 1}


def test_enumeration_counts_and_orders():
    assert len(enumerate_characters(1)) == 1
    assert len(enumerate_characters(4)) == 2
    chars5 = enumerate_characters(5)
    assert len(chars5) == 4
    assert sorted(c.order for c in chars5) == [1, 2, 4, 4]
    labels = [c.exponents for c in chars5]
    assert len(set(labels)) == 4


def brute_force_homomorphisms(d):
    """Oracle: all maps on units determined by generator images, checked
    multiplicative on every pair."""
    gens = unit_group_structure(d)
    chars = enumerate_characters(d)
    for chi in chars:
        for a in range(d):
            for b in range(d):
                assert chi((a * b) % d) == chi(a) * chi(b)


@pytest.mark.parametrize("d", range(1, 31))
def test_multiplicativity_exhaustive(d):
    brute_force_homomorphisms(d)


@pytest.mark.parametrize("d", range(2, 31))
def test_orthogonality_sum(d):
    for chi in enumerate_characters(d):
        if is_trivial(chi):
            continue
        total = Cyc.zero(chi.order)
        for a in range(d):
            total = total + chi(a)
        assert total.is_zero()


def test_char_eval_examples():
    # the unique nontrivial character mod 4
    chi = DirichletCharacter(4, (1,))
    assert chi(3) == -1
    assert chi(2).is_zero()
    assert chi(1) == 1
    # chi mod 5 with chi(2) = zeta_4: chi(3) = chi(2^3) = zeta_4^3 = -zeta_4
    chi5 = DirichletCharacter(5, (1,))
    assert chi5(2) == Cyc.zeta(4)
    assert chi5(3) == -Cyc.zeta(4)


def test_trivial_character_conventions():
    chi1 = trivial_character(1)
    assert chi1(0) == 1 and chi1(7) == 1 and chi1(-3) == 1
    chi4 = trivial_character(4)
    assert chi4(2).is_zero() and chi4(3) == 1


def test_conductor_examples():
    assert trivial_character(1).conductor() == (1, True)
    assert DirichletCharacter(4, (1,)).conductor() == (4, True)
    # character mod 6 with chi(5) = -1 is induced by the one mod 3
    chars6 = enumerate_characters(6)
    nontriv = [c for c in chars6 if not is_trivial(c)]
    assert len(nontriv) == 1
    chi6 = nontriv[0]
    assert chi6(5) == -1
    assert chi6.conductor() == (3, False)
    assert trivial_character(6).conductor() == (1, False)


@pytest.mark.parametrize("d", range(1, 31))
def test_values_vanish_exactly_off_units(d):
    for chi in enumerate_characters(d):
        for a in range(d):
            val = chi(a)
            if d > 1 and math.gcd(a, d) != 1:
                assert val.is_zero()
            else:
                assert not val.is_zero()
                assert val ** chi.order == 1
        assert chi(1) == 1


def test_value_field_divides_group_exponent():
    for d in (5, 8, 12, 15):
        gens = unit_group_structure(d)
        exponent = math.lcm(*[o for _, o in gens])
        for chi in enumerate_characters(d):
            assert exponent % chi.order == 0


def test_label_validation():
    with pytest.raises(ValueError):
        DirichletCharacter(5, (4,))
    with pytest.raises(ValueError):
        DirichletCharacter(5, (0, 0))


def test_modulus_over_ceiling_refused_before_factoring(monkeypatch):
    # d = 10^30 + 57 used to sit in trial division; it is refused on its value
    from bernsym import dirichlet

    def factor(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(dirichlet, "_factorize", factor)
    huge = 10 ** 30 + 57
    message = f"character modulus d={huge} is above the ceiling of {dirichlet.MAX_MODULUS}"
    with pytest.raises(ParameterError, match=message):
        DirichletCharacter(huge, (1,))
    with pytest.raises(ParameterError, match=message):
        enumerate_characters(huge)
    with pytest.raises(ParameterError, match="ceiling"):
        trivial_character(dirichlet.MAX_MODULUS + 1)


def test_modulus_at_ceiling_is_accepted():
    from bernsym import dirichlet

    d = dirichlet.MAX_MODULUS
    assert len(enumerate_characters(d)) == euler_phi(d)
