"""Theorem catalog, verification modes, orbits, redundancy, grids."""

import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from bernsym import identities, quotients
from bernsym.bernoulli import ParameterError, TwistSpec
from bernsym.dirichlet import DirichletCharacter, trivial_character
from bernsym.exactnum import CyclotomicNumber as Cyc
from bernsym.identities import (
    THEOREMS,
    GridConfig,
    TheoremInstance,
    _side_records,
    _sides_equal,
    _verify,
    grid_verify,
    redundancy_check,
    theorem_sides,
    verify_instance,
    y_grid_points,
)
from bernsym.quotients import (
    FORMS,
    EvalContext,
    consistency_check,
    expansion_polys,
    form_weight,
    mono_val,
    perm_apply,
    point_series,
    point_value,
    side_series,
    spread_ypolys,
)

from mutants import KINDS, mutated_side, mutation, planted


def b1_z3():
    return (Cyc.zeta(3) ** 2 - 1).scale(Fraction(1, 3))


def _side_series(inst):
    """The instance's (P, C) sides in print order, read from its side
    records (`identities._side_records`, mutated where one is planted)."""
    return [record.side for record in identities._side_records(inst.theorem_spec(), inst.w, inst.character(),
                                                               inst.twist(), inst.n_max)]


def _verdicts(inst, method):
    """(as stated, normalized, within orbits) from `_verify`."""
    return _verify(inst.theorem_spec(), inst.w, inst.character(), inst.twist(), inst.n_max, method)[0]


def test_catalog_structure():
    assert set(THEOREMS) == set(range(1, 12))
    assert THEOREMS[4].sides == 6 and THEOREMS[7].sides == 3 and THEOREMS[10].sides == 2
    # orbits as analyzed from the weight monomials
    assert sorted(map(sorted, THEOREMS[5].orbits())) == [[1, 3], [2, 6], [4, 5]]
    assert sorted(map(sorted, THEOREMS[6].orbits())) == [[1, 2], [3, 4], [5, 6]]
    assert sorted(map(sorted, THEOREMS[8].orbits())) == [[1, 6], [2, 4], [3, 5]]
    assert THEOREMS[4].orbits() == [[1, 2, 3, 4, 5, 6]]
    assert THEOREMS[1].orbits() == [[1, 2]]
    assert THEOREMS[11].orbits() == [[1, 2]]


def test_instance_validation():
    with pytest.raises(ParameterError):
        TheoremInstance(12, 1, (), 3, 1, (1, 2), 2)
    with pytest.raises(ParameterError):
        TheoremInstance(1, 3, (0,), 3, 1, (1, 2), 2).validate()  # gcd(r, d) != 1
    with pytest.raises(ParameterError):
        TheoremInstance(1, 1, (), 3, 1, (1, 3), 2).validate()  # r | w2
    with pytest.raises(ParameterError):
        TheoremInstance(5, 1, (), 3, 1, (1, 2), 2).validate()  # wrong arity
    TheoremInstance(5, 1, (), 3, 1, (1, 2, 4), 2).validate()


def test_theorem1_example():
    inst = TheoremInstance(1, 1, (), 3, 1, (1, 2), 2)
    sides = theorem_sides(inst, n=2, y=(0, 0))
    assert [v for _, _, v in sides] == [Fraction(4, 3), Fraction(4, 3)]
    assert [w for _, w, _ in sides] == [2, 2]


def test_theorem3_counterexample_and_normalized():
    inst = TheoremInstance(3, 1, (), 3, 1, (1, 2), 1)
    sides = theorem_sides(inst, n=1, y=(0,))
    assert sides[0][2] == b1_z3()
    assert sides[1][2] == b1_z3().scale(2)
    rep = verify_instance(inst)
    assert not rep.pass_as_stated and rep.pass_normalized
    assert rep.witness is not None
    assert rep.witness.n == 1 and rep.witness.y == (Fraction(0),)
    assert rep.witness.value_a == b1_z3() and rep.witness.value_b == b1_z3().scale(2)
    norm = verify_instance(TheoremInstance(3, 1, (), 3, 1, (1, 2), 1, "normalized"))
    assert norm.passed and norm.witness is None


def test_theorem11_example():
    inst = TheoremInstance(11, 1, (), 3, 1, (1, 1, 2), 1)
    sides = theorem_sides(inst, n=1)
    assert sides[0][2] == Cyc.zeta(3) and sides[1][2] == Cyc.zeta(3)


@pytest.mark.parametrize("theorem", range(1, 12))
def test_normalized_passes_everywhere_sampled(theorem):
    thm = THEOREMS[theorem]
    w = (2, 3) if thm.arity == 2 else (2, 3, 1)
    for d, label, r in ((1, (), 5), (4, (1,), 5), (5, (2,), 7)):
        inst = TheoremInstance(theorem, d, label, r, 1, w, 4, "normalized")
        rep = verify_instance(inst)
        assert rep.passed, (theorem, d, r)
        assert rep.pass_orbits


@pytest.mark.parametrize("theorem", (1, 4, 10, 11))
def test_symmetric_theorems_as_stated(theorem):
    thm = THEOREMS[theorem]
    w = (2, 3) if thm.arity == 2 else (2, 3, 1)
    inst = TheoremInstance(theorem, 5, (1,), 7, 1, w, 4)
    assert verify_instance(inst).pass_as_stated


def test_equal_w_passes_as_stated_everywhere():
    for theorem in range(1, 12):
        thm = THEOREMS[theorem]
        w = (2,) * thm.arity
        inst = TheoremInstance(theorem, 1, (), 5, 1, w, 3)
        assert verify_instance(inst).pass_as_stated, theorem


@pytest.mark.parametrize("theorem", range(1, 12))
def test_memoised_sides_match_cold_evaluation(theorem, cold_store):
    # every side of the instance is a side of another ordering of w, so
    # after those, the instance reads each of its sides from the store, and
    # they equal the sides multiplied anew
    thm = THEOREMS[theorem]
    w = (2, 4) if thm.arity == 2 else (1, 2, 4)
    inst = TheoremInstance(theorem, 5, (1,), 3, 1, w, 3)
    inst.validate()
    for other in sorted(set(permutations(w)) - {w}):
        verify_instance(TheoremInstance(theorem, 5, (1,), 3, 1, other, 3))
    misses = cold_store.cache_info().misses
    memoised = [spread_ypolys(p, ys, inst.n_max) for p, ys in _side_series(inst)]
    assert cold_store.cache_info().misses == misses  # every side was a store hit
    cold = EvalContext(inst.character(), inst.twist())
    assert memoised == [
        expansion_polys(thm.base, perm_apply(sig, w), cold, inst.n_max)
        for sig in thm.sigmas
    ]


def _stored_records(store) -> dict:
    """The side records the series store holds, by (form, w, n_max)."""
    return {key[5:]: entry[0] for key, entry in store._entries.items() if key[0] is identities._side_record}


def _stored_products(monkeypatch) -> list:
    """The side products the series store builds from now on: every one
    passes through `quotients._shared` once, when it is built."""
    built = []
    share = quotients._shared
    monkeypatch.setattr(quotients, "_shared", lambda series: built.append(series) or share(series))
    return built


def _products_made(monkeypatch) -> list:
    """The factor chains `series.product` multiplies for quotients from now
    on, stored side products and the rest, one list per product."""
    chains = []
    multiply = quotients.product
    monkeypatch.setattr(quotients, "product", lambda factors: chains.append(factors) or multiply(factors))
    return chains


@pytest.mark.parametrize("theorem, w", ((1, (2, 4)), (4, (2, 3, 1)), (11, (2, 1, 1))))
def test_a_mutated_run_memoises_and_stores_only_clean_sides(theorem, w, monkeypatch, cold_store):
    # a mutated side 1 read from the store would pass; one written to it
    # would fail the clean re-verifies below.  A mutated run from a cold
    # store stores every side's record clean, as a cold build gives it, and
    # after it, a clean run or a mutated one changes no record and builds
    # no product
    inst = TheoremInstance(theorem, 1, (), 5, 1, w, 3)
    thm = inst.theorem_spec()
    built = _stored_products(monkeypatch)
    with mutation("twist"):
        assert not verify_instance(inst).pass_as_stated
    chi, twist = inst.character(), inst.twist()
    records = _stored_records(cold_store)
    assert len(records) == len({pick(w) for pick in thm.picks})
    for (form, wp, n_max), record in records.items():
        assert form is thm.base and record.side == side_series(thm.base, wp, chi, twist, n_max), wp
    stored = len(built)
    assert stored > 0
    assert verify_instance(inst).pass_as_stated
    with mutation("twist"):
        assert not verify_instance(inst).pass_as_stated
    after = _stored_records(cold_store)
    assert after.keys() == records.keys()
    assert all(after[k] is v for k, v in records.items())
    assert verify_instance(inst).pass_as_stated
    assert len(built) == stored


@pytest.mark.parametrize("kind", KINDS)
def test_warm_records_still_fail_every_mutation(kind, monkeypatch, cold_store):
    # with every side's record already stored, each mutation kind still
    # fails: the mutated side is built on its own, never read from the
    # store.  No mutated record or product enters the store, and the clean
    # re-verify afterwards reads the same clean records and builds nothing
    inst = TheoremInstance(4, 5, (1,), 7, 1, (2, 4, 1), 4)
    thm = inst.theorem_spec()
    # no twist scale of this cell, bumped by 1, is a multiple of 7
    cell = GridConfig(theorems=(4,), d_values=(5,), char_filter="explicit", char_labels=((5, (1,)),),
                      r_values=(7,), w_components=(1, 2, 4), n_max=4)
    assert grid_verify(cell).failures(4, "as-stated") == 0
    records = _stored_records(cold_store)
    assert len(records) == 3 ** 3
    built = _stored_products(monkeypatch)
    with mutation(kind):
        assert not verify_instance(inst).pass_as_stated
        assert grid_verify(cell).failures(4, "as-stated") > 0
    assert built == []
    after = _stored_records(cold_store)
    assert all(after[k] is v for k, v in records.items())
    chi, twist = inst.character(), inst.twist()
    for (form, wp, n_max), record in after.items():
        assert record.side == side_series(form, wp, chi, twist, n_max), wp
    misses = cold_store.cache_info().misses
    assert verify_instance(inst).pass_as_stated
    assert cold_store.cache_info().misses == misses
    assert _side_series(inst) == [records[thm.base, perm_apply(sig, inst.w), inst.n_max].side
                                        for sig in thm.sigmas]


def test_equal_normal_forms_are_one_tuple(cold_store):
    # the sides of a symmetric theorem at distinct w components are
    # multiplied from distinct chains, and their normal forms, exactly
    # equal, are then one tuple, so a normalized comparison is an identity
    # check; the table that shares them empties with the store
    inst = TheoremInstance(4, 5, (1,), 7, 1, (2, 3, 1), 4)
    records = identities._side_records(inst.theorem_spec(), inst.w, inst.character(), inst.twist(), inst.n_max)
    assert len({id(record.normal) for record in records}) == 1
    assert len(quotients._NORMALS) == 1
    cold_store.cache_clear()
    assert quotients._NORMALS == {}


@pytest.mark.parametrize("kind", KINDS)
def test_a_mutated_run_stores_only_clean_side_products(kind, monkeypatch, cold_store):
    # every stored side product is built through `_shared`: a mutated run
    # from a cold store stores each side's clean product, equal to the side
    # multiplied anew and unequal to the mutated side 1, so neither the
    # clean run after it nor a second mutated run builds one
    inst = TheoremInstance(4, 5, (1,), 7, 1, (2, 3, 1), 4)
    thm = inst.theorem_spec()
    built = _stored_products(monkeypatch)
    with mutation(kind):
        assert not verify_instance(inst).pass_as_stated
    chi, twist = inst.character(), inst.twist()
    clean = [side_series(thm.base, perm_apply(sig, inst.w), chi, twist, inst.n_max)[0] for sig in thm.sigmas]
    assert built == clean
    assert mutated_side(thm.base, perm_apply(thm.sigmas[0], inst.w), chi, twist, inst.n_max, kind)[0] not in clean
    stored = len(built)
    assert verify_instance(inst).pass_as_stated
    with mutation(kind):
        assert not verify_instance(inst).pass_as_stated
    assert verify_instance(inst).pass_as_stated
    assert len(built) == stored


@pytest.mark.parametrize("kind", KINDS)
def test_mutations_fail_with_a_warm_store(kind, cold_store):
    # a mutation doubles a copy of a stored slot series or reads the true
    # series of another key, so no mutated series enters the store: every
    # kind fails with the store warm, and the clean sides built from it
    # match a cold build
    inst = TheoremInstance(4, 1, (), 5, 1, (2, 3, 1), 3)
    assert verify_instance(inst).pass_as_stated
    built = cold_store.cache_info().misses
    with mutation(kind):
        assert not verify_instance(inst).pass_as_stated
    if kind == "binomial":
        assert cold_store.cache_info().misses == built
    warm = _side_series(inst)
    cold_store.cache_clear()
    assert _side_series(inst) == warm
    # with the store holding the clean records and products: the same
    # instance, a folded form after the form it folds (theorem 3 after
    # theorem 2, normalized, as theorem 3 fails as stated) and the same
    # (type, w) in the consistency check
    assert verify_instance(inst).pass_as_stated
    with mutation(kind):
        assert not verify_instance(inst).pass_as_stated
    for theorem in (2, 3):
        folded = TheoremInstance(theorem, 1, (), 5, 1, (2, 3), 3, "normalized")
        assert verify_instance(folded).passed
    with mutation(kind):
        assert not verify_instance(folded).passed
    qt, y = FORMS["L23:2"][0].qt, (Fraction(1, 2),)
    assert consistency_check(qt, inst.w, y, inst.character(), inst.twist(), 3).passed
    with mutation(kind):
        assert not consistency_check(qt, inst.w, y, inst.character(), inst.twist(), 3).passed


def _counting(monkeypatch) -> list:
    """The factor chains of every side product multiplied from now on, one
    list per product, counted at the class (`EvalContext.sym_product`), so
    that the store's own builds are counted too."""
    chains = []
    multiply = EvalContext.sym_product
    monkeypatch.setattr(EvalContext, "sym_product", staticmethod(lambda factors: chains.append(factors)
                                                                  or multiply(factors)))
    return chains


@pytest.mark.parametrize("theorem", (1, 4, 10, 11))
def test_each_permuted_side_is_multiplied_once(theorem, monkeypatch, cold_store):
    # with distinct w components no two permuted sides have the same
    # ordered chain, so each side is one stored product, multiplied once per
    # process: a second verify of the instance multiplies none, a
    # store keyed by the sorted chain would share the sides' products, one
    # keyed without n_max would hand the order-2 products to the order-3
    # instance
    thm = THEOREMS[theorem]
    w = (2, 4) if thm.arity == 2 else (1, 2, 4)
    inst = TheoremInstance(theorem, 5, (1,), 3, 1, w, 2)
    chains = _products_made(monkeypatch)
    assert verify_instance(inst).pass_as_stated
    assert len(chains) == thm.sides
    assert verify_instance(inst).pass_as_stated
    assert len(chains) == thm.sides
    deeper = replace(inst, n_max=3)
    assert verify_instance(deeper).pass_as_stated
    assert len(chains) == 2 * thm.sides
    stored = _side_series(deeper)
    cold_store.cache_clear()
    assert stored == _side_series(deeper)
    # the permuted sides are equal, so they hold one product object
    assert all(p is stored[0][0] for p, _ in stored)


@pytest.mark.parametrize("d, char, r", ((1, (), 3), (4, (1,), 5), (5, (1,), 7)))
def test_stored_side_products_equal_a_cold_multiplication(d, char, r, cold_store):
    # every theorem base's sides, read from the store after every theorem
    # has filled it, equal the same chains multiplied anew from a cold
    # store (`side_series` multiplies on its own)
    chi, twist = DirichletCharacter(d, char), TwistSpec(r, 1)
    sides = {}
    for theorem, thm in THEOREMS.items():
        for w in product((1, 2, 3), repeat=thm.arity):
            inst = TheoremInstance(theorem, d, char, r, 1, w, 6)
            try:
                inst.validate()
            except ParameterError:
                continue
            for sig, side in zip(thm.sigmas, _side_series(inst)):
                sides[thm.base.form_id, perm_apply(sig, w)] = (thm.base, side)
    assert len({form_id for form_id, _ in sides}) == len(THEOREMS)
    cold_store.cache_clear()
    for (_, w), (form, side) in sides.items():
        assert side_series(form, w, chi, twist, 6) == side, (form.form_id, w)


def test_redundancy_displays_are_multiplied_not_read(monkeypatch):
    # at w = (1, 2, 2) the B*S*S display's two power sums have one key, so
    # its chain is its Thm-7 side's; every display is still multiplied on
    # its own, also with the theorem sides in the store
    w = (1, 2, 2)
    chi, twist = DirichletCharacter(5, (1,)), TwistSpec(3, 1)
    for theorem in (7, 11):
        verify_instance(TheoremInstance(theorem, 5, (1,), 3, 1, w, 3))
    chains = _counting(monkeypatch)
    rep = redundancy_check(w, chi, twist, 3)
    assert rep.passed and len(rep.checks) == 7
    assert len(chains) == 2 * 3 + 2 + 4


def _first_grid_mismatch(inst, mut=None):
    """(n, y, side_a, side_b, value_a, value_b) at the first n, then grid
    point, then side pair where the instance's mode fails, read one point at
    a time from `theorem_sides` (side 1 from the point series of the side
    that `mutants.mutated_side` builds for the mutation (kind, slot,
    degree)); None when every point agrees."""
    thm = inst.theorem_spec()
    mutated = mut and mutated_side(thm.base, perm_apply(thm.sigmas[0], inst.w), inst.character(), inst.twist(),
                                   inst.n_max, *mut)
    for n in range(inst.n_max + 1):
        for y in y_grid_points(n, thm.y_count):
            sides = [(wt, v) for _, wt, v in theorem_sides(inst, n, y)]
            if mutated:
                sides[0] = (sides[0][0], point_series(mutated, y, inst.n_max).egf_coefficient(n))
            for (a, (wa, va)), (b, (wb, vb)) in combinations(enumerate(sides, start=1), 2):
                if (va.scale(wb) != vb.scale(wa)) if inst.mode == "normalized" else va != vb:
                    return n, y, a, b, va, vb
    return None


@pytest.mark.parametrize("theorem", (2, 3, 5, 7, 9, 10, 11))
def test_poly_and_points_methods_agree(theorem):
    # both methods report the first n, then grid point, then side pair that
    # fails; the mutation makes side 1 differ from t^1 on, so both modes
    # fail, and as stated (theorem 9) sides 1 and 2 first differ at a later
    # n than another pair does, so a scan over pairs before points reports
    # a different witness
    thm = THEOREMS[theorem]
    w = (1, 2) if thm.arity == 2 else (1, 2, 2)
    for mut in (None, ("binomial", 0, 1)):
        for mode in ("as-stated", "normalized"):
            inst_m = TheoremInstance(theorem, 4, (1,), 3, 1, w, 2, mode)
            with planted(mut):
                a = verify_instance(inst_m, method="poly")
                b = verify_instance(inst_m, method="points")
            assert (a.pass_as_stated, a.pass_normalized, a.pass_orbits) == \
                (b.pass_as_stated, b.pass_normalized, b.pass_orbits)
            expected = _first_grid_mismatch(inst_m, mut)
            for report in (a, b):
                wit = report.witness
                got = wit and (wit.n, wit.y, wit.side_a, wit.side_b, wit.value_a, wit.value_b)
                assert got == expected, (mut, mode, report is a)


def _every_pair_verdicts(inst, sides, method):
    """(as stated, normalized, within orbits) from comparing every pair of
    sides, each pair on its own: (P, C) pairs under 'poly', every grid
    point's value under 'points'."""
    thm = inst.theorem_spec()
    weights = [mono_val(m, inst.w) for m in thm.side_weight_monos]
    if method == "poly":
        def equal(i, j, wi, wj):
            return _sides_equal(sides[i], sides[j], inst.n_max, wi, wj)
    else:
        values = [[[point_value(side, y, n) for y in y_grid_points(n, thm.y_count)]
                   for n in range(inst.n_max + 1)] for side in sides]

        def equal(i, j, wi, wj):
            return all(a.scale(wj) == b.scale(wi) for va, vb in zip(values[i], values[j])
                       for a, b in zip(va, vb))
    orbit_of = {i - 1: k for k, orbit in enumerate(thm.orbits()) for i in orbit}
    pairs = list(combinations(range(thm.sides), 2))
    return (all(equal(i, j, 1, 1) for i, j in pairs),
            all(equal(i, j, weights[i], weights[j]) for i, j in pairs),
            all(equal(i, j, 1, 1) for i, j in pairs if orbit_of[i] == orbit_of[j]))


@pytest.mark.parametrize("method", ("poly", "points"))
@pytest.mark.parametrize("theorem", range(1, 12))
def test_implied_verdicts_match_every_pair(theorem, method, monkeypatch):
    # _verify compares stars and derives the rest; each of its three flags
    # must equal the verdict over every side pair, on sampled standard-grid
    # instances, on one instance per mutation kind (both stars fail; the
    # orbit flag then depends on whether side 1 shares its orbit), and on
    # an instance whose sides are planted equal while their weights differ
    # (as stated passes, normalized fails).  The points method reads every
    # grid point, so it runs at a lower n_max
    n_max = 6 if method == "poly" else 3
    config = GridConfig(theorems=(theorem,), n_max=n_max)
    valid = []
    for inst in _instances(config):
        try:
            inst.validate()
        except ParameterError:
            continue
        valid.append(inst)
    cases = [(inst, None) for inst in random.Random(1800 + theorem).sample(valid, 2)]
    # r = 7 and w in {2, 4} keep every bumped twist a unit, and every
    # permuted w1 > 1 makes wpower change side 1's slot
    mutated = TheoremInstance(theorem, 4, (1,), 7, 1, (2, 4, 2)[:THEOREMS[theorem].arity], n_max)
    cases += [(mutated, (kind,)) for kind in KINDS]
    for inst, mut in cases:
        with planted(mut):
            verdicts = _verdicts(inst, method)
            expected = _every_pair_verdicts(inst, _side_series(inst), method)
        assert verdicts == expected, (inst.key(), mut)
        if mut:
            assert not (verdicts[0] or verdicts[1]), mut

    # every side planted as side 1, each record keeping its own weight
    build = identities._side_records

    def side_1_everywhere(thm, w, chi, twist, n_max):
        records = build(thm, w, chi, twist, n_max)
        side = records[0].side
        return [identities._SideRecord(side, rec.weight, side[0].normal_form(rec.weight)) for rec in records]

    monkeypatch.setattr(identities, "_side_records", side_1_everywhere)
    verdicts = _verdicts(mutated, method)
    expected = _every_pair_verdicts(mutated, [_side_series(mutated)[0]] * THEOREMS[theorem].sides, method)
    assert verdicts == expected
    weights = {mono_val(m, mutated.w) for m in THEOREMS[theorem].side_weight_monos}
    assert verdicts[0] and verdicts[1] == (len(weights) == 1)


def _ypoly_equal(a, b, wa=1, wb=1):
    """a / wa == b / wb, one y-monomial at a time."""
    return all(
        pa.keys() == pb.keys() and all(pa[e].scale(wb) == pb[e].scale(wa) for e in pa)
        for pa, pb in zip(a, b)
    )


@pytest.mark.parametrize("theorem", range(1, 12))
def test_series_rule_matches_ymonomial_comparison(theorem):
    # r = 7 and w in {1, 2, 4}^arity keep every condition and every bumped
    # twist a unit; w1 > 1 makes wpower change the slot's y multiplier
    thm = THEOREMS[theorem]
    ws = ((1, 2), (2, 2), (4, 1)) if thm.arity == 2 else ((1, 2, 4), (2, 2, 2), (4, 2, 1))
    differing_c = 0
    for d, label in ((1, ()), (4, (1,))):
        chi, twist = DirichletCharacter(d, label), TwistSpec(7, 1)
        for w in ws:
            for n_max in (0, 1, 3):
                for mut in (None, ("wpower",), ("twist",), ("binomial", 0, min(1, n_max))):
                    inst = TheoremInstance(theorem, d, label, 7, 1, w, n_max)
                    sides, polys, weights = [], [], []
                    for idx, sig in enumerate(thm.sigmas):
                        wp = perm_apply(sig, w)
                        side = (mutated_side(thm.base, wp, chi, twist, n_max, *mut) if mut and idx == 0
                                else side_series(thm.base, wp, chi, twist, n_max))
                        sides.append(side)
                        polys.append(spread_ypolys(*side, n_max))
                        weights.append(form_weight(thm.base, wp))
                    differing_c += sum(side[1] != sides[0][1] for side in sides)
                    expected = (
                        all(_ypoly_equal(polys[0], polys[s]) for s in range(1, thm.sides)),
                        all(_ypoly_equal(polys[0], polys[s], weights[0], weights[s])
                            for s in range(1, thm.sides)),
                        all(_ypoly_equal(polys[o[0] - 1], polys[i - 1])
                            for o in thm.orbits() for i in o[1:]),
                    )
                    with planted(mut):
                        assert _verdicts(inst, "poly") == expected, (d, w, n_max, mut)
                    # the same P under a different y multiplier
                    for p, ys in sides:
                        bumped = (ys[0] + 1,) + ys[1:]
                        assert _sides_equal((p, ys), (p, bumped), n_max) == _ypoly_equal(
                            spread_ypolys(p, ys, n_max), spread_ypolys(p, bumped, n_max))
    # wpower moves C wherever a slot carries a y variable
    assert differing_c or thm.y_count == 0


def test_scaling_coherence():
    # For the theorems whose descriptors use only degree-1 monomials in w
    # (1 and 10), side at (c*w, xi) equals c^n times side at (w, xi^c) with
    # y scaled by c.  Forms with higher-degree twist scales or a/S upper
    # limits have no single-monomial scaling relation.
    c = 2
    for theorem in (1, 10):
        thm = THEOREMS[theorem]
        w = (1, 2) if thm.arity == 2 else (1, 2, 4)
        cw = tuple(c * x for x in w)
        n = 3
        y = tuple(Fraction(i + 1, 3) for i in range(max(1, thm.y_count)))
        cy = tuple(c * v for v in y)
        lhs = theorem_sides(TheoremInstance(theorem, 5, (1,), 7, 1, cw, n), n=n, y=y)
        rhs = theorem_sides(TheoremInstance(theorem, 5, (1,), 7, c, w, n), n=n, y=cy)
        for (_, _, va), (_, _, vb) in zip(lhs, rhs):
            assert va == vb.scale(c ** n), theorem


def test_cross_theorem_equal_weight_sides():
    # Thm 2's left side equals Thm 3's left side (both weight w1)
    for w in ((1, 2), (2, 3), (3, 4)):
        for n in range(4):
            y = (Fraction(1, 2),)
            s2 = theorem_sides(TheoremInstance(2, 5, (1,), 7, 1, w, n), n=n, y=y)
            s3 = theorem_sides(TheoremInstance(3, 5, (1,), 7, 1, w, n), n=n, y=y)
            assert s2[0][2] == s3[0][2]
            assert s2[0][1] == s3[0][1] == w[0]


def test_theorem7_sides_vanish_at_n0():
    inst = TheoremInstance(7, 4, (1,), 3, 1, (1, 2, 2), 0)
    for _, _, v in theorem_sides(inst, n=0, y=(1,)):
        assert v.is_zero()


def test_mutations_break_verification():
    inst = TheoremInstance(4, 1, (), 5, 1, (2, 3, 1), 3)
    assert verify_instance(inst).pass_as_stated
    for mut in (("binomial", 0, 1), ("twist", 0), ("wpower", 1)):
        with mutation(*mut):
            rep = verify_instance(inst)
        assert not rep.pass_as_stated, mut


@pytest.mark.parametrize("mut", [("binomial", 0, 9), ("binomial", 0, -1), ("twist", 7), ("wpower", -1)])
def test_out_of_range_mutation_is_parameter_error(mut):
    # a mutation that matches no slot or no degree would verify as passing
    inst = TheoremInstance(4, 1, (), 5, 1, (2, 3, 1), 3)
    with mutation(*mut), pytest.raises(ParameterError, match="mutation"):
        verify_instance(inst)


def test_redundancy_examples():
    rep = redundancy_check((1, 2, 3), trivial_character(1), TwistSpec(5, 1), 5)
    assert rep.passed and len(rep.checks) == 7
    chi = DirichletCharacter(4, (1,))
    rep2 = redundancy_check((1, 1, 2), chi, TwistSpec(3, 1), 4)
    assert rep2.passed
    with pytest.raises(ParameterError):
        redundancy_check((1, 1, 3), trivial_character(1), TwistSpec(3, 1), 3)


def test_redundant_power_sum_display_value():
    # at (d, chi, xi, w, n) = (1, trivial, zeta3, (1,1,2), 1) the duplicate
    # pure-power-sum display and the first theorem-11 side are both zeta3
    from bernsym.identities import _THM11_BASE
    from bernsym.quotients import EvalContext, expansion_polys, perm_apply
    chi = trivial_character(1)
    twist = TwistSpec(3, 1)
    ctx = EvalContext(chi, twist)
    dup40 = expansion_polys(_THM11_BASE, (1, 1, 2), ctx, 1)
    side1_w = perm_apply(THEOREMS[11].sigmas[0], (1, 1, 2))
    side1 = expansion_polys(_THM11_BASE, side1_w, ctx, 1)
    # no y variables: the one y-monomial is y^0
    assert dup40[1] == side1[1] == {(0,): Cyc.zeta(3)}


def test_y_grid_points():
    assert y_grid_points(1, 0) == [()]
    assert y_grid_points(1, 1) == [(0,), (1,), (2,)]
    assert len(y_grid_points(2, 2)) == 16


def _instances(config):
    """Every instance of the grid, cell by cell in key order."""
    return [TheoremInstance(theorem, d, chi.exponents, r, j, w, config.n_max)
            for theorem, d, chi, r, j, ws in identities._grid_cells(config) for w in ws]


def test_grid_cells_deterministic_and_sorted():
    cfg = GridConfig(theorems=(1,), d_values=(1, 3), r_values=(3, 4), n_max=2)
    keys = [inst.key() for inst in _instances(cfg)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_grid_verify_small():
    cfg = GridConfig(theorems=(1, 3), d_values=(1,), r_values=(3,),
                     w_components=(1, 2), n_max=2)
    rep = grid_verify(cfg)
    # Thm 1: w in {1,2}^2, all valid, all pass
    assert rep.counts[(1, "as-stated")] == {"pass": 4, "fail": 0, "skipped": 0}
    assert rep.counts[(1, "normalized")]["fail"] == 0
    # Thm 3 fails as stated exactly when w1 != w2
    assert rep.counts[(3, "as-stated")] == {"pass": 2, "fail": 2, "skipped": 0}
    assert rep.counts[(3, "normalized")] == {"pass": 4, "fail": 0, "skipped": 0}
    assert (3, "as-stated") in rep.first_witness


def test_grid_skips_invalid_points():
    cfg = GridConfig(theorems=(1,), d_values=(3,), r_values=(3,),
                     w_components=(1, 3), n_max=1)
    rep = grid_verify(cfg)
    # gcd(r, d) != 1 everywhere: all skipped
    counts = rep.counts[(1, "as-stated")]
    assert counts["pass"] == counts["fail"] == 0 and counts["skipped"] > 0


def test_report_serialization_shape():
    inst = TheoremInstance(3, 1, (), 3, 1, (1, 2), 1)
    rep = verify_instance(inst, include_values=True)
    doc = rep.to_json()
    assert doc["mode"] == "as-stated" and doc["pass"] is False
    assert doc["witness"]["side_a"] == 1 and doc["witness"]["side_b"] == 2
    assert len(doc["sides"]) == 2
    assert doc["sides"][0]["weight"] == "w1"
    # values: per side, per n, per grid point
    vals = doc["sides"][0]["values"]
    assert len(vals) == 2 and len(vals[1]) == 3


# ---------------------------------------------------------------------------
# side records, the grid's verdicts and the witness scan's start


def _standard_instances():
    """(cell, theorem spec, w, chi, twist) for every valid instance of the
    standard grid, cell by cell in key order, a cell being its (theorem, d,
    chi's exponents, r, j)."""
    for theorem, d, chi, r, j, ws in identities._grid_cells(GridConfig(n_max=6)):
        twist = TwistSpec(r, j)
        if math.gcd(r, d) != 1:
            continue
        thm = THEOREMS[theorem]
        for w in ws:
            try:
                quotients._require_units(thm.base.qt, twist, w)
            except ParameterError:
                continue
            yield (theorem, d, chi.exponents, r, j), thm, w, chi, twist


def _both_scans(records, thm, mode, n_max):
    """The witness of the full scan and of the scan from `_witness_start`."""
    values = identities._PointValues(records, thm.y_count)
    weights = [record.weight for record in records]
    start = identities._witness_start(records, mode == "normalized", n_max)
    full = identities._first_witness(values, weights, mode, n_max)
    skipped = identities._first_witness(values, weights, mode, n_max, start)
    assert full is None or full.n >= start
    return full, skipped


def test_record_verdicts_match_sides_equal_on_the_standard_grid():
    # every pair of sides of every valid standard-grid instance, in both
    # modes: comparing records (normal forms, or P itself as stated) gives
    # what `_sides_equal` gives by cross-multiplying the rows
    cell, checked = None, 0
    for key, thm, w, chi, twist in _standard_instances():
        if key != cell:
            # pairs are counted once per cell, while the store keeps them alive
            cell, seen = key, set()
        records = _side_records(thm, w, chi, twist, 6)
        for a, b in combinations(records, 2):
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            for normalized in (False, True):
                weights = (a.weight, b.weight) if normalized else (1, 1)
                assert identities._records_equal(a, b, normalized, 6) == \
                    _sides_equal(a.side, b.side, 6, *weights), (thm.id, w, normalized)
                checked += 1
    assert checked > 20000


def test_skipped_witness_scan_matches_the_full_scan():
    # the scan from the first level that is not provably equal returns the
    # full scan's witness: on the first failing instance of every theorem
    # and mode in every standard context, on every mutation kind in both
    # modes (the standard grid never fails normalized), and on sides planted
    # with one P and two rates C, which only the y-points tell apart
    first_failures = {}
    for _, thm, w, chi, twist in _standard_instances():
        verdicts, records, _ = identities._verify(thm, w, chi, twist, 6)
        for mode, ok in (("as-stated", verdicts[0]), ("normalized", verdicts[1])):
            key = (thm.id, chi, twist.r, mode)
            if not ok and key not in first_failures:
                first_failures[key] = records
                full, skipped = _both_scans(records, thm, mode, 6)
                assert full is not None and skipped == full, key
    assert len(first_failures) == 7 * 28   # theorems 2, 3, 5 to 9 fail as stated everywhere

    for theorem, thm in THEOREMS.items():
        w = (2, 4, 2)[:thm.arity]
        chi, twist = DirichletCharacter(4, (1,)), TwistSpec(7, 1)
        for kind in KINDS:
            with mutation(kind):
                records = identities._side_records(thm, w, chi, twist, 6)
            for mode in ("as-stated", "normalized"):
                full, skipped = _both_scans(records, thm, mode, 6)
                assert full is not None and skipped == full, (theorem, kind, mode)
        if thm.y_count:
            first = _side_records(thm, w, chi, twist, 6)[0]
            (p, ys), weight, normal = first
            bumped = identities._SideRecord((p, (ys[0] + 1,) + ys[1:]), weight, normal)
            for mode in ("as-stated", "normalized"):
                full, skipped = _both_scans([first, bumped], thm, mode, 6)
                assert full is not None and skipped == full, (theorem, mode)
                assert full.n == next(n for n in range(7) if not p.vanishes_below(n + 1)) + 1


# (number of reports, sha256 of their JSON), recorded while every pair of
# sides was compared by cross-multiplying its rows
PINNED_REPORTS = (386, "fc8c9041abe351d231f20996313d36f616abe913b3e97d3246b0df59c283e126")


def test_verify_instance_reports_are_pinned():
    # verify_instance's reports, with their witnesses, weights, orbits by
    # weight value and grid values, for both methods and modes, clean and
    # mutated, are the bytes recorded before verdicts were read from side
    # records
    docs = []
    for theorem, thm in THEOREMS.items():
        for d, char, r in ((1, (), 3), (4, (1,), 5), (5, (1,), 7)):
            for w in ((1, 2, 3), (2, 2, 1), (3, 1, 2)):
                for mode in ("as-stated", "normalized"):
                    inst = TheoremInstance(theorem, d, char, r, 1, w[:thm.arity], 3, mode)
                    try:
                        inst.validate()
                    except ParameterError:
                        continue
                    for method in ("poly", "points"):
                        docs.append(verify_instance(inst, method, include_values=True).to_json())
        for kind in KINDS:
            inst = TheoremInstance(theorem, 4, (1,), 7, 1, (2, 4, 2)[:thm.arity], 3, "normalized")
            for method in ("poly", "points"):
                with mutation(kind):
                    docs.append(verify_instance(inst, method).to_json())
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert len(docs) == PINNED_REPORTS[0] and digest == PINNED_REPORTS[1]
