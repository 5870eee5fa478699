"""Acceptance suite: every criterion at its stated tolerance (all exact).

Standard grid G: d in {1,3,4,5}, all characters mod d, r in {3,4,5,7} with
gcd(r,d)=1, j=1, w components from {1,2,3,4} filtered per theorem, n <= 6,
y points 0..n+1 per variable.  One pass/fail line is printed per criterion.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from bernsym import quotients
from bernsym.bernoulli import (
    TwistSpec,
    gen_bernoulli_numbers,
    gen_bernoulli_poly,
    power_sum_egf_check,
)
from bernsym.dirichlet import enumerate_characters
from bernsym.exactnum import CyclotomicNumber as Cyc
from bernsym.identities import (
    THEOREMS,
    GridConfig,
    TheoremInstance,
    grid_verify,
    redundancy_check,
    theorem_sides,
    verify_instance,
)
from bernsym.padic import PadicContext, convergence_check, distribution_check, riemann_sum
from bernsym.quotients import (
    FORMS,
    QUOTIENT_TYPES,
    closed_form_series,
    consistency_check,
    mono_val,
)

from mutants import KINDS, mutation

D_VALUES = (1, 3, 4, 5)
R_VALUES = (3, 4, 5, 7)
W_COMPONENTS = (1, 2, 3, 4)
N_MAX = 6


def report(criterion: int, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE CRITERION {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def grid_combos():
    for d in D_VALUES:
        for chi in enumerate_characters(d):
            for r in R_VALUES:
                if math.gcd(r, d) == 1:
                    yield d, chi, r


@pytest.fixture(scope="module")
def full_grid():
    """One shared run of the full standard grid, both modes, timed."""
    start = time.time()
    rep = grid_verify(GridConfig(n_max=N_MAX))
    elapsed = time.time() - start
    return rep, elapsed


@pytest.mark.slow
def test_criterion_01_symmetric_theorems_as_stated(full_grid):
    rep, elapsed = full_grid
    failures = sum(rep.failures(t, "as-stated") for t in (1, 4, 10, 11))
    checked = sum(rep.counts[(t, "as-stated")]["pass"] for t in (1, 4, 10, 11))
    report(1, failures == 0 and checked > 0 and elapsed < 600,
           f"{checked} instances, 0 failures, grid elapsed {elapsed:.0f}s < 600s")


@pytest.mark.slow
def test_criterion_02_normalized_all_theorems(full_grid):
    rep, _ = full_grid
    failures = sum(rep.failures(t, "normalized") for t in range(1, 12))
    checked = sum(rep.counts[(t, "normalized")]["pass"] for t in range(1, 12))
    report(2, failures == 0 and checked > 0, f"{checked} instances, 0 failures")


@pytest.mark.slow
def test_criterion_03_orbit_structure_and_counterexample(full_grid):
    rep, _ = full_grid
    orbit_ok = all(
        row.pass_orbits
        for row in rep.rows
        if not row.skipped and row.instance_key[0] in (5, 6, 8)
    )
    inst = TheoremInstance(3, 1, (), 3, 1, (1, 2), 1)
    sides = theorem_sides(inst, n=1, y=(0,))
    expected_a = (Cyc.zeta(3) ** 2 - 1).scale(Fraction(1, 3))
    counterexample_ok = sides[0][2] == expected_a and sides[1][2] == expected_a.scale(2)
    vrep = verify_instance(inst)
    witness_ok = (not vrep.pass_as_stated) and vrep.pass_normalized \
        and vrep.witness.value_a == expected_a and vrep.witness.value_b == expected_a.scale(2)
    report(3, orbit_ok and counterexample_ok and witness_ok,
           "within-orbit equalities over G and the recorded Thm-3 counterexample")


# the sha256 of the standard grid's report and of its rows, unchanged since
# the standard grid's answers were first recorded
GRID_SHA256 = "0ab8ab409fc137da143a7b16c19342c7c20ae5e8907597a55476d65390cb3b33"
ROWS_SHA256 = "ceb93ef3805de2992986f2f78f943cb30582da70572e3e69695dfbad127ae1fc"
# the sha256 of the JSON list of criterion 6's reports (`_criterion_06`),
# recorded before its checks' inputs were stored
CRITERION_06_SHA256 = "c0fc6a2ca1dec3ea96198650eae4226d7971be1f7f2a8becae13e23e2d99b1b8"


def _pinned(rep) -> bool:
    return (hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest() == GRID_SHA256
            and hashlib.sha256(repr(rep.rows).encode()).hexdigest() == ROWS_SHA256)


@pytest.mark.slow
def test_standard_grid_answers_are_pinned(full_grid):
    # a change that only makes the grid faster leaves both hashes as they are
    rep, _ = full_grid
    assert hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest() == GRID_SHA256
    assert hashlib.sha256(repr(rep.rows).encode()).hexdigest() == ROWS_SHA256


@pytest.mark.slow
def test_series_store_stays_within_its_bound(full_grid, monkeypatch):
    # after the standard grid and a grid with w up to 9 the store is within
    # its bound in bytes and every verdict is right; more distinct series
    # than a bound holds push out the least recently used, and the store
    # fills up to the bound before the first goes
    store = quotients._stored
    wide = grid_verify(GridConfig(theorems=(7, 8, 9, 11), d_values=(1, 3), r_values=(5, 7),
                                  w_components=tuple(range(1, 10)), n_max=1))
    assert all(wide.failures(t, "normalized") == 0 for t in (7, 8, 9, 11))
    assert wide.failures(11, "as-stated") == 0 and wide.failures(7, "as-stated") > 0
    assert store.max_bytes == quotients.MAX_STORE_BYTES
    assert store.cache_info().bytes <= quotients.MAX_STORE_BYTES
    chi, twist = enumerate_characters(1)[0], TwistSpec(3, 1)

    def psum(scale):
        quotients._factors(chi, twist, [("S", 0, 1, scale)], 0)

    store.cache_clear()
    monkeypatch.setattr(store, "max_bytes", 1 << 20)
    scale = 0
    while not store.cache_info().evictions:
        scale += 1
        psum(scale)
    info = store.cache_info()
    assert info.evictions == 1 and info.entries == scale - 1 and info.bytes <= store.max_bytes
    psum(scale)   # the newest stays
    assert store.cache_info().misses == info.misses
    psum(1)       # the oldest went
    assert store.cache_info().misses == info.misses + 1
    assert store.cache_info().bytes <= store.max_bytes


@pytest.mark.slow
def test_a_small_store_evicts_and_keeps_the_answers(monkeypatch, cold_store):
    # with a bound far below the standard grid's working set the store
    # evicts throughout, its charged bytes never exceed the bound after any
    # read, and the grid's answers are the pinned ones
    budget = 4 << 20
    monkeypatch.setattr(cold_store, "max_bytes", budget)
    peak = []

    def bounded(*key):
        value = cold_store(*key)
        peak.append(cold_store.cache_info().bytes)
        assert peak[-1] <= budget
        return value

    monkeypatch.setattr(quotients, "_stored", bounded)
    rep = grid_verify(GridConfig(n_max=N_MAX))
    assert _pinned(rep)
    assert cold_store.cache_info().evictions > 1000
    assert max(peak) > budget // 2


@pytest.mark.slow
def test_the_default_store_holds_criteria_1_5_and_6(cold_store):
    # the standard grid with its side records, then criteria 5 and 6, in
    # one process, evict nothing at the default bound
    assert cold_store.max_bytes == quotients.MAX_STORE_BYTES
    rep = grid_verify(GridConfig(n_max=N_MAX))
    assert _pinned(rep)
    assert _criterion_05()[0]
    ok, _, pin = _criterion_06()
    assert ok and pin == CRITERION_06_SHA256
    info = cold_store.cache_info()
    assert info.evictions == 0 and info.bytes <= quotients.MAX_STORE_BYTES
    assert info.entries > 26000


def test_criterion_04_power_sum_egf_identity():
    checked = 0
    ok = True
    for d, chi, r in grid_combos():
        twist = TwistSpec(r, 1)
        for w in W_COMPONENTS:
            if w % r == 0:
                continue
            res = power_sum_egf_check(chi, twist, w, 12)
            checked += 1
            ok = ok and res.passed
    report(4, ok and checked > 0, f"{checked} (d,chi,r,w) checks to order 12")


def _criterion_05() -> tuple[bool, int]:
    """(every ordering's closed form agrees, closed forms evaluated)."""
    checked = 0
    ok = True
    y3 = (Fraction(1, 2), Fraction(2), Fraction(3, 5))
    for d, chi, r in grid_combos():
        twist = TwistSpec(r, 1)
        for qt in QUOTIENT_TYPES.values():
            y = y3[: max(1, qt.y_count)] if qt.y_count else ()
            for multiset in combinations_with_replacement(W_COMPONENTS, qt.arity):
                if any(mono_val(m, multiset) % r == 0 for m in qt.conditions()):
                    continue
                orderings = sorted(set(permutations(multiset)))
                series = [closed_form_series(qt, w, y, chi, twist, 12)
                          for w in orderings]
                checked += len(orderings)
                ok = ok and all(s == series[0] for s in series[1:])
    return ok, checked


@pytest.mark.slow
def test_criterion_05_closed_form_permutation_invariance():
    ok, checked = _criterion_05()
    report(5, ok and checked > 0, f"{checked} closed-form evaluations to order 12")


def _criterion_06() -> tuple[bool, int, str]:
    """(every sampled consistency check passes, instances checked, the
    sha256 of the JSON list of their reports)."""
    reports = []
    ok = True
    stride = {2: 5, 3: 11}
    counter = 0
    for d, chi, r in grid_combos():
        twist = TwistSpec(r, 1)
        for qt in QUOTIENT_TYPES.values():
            y = tuple(Fraction(i + 1, 2) for i in range(qt.y_count))
            for w in product(W_COMPONENTS, repeat=qt.arity):
                if any(mono_val(m, w) % r == 0 for m in qt.conditions()):
                    continue
                counter += 1
                if counter % stride[qt.arity]:
                    continue
                rep = consistency_check(qt, w, y, chi, twist, 8)
                reports.append(rep.to_json())
                ok = ok and rep.passed
    return ok, len(reports), hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


@pytest.mark.slow
def test_criterion_06_weighted_master_consistency():
    ok, instances, pin = _criterion_06()
    assert pin == CRITERION_06_SHA256
    report(6, ok and instances >= 200, f"{instances} sampled instances, every form, n <= 8")


def test_criterion_07_redundancy_equalities():
    instances = 0
    ok = True
    counter = 0
    for d, chi, r in grid_combos():
        twist = TwistSpec(r, 1)
        for w in combinations_with_replacement(W_COMPONENTS, 3):
            if any(mono_val(m, w) % r == 0
                   for m in ((1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))):
                continue
            counter += 1
            if counter % 7:
                continue
            rep = redundancy_check(w, chi, twist, 5)
            instances += 1
            ok = ok and rep.passed
    report(7, ok and instances >= 50, f"{instances} sampled redundancy instances")


def test_criterion_08_mutation_controls():
    targets = [
        TheoremInstance(4, 1, (), 5, 1, (2, 3, 1), 3),
        TheoremInstance(5, 4, (1,), 3, 1, (2, 2, 2), 3),
        TheoremInstance(11, 1, (), 3, 1, (2, 1, 1), 3),
    ]
    ok = True
    for kind in KINDS:
        broke_somewhere = False
        for inst in targets:
            clean = verify_instance(inst)
            assert clean.pass_as_stated, inst
            with mutation(kind):
                mutated = verify_instance(inst)
            if not mutated.pass_as_stated:
                broke_somewhere = True
        ok = ok and broke_somewhere
    report(8, ok, "binomial/twist/w-power perturbations all detected")


def test_criterion_09_padic_sandbox():
    ok = True
    # distribution compatibility, exact, levels N <= 3
    for p in (5, 7):
        for r in (3, 4):
            for d in (1, 4):
                if math.gcd(r, p * d) != 1:
                    continue
                ctx = PadicContext(p, 25, r)
                twist = TwistSpec(r, 1)
                for level in range(0, 4):
                    span = d * p ** level
                    step = max(1, span // 9)
                    for residue in range(0, span, step):
                        ok = ok and distribution_check(twist, d, level, residue, ctx)
    # f == 1 level-exactness at all levels
    for p in (5, 7):
        for r in (3, 4):
            ctx = PadicContext(p, 40, r)
            twist = TwistSpec(r, 1)
            target = (ctx.x_power(1) - ctx.one()).inverse()
            for level in range(0, 7):
                ok = ok and riemann_sum([1], None, twist, 1, level, ctx) == target
    # moments n in {1,2,3}: valuations nondecreasing, strictly larger at
    # level 4 than at level 1, levels 1..6
    moments = 0
    for p in (5, 7):
        for r in (3, 4):
            for d in (1, 4):
                if math.gcd(r, p * d) != 1:
                    continue
                ctx = PadicContext(p, 40, r)
                twist = TwistSpec(r, 1)
                for chi in enumerate_characters(d):
                    if r % chi.order:
                        continue
                    for n in (1, 2, 3):
                        rep = convergence_check(n, chi, twist, [1, 2, 3, 4, 5, 6], ctx)
                        vals = rep.valuations
                        good = rep.passed and vals == sorted(vals) and \
                            (all(rep.exact) or vals[3] > vals[0])
                        ok = ok and good
                        moments += 1
    report(9, ok and moments > 0, f"distribution + level-exactness + {moments} moment checks at M=40")


def test_criterion_10_structural_bernoulli_properties():
    ok = True
    checked = 0
    for d, chi, r in grid_combos():
        twist = TwistSpec(r, 1)
        for w_exp in range(1, r):
            numbers = gen_bernoulli_numbers(chi, twist, w_exp, 8)
            ok = ok and numbers[0].is_zero()
            for n in range(9):
                ok = ok and gen_bernoulli_poly(chi, twist, w_exp, n)(0) == numbers[n]
            checked += 1
    # binomial shift at sampled rationals
    samples = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(2), Fraction(-1, 2)),
               (Fraction(-3, 4), Fraction(5))]
    for d, chi, r in ((1, enumerate_characters(1)[0], 4), (5, enumerate_characters(5)[1], 3)):
        twist = TwistSpec(r, 1)
        for x, y in samples:
            for n in range(7):
                lhs = gen_bernoulli_poly(chi, twist, 1, n)(x + y)
                rhs = Cyc.zero(1)
                for k in range(n + 1):
                    rhs = rhs + gen_bernoulli_poly(chi, twist, 1, k)(x).scale(
                        math.comb(n, k) * y ** (n - k))
                ok = ok and lhs == rhs
    report(10, ok and checked > 0,
           f"B_0 = 0 and B_n(0) = B_n over {checked} twist sequences; shift identity sampled")
