"""The theorem catalog, redundancy equalities, and the verification engine.

Each theorem is one expansion form plus the list of w-permutations that
produce its displayed sides, in print order.  A side therefore evaluates
as the base form at the permuted w-tuple, which also permutes its
normalization weight monomial; sides sharing a weight monomial form an
orbit and are equal as stated, while cross-orbit equality holds only
after dividing each side by its weight ("normalized" mode).

Verification works on each side's generating function P(t) *
exp((C_1*y_1 + ..)*t), built once as the pair (P, C) (see
`quotients.side_series`).  Its t^n/n! coefficient is a y-polynomial whose
y^e entry is n! * P[n - |e|] * C^e/e!, so two sides agree for every
n <= n_max exactly when P[k] = P'[k] for every k <= n_max and either C = C'
or P vanishes below t^n_max (then no y-term survives).  Each distinct side
is one record, kept in the series store (`_side_records`): (P, C), its
weight and its normal form, P / weight in lowest terms (`TruncatedSeries.normal_form`),
so normalized mode compares two normal forms, and as-stated mode compares
P itself (`_records_equal`).  Values at a y-point, where they are needed
(witnesses, reported values, `theorem_sides`, and the pointwise method,
which evaluates every side on the standard grid of n+2 integer points per
variable and stays as an independent cross-check), are the t^n/n!
coefficients of each side's P(t) * exp((C.y)*t), summed from P's integer
rows (`quotients.point_value`); no y-polynomial is spread.  Each grid value
is computed once, when a scan first reads it (`_PointValues`), and the
pointwise method and the witness search read them through one scan
(`_first_mismatch`), which stops at the first mismatch.  A witness search
under the series rule starts at the first n that is not provably equal
(`_witness_start`); the pointwise method scans from n = 0.

Each mode compares side 1 with every other side, and the rest of the
verdicts follow from exact equality: when the as-stated star holds, only
the normalized pairs of unequal weights are compared, and the sides of an
orbit share their weight, so the orbit pairs are compared only when both
stars fail.  One engine (`_verify`) decides the verdicts of
`verify_instance` and `grid_verify` and returns them with the side
records; `verify_instance` builds the report and searches the witness of
the instance's mode, and `grid_verify`, which builds no report, searches
each mode's first witness.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from . import quotients
from .bernoulli import ParameterError, TwistSpec, field_conductor, require_series_order
from .dirichlet import DirichletCharacter, enumerate_characters
from .exactnum import CyclotomicNumber
from .quotients import (
    _E1,
    _E2,
    _E3,
    FORMS,
    ExpansionForm,
    Mono,
    SSlot,
    Side,
    _check_conditions,
    _require_units,
    _require_w_components,
    _stored_side,
    form_weight,
    mono_name,
    perm_apply,
    perm_monomial,
    point_value,
    side_series,
)

ID2 = ((1, 2), (2, 1))
LEX3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


@dataclass(frozen=True)
class TheoremSpec:
    id: int
    base_key: str
    form_no: int
    sigmas: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def base(self) -> ExpansionForm:
        return FORMS[self.base_key][self.form_no - 1]

    @property
    def sides(self) -> int:
        return len(self.sigmas)

    @property
    def y_count(self) -> int:
        return self.base.qt.y_count

    @property
    def arity(self) -> int:
        return self.base.qt.arity

    @functools.cached_property
    def side_weight_monos(self) -> tuple[Mono, ...]:
        base_mono = self.base.weight_mono()
        return tuple(perm_monomial(sig, base_mono) for sig in self.sigmas)

    @functools.cached_property
    def side_weight_names(self) -> tuple[str, ...]:
        return tuple(map(mono_name, self.side_weight_monos))

    @functools.cached_property
    def picks(self) -> tuple[Callable[[tuple], tuple], ...]:
        """Per side, w -> the side's permuted w-tuple (`perm_apply`), as an
        item getter over the sigma's 0-based indices (every sigma has at
        least two entries, so each returns a tuple)."""
        return tuple(itemgetter(*(s - 1 for s in sig)) for sig in self.sigmas)

    @functools.cached_property
    def star(self) -> tuple[tuple[int, int], ...]:
        """The 0-based side pairs (0, s): side 1 against every other side."""
        return tuple((0, s) for s in range(1, self.sides))

    @functools.cached_property
    def orbit_pairs(self) -> tuple[tuple[int, int], ...]:
        """The 0-based pairs of each orbit's first side with its others."""
        return tuple((orbit[0] - 1, i - 1) for orbit in self.orbits() for i in orbit[1:])

    def orbits(self) -> list[list[int]]:
        """1-based side indices grouped by weight monomial, in print order."""
        return self._orbits

    @functools.cached_property
    def _orbits(self) -> list[list[int]]:
        return _group(self.side_weight_monos)


def _group(keys: Sequence) -> list[list[int]]:
    """1-based positions grouped by equal key, in order of first appearance."""
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys, start=1):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


THEOREMS: dict[int, TheoremSpec] = {thm.id: thm for thm in (
    TheoremSpec(1, "G0", 1, ID2),
    TheoremSpec(2, "G1", 1, ID2),
    TheoremSpec(3, "G1", 2, ID2),
    TheoremSpec(4, "L23:0", 1, LEX3),
    TheoremSpec(5, "L23:1", 1, ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2))),
    TheoremSpec(6, "L23:1", 2, ((3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3))),
    TheoremSpec(7, "L23:2", 1, ((1, 2, 3), (2, 3, 1), (3, 1, 2))),
    TheoremSpec(8, "L23:2", 2, ((2, 1, 3), (3, 1, 2), (1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1))),
    TheoremSpec(9, "L23:2", 3, ((3, 1, 2), (1, 2, 3), (2, 3, 1))),
    TheoremSpec(10, "L12:0", 1, ((3, 1, 2), (2, 1, 3))),
    TheoremSpec(11, "L12:1", 1, ((3, 1, 2), (2, 1, 3))),
)}


# ---------------------------------------------------------------------------
# instances and reports


@dataclass(frozen=True)
class TheoremInstance:
    theorem: int
    d: int
    char: tuple[int, ...]
    r: int
    j: int
    w: tuple[int, ...]
    n_max: int
    mode: str = "as-stated"

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ParameterError(f"theorem id {self.theorem} out of range 1..11")
        if self.mode not in ("as-stated", "normalized"):
            raise ParameterError(f"mode must be as-stated or normalized, got {self.mode!r}")

    def theorem_spec(self) -> TheoremSpec:
        return THEOREMS[self.theorem]

    def character(self) -> DirichletCharacter:
        return DirichletCharacter(self.d, self.char)

    def twist(self) -> TwistSpec:
        return TwistSpec(self.r, self.j)

    def validate(self) -> None:
        twist = self.twist()
        twist.require_coprime(self.d)
        require_series_order(self.n_max, "n_max")
        _check_conditions(self.theorem_spec().base.qt, twist, self.w)

    def key(self) -> tuple:
        return (self.theorem, self.d, self.char, self.r, self.j, self.w)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "d": self.d,
            "char": {"d": self.d, "exponents": list(self.char)},
            "r": self.r,
            "j": self.j,
            "w": list(self.w),
            "n_max": self.n_max,
            "mode": self.mode,
        }


@dataclass
class Witness:
    mode: str
    n: int
    y: tuple[int, ...]
    side_a: int
    side_b: int
    value_a: CyclotomicNumber
    value_b: CyclotomicNumber

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "y": [str(v) for v in self.y],
            "side_a": self.side_a,
            "side_b": self.side_b,
            "value_a": self.value_a.to_json(),
            "value_b": self.value_b.to_json(),
        }


@dataclass
class VerificationReport:
    instance: TheoremInstance
    side_weights: list[tuple[str, int]]
    orbits_static: list[list[int]]
    orbits_by_value: list[list[int]]
    pass_as_stated: bool
    pass_normalized: bool
    pass_orbits: bool
    witness: Optional[Witness] = None
    values: Optional[list] = None   # [side][n][grid point] serialized values

    @property
    def passed(self) -> bool:
        return self.pass_normalized if self.instance.mode == "normalized" else self.pass_as_stated

    def to_json(self) -> dict:
        out = {
            "instance": self.instance.to_json(),
            "mode": self.instance.mode,
            "sides": [
                {"label": f"side-{i}", "weight": name, "weight_value": val}
                for i, (name, val) in enumerate(self.side_weights, start=1)
            ],
            "orbits": self.orbits_static,
            "orbits_by_weight_value": self.orbits_by_value,
            "pass": self.passed,
            "pass_as_stated": self.pass_as_stated,
            "pass_normalized": self.pass_normalized,
            "pass_within_orbits": self.pass_orbits,
            "witness": self.witness.to_json() if self.witness else None,
        }
        if self.values is not None:
            for side, vals in zip(out["sides"], self.values):
                side["values"] = vals
        return out


def y_grid_points(n: int, y_count: int) -> list[tuple[int, ...]]:
    """The deterministic verification grid: n+2 integer points 0,1,..,n+1
    per variable."""
    return list(product(range(n + 2), repeat=y_count))


class _SideRecord(NamedTuple):
    """One displayed side as the verdicts read it: its (P, C) pair (see
    `side_series`), its weight at its own w (`form_weight`) and P / weight
    in lowest terms (`TruncatedSeries.normal_form`).  Two sides are equal
    after their weights exactly when their normal forms are, and C agrees
    or P vanishes below t^n_max."""

    side: Side
    weight: int
    normal: tuple[int, tuple[int, ...]]

    def store_charge(self, held: list) -> int:
        """An upper bound of the bytes the record keeps alive beyond its P,
        for the series store, which charges P once however many entries
        hold it and is given it in `held`: C, its weight, its normal form's
        slot in the table that shares it (`quotients._shared_normal`), and
        the normal form, at most P's bound (`TruncatedSeries.held_bytes`):
        one tuple of P's coordinates, each divided by one gcd, over P's
        denominator times the weight."""
        p, ys = self.side
        held.append(p)
        return (p.held_bytes() + sys.getsizeof(self) + sys.getsizeof(self.side) + sys.getsizeof(ys)
                + sum(map(sys.getsizeof, ys)) + sys.getsizeof(self.weight) + quotients._SLOT_BYTES)


def _side_record(chi: DirichletCharacter, twist: TwistSpec, form: ExpansionForm, w: tuple[int, ...],
                 n_max: int) -> _SideRecord:
    """The record of the form's side at a w-tuple whose conditions hold, to
    order n_max: its side with P read from the store (`quotients._stored_side`),
    its weight, and its normal form, held once among equal ones
    (`quotients._shared_normal`)."""
    side = _stored_side(form, w, chi, twist, n_max)
    weight = form_weight(form, w)
    return _SideRecord(side, weight, quotients._shared_normal(side[0].normal_form(weight)))


def _side_records(thm: TheoremSpec, w: tuple[int, ...], chi: DirichletCharacter, twist: TwistSpec,
                  n_max: int) -> list[_SideRecord]:
    """Per side, in print order, its record to order n_max, for a w-tuple
    whose conditions hold: they are symmetric in w, so every permuted side
    meets them and is built without checking them again
    (`quotients._stored_side`).

    A side is the base form at a permuted w-tuple (`TheoremSpec.picks`),
    and over a grid of w-tuples each permuted side is another instance's
    first side.  Records are therefore read from the process-wide store
    (`quotients._stored`), under chi, the twist, the form itself, the
    permuted w and n_max, so each distinct side is built, and its weight and
    normal form worked out, once per process while it stays there, by
    whichever audit, grid or instance first needs it.  The form object is
    part of the key, not only its id, so a form that differs from a
    catalogued one never reads that one's record.  Its weight
    mono_val(base weight, permuted w) is the side's weight monomial at w,
    as mono_val(perm_monomial(sigma, m), w) == mono_val(m, perm_apply(sigma, w)).
    A record's product P is read from the store too, keyed by its factor
    chain's keys in chain order and n_max, so each ordered chain is
    multiplied once per process.  The forms of one quotient type that fold
    power sums into the Bernoulli argument have the same chains, so
    theorems 3, 6, 8 and 9 multiply nothing that theorems 2, 5 and 7 have
    multiplied.  Every ordered chain is still multiplied on its own; equal
    stored products are merged into one object only after an exact
    comparison (`quotients._shared`), so no verdict rests on commutativity.
    """
    stored, form = quotients._stored, thm.base
    return [stored(_side_record, chi, twist, form, pick(w), n_max) for pick in thm.picks]


class _PointValues:
    """The sides' values on the verification grid: `value(s, n, p)` is side
    s's t^n/n! coefficient at the p-th point of `y_grid_points(n, y_count)`
    (`point_value`), computed once on first use, so a scan reads only the
    values it compares."""

    def __init__(self, records: Sequence[_SideRecord], y_count: int):
        self.sides = [record.side for record in records]
        self.y_count = y_count
        self._points: dict[int, list[tuple[int, ...]]] = {}
        self._values: dict[tuple[int, int, int], CyclotomicNumber] = {}

    def points(self, n: int) -> list[tuple[int, ...]]:
        pts = self._points.get(n)
        if pts is None:
            pts = self._points[n] = y_grid_points(n, self.y_count)
        return pts

    def value(self, s: int, n: int, p: int) -> CyclotomicNumber:
        key = (s, n, p)
        v = self._values.get(key)
        if v is None:
            v = self._values[key] = point_value(self.sides[s], self.points(n)[p], n)
        return v


def _first_mismatch(values: _PointValues, pairs: Sequence[tuple[int, int]], weights: Optional[Sequence[int]],
                    n_max: int, start: int = 0) -> Optional[tuple[int, int, int, int]]:
    """The first (n, grid-point index, i, j), n first from `start`, then the
    point, then the pair in `pairs` order, where sides i and j differ in
    `values`; with `weights`, where v_i * w_j != v_j * w_i."""
    value = values.value
    for n in range(start, n_max + 1):
        for p in range(len(values.points(n))):
            for i, j in pairs:
                va, vb = value(i, n, p), value(j, n, p)
                if weights:
                    va, vb = va.scale(weights[j]), vb.scale(weights[i])
                if va != vb:
                    return n, p, i, j
    return None


def _witness_start(records: Sequence[_SideRecord], normalized: bool, n_max: int) -> int:
    """The first n at which some pair of sides is not provably equal.

    Level n is provably equal for a pair when P's rows 0..n agree after the
    weights (in `normalized` mode) and either C agrees or those rows
    vanish: every value at level n reads only rows 0..n and C, so no grid
    point below the returned n can hold the first mismatch.  Rows are read
    from the normal forms, P / weight in lowest terms (or P itself, as
    stated) and compared cross-multiplied by the other side's
    denominator."""
    forms = [record.normal if normalized else record.side[0].normal_form() for record in records]
    phi = len(forms[0][1]) // (n_max + 1)
    start = n_max + 1
    for i, j in combinations(range(len(records)), 2):
        (da, fa), (db, fb) = forms[i], forms[j]
        same_rate = records[i].side[1] == records[j].side[1]
        n = 0
        while n < start:
            row_a, row_b = fa[n * phi:(n + 1) * phi], fb[n * phi:(n + 1) * phi]
            if [x * db for x in row_a] != [x * da for x in row_b] or not same_rate and any(row_a):
                break
            n += 1
        start = n
    return start


def _first_witness(values: _PointValues, weights: Sequence[int], mode: str, n_max: int,
                   start: int = 0) -> Optional[Witness]:
    """The first (n, grid point, side pair) where the sides fail `mode`, read
    from their grid `values` from level `start` on (`_witness_start`)."""
    hit = _first_mismatch(values, list(combinations(range(len(weights)), 2)),
                          weights if mode == "normalized" else None, n_max, start)
    if hit is None:
        return None
    n, p, i, j = hit
    return Witness(mode, n, values.points(n)[p], i + 1, j + 1, values.value(i, n, p), values.value(j, n, p))


def theorem_sides(inst: TheoremInstance, n: int | None = None,
                  y: Sequence | None = None) -> list[tuple[str, int, CyclotomicNumber]]:
    """Evaluate every displayed side exactly at one (n, y-point):
    returns (label, weight, value) per side in print order."""
    inst.validate()
    n = inst.n_max if n is None else n
    if not 0 <= n <= inst.n_max:
        raise ParameterError(f"n={n} outside 0..{inst.n_max}")
    y = tuple(Fraction(v) for v in y or ())
    return [(f"side-{i}", record.weight, point_value(record.side, y, n))
            for i, record in enumerate(_side_records(inst.theorem_spec(), inst.w, inst.character(), inst.twist(),
                                                     inst.n_max), start=1)]


def _sides_equal(a: Side, b: Side, n_max: int, wa: int = 1, wb: int = 1) -> bool:
    """a / wa == b / wb at every t^n/n! coefficient, n <= n_max, as
    y-polynomials: P[k]/wa == P'[k]/wb for every k <= n_max (cross-multiplied
    in integers), and C == C' unless P vanishes below t^n_max."""
    (p, ys), (q, zs) = a, b
    return p.scaled_equal(q, wa, wb) and (ys == zs or p.vanishes_below(n_max))


def _records_equal(a: _SideRecord, b: _SideRecord, normalized: bool, n_max: int) -> bool:
    """`_sides_equal` on two records, after their weights when `normalized`:
    P's normal forms compared, or P itself.  Equal normal forms, and equal
    stored products, are mostly one object (`quotients._shared_normal`,
    `quotients._shared`), so most equal pairs are settled by identity."""
    (p, ys), (q, zs) = a.side, b.side
    if not (a.normal is b.normal or a.normal == b.normal if normalized else p is q or p.scaled_equal(q)):
        return False
    return ys == zs or p.vanishes_below(n_max)


def verify_instance(inst: TheoremInstance, method: str = "poly",
                    include_values: bool = False) -> VerificationReport:
    """Check all side equalities of one theorem instance, in both modes.

    method 'poly' compares the sides' records (equivalent to comparing
    their y-polynomials, see the module docstring); method 'points'
    evaluates every side at every grid point directly.  A failing
    instance's witness is the first grid point where its mode fails: under
    'poly' the scan starts at the first level not provably equal
    (`_witness_start`), under 'points' at n = 0.
    """
    inst.validate()
    if method not in ("poly", "points"):
        raise ParameterError(f"unknown verification method {method!r}")
    thm = inst.theorem_spec()
    verdicts, records, values = _verify(thm, inst.w, inst.character(), inst.twist(), inst.n_max, method)
    weights = [record.weight for record in records]
    report = VerificationReport(inst, list(zip(thm.side_weight_names, weights)), thm.orbits(), _group(weights),
                                *verdicts)
    if values is None and (include_values or not report.passed):
        values = _PointValues(records, thm.y_count)
    if not report.passed:
        start = 0 if method == "points" else _witness_start(records, inst.mode == "normalized", inst.n_max)
        report.witness = _first_witness(values, weights, inst.mode, inst.n_max, start)
    if include_values:
        report.values = [[[values.value(s, n, p).to_json() for p in range(len(values.points(n)))]
                          for n in range(inst.n_max + 1)]
                         for s in range(len(records))]
    return report


def _verify(thm: TheoremSpec, w: tuple[int, ...], chi: DirichletCharacter, twist: TwistSpec, n_max: int,
            method: str = "poly") -> tuple[tuple[bool, bool, bool], list[_SideRecord], Optional[_PointValues]]:
    """The verdicts (as stated, normalized, within orbits) of a w-tuple whose
    conditions hold, with its side records and, under 'points', the grid
    values the verdicts read: the one verdict function of `verify_instance`
    and `grid_verify`, whose callers search the witnesses they report.

    Under 'poly' each pair is decided by its records (`_records_equal`);
    under 'points' by every grid point's value (`_first_mismatch`).  Every
    verdict is a star from side 1, and exact equality is transitive: a
    normalized pair of equal weights is an as-stated pair, so it is
    compared only where the as-stated star has not settled it, and an
    orbit's sides share their weight, so either star passing settles them.
    """
    records = _side_records(thm, w, chi, twist, n_max)
    values = None
    if method == "points":
        values = _PointValues(records, thm.y_count)
        weights = [record.weight for record in records]

        def holds(pairs, normalized):
            return _first_mismatch(values, pairs, weights if normalized else None, n_max) is None
    else:
        def holds(pairs, normalized):
            return all(_records_equal(records[i], records[j], normalized, n_max) for i, j in pairs)
    star = thm.star
    pass_as_stated = holds(star, False)
    pass_normalized = holds([(i, j) for i, j in star if records[i].weight != records[j].weight]
                            if pass_as_stated else star, True)
    pass_orbits = pass_as_stated or pass_normalized or holds(thm.orbit_pairs, False)
    return (pass_as_stated, pass_normalized, pass_orbits), records, values


# ---------------------------------------------------------------------------
# redundancy equalities


def _rot(slots, k):
    return tuple(slots[k:] + slots[:k])


_THM7_BASE = FORMS["L23:2"][0]
_THM11_BASE = FORMS["L12:1"][0]

# the duplicate displays: the Thm-7 base with its two power-sum slots
# interchanged, and slot rotations of the Thm-11 base
_DUP_BS = ExpansionForm(_THM7_BASE.qt, 91,
                        (_THM7_BASE.slots[0], _THM7_BASE.slots[2], _THM7_BASE.slots[1]))
_DUP_SSS_A = ExpansionForm(_THM11_BASE.qt, 92, _rot(_THM11_BASE.slots, 1))
_DUP_SSS_B = ExpansionForm(_THM11_BASE.qt, 93,
                           (SSlot(upper=_E3, twist=_E1), SSlot(upper=_E2, twist=_E3),
                            SSlot(upper=_E1, twist=_E2)))
_DUP_SSS_C = ExpansionForm(_THM11_BASE.qt, 94, _rot(_DUP_SSS_B.slots, 1))


@dataclass
class RedundancyReport:
    w: tuple[int, ...]
    n_max: int
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self) -> dict:
        return {"w": list(self.w), "n_max": self.n_max,
                "checks": [{"pair": name, "equal": ok} for name, ok in self.checks],
                "pass": self.passed}


def redundancy_check(w: Sequence[int], chi: DirichletCharacter, twist: TwistSpec,
                     n_max: int) -> RedundancyReport:
    """The duplicate-display equalities: each extra expression equals the
    corresponding theorem side exactly (index relabelings of the same sum),
    compared as side pairs (P, C) like the theorem sides (`_sides_equal`)."""
    w = tuple(w)
    twist.require_coprime(chi.d)
    for form in (_THM7_BASE, _THM11_BASE):
        _check_conditions(form.qt, twist, w)
    report = RedundancyReport(w, n_max)

    def side(form, wp):
        return side_series(form, wp, chi, twist, n_max)

    # three-variable B*S*S displays against the Thm-7 sides
    thm7_sigmas = THEOREMS[7].sigmas
    for idx, sig in enumerate(thm7_sigmas):
        wp = perm_apply(sig, w)
        equal = _sides_equal(side(_DUP_BS, wp), side(_THM7_BASE, wp), n_max)
        report.checks.append((f"dup-{idx + 37}=side-{idx + 1}", equal))

    # pure power-sum displays against the two Thm-11 sides
    side1 = side(_THM11_BASE, perm_apply(THEOREMS[11].sigmas[0], w))
    side2 = side(_THM11_BASE, perm_apply(THEOREMS[11].sigmas[1], w))
    for name, form, target in (
        ("dup-40=first", _THM11_BASE, side1),
        ("dup-41=first", _DUP_SSS_A, side1),
        ("dup-42=second", _DUP_SSS_B, side2),
        ("dup-43=second", _DUP_SSS_C, side2),
    ):
        report.checks.append((name, _sides_equal(side(form, w), target, n_max)))
    return report


# ---------------------------------------------------------------------------
# grid verification


@dataclass(frozen=True)
class GridConfig:
    theorems: tuple[int, ...] = tuple(range(1, 12))
    d_values: tuple[int, ...] = (1, 3, 4, 5)
    char_filter: str = "all"            # all | primitive-only | explicit
    char_labels: tuple[tuple[int, tuple[int, ...]], ...] = ()
    r_values: tuple[int, ...] = (3, 4, 5, 7)
    j_values: tuple[int, ...] = (1,)
    w_components: tuple[int, ...] = (1, 2, 3, 4)
    n_max: int = 6
    modes: tuple[str, ...] = ("as-stated", "normalized")

    def __post_init__(self):
        if not (self.theorems and self.d_values and self.r_values and self.j_values
                and self.w_components and self.modes):
            raise ParameterError("grid configuration lists must be nonempty")
        for t in self.theorems:
            if t not in THEOREMS:
                raise ParameterError(f"theorem id {t} out of range 1..11")
        for mode in self.modes:
            if mode not in ("as-stated", "normalized"):
                raise ParameterError(f"unknown mode {mode!r}")
        # count a repeated mode or label once, as _grid_cells dedups the rest
        object.__setattr__(self, "modes", tuple(dict.fromkeys(self.modes)))
        object.__setattr__(self, "char_labels", tuple(dict.fromkeys(self.char_labels)))
        # values that leave nothing to verify are the user's error, not skips
        require_series_order(self.n_max, "n_max")
        _require_w_components(self.w_components)
        twists = [TwistSpec(r) for r in sorted(set(self.r_values))]   # r >= 2, under the ceiling
        if self.char_filter not in ("all", "primitive-only", "explicit"):
            raise ParameterError(f"unknown character filter {self.char_filter!r}; "
                                 "expected all, primitive-only or explicit")
        for j in self.j_values:
            if not any(0 < j < r and math.gcd(j, r) == 1 for r in self.r_values):
                raise ParameterError(f"j={j} does not give a primitive r-th root for any r in "
                                     f"{sorted(set(self.r_values))}")
        if self.char_filter == "explicit":
            if not self.char_labels:
                raise ParameterError("explicit characters need char_labels")
            for dd, _ in self.char_labels:
                if dd not in self.d_values:
                    raise ParameterError(f"char_labels modulus {dd} is not in d {sorted(set(self.d_values))}")
        # d and the field of every (chi, twist) that gets verified are refused
        # over their ceilings here, before any work, not skipped per instance
        for d in sorted(set(self.d_values)):
            for chi in self.characters(d):
                for twist in twists:
                    if math.gcd(twist.r, d) == 1:
                        field_conductor(chi, twist)

    def characters(self, d: int) -> list[DirichletCharacter]:
        if self.char_filter == "explicit":
            return [DirichletCharacter(dd, lab) for dd, lab in self.char_labels if dd == d]
        chars = enumerate_characters(d)
        if self.char_filter == "primitive-only":
            chars = [c for c in chars if c.is_primitive]
        return chars


@dataclass
class GridRow:
    instance_key: tuple
    skipped: bool = False
    skip_reason: str = ""
    pass_as_stated: bool | None = None
    pass_normalized: bool | None = None
    pass_orbits: bool | None = None


@dataclass
class GridReport:
    config: GridConfig
    rows: list[GridRow]
    counts: dict[tuple[int, str], dict[str, int]]
    first_witness: dict[tuple[int, str], Witness]

    def failures(self, theorem: int, mode: str) -> int:
        return self.counts[(theorem, mode)]["fail"]

    def to_json(self) -> dict:
        return {
            "summary": [
                {
                    "theorem": t,
                    "mode": mode,
                    **counts,
                    "first_witness": (self.first_witness[(t, mode)].to_json()
                                      if (t, mode) in self.first_witness else None),
                }
                for (t, mode), counts in sorted(self.counts.items(), key=lambda kv: (kv[0][0], kv[0][1]))
            ],
            "instances": len(self.rows),
        }


def _grid_cells(config: GridConfig) -> list[tuple]:
    """Every (theorem, d, chi, r, j) cell of the grid with its w-tuples, in
    instance-key order: cells sorted by (theorem, d, chi's exponents, r, j),
    each with every w-tuple of its theorem's arity in sorted order."""
    components = sorted(set(config.w_components))
    cells = []
    for theorem in sorted(set(config.theorems)):
        ws = list(product(components, repeat=THEOREMS[theorem].arity))
        for d in sorted(set(config.d_values)):
            for chi in sorted(config.characters(d), key=lambda c: c.exponents):
                for r in sorted(set(config.r_values)):
                    for j in sorted(set(config.j_values)):
                        cells.append((theorem, d, chi, r, j, ws))
    return cells


def grid_verify(config: GridConfig) -> GridReport:
    """Run the whole grid; precondition-violating points are skipped, never
    counted as evidence.  Rows are assembled in instance-key order.

    The grid works cell by cell, a cell being one (theorem, d, chi, r, j)
    with its w-tuples (`_grid_cells`).  What depends on the cell alone is
    checked once per cell: the twist and gcd(r, d) = 1 skip all its
    instances with one message, and only the type's conditions at w
    (`quotients._require_units`) are checked per instance; the rest of an
    instance's preconditions hold for the whole grid (`GridConfig`).  A
    skip's message is built only for an instance that is skipped.  Each
    instance is decided by `_verify` on its side records, with no report
    built: the first failing instance of a theorem and mode builds its grid
    values and searches its witness from the first level that is not
    provably equal (`_witness_start`).

    Each cell reads its side records from the process-wide store (see
    `_side_records`), which holds every distinct permuted side once, with
    its weight and normal form, as do the products below the sides, shared
    by the theorems of one quotient type (2 and 3, 5 and 6, 7 to 9), and
    the Bernoulli EGFs, character sums and slot series below them.  So a
    second grid over the same cells, in the same process, builds, multiplies
    and normalizes none of them.
    """
    rows: list[GridRow] = []
    counts: dict[tuple[int, str], dict[str, int]] = {
        (t, mode): {"pass": 0, "fail": 0, "skipped": 0}
        for t in sorted(set(config.theorems)) for mode in config.modes
    }
    first_witness: dict[tuple[int, str], Witness] = {}
    n_max = config.n_max

    for theorem, d, chi, r, j, ws in _grid_cells(config):
        thm = THEOREMS[theorem]
        qt = thm.base.qt
        tallies = [((theorem, mode), counts[(theorem, mode)], mode == "normalized") for mode in config.modes]
        cell = (theorem, d, chi.exponents, r, j)
        try:
            twist = TwistSpec(r, j)
            twist.require_coprime(d)
        except ParameterError as exc:
            reason = str(exc)
            rows += [GridRow(cell + (w,), True, reason) for w in ws]
            for _, tally, _ in tallies:
                tally["skipped"] += len(ws)
            continue
        for w in ws:
            try:
                _require_units(qt, twist, w)
            except ParameterError as exc:
                rows.append(GridRow(cell + (w,), True, str(exc)))
                for _, tally, _ in tallies:
                    tally["skipped"] += 1
                continue
            (as_stated, normalized, orbits), records, _ = _verify(thm, w, chi, twist, n_max)
            rows.append(GridRow(cell + (w,), False, "", as_stated, normalized, orbits))
            values = None
            for key, tally, in_normalized in tallies:
                if normalized if in_normalized else as_stated:
                    tally["pass"] += 1
                    continue
                tally["fail"] += 1
                if key not in first_witness:
                    values = values or _PointValues(records, thm.y_count)
                    witness = _first_witness(values, [record.weight for record in records], key[1], n_max,
                                             _witness_start(records, in_normalized, n_max))
                    if witness:
                        first_witness[key] = witness
    return GridReport(config, rows, counts, first_witness)
