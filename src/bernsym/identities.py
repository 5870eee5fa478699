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
or P vanishes below t^n_max (then no y-term survives).  Normalized mode
compares P[k]/w against P'[k]/w' by cross-multiplying integers.  Values at
a y-point, where they are needed (witnesses, reported values,
`theorem_sides`, and the pointwise method, which evaluates every side on
the standard grid of n+2 integer points per variable and stays as an
independent cross-check), are the t^n/n! coefficients of each side's
P(t) * exp((C.y)*t), summed from P's integer rows (`quotients.point_value`);
no y-polynomial is spread.  Each grid value is computed once, when a scan
first reads it (`_PointValues`), and the pointwise method and the witness
search read them through one scan (`_first_mismatch`), which stops at the
first mismatch.

Each mode compares side 1 with every other side, and the rest of the
verdicts follow from exact equality: when the as-stated star holds, only
the normalized pairs of unequal weights are compared, and the sides of an
orbit share their weight, so the orbit pairs are compared only when both
stars fail.  The engine (`_verify`) decides and returns its verdicts with
the instance's grid values; its two callers search the witnesses they
report on those values: `verify_instance` for the instance's mode, and
`grid_verify` for each mode's first failure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .bernoulli import ParameterError, TwistSpec, field_conductor, require_series_order
from .dirichlet import DirichletCharacter, enumerate_characters
from .exactnum import CyclotomicNumber
from .quotients import (
    _E1,
    _E2,
    _E3,
    FORMS,
    EvalContext,
    ExpansionForm,
    Mono,
    Mutation,
    SSlot,
    Side,
    _build_side,
    _check_conditions,
    mono_name,
    mono_val,
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


def _side_series(inst: TheoremInstance, ctx: EvalContext,
                 mutation: Optional[Mutation] = None) -> list[Side]:
    """Per side, its (P, C) pair to order n_max (see `side_series`), for
    an instance already validated: its conditions are symmetric in w, so
    every permuted side meets them and is built without checking them
    again (`quotients._build_side`).

    A side is the base form at a permuted w-tuple, and over a grid of
    w-tuples each permuted side is another instance's first side.  Sides
    are therefore memoised in ``ctx.side_memo`` under (form_id, permuted w,
    n_max), so every instance sharing the context evaluates each distinct
    key once; the memo lives as long as the context.  A side missing there
    reads its product P from the process-wide store
    (`EvalContext.side_product`), keyed by chi, the twist, its factor
    chain's keys in chain order and n_max, so each ordered chain is multiplied
    once per process, whichever audit, grid or context first needs it.
    The forms of one quotient type that fold power sums into the Bernoulli
    argument have the same chains, so theorems 3, 6, 8 and 9 multiply
    nothing that theorems 2, 5 and 7 have multiplied.  Every ordered chain
    is still multiplied on its own; equal stored products are merged into
    one object only after an exact comparison (`quotients._shared`), so no
    verdict rests on commutativity.
    A mutated side neither reads nor fills the memo or the store, and a
    mutated slot series never enters the store.
    """
    thm = inst.theorem_spec()
    sides = []
    for idx, sig in enumerate(thm.sigmas):
        w = perm_apply(sig, inst.w)
        if idx == 0 and mutation is not None:
            sides.append(_build_side(thm.base, w, ctx, inst.n_max, mutation))
            continue
        key = (thm.base.form_id, w, inst.n_max)
        side = ctx.side_memo.get(key)
        if side is None:
            side = ctx.side_memo[key] = _build_side(thm.base, w, ctx, inst.n_max, products=ctx.side_product)
        sides.append(side)
    return sides


class _PointValues:
    """The sides' values on the verification grid: `value(s, n, p)` is side
    s's t^n/n! coefficient at the p-th point of `y_grid_points(n, y_count)`
    (`point_value`), computed once on first use, so a scan reads only the
    values it compares."""

    def __init__(self, sides: list[Side], y_count: int):
        self.sides = sides
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
                    n_max: int) -> Optional[tuple[int, int, int, int]]:
    """The first (n, grid-point index, i, j), n first, then the point, then
    the pair in `pairs` order, where sides i and j differ in `values`; with
    `weights`, where v_i * w_j != v_j * w_i."""
    value = values.value
    for n in range(n_max + 1):
        for p in range(len(values.points(n))):
            for i, j in pairs:
                va, vb = value(i, n, p), value(j, n, p)
                if weights:
                    va, vb = va.scale(weights[j]), vb.scale(weights[i])
                if va != vb:
                    return n, p, i, j
    return None


def _first_witness(report: VerificationReport, values: _PointValues, mode: str) -> Optional[Witness]:
    """The first (n, grid point, side pair) where the reported instance's
    sides fail `mode`, read from their grid `values`."""
    weights = [v for _, v in report.side_weights]
    hit = _first_mismatch(values, list(combinations(range(len(weights)), 2)),
                          weights if mode == "normalized" else None, report.instance.n_max)
    if hit is None:
        return None
    n, p, i, j = hit
    return Witness(mode, n, values.points(n)[p], i + 1, j + 1, values.value(i, n, p), values.value(j, n, p))


def theorem_sides(inst: TheoremInstance, n: int | None = None,
                  y: Sequence | None = None,
                  ctx: Optional[EvalContext] = None) -> list[tuple[str, int, CyclotomicNumber]]:
    """Evaluate every displayed side exactly at one (n, y-point):
    returns (label, weight, value) per side in print order."""
    inst.validate()
    thm = inst.theorem_spec()
    ctx = ctx or EvalContext(inst.character(), inst.twist())
    n = inst.n_max if n is None else n
    if not 0 <= n <= inst.n_max:
        raise ParameterError(f"n={n} outside 0..{inst.n_max}")
    sides = _side_series(inst, ctx)
    y = tuple(Fraction(v) for v in y or ())
    return [(f"side-{i}", mono_val(mono, inst.w), point_value(side, y, n))
            for i, (mono, side) in enumerate(zip(thm.side_weight_monos, sides), start=1)]


def _sides_equal(a: Side, b: Side, n_max: int, wa: int = 1, wb: int = 1) -> bool:
    """a / wa == b / wb at every t^n/n! coefficient, n <= n_max, as
    y-polynomials: P[k]/wa == P'[k]/wb for every k <= n_max (cross-multiplied
    in integers), and C == C' unless P vanishes below t^n_max."""
    (p, ys), (q, zs) = a, b
    return p.scaled_equal(q, wa, wb) and (ys == zs or p.vanishes_below(n_max))


def verify_instance(inst: TheoremInstance, method: str = "poly",
                    include_values: bool = False,
                    ctx: Optional[EvalContext] = None,
                    mutation: Optional[Mutation] = None) -> VerificationReport:
    """Check all side equalities of one theorem instance, in both modes.

    method 'poly' compares the sides' (P, C) pairs (equivalent to comparing
    their y-polynomials, see the module docstring); method 'points'
    evaluates every side at every grid point directly.  A failing
    instance's witness is the first grid point where its mode fails.
    """
    inst.validate()
    if method not in ("poly", "points"):
        raise ParameterError(f"unknown verification method {method!r}")
    report, values = _verify(inst, method, ctx or EvalContext(inst.character(), inst.twist()), mutation)
    if not report.passed:
        report.witness = _first_witness(report, values, inst.mode)
    if include_values:
        report.values = [[[values.value(s, n, p).to_json() for p in range(len(values.points(n)))]
                          for n in range(inst.n_max + 1)]
                         for s in range(len(values.sides))]
    return report


def _verify(inst: TheoremInstance, method: str, ctx: EvalContext,
            mutation: Optional[Mutation] = None) -> tuple[VerificationReport, _PointValues]:
    """The verdicts of an instance already validated, with no witness, and
    its sides' grid values, filled as far as the verdicts read them: the
    callers search the witnesses they report on that one table."""
    thm = inst.theorem_spec()
    weights = [mono_val(m, inst.w) for m in thm.side_weight_monos]
    sides = _side_series(inst, ctx, mutation)
    values = _PointValues(sides, thm.y_count)
    orbits_static = thm.orbits()

    if method == "points":
        def holds(pairs, normalized):
            return _first_mismatch(values, pairs, weights if normalized else None, inst.n_max) is None
    else:
        def holds(pairs, normalized):
            return all(_sides_equal(sides[i], sides[j], inst.n_max,
                                    *((weights[i], weights[j]) if normalized else (1, 1)))
                       for i, j in pairs)
    # every verdict is a star from side 1, and exact equality is transitive:
    # a normalized pair of equal weights is an as-stated pair, so it is
    # compared only where the as-stated star has not settled it, and an
    # orbit's sides share their weight, so either star passing settles them
    star = [(0, s) for s in range(1, thm.sides)]
    pass_as_stated = holds(star, False)
    pass_normalized = holds([(i, j) for i, j in star if weights[i] != weights[j]]
                            if pass_as_stated else star, True)
    report = VerificationReport(
        instance=inst,
        side_weights=list(zip(thm.side_weight_names, weights)),
        orbits_static=orbits_static,
        orbits_by_value=_group(weights),
        pass_as_stated=pass_as_stated,
        pass_normalized=pass_normalized,
        pass_orbits=(pass_as_stated or pass_normalized
                     or holds([(orbit[0] - 1, i - 1) for orbit in orbits_static for i in orbit[1:]], False)),
    )
    return report, values


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
                     n_max: int, ctx: Optional[EvalContext] = None) -> RedundancyReport:
    """The duplicate-display equalities: each extra expression equals the
    corresponding theorem side exactly (index relabelings of the same sum),
    compared as side pairs (P, C) like the theorem sides (`_sides_equal`)."""
    w = tuple(w)
    twist.require_coprime(chi.d)
    for form in (_THM7_BASE, _THM11_BASE):
        _check_conditions(form.qt, twist, w)
    ctx = ctx or EvalContext(chi, twist)
    report = RedundancyReport(w, n_max)

    def side(form, wp):
        return side_series(form, wp, ctx, n_max)

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
        # count a repeated mode or label once, as grid_instances dedups the rest
        object.__setattr__(self, "modes", tuple(dict.fromkeys(self.modes)))
        object.__setattr__(self, "char_labels", tuple(dict.fromkeys(self.char_labels)))
        # values that leave nothing to verify are the user's error, not skips
        require_series_order(self.n_max, "n_max")
        if min(self.w_components) < 1:
            raise ParameterError("w components must be positive integers")
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
        # d and the field of every context that gets verified are refused
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


def grid_instances(config: GridConfig) -> Iterable[TheoremInstance]:
    """All grid instances in deterministic key order (skips applied later)."""
    items = []
    for theorem in sorted(set(config.theorems)):
        thm = THEOREMS[theorem]
        for d in sorted(set(config.d_values)):
            for chi in config.characters(d):
                for r in sorted(set(config.r_values)):
                    for j in sorted(set(config.j_values)):
                        for w in product(sorted(set(config.w_components)), repeat=thm.arity):
                            items.append(TheoremInstance(
                                theorem, d, chi.exponents, r, j, tuple(w), config.n_max))
    items.sort(key=lambda inst: inst.key())
    return items


def grid_verify(config: GridConfig) -> GridReport:
    """Run the whole grid; precondition-violating points are skipped, never
    counted as evidence.  Reports are assembled in instance-key order.

    Every instance is validated once, here.  Instances share one
    EvalContext per (d, chi, r, j), so its side memo (see _side_series)
    evaluates every distinct permuted side once, and the first witness of a
    theorem and mode is searched on the grid values that verifying the
    failing instance returned.  A side's key holds its form, so the
    theorems of a type never share a side, and instances come
    theorem-first, so one type's theorems are adjacent: the contexts are
    started afresh whenever the quotient type changes, and their memos then
    hold one type's sides at most.  The products below the sides, shared by
    the theorems of one quotient type (2 and 3, 5 and 6, 7 to 9), and the
    Bernoulli EGFs, character sums and slot series below them come from the
    process-wide store, built once per process, so a fresh context, or a
    second grid over the same cells, multiplies and rebuilds none of them.
    """
    rows: list[GridRow] = []
    counts: dict[tuple[int, str], dict[str, int]] = {
        (t, mode): {"pass": 0, "fail": 0, "skipped": 0}
        for t in sorted(set(config.theorems)) for mode in config.modes
    }
    first_witness: dict[tuple[int, str], Witness] = {}
    contexts: dict[tuple, EvalContext] = {}
    memo_type = None

    for inst in grid_instances(config):
        row = GridRow(instance_key=inst.key())
        try:
            inst.validate()
        except ParameterError as exc:
            row.skipped = True
            row.skip_reason = str(exc)
            for mode in config.modes:
                counts[(inst.theorem, mode)]["skipped"] += 1
            rows.append(row)
            continue
        qt = THEOREMS[inst.theorem].base.qt
        if qt != memo_type:
            contexts, memo_type = {}, qt
        ckey = (inst.d, inst.char, inst.r, inst.j)
        ctx = contexts.get(ckey)
        if ctx is None:
            ctx = contexts[ckey] = EvalContext(inst.character(), inst.twist())
        report, values = _verify(inst, "poly", ctx)
        row.pass_as_stated = report.pass_as_stated
        row.pass_normalized = report.pass_normalized
        row.pass_orbits = report.pass_orbits
        for mode in config.modes:
            ok = report.pass_normalized if mode == "normalized" else report.pass_as_stated
            counts[(inst.theorem, mode)]["pass" if ok else "fail"] += 1
            if not ok and (inst.theorem, mode) not in first_witness:
                witness = _first_witness(report, values, mode)
                if witness:
                    first_witness[(inst.theorem, mode)] = witness
        rows.append(row)
    return GridReport(config, rows, counts, first_witness)
