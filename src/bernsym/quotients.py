"""Quotient types, their closed-form series, and the structured expansions.

Each quotient type (two-variable G0..G2, three-variable L23, L13, L12) is
one closed form, a product of one Koblitz-measure integral
int chi(x) xi^(Wx) e^(Wxt) dmu = (Wt) * T_W/D_W per variable W:

    t^s * prod_W (T_W/D_W) * prod_V D_V * exp(c*(y_1+..+y_k)*t),
    T_W = sum_{a<d} chi(a) xi^(aW) e^(aWt),   D_W = xi^(dW) e^(dWt) - 1,

read from the type itself, one row of `QUOTIENT_TYPES`: the monomials W,
V of the numerator D factors and the y-multiplier monomials summing to c,
with s = len(W) - len(V).  The same row gives the type's arity, y-count
and conditions.  Each T_W/D_W is one cached factor built from T_W and D_W,
never from the expansions' Bernoulli series, so the reconciliation below
compares two independent computations.

Each type has one or more expansion forms.  An expansion form is pure
data: a list of slots, each contributing one EGF factor in (T*t)^k/k!,
T its twist monomial:

  * an S slot: S_k(d*U - 1; chi, xi^T);
  * a B slot:  B_i(chi, xi^T)(A*y_v + f_1*a_1 + .. + f_j*a_j), under j
    a-sums, the S slots (U_l, X_l) it absorbs: sum_{a_l < d*U_l} chi(a_l)
    xi^(a_l*X_l), with f_l = A/U_l,

where every T, A, U, X is a monomial in the w parameters.  Every slot's
EGF factor is P_s(t) * exp(c_s*y_v*t):

  * B slot: P_s = sum_i B_i (T*t)^i/i! * prod_l sum_p S_p (f_l*T*t)^p/p!,
    c_s = A*T, the power sums taken over the a-sums' ranges and twists;
  * S slot: P_s = sum_k S_k (T*t)^k/k!, c_s = 0.

Each of these series is its quantity's generating function with
t -> scale*t: sum_i B_i t^i/i! is `bernoulli_egf`, and sum_p S_p(U) t^p/p!
is the character sum over a <= U (`character_sum_series`).  `EvalContext`
builds them from those two functions on integer rows; no coefficient is
rescaled on its own.

A side is therefore one series product P = prod_s P_s times
exp((C_1*y_1 + ..)*t), C_v summing c_s over the slots on y_v, and its
displayed y^e coefficient of t^n/n! is n! * P[n - |e|] * prod_v C_v^e_v/e_v!.
P is multiplied as one flat chain, left to right: each slot contributes
its factors in order (a B slot its Bernoulli series, then one power-sum
series per a-sum).  An a-sum's series is the stored series of the S slot it
folds, so a form that folds power sums into a Bernoulli argument has the
same chain as the form it came from, and the store, which holds P by its
chain (`_build_side`), multiplies it once for both.
At a rational y-point the side's values are the EGF coefficients of one
series, E(t) = P(t) * exp(c*t) with c = C_1*y_1 + .. (`point_series`, or
`point_value` for one coefficient), summed from P's integer rows; only
`expansion_polys` spreads P over the y monomials (`spread_ypolys`).

The normalization weight of a form is the product of its B-slot twist
scales; dividing the form by its weight gives exactly the EGF coefficients
of the closed-form series.  That reconciliation is validated exhaustively
by `consistency_check`, not assumed.  The y-point enters both sides only
through a factor exp(c*t), so the check compares each form's y-free
product P with the closed form without its exponential,
t^s * prod (T_W/D_W) * prod D_V, cross-multiplied by the weight; P is
multiplied by exp((c_form - c_closed)*t) only where the two rates differ.
The point series and the full closed form are built only for a form that
fails, to report its first mismatching coefficient.  Both sides of the
check are read from the series store: each form's product by its ordered
chain, as theorem sides read theirs, and the closed form's product by the
ordered scales of its two chains, so a check repeated in one process
multiplies nothing, and the forms of one type that share a chain share one
product.

The Lambda_13 forms are not transcribed by hand: they are generated from
the Lambda_23 descriptors by the substitution recipe (w1,w2,w3 ->
w2w3,w1w3,w1w2, divide by (w1w2w3)^n, read xi^(w1w2w3) as xi), realized
as a transformation on the monomial data.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .bernoulli import (ParameterError, TwistSpec, bernoulli_egf, character_sum_series, field_conductor,
                        require_series_order, twisted_exp_minus_one)
from .dirichlet import DirichletCharacter
from .exactnum import CyclotomicNumber
from .series import NonUnitConstantError, TruncatedSeries, product

Mono = tuple[int, ...]


def mono_val(mono: Mono, w: Sequence[int]) -> int:
    return math.prod(map(pow, w, mono))


def mono_name(mono: Mono) -> str:
    parts = []
    for i, exp in enumerate(mono):
        if exp == 1:
            parts.append(f"w{i + 1}")
        elif exp > 1:
            parts.append(f"w{i + 1}^{exp}")
    return "*".join(parts) or "1"


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def perm_apply(sigma: Sequence[int], w: Sequence) -> tuple:
    """Replace w_i by w_{sigma(i)}: evaluate at the permuted tuple."""
    return tuple(w[s - 1] for s in sigma)


def perm_monomial(sigma: Sequence[int], mono: Mono) -> Mono:
    """The monomial after substituting w_i -> w_{sigma(i)}."""
    out = [0] * len(mono)
    for i, exp in enumerate(mono):
        out[sigma[i] - 1] += exp
    return tuple(out)


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class SSlot:
    """S_k(d*upper - 1; chi, xi^twist) with t -> twist*t.  Absorbed into a B
    slot it is an a-sum, sum_{a < d*upper} chi(a) xi^(a*twist)."""

    upper: Mono
    twist: Mono


@dataclass(frozen=True)
class BSlot:
    """B_i(chi, xi^twist)(arg_scale*y_v + sum_l (arg_scale/upper_l)*a_l)
    with t -> twist*t, under the a-sums of `asums`."""

    twist: Mono
    arg_scale: Mono
    y_var: int
    asums: tuple[SSlot, ...] = ()


Slot = BSlot | SSlot


@dataclass(frozen=True)
class QuotientType:
    """One quotient family member, family G (i=0..2), L23/L13 (i=0..3) or
    L12 (i=0..1), and its closed form
        t^shift * prod (T_W/D_W) * prod D_V * exp(sum(ymul)*(y_1+..+y_{y_count})*t)
    over W in chars, V in numer, with shift = #chars - #numer: one factor
    (Wt)^-1 * int chi(x) xi^(Wx) e^(Wxt) dmu per W."""

    family: str
    index: int
    y_count: int
    chars: tuple[Mono, ...]
    numer: tuple[Mono, ...]
    ymul: tuple[Mono, ...]

    @property
    def name(self) -> str:
        return f"{self.family}{self.index}" if self.family == "G" else f"{self.family}:{self.index}"

    @property
    def shift(self) -> int:
        return len(self.chars) - len(self.numer)

    @property
    def arity(self) -> int:
        return len(self.chars[0])

    def conditions(self) -> tuple[Mono, ...]:
        """Monomials that must not vanish mod r (not divisible by r)."""
        return self._conditions

    # cached: grid and pool filters read conditions() per w-tuple
    @functools.cached_property
    def _conditions(self) -> tuple[Mono, ...]:
        """Every D factor must be a unit, i.e. r divides no D monomial.  Each
        char monomial divides a numerator one, so the numerator monomials,
        where there are any, carry all the conditions."""
        return tuple(dict.fromkeys(self.numer or self.chars))


_E1, _E2, _E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
_P1, _P2, _P3 = (0, 1, 1), (1, 0, 1), (1, 1, 0)
_Q = (1, 1, 1)
_E, _P = (_E1, _E2, _E3), (_P1, _P2, _P3)
_W1, _W2, _W12 = (1, 0), (0, 1), (1, 1)

QUOTIENT_TYPES: dict[str, QuotientType] = {qt.name: qt for qt in (
    *(QuotientType("G", i, 2 - i, (_W1, _W2), (_W12,) * i, (_W12,)) for i in range(3)),
    *(QuotientType("L23", i, 3 - i, _P, (_Q,) * i, (_Q,)) for i in range(4)),
    *(QuotientType("L13", i, 3 - i, _E, (_Q,) * i, (_Q,)) for i in range(4)),
    QuotientType("L12", 0, 1, _E, (), _P),
    QuotientType("L12", 1, 0, _E, _P, ()),
)}


@dataclass(frozen=True)
class ExpansionForm:
    qt: QuotientType
    form_no: int
    slots: tuple[Slot, ...]

    @functools.cached_property
    def form_id(self) -> str:
        return f"{self.qt.name}-form-{self.form_no}"

    # cached: the series store keys every side record by its form
    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.qt, self.form_no, self.slots))

    def weight_mono(self) -> Mono:
        """The product of the form's B-slot twist monomials."""
        return self._weight_mono

    # cached: every form_weight call and theorem side reads it
    @functools.cached_property
    def _weight_mono(self) -> Mono:
        out = (0,) * self.qt.arity
        for slot in self.slots:
            if isinstance(slot, BSlot):
                out = mono_mul(out, slot.twist)
        return out


def form_weight(form: ExpansionForm, w: Sequence[int]) -> int:
    """Product over the form's B factors of the twist scale, at this w."""
    return mono_val(form.weight_mono(), w)


def _l13_sub(mono: Mono) -> Mono:
    """Substitute w1,w2,w3 -> w2w3,w1w3,w1w2."""
    a, b, c = mono
    return (b + c, a + c, a + b)


def _derive_l13_slot(slot: Slot) -> Slot:
    if isinstance(slot, SSlot):
        return SSlot(upper=_l13_sub(slot.upper), twist=_l13_sub_q(slot.twist))
    return BSlot(
        twist=_l13_sub_q(slot.twist),
        arg_scale=_l13_sub(slot.arg_scale),
        y_var=slot.y_var,
        asums=tuple(_derive_l13_slot(s) for s in slot.asums),
    )


def _l13_sub_q(mono: Mono) -> Mono:
    """Substitute and divide by w1w2w3 (the xi^(w1w2w3) -> xi replacement)."""
    a, b, c = mono
    out = (b + c - 1, a + c - 1, a + b - 1)
    if min(out) < 0:
        raise ValueError(f"monomial {mono} is not divisible by w1w2w3 after substitution")
    return out


def _build_forms() -> dict[str, tuple[ExpansionForm, ...]]:
    def absorb(bslot: BSlot, *sslots: SSlot) -> BSlot:
        """The B slot with each S slot S(d*U - 1; xi^X) moved into its
        argument as an a-sum over a < d*U with xi^(aX)."""
        return replace(bslot, asums=sslots)

    gb = (BSlot(_W1, _W2, 0), BSlot(_W2, _W1, 1))
    gs = (SSlot(_W2, _W1), SSlot(_W1, _W2))
    lb = tuple(BSlot(_P[v], _E[v], v) for v in range(3))
    ls = tuple(SSlot(_E[v], _P[v]) for v in range(3))
    slot_lists = {
        "G0": [gb],
        "G1": [(gb[0], gs[1]), (absorb(gb[0], gs[1]),)],
        "G2": [gs],
        "L23:0": [lb],
        "L23:1": [(lb[0], lb[1], ls[2]), (lb[0], absorb(lb[1], ls[2]))],
        "L23:2": [(lb[0], ls[1], ls[2]), (absorb(lb[0], ls[1]), ls[2]),
                  (absorb(lb[0], ls[1], ls[2]),)],
        "L23:3": [ls],
        "L12:0": [tuple(BSlot(_E[v], _E[(v + 1) % 3], 0) for v in range(3))],
        "L12:1": [tuple(SSlot(_E[(v + 1) % 3], _E[v]) for v in range(3))],
    }
    forms: dict[str, tuple[ExpansionForm, ...]] = {}
    for qt in QUOTIENT_TYPES.values():
        if qt.family == "L13":
            forms[qt.name] = tuple(
                ExpansionForm(qt, f.form_no, tuple(_derive_l13_slot(x) for x in f.slots))
                for f in forms[f"L23:{qt.index}"])
        else:
            forms[qt.name] = tuple(ExpansionForm(qt, no, slots)
                                   for no, slots in enumerate(slot_lists[qt.name], start=1))
    return forms


FORMS: dict[str, tuple[ExpansionForm, ...]] = _build_forms()


def parse_quotient_type(text: str) -> QuotientType:
    if text not in QUOTIENT_TYPES:
        raise ParameterError(f"unknown quotient type {text!r}; expected one of {sorted(QUOTIENT_TYPES)}")
    return QUOTIENT_TYPES[text]


# ---------------------------------------------------------------------------
# evaluation context


# The bytes the process-wide series store (`_stored`) may charge to its
# entries (`_charge`), least recently used first out (`_Store`).  The
# standard grid with its side records, then criteria 5 and 6 with their
# stored side products and closed-form cores, in one process, charge 741 MB
# over 38,327 entries (at 124 MB max RSS, the acceptance tests' module
# loaded), so the bound holds them 1.45 times over.  A charge over-counts:
# it is an upper bound of what the entry keeps alive, not a measure of it
MAX_STORE_BYTES = 1 << 30

# the most bytes a dict takes per entry, its header included (the worst
# over 1 to 20,000 entries is one entry, 224 bytes), and the most a store
# entry takes beyond its key's own items and its value: its ordered-dict
# slot and link, its [value, charge, mark] list and, for a side product or
# a closed-form core, its weak slot in `_SHARED`.  A key's d, r and j are
# at most 200 (`dirichlet.MAX_MODULUS`, `bernoulli.MAX_TWIST_ORDER`): small
# ints that the interpreter holds once
_SLOT_BYTES = 224
_ENTRY_BYTES = 1024


class StoreInfo(NamedTuple):
    """The series store's size and counts (`_Store.cache_info`)."""

    entries: int
    bytes: int
    hits: int
    misses: int
    evictions: int


class _Store:
    """build(chi, twist, *key), built once and kept under (build, chi,
    twist, *key) while the bytes charged to its entries (`_charge`) stay
    within `max_bytes`.  The least recently used entries go first, in the
    second-chance form of LRU: an entry is marked when it is kept and when
    it is read, and one due out that is marked is unmarked and sent to the
    back instead, so a read hashes its key once.  A value whose charge
    alone is over `max_bytes` is returned and not kept.  Every entry
    dropped, and every value not kept, also empties the table of shared
    normal forms (`_shared_normal`), so that the table holds only tuples
    that a kept entry holds and has been charged for."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()   # key -> [value, charge, read since it came up]
        self._bytes = self._hits = self._misses = self._evictions = 0

    def __call__(self, build, chi: DirichletCharacter, twist: TwistSpec, *key):
        """build(chi, twist, *key) as kept, or built now and kept.  The
        character and twist enter the entry's key as the fields that
        define them, (d, exponents) and (r, j), so a lookup hashes and
        compares plain tuples."""
        full = (build, chi.d, chi.exponents, twist.r, twist.j, *key)
        entry = self._entries.get(full)
        if entry is not None:
            entry[2] = True
            self._hits += 1
            return entry[0]
        self._misses += 1
        value = build(chi, twist, *key)
        charge = sys.getsizeof(full) + sys.getsizeof(chi.exponents) + _charge(key) + _charge(value) + _ENTRY_BYTES
        if charge > self.max_bytes:
            _NORMALS.clear()
            return value
        self._entries[full] = [value, charge, True]
        self._bytes += charge
        while self._bytes > self.max_bytes:
            oldest, entry = self._entries.popitem(last=False)
            if entry[2]:
                entry[2] = False
                self._entries[oldest] = entry
                continue
            self._bytes -= entry[1]
            self._evictions += 1
            _NORMALS.clear()
        return value

    def cache_info(self) -> StoreInfo:
        return StoreInfo(len(self._entries), self._bytes, self._hits, self._misses, self._evictions)

    def cache_clear(self) -> None:
        """Empty the store, its counters and the shared normal forms."""
        self._entries.clear()
        self._bytes = self._hits = self._misses = self._evictions = 0
        _NORMALS.clear()


def _charge(value) -> int:
    """An upper bound of the bytes a store key or value keeps alive: an
    int's, a str's or a Fraction's size, a tuple's size and its items', a
    series' or a side record's own bound (`held_bytes`).  Other objects in
    a tuple, such as a record key's form, count 0: the program holds them
    anyway."""
    kind = type(value)
    if kind is tuple:
        size = sys.getsizeof(value)
        for item in value:
            kind = type(item)
            if kind is int or kind is str:
                size += sys.getsizeof(item)
            elif kind is tuple or kind is Fraction:
                size += _charge(item)
        return size
    if kind is int or kind is str:
        return sys.getsizeof(value)
    if kind is Fraction:
        return sys.getsizeof(value) + sys.getsizeof(value.numerator) + sys.getsizeof(value.denominator)
    held = kind.__dict__.get("held_bytes")
    return 0 if held is None else held(value)


# The process-wide series store.  `build` is the kind of value, and `key`
# its twist class, scale, order and, for a slot's character sum, upper end,
# as the `EvalContext` methods pass them; for a closed-form chain (`_chain`),
# its factors' kind, their ordered scales and the order; for a closed form's
# core (`_core`), the ordered scales of its T_W/D_W chain, those of its D_V
# chain and the order; for a side's product (`_side_product`), its chain's
# factor keys in chain order and n_max; for a theorem side's record
# (`identities._side_record`), its form, w-tuple and n_max.
_stored = _Store(MAX_STORE_BYTES)


def _bern_series(chi: DirichletCharacter, twist: TwistSpec, w_class: int, scale: int,
                 n: int) -> TruncatedSeries:
    # the Bernoulli EGF is stored once per twist class, at order max(n, 8)
    egf = _stored(bernoulli_egf, chi, twist, w_class, max(n, 8))
    return egf.truncate(n).scale_variable(scale)


def _psum_series(chi: DirichletCharacter, twist: TwistSpec, upper: int, w_class: int,
                 scale: Fraction, n: int) -> TruncatedSeries:
    return character_sum_series(chi, twist, w_class, n, upper=upper + 1).scale_variable(scale)


def _ratio_series(chi: DirichletCharacter, twist: TwistSpec, scale: int, order: int) -> TruncatedSeries:
    return (character_sum_series(chi, twist, scale, order).scale_variable(scale)
            / _stored(_denom_series, chi, twist, scale, order))


def _denom_series(chi: DirichletCharacter, twist: TwistSpec, scale: int, order: int) -> TruncatedSeries:
    return twisted_exp_minus_one(twist, chi.d * scale, chi.d * scale, order, field_conductor(chi, twist))


def _chain(chi: DirichletCharacter, twist: TwistSpec, factor, scales: tuple[int, ...],
           order: int) -> TruncatedSeries:
    """The stored factors factor(scale) for the scales in their order,
    multiplied left to right, each product losing its content gcd before
    the next: a closed form's chain of T_W/D_W (`_ratio_series`) or of D_V
    (`_denom_series`).  These chains' partial products have content gcds of
    up to 48 bits, so one width for the whole chain (`series.product`) was
    slower."""
    return functools.reduce(operator.mul, (_stored(factor, chi, twist, scale, order) for scale in scales))


def _factors(chi: DirichletCharacter, twist: TwistSpec, keys: Sequence[tuple], n: int) -> list[TruncatedSeries]:
    """The stored slot series of a chain's factor keys (`_slot_keys`), in
    their order, to order n: a key ("B", w_class, scale) reads a Bernoulli
    series (`_bern_series`), ("S", upper, w_class, scale) a character sum
    (`_psum_series`)."""
    return [_stored(_bern_series if key[0] == "B" else _psum_series, chi, twist, *key[1:], n) for key in keys]


def _side_product(chi: DirichletCharacter, twist: TwistSpec, keys: tuple[tuple, ...], n: int) -> TruncatedSeries:
    """A theorem side's product P: the stored factors of its chain's keys,
    multiplied in chain order (`EvalContext.sym_product`), and then
    exchanged for an equal product already held (`_shared`)."""
    return _shared(EvalContext.sym_product(_factors(chi, twist, keys, n)))


# Stored side products and closed-form cores by (conductor, denominator,
# hash of the rows), held weakly, so an entry lives no longer than the store
# entries and sides that hold its series
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _share_key(series: TruncatedSeries) -> tuple:
    den, rows, _ = series._form
    return series.m, den, hash(tuple(map(tuple, rows)))


def _shared(series: TruncatedSeries) -> TruncatedSeries:
    """The series already held under series' key when the two are exactly
    equal, else series itself: the permuted sides of a symmetric theorem,
    each multiplied from its own ordered chain, and the cores of a closed
    form's orderings, each from its own ordered scales, then hold one set of
    rows.  Under a key held by an unequal series, series stays its own
    object."""
    held = _SHARED.setdefault(_share_key(series), series)
    return held if held == series else series


# Normal forms of stored side records, each under itself.  Tuples cannot be
# held weakly, so the store empties the table whenever it drops an entry or
# keeps no value (`_Store`): every tuple here belongs to a stored record
_NORMALS: dict[tuple, tuple] = {}


def _shared_normal(normal: tuple) -> tuple:
    """The normal form already held when one exactly equal to `normal` is,
    found by the table's key comparison, else `normal` itself: the standard
    grid's 10,885 side records hold 2,232 distinct normal forms."""
    return _NORMALS.setdefault(normal, normal)


class EvalContext:
    """One (character, twist) pair and its readers of the series store.

    All values live at the fixed conductor lcm(r, order of chi): the slot
    series, each its quantity's one series (`bernoulli_egf`,
    `character_sum_series`) with t -> scale*t applied on integer rows
    (`TruncatedSeries.scale_variable`), the closed-form factors and chains,
    and the theorem sides' products and records.  They are read from the
    process-wide store (`_stored`), so every context for the same pair
    shares them and each is built once per process while it stays there; a
    context holds nothing of its own.
    """

    def __init__(self, chi: DirichletCharacter, twist: TwistSpec):
        self.chi = chi
        self.twist = twist
        self.d = chi.d
        self.r = twist.r
        self.m = field_conductor(chi, twist)

    # -- side products --------------------------------------------------

    @staticmethod
    def sym_product(factors: Sequence[TruncatedSeries]) -> TruncatedSeries:
        """The product of a side's factor chain, left to right, at one width
        (`series.product`): every theorem side, stored or not, and every
        expansion is multiplied here."""
        return product(factors)

    def chain_product(self, keys: tuple[tuple, ...], n: int) -> TruncatedSeries:
        """The product of the factor chain with these keys, to order n,
        multiplied anew: the sides of `side_series` and of the redundancy
        displays."""
        return self.sym_product(_factors(self.chi, self.twist, keys, n))

    def side_product(self, keys: tuple[tuple, ...], n: int) -> TruncatedSeries:
        """`chain_product` read from the process-wide store (`_side_product`),
        so each ordered chain is multiplied once per process."""
        return _stored(_side_product, self.chi, self.twist, keys, n)

    # -- closed-form factors --------------------------------------------

    def require_unit_ratio(self, scale: int, factor: Mono) -> None:
        """Refuse T_W/D_W at W = scale, the value of monomial `factor`, when
        D_W has no unit constant term: xi^(dW) = 1, i.e. r divides d*W.
        The monomial is named only in the refusal."""
        if (self.d * scale) % self.r == 0:
            name = mono_name(factor)
            raise NonUnitConstantError(
                f"xi^(d*{name}) = 1 at w-scale {scale}: r={self.r} divides d*{scale}",
                factor=name,
            )


# ---------------------------------------------------------------------------
# expansion evaluation


# The ceiling on a w component's bit length.  A side's cost grows with the
# bit length of its scales, not with their values, and with the order:
# theorem 8 at d = 5, r = 7 and w = (2^64 - 1, 2^64 - 3, 2^64 - 5), from a
# cold store in a fresh process, took 0.11 s of CPU at n_max = 6, 2.4 s at
# 16 and 252 s at 64, against 0.005, 0.02 and 2.1 s at w = (1, 2, 3)
# (2-core Xeon, Python 3.11.7).  So this ceiling and
# `bernoulli.MAX_SERIES_ORDER` together bound one instance, but loosely
MAX_W_BITS = 64


def _check_conditions(qt: QuotientType, twist: TwistSpec, w: Sequence[int]) -> None:
    """Refuse a w-tuple the type cannot take: the wrong length, a component
    that is not a positive integer of at most MAX_W_BITS bits
    (`_require_w_components`), or a violated condition (`_require_units`)."""
    if len(w) != qt.arity:
        raise ParameterError(f"{qt.name} needs a w-tuple of length {qt.arity}")
    _require_w_components(w)
    _require_units(qt, twist, w)


def _require_w_components(w: Sequence[int]) -> None:
    """Refuse a w component below 1 or above MAX_W_BITS bits, before any
    series is built: every w-tuple and a grid's w components pass here."""
    if any(x < 1 for x in w):
        raise ParameterError("w components must be positive integers")
    for x in w:
        if x >= 1 << MAX_W_BITS:
            raise ParameterError(f"w component {x} has {int(x).bit_length()} bits, "
                                 f"above the ceiling of {MAX_W_BITS}")


def _require_units(qt: QuotientType, twist: TwistSpec, w: Sequence[int]) -> None:
    """Refuse a w at which r divides one of the type's condition monomials;
    the message is built only then."""
    for mono in qt.conditions():
        if mono_val(mono, w) % twist.r == 0:
            # the arithmetic face of the violated condition: the unit
            # denominator xi^(d*mono) - 1 collapses
            name = mono_name(mono)
            raise NonUnitConstantError(
                f"{qt.name} requires r to divide none of {', '.join(map(mono_name, qt.conditions()))}; "
                f"r={twist.r} divides {name}={mono_val(mono, w)} at w={tuple(w)}",
                factor=name,
            )


def _int_or_fraction(num: int, den: int) -> int | Fraction:
    """num/den, as an int when den divides num."""
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _slot_keys(ctx: EvalContext, slot: Slot, w: Sequence[int]) -> tuple[list[tuple], int]:
    """The store keys of the factors whose left-to-right product is the
    y-free series P_s of the slot's EGF factor P_s(t) * exp(c_s*y_v*t), and
    c_s, worked out from the slot data alone.

    An S slot is one factor, sum_k S_k (T*t)^k/k!, with c_s = 0.  A B slot
    under j a-sums is sum_i B_i (T*t)^i/i! followed by each a-sum's
    sum_p S_p (f_l*T*t)^p/p!, with c_s = A*T.  A key is its kind, "B" or
    "S", then the store key without chi, the twist and the order (see
    `_factors`).  An a-sum's scale f_l*T is an int wherever it is integral,
    like the twist scale of the S slot it folds, so the two share one key
    and one store entry.
    """
    r, d = ctx.r, ctx.d
    ts = mono_val(slot.twist, w)
    if isinstance(slot, SSlot):
        return [("S", d * mono_val(slot.upper, w) - 1, ts % r, ts)], 0
    if (d * ts) % r == 0:
        raise NonUnitConstantError(
            f"xi^(d*{mono_name(slot.twist)}) = 1 at w={tuple(w)}",
            factor=mono_name(slot.twist),
        )
    c = mono_val(slot.arg_scale, w) * ts
    keys = [("B", ts % r, ts)]
    for asum in slot.asums:
        upper = mono_val(asum.upper, w)
        keys.append(("S", d * upper - 1, mono_val(asum.twist, w) % r, _int_or_fraction(c, upper)))
    return keys, c


YPoly = dict[tuple[int, ...], CyclotomicNumber]
Side = tuple[TruncatedSeries, tuple[int, ...]]   # (P, C), see side_series


def side_series(form: ExpansionForm, w: Sequence[int], ctx: EvalContext, n_max: int) -> Side:
    """(P, C) with the form's generating function P(t) * exp((C_1*y_1 + ..)*t)
    to order n_max: P the product of the slot series, C_v the sum of c_s
    over the slots on y_v (one entry even for a form without y)."""
    require_series_order(n_max, "n_max")
    _check_conditions(form.qt, ctx.twist, w)
    return _build_side(form, w, ctx, n_max)


def _build_side(form: ExpansionForm, w: Sequence[int], ctx: EvalContext, n_max: int,
                products: Optional[Callable[[tuple, int], TruncatedSeries]] = None) -> Side:
    """`side_series` for a w-tuple whose conditions hold and n_max >= 0: the
    callers that have checked them already build their sides here.

    P is the left-to-right product of one flat chain: every slot's factors
    (`_slot_keys`) in slot order.  An exact product reduced by its content
    gcd is canonical under any association, so P does not depend on where
    the slots' own products would have been taken.  The chain's keys are
    worked out first, and its factor series are read from the store only
    when P is multiplied.  `products`, when given, maps (the chain's keys,
    n_max) to P: the process-wide store (`EvalContext.side_product`), as
    theorem sides and `consistency_check` read it, so forms whose chains
    agree factor by factor and in order, a folded a-sum and the S slot it
    replaces, share one product.  Without it P is multiplied anew
    (`EvalContext.chain_product`)."""
    ys = [0] * max(1, form.qt.y_count)
    chain = []
    for slot in form.slots:
        keys, c = _slot_keys(ctx, slot, w)
        chain += keys
        if c:
            ys[slot.y_var] += c
    return (ctx.chain_product if products is None else products)(tuple(chain), n_max), tuple(ys)


def spread_ypolys(p: TruncatedSeries, ys: Sequence[int], n_max: int) -> list[YPoly]:
    """The t^n/n! coefficients of P(t) * exp((C_1*y_1 + ..)*t) for
    n = 0..n_max as y-polynomials: the y^e coefficient is
    n! * P[n - |e|] * prod_v C_v^e_v / e_v!, and zero entries are dropped."""
    # (e, |e|, prod_v C_v^e_v / e_v!) for every y^e with |e| <= n_max and a
    # nonzero multiplier
    monos = [((), 0, Fraction(1))]
    for c in ys:
        monos = [(e + (k,), deg + k, wt * Fraction(c ** k, math.factorial(k)))
                 for e, deg, wt in monos for k in range(n_max + 1 - deg if c else 1)]
    polys: list[YPoly] = []
    for n in range(n_max + 1):
        fact = math.factorial(n)
        polys.append({e: p.coeffs[n - deg].scale(wt * fact) for e, deg, wt in monos
                      if deg <= n and not p.coeffs[n - deg].is_zero()})
    return polys


def expansion_polys(form: ExpansionForm, w: Sequence[int], ctx: EvalContext, n_max: int) -> list[YPoly]:
    """The form's bracketed t^n/n! coefficients for n = 0..n_max, each as a
    polynomial in the y variables with cyclotomic coefficients."""
    return spread_ypolys(*side_series(form, w, ctx, n_max), n_max)


def point_series(side: Side, y: Sequence, n_max: int) -> TruncatedSeries:
    """E(t) = P(t) * exp(c*t) to order n_max for the side (P, C) at a
    rational y-point, c = C_1*y_1 + .. (missing y entries read as 0).

    E's t^n/n! coefficient is the side's displayed value at (n, y), read
    straight from P's integer rows (`TruncatedSeries.mul_exp`) without
    spreading P over the y monomials; E is P itself when c = 0."""
    p, ys = side
    return p.truncate(n_max).mul_exp(_side_rate(ys, y))


def _side_rate(ys: Sequence[int], y: Sequence) -> Fraction:
    """c = C_1*y_1 + .. of a side's exp(c*t) at a rational y-point."""
    return sum((cv * Fraction(yv) for cv, yv in zip(ys, y)), Fraction(0))


def point_value(side: Side, y: Sequence, n: int) -> CyclotomicNumber:
    """The side's displayed value at (n, y), y of ints or Fractions: the
    t^n/n! coefficient of its `point_series`, summed from P's integer rows
    without building it."""
    p, ys = side
    return p.mul_exp_coefficient(sum(cv * yv for cv, yv in zip(ys, y)), n)


def expansion_coefficients(form: ExpansionForm, w: Sequence[int], y: Sequence,
                           chi: DirichletCharacter, twist: TwistSpec, n_max: int,
                           ctx: Optional[EvalContext] = None) -> list[CyclotomicNumber]:
    """The displayed coefficient of t^n/n! at a concrete rational y-point,
    for n = 0..n_max: the EGF coefficients of the form's `point_series`."""
    ctx = ctx or EvalContext(chi, twist)
    series = point_series(side_series(form, w, ctx, n_max), y, n_max)
    return [series.egf_coefficient(n) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# closed forms


def closed_form_series(qt: QuotientType, w: Sequence[int], y: Sequence,
                       chi: DirichletCharacter, twist: TwistSpec, order: int,
                       ctx: Optional[EvalContext] = None) -> TruncatedSeries:
    """The explicit right-hand-side series of the quotient type, exact to
    the requested order: the product of the type's closed form,
        t^shift * prod (T_W/D_W) * prod D_V * exp(c*(y_1+..+y_k)*t),
    with c the sum of the y-multiplier monomials: the product of the
    ordered chain of T_W/D_W and the ordered chain of D_V, each multiplied
    left to right in the type's order, read from the store
    (`_closed_product`), then shifted by t^shift.  Each T_W/D_W is one
    stored factor (`_ratio_series`)."""
    require_series_order(order)
    ctx = ctx or EvalContext(chi, twist)
    _check_conditions(qt, twist, w)
    y = _y_point(qt, y)
    product = _closed_product(qt, w, ctx, order)
    return product.mul_exp(_closed_rate(qt, w, y)).shift_up(qt.shift).truncate(order)


def _closed_product(qt: QuotientType, w: Sequence[int], ctx: EvalContext, order: int) -> TruncatedSeries:
    """prod (T_W/D_W) * prod D_V, the closed form without t^shift and its
    exponential, truncated to max(order - shift, 0), as the shift pushes
    the top `shift` coefficients past the order: the type's stored core
    (`_core`), or its chars chain (`_chain`) when it has no numerator.
    Both are keyed by ordered scales, so each ordering of w reads its own,
    while the types of one family share their chains: L13:0..3 and
    L12:0..1 the chain of (w1, w2, w3), and the D_Q^i of one w serve every
    ordering.  A T_W/D_W whose D_W has no unit constant term is refused
    (`EvalContext.require_unit_ratio`) before anything is read."""
    chars = tuple(mono_val(mono, w) for mono in qt.chars)
    for mono, scale in zip(qt.chars, chars):
        ctx.require_unit_ratio(scale, mono)
    if not qt.numer:
        return _stored(_chain, ctx.chi, ctx.twist, _ratio_series, chars, order).truncate(max(order - qt.shift, 0))
    numer = tuple(mono_val(mono, w) for mono in qt.numer)
    return _stored(_core, ctx.chi, ctx.twist, chars, numer, order)


def _core(chi: DirichletCharacter, twist: TwistSpec, chars: tuple[int, ...], numer: tuple[int, ...],
          order: int) -> TruncatedSeries:
    """The stored chain of T_W/D_W over the ordered scales `chars` times
    the stored chain of D_V over the ordered scales `numer`, each truncated
    to max(order - shift, 0), shift = len(chars) - len(numer), and then
    exchanged for an equal core already held (`_shared`): the permuted
    orderings of one w each build their own core from their own chains,
    and the equal ones then hold one set of rows."""
    kept = max(order - len(chars) + len(numer), 0)
    return _shared(_stored(_chain, chi, twist, _ratio_series, chars, order).truncate(kept)
                   * _stored(_chain, chi, twist, _denom_series, numer, order).truncate(kept))


def _y_point(qt: QuotientType, y: Sequence) -> tuple[Fraction, ...]:
    """The y_1, .., y_k of a y-point that the type reads, k = y_count."""
    if len(y) < qt.y_count:
        raise ParameterError(f"{qt.name} needs {qt.y_count} y value(s)")
    return tuple(Fraction(v) for v in y[:qt.y_count])


def _closed_rate(qt: QuotientType, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
    """c(y) of the closed form's exp(c(y)*t): the sum of the y-multiplier
    monomials times y_1 + .. + y_k, y as `_y_point` returns it."""
    return sum(mono_val(mono, w) for mono in qt.ymul) * sum(y, Fraction(0))


# ---------------------------------------------------------------------------
# reconciliation


@dataclass
class ConsistencyMismatch:
    form_id: str
    n: int
    expansion: CyclotomicNumber
    weighted_closed: CyclotomicNumber


@dataclass
class ConsistencyReport:
    qt_name: str
    w: tuple[int, ...]
    y: tuple[Fraction, ...]
    n_max: int
    checked_forms: list[str]
    mismatch: ConsistencyMismatch | None = None

    @property
    def passed(self) -> bool:
        return self.mismatch is None

    def to_json(self) -> dict:
        out = {
            "type": self.qt_name,
            "w": list(self.w),
            "y": [str(v) for v in self.y],
            "n_max": self.n_max,
            "forms": self.checked_forms,
            "pass": self.passed,
        }
        if self.mismatch:
            out["witness"] = {
                "form": self.mismatch.form_id,
                "n": self.mismatch.n,
                "expansion": self.mismatch.expansion.to_json(),
                "weighted_closed_form": self.mismatch.weighted_closed.to_json(),
            }
        return out


def consistency_check(qt: QuotientType, w: Sequence[int], y: Sequence,
                      chi: DirichletCharacter, twist: TwistSpec, n_max: int,
                      ctx: Optional[EvalContext] = None) -> ConsistencyReport:
    """Assert expansion_n = weight * n![t^n] closed_form for every form of
    the type; report the first mismatch with both values.

    A form's values at the y-point are the EGF coefficients of
    P(t) * exp(c*t), and the closed form's of K(t) * exp(c'*t), K the closed
    form without its exponential.  Multiplying both by the unit
    exp(-c'*t) keeps truncated series equal or unequal, so each form is
    decided by one cross-multiplied row comparison,
    P * exp((c - c')*t) / weight == K, where the exponential is applied
    only when the rates differ.  Only a form that fails builds its
    `point_series` E and the closed form K(t) * exp(c'*t), walked
    coefficient by coefficient for the first mismatching n.  The forms'
    products (`EvalContext.side_product`) and the closed form's product
    (`_closed_product`) are read from the process-wide store, so forms with
    one chain share one product, and a check repeated in the same process
    multiplies nothing."""
    require_series_order(n_max, "n_max")
    ctx = ctx or EvalContext(chi, twist)
    y = _y_point(qt, y)
    _check_conditions(qt, twist, w)
    core = _closed_product(qt, w, ctx, n_max).shift_up(qt.shift).truncate(n_max)
    rate = _closed_rate(qt, w, y)
    report = ConsistencyReport(qt.name, tuple(w), y, n_max, [f.form_id for f in FORMS[qt.name]])
    for form in FORMS[qt.name]:
        weight = form_weight(form, w)
        side = _build_side(form, w, ctx, n_max, ctx.side_product)
        p, ys = side
        if p.mul_exp(_side_rate(ys, y) - rate).scaled_equal(core, weight, 1):
            continue
        series, closed = point_series(side, y, n_max), core.mul_exp(rate)
        for n in range(n_max + 1):
            lhs = series.egf_coefficient(n)
            rhs = closed.egf_coefficient(n).scale(weight)
            if lhs != rhs:
                report.mismatch = ConsistencyMismatch(form.form_id, n, lhs, rhs)
                return report
    return report
