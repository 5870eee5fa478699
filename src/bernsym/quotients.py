"""Quotient types, their closed-form series, and the structured expansions.

Each quotient family (two-variable Gamma^i, three-variable Lambda families)
has one closed-form series and one or more expansion forms.  An expansion
form is pure data: a list of slots, each contributing one EGF factor,

  * a B slot:  B_k(chi, xi^T)(S*y_v [+ f*a under an a-sum])  in (T_scale*t)^k/k!
  * an S slot: S_k(d*U - 1; chi, xi^T)                        in (T_scale*t)^k/k!

where every T, S, U, T_scale is a monomial in the w parameters.  The
displayed bracketed coefficient of t^n/n! is recovered by convolving the
slot factors and multiplying by n!.

The normalization weight of a form is the product of its B-slot twist
scales; dividing the form by its weight gives exactly the EGF coefficients
of the closed-form series.  That reconciliation is validated exhaustively
by `consistency_check`, not assumed.

The Lambda_13 forms are not transcribed by hand: they are generated from
the Lambda_23 descriptors by the substitution recipe (w1,w2,w3 ->
w2w3,w1w3,w1w2, divide by (w1w2w3)^n, read xi^(w1w2w3) as xi), realized
as a transformation on the monomial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bernoulli import ParameterError, TwistSpec, bernoulli_egf
from .dirichlet import DirichletCharacter
from .exactnum import CyclotomicNumber, linear_combination
from .series import NonUnitConstantError, TruncatedSeries

Mono = tuple[int, ...]


def mono_val(mono: Mono, w: Sequence[int]) -> int:
    out = 1
    for base, exp in zip(w, mono):
        if exp:
            out *= base ** exp
    return out


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
class ASumSpec:
    """sum_{a < d*upper} chi(a) xi^(a*xi_exp) applied to a B slot, shifting
    its argument by (frac_num/frac_den) * a."""

    upper: Mono
    xi_exp: Mono
    frac_num: Mono
    frac_den: Mono


@dataclass(frozen=True)
class BSlot:
    twist: Mono
    t_scale: Mono
    arg_scale: Mono
    y_var: int
    asums: tuple[ASumSpec, ...] = ()


@dataclass(frozen=True)
class SSlot:
    upper: Mono
    twist: Mono
    t_scale: Mono


Slot = BSlot | SSlot


@dataclass(frozen=True)
class QuotientType:
    """One quotient family member: family G (i=0..2), L23/L13 (i=0..3),
    L12 (i=0..1)."""

    family: str
    index: int

    @property
    def arity(self) -> int:
        return 2 if self.family == "G" else 3

    @property
    def y_count(self) -> int:
        if self.family == "G":
            return 2 - self.index
        if self.family == "L12":
            return 1 - self.index
        return 3 - self.index

    @property
    def name(self) -> str:
        return f"{self.family}{self.index}" if self.family == "G" else f"{self.family}:{self.index}"

    def conditions(self) -> tuple[Mono, ...]:
        """Monomials that must not vanish mod r (not divisible by r)."""
        if self.family == "G":
            return ((1, 0), (0, 1)) if self.index == 0 else ((1, 1),)
        if self.family == "L23":
            if self.index == 0:
                return (_P1, _P2, _P3)
            return (_Q,)
        if self.family == "L13":
            if self.index == 0:
                return (_E1, _E2, _E3)
            return (_Q,)
        # L12
        return (_E1, _E2, _E3) if self.index == 0 else (_P1, _P2, _P3)


_E1, _E2, _E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
_P1, _P2, _P3 = (0, 1, 1), (1, 0, 1), (1, 1, 0)
_Q = (1, 1, 1)


@dataclass(frozen=True)
class ExpansionForm:
    qt: QuotientType
    form_no: int
    slots: tuple[Slot, ...]

    @property
    def form_id(self) -> str:
        return f"{self.qt.name}-form-{self.form_no}"

    def weight_mono(self) -> Mono:
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
        return SSlot(
            upper=_l13_sub(slot.upper),
            twist=_l13_sub_q(slot.twist),
            t_scale=_l13_sub_q(slot.t_scale),
        )
    return BSlot(
        twist=_l13_sub_q(slot.twist),
        t_scale=_l13_sub_q(slot.t_scale),
        arg_scale=_l13_sub(slot.arg_scale),
        y_var=slot.y_var,
        asums=tuple(
            ASumSpec(
                upper=_l13_sub(s.upper),
                xi_exp=_l13_sub_q(s.xi_exp),
                frac_num=_l13_sub(s.frac_num),
                frac_den=_l13_sub(s.frac_den),
            )
            for s in slot.asums
        ),
    )


def _l13_sub_q(mono: Mono) -> Mono:
    """Substitute and divide by w1w2w3 (the xi^(w1w2w3) -> xi replacement)."""
    a, b, c = mono
    out = (b + c - 1, a + c - 1, a + b - 1)
    if min(out) < 0:
        raise ValueError(f"monomial {mono} is not divisible by w1w2w3 after substitution")
    return out


def _build_forms() -> dict[str, tuple[ExpansionForm, ...]]:
    forms: dict[str, tuple[ExpansionForm, ...]] = {}
    w1, w2 = (1, 0), (0, 1)

    g0 = QuotientType("G", 0)
    forms[g0.name] = (
        ExpansionForm(g0, 1, (
            BSlot(twist=w1, t_scale=w1, arg_scale=w2, y_var=0),
            BSlot(twist=w2, t_scale=w2, arg_scale=w1, y_var=1),
        )),
    )
    g1 = QuotientType("G", 1)
    forms[g1.name] = (
        ExpansionForm(g1, 1, (
            BSlot(twist=w1, t_scale=w1, arg_scale=w2, y_var=0),
            SSlot(upper=w1, twist=w2, t_scale=w2),
        )),
        ExpansionForm(g1, 2, (
            BSlot(twist=w1, t_scale=w1, arg_scale=w2, y_var=0,
                  asums=(ASumSpec(upper=w1, xi_exp=w2, frac_num=w2, frac_den=w1),)),
        )),
    )
    g2 = QuotientType("G", 2)
    forms[g2.name] = (
        ExpansionForm(g2, 1, (
            SSlot(upper=w2, twist=w1, t_scale=w1),
            SSlot(upper=w1, twist=w2, t_scale=w2),
        )),
    )

    l23 = [QuotientType("L23", i) for i in range(4)]
    forms[l23[0].name] = (
        ExpansionForm(l23[0], 1, (
            BSlot(twist=_P1, t_scale=_P1, arg_scale=_E1, y_var=0),
            BSlot(twist=_P2, t_scale=_P2, arg_scale=_E2, y_var=1),
            BSlot(twist=_P3, t_scale=_P3, arg_scale=_E3, y_var=2),
        )),
    )
    forms[l23[1].name] = (
        ExpansionForm(l23[1], 1, (
            BSlot(twist=_P1, t_scale=_P1, arg_scale=_E1, y_var=0),
            BSlot(twist=_P2, t_scale=_P2, arg_scale=_E2, y_var=1),
            SSlot(upper=_E3, twist=_P3, t_scale=_P3),
        )),
        ExpansionForm(l23[1], 2, (
            BSlot(twist=_P1, t_scale=_P1, arg_scale=_E1, y_var=0),
            BSlot(twist=_P2, t_scale=_P2, arg_scale=_E2, y_var=1,
                  asums=(ASumSpec(upper=_E3, xi_exp=_P3, frac_num=_E2, frac_den=_E3),)),
        )),
    )
    forms[l23[2].name] = (
        ExpansionForm(l23[2], 1, (
            BSlot(twist=_P1, t_scale=_P1, arg_scale=_E1, y_var=0),
            SSlot(upper=_E2, twist=_P2, t_scale=_P2),
            SSlot(upper=_E3, twist=_P3, t_scale=_P3),
        )),
        ExpansionForm(l23[2], 2, (
            BSlot(twist=_P1, t_scale=_P1, arg_scale=_E1, y_var=0,
                  asums=(ASumSpec(upper=_E2, xi_exp=_P2, frac_num=_E1, frac_den=_E2),)),
            SSlot(upper=_E3, twist=_P3, t_scale=_P3),
        )),
        ExpansionForm(l23[2], 3, (
            BSlot(twist=_P1, t_scale=_P1, arg_scale=_E1, y_var=0,
                  asums=(
                      ASumSpec(upper=_E2, xi_exp=_P2, frac_num=_E1, frac_den=_E2),
                      ASumSpec(upper=_E3, xi_exp=_P3, frac_num=_E1, frac_den=_E3),
                  )),
        )),
    )
    forms[l23[3].name] = (
        ExpansionForm(l23[3], 1, (
            SSlot(upper=_E1, twist=_P1, t_scale=_P1),
            SSlot(upper=_E2, twist=_P2, t_scale=_P2),
            SSlot(upper=_E3, twist=_P3, t_scale=_P3),
        )),
    )

    for i in range(4):
        src = forms[l23[i].name]
        qt = QuotientType("L13", i)
        forms[qt.name] = tuple(
            ExpansionForm(qt, f.form_no, tuple(_derive_l13_slot(s) for s in f.slots))
            for f in src
        )

    l12_0 = QuotientType("L12", 0)
    forms[l12_0.name] = (
        ExpansionForm(l12_0, 1, (
            BSlot(twist=_E1, t_scale=_E1, arg_scale=_E2, y_var=0),
            BSlot(twist=_E2, t_scale=_E2, arg_scale=_E3, y_var=0),
            BSlot(twist=_E3, t_scale=_E3, arg_scale=_E1, y_var=0),
        )),
    )
    l12_1 = QuotientType("L12", 1)
    forms[l12_1.name] = (
        ExpansionForm(l12_1, 1, (
            SSlot(upper=_E2, twist=_E1, t_scale=_E1),
            SSlot(upper=_E3, twist=_E2, t_scale=_E2),
            SSlot(upper=_E1, twist=_E3, t_scale=_E3),
        )),
    )
    return forms


FORMS: dict[str, tuple[ExpansionForm, ...]] = _build_forms()

QUOTIENT_TYPES: dict[str, QuotientType] = {name: fs[0].qt for name, fs in FORMS.items()}


def parse_quotient_type(text: str) -> QuotientType:
    if text not in QUOTIENT_TYPES:
        raise ParameterError(f"unknown quotient type {text!r}; expected one of {sorted(QUOTIENT_TYPES)}")
    return QUOTIENT_TYPES[text]


# ---------------------------------------------------------------------------
# evaluation context


class EvalContext:
    """Shared caches for one (character, twist) pair.

    All values live at the fixed conductor lcm(r, order of chi); symbols
    ("B", twist residue, index) and ("S", twist residue, upper, index) name
    Bernoulli numbers and power sums, and products of symbol values are
    cached so repeated tensor assemblies stay cheap.
    """

    def __init__(self, chi: DirichletCharacter, twist: TwistSpec):
        self.chi = chi
        self.twist = twist
        self.d = chi.d
        self.r = twist.r
        self.m = math.lcm(twist.r, chi.order)
        self._xi = [CyclotomicNumber.zeta(twist.r, (twist.j * k) % twist.r).embed(self.m)
                    for k in range(twist.r)]
        self._chi = [chi(a).embed(self.m) for a in range(chi.d)]
        self._bern: dict[int, list[CyclotomicNumber]] = {}
        self._psum: dict[tuple[int, int, int], CyclotomicNumber] = {}
        self._symprod: dict[tuple, CyclotomicNumber] = {}
        self._tser: dict[tuple[int, int], TruncatedSeries] = {}
        self._dinv: dict[tuple[int, int], TruncatedSeries] = {}
        self._dser: dict[tuple[int, int], TruncatedSeries] = {}
        self._yexp: dict[tuple, TruncatedSeries] = {}
        # theorem sides by (form_id, w, n_max); read and filled only by
        # identities._side_polys
        self.side_memo: dict[tuple, list[YPoly]] = {}
        self.zero = CyclotomicNumber.zero(self.m)
        self.one = CyclotomicNumber.one(self.m)

    def xi_pow(self, e: int) -> CyclotomicNumber:
        return self._xi[e % self.r]

    def chi_val(self, a: int) -> CyclotomicNumber:
        return self._chi[a % self.d]

    def bern(self, w_exp: int, n: int) -> list[CyclotomicNumber]:
        """B_{0..n, chi, xi^w_exp}; requires r not dividing d*w_exp."""
        key = w_exp % self.r
        seq = self._bern.get(key)
        if seq is None or len(seq) <= n:
            egf = bernoulli_egf(self.chi, self.twist, key, max(n, 8), self.m)
            seq = [egf.egf_coefficient(i) for i in range(max(n, 8) + 1)]
            self._bern[key] = seq
        return seq

    def psum(self, k: int, upper: int, w_exp: int) -> CyclotomicNumber:
        key = (k, upper, w_exp % self.r)
        val = self._psum.get(key)
        if val is None:
            val = self.zero
            for a in range(upper + 1):
                cv = self._chi[a % self.d]
                if cv.is_zero():
                    continue
                apow = 1 if k == 0 else a ** k
                if apow:
                    val = val + (cv * self.xi_pow(key[2] * a)).scale(apow)
            self._psum[key] = val
        return val

    def sym_value(self, sym: tuple) -> CyclotomicNumber:
        if sym[0] == "B":
            return self.bern(sym[1], sym[2])[sym[2]]
        return self.psum(sym[3], sym[2], sym[1])

    def sym_product(self, syms: tuple) -> CyclotomicNumber:
        if not syms:
            return self.one
        if len(syms) == 1:
            return self.sym_value(syms[0])
        val = self._symprod.get(syms)
        if val is None:
            val = self.sym_product(syms[:-1]) * self.sym_value(syms[-1])
            self._symprod[syms] = val
        return val

    # -- closed-form building blocks ------------------------------------

    def char_sum_series(self, scale: int, order: int) -> TruncatedSeries:
        """T_W = sum_{a<d} chi(a) xi^(aW) e^(aWt)."""
        key = (scale, order)
        s = self._tser.get(key)
        if s is None:
            s = TruncatedSeries.zero(order, self.m)
            for a in range(self.d):
                cv = self._chi[a]
                if cv.is_zero():
                    continue
                s = s + TruncatedSeries.exp_linear(a * scale, order, self.m).scale(cv * self.xi_pow(a * scale))
            self._tser[key] = s
        return s

    def denom_series(self, scale: int, order: int) -> TruncatedSeries:
        """D_W = xi^(dW) e^(dWt) - 1."""
        key = (scale, order)
        s = self._dser.get(key)
        if s is None:
            s = TruncatedSeries.exp_linear(self.d * scale, order, self.m).scale(self.xi_pow(self.d * scale)) \
                - TruncatedSeries.one(order, self.m)
            self._dser[key] = s
        return s

    def denom_inverse(self, scale: int, order: int, factor: str) -> TruncatedSeries:
        key = (scale, order)
        s = self._dinv.get(key)
        if s is None:
            if (self.d * scale) % self.r == 0:
                raise NonUnitConstantError(
                    f"xi^(d*{factor}) = 1 at w-scale {scale}: r={self.r} divides d*{scale}",
                    factor=factor,
                )
            s = TruncatedSeries.one(order, self.m) / self.denom_series(scale, order)
            self._dinv[key] = s
        return s

    def exp_scalar(self, coeff: Fraction, order: int) -> TruncatedSeries:
        key = (coeff, order)
        s = self._yexp.get(key)
        if s is None:
            s = TruncatedSeries.exp_linear(CyclotomicNumber.from_rational(coeff, self.m), order, self.m)
            self._yexp[key] = s
        return s


# ---------------------------------------------------------------------------
# mutation controls


@dataclass(frozen=True)
class Mutation:
    """A deliberate single-site perturbation used by the no-vacuous-pass tests.

    kind 'binomial' doubles one slot's EGF coefficient at t-degree `degree`
    (equivalently scales the binomial weights pairing that degree); 'twist'
    bumps one slot's twist exponent by 1; 'wpower' multiplies one slot's
    t-scale by w1.
    """

    kind: str
    slot: int = 0
    degree: int = 1

    def __post_init__(self):
        if self.kind not in ("binomial", "twist", "wpower"):
            raise ValueError(f"unknown mutation kind {self.kind!r}")


# ---------------------------------------------------------------------------
# expansion evaluation


def _check_conditions(qt: QuotientType, twist: TwistSpec, w: Sequence[int]) -> None:
    if len(w) != qt.arity:
        raise ParameterError(f"{qt.name} needs a w-tuple of length {qt.arity}")
    if any(x < 1 for x in w):
        raise ParameterError("w components must be positive integers")
    for mono in qt.conditions():
        if mono_val(mono, w) % twist.r == 0:
            # the arithmetic face of the violated condition: the unit
            # denominator xi^(d*mono) - 1 collapses
            raise NonUnitConstantError(
                f"{qt.name} requires r not dividing {mono_name(mono)}; "
                f"r={twist.r} divides {mono_val(mono, w)} at w={tuple(w)}",
                factor=mono_name(mono),
            )


def _slot_symbolic(ctx: EvalContext, slot: Slot, w: Sequence[int], n: int,
                   y_count: int, mutation: Optional[Mutation], slot_index: int):
    """Per t-degree k: dict {(y_exps, syms): Fraction} for one slot factor."""
    mut = mutation if mutation is not None and mutation.slot == slot_index else None
    zero_y = (0,) * y_count
    out = []
    r = ctx.r
    d = ctx.d
    if isinstance(slot, SSlot):
        tw = mono_val(slot.twist, w) + (1 if mut and mut.kind == "twist" else 0)
        ts = mono_val(slot.t_scale, w) * (w[0] if mut and mut.kind == "wpower" else 1)
        upper = d * mono_val(slot.upper, w) - 1
        for k in range(n + 1):
            coeff = Fraction(ts ** k, math.factorial(k))
            if mut and mut.kind == "binomial" and k == mut.degree:
                coeff *= 2
            out.append({(zero_y, (("S", tw % r, upper, k),)): coeff})
        return out

    tw = mono_val(slot.twist, w) + (1 if mut and mut.kind == "twist" else 0)
    ts = mono_val(slot.t_scale, w) * (w[0] if mut and mut.kind == "wpower" else 1)
    arg = mono_val(slot.arg_scale, w)
    twr = tw % r
    if (d * tw) % r == 0:
        raise NonUnitConstantError(
            f"xi^(d*{mono_name(slot.twist)}) = 1 at w={tuple(w)}",
            factor=mono_name(slot.twist),
        )
    if not slot.asums:
        for k in range(n + 1):
            base = Fraction(ts ** k, math.factorial(k))
            if mut and mut.kind == "binomial" and k == mut.degree:
                base *= 2
            entries = {}
            for e in range(k + 1):
                i = k - e
                if i == 0 and k > 0:
                    continue  # B_0 = 0 for every valid twisted instance
                y = list(zero_y)
                y[slot.y_var] = e
                entries[(tuple(y), (("B", twr, i),))] = base * math.comb(k, e) * arg ** e
            out.append(entries)
        return out

    shifts = []
    for asum in slot.asums:
        shifts.append((
            d * mono_val(asum.upper, w) - 1,
            mono_val(asum.xi_exp, w) % r,
            Fraction(mono_val(asum.frac_num, w), mono_val(asum.frac_den, w)),
        ))
    if len(shifts) == 1:
        up1, xi1, f1 = shifts[0]
        for k in range(n + 1):
            base = Fraction(ts ** k, math.factorial(k))
            if mut and mut.kind == "binomial" and k == mut.degree:
                base *= 2
            entries = {}
            # i = 0 contributes B_0 * S = 0 and is skipped for k >= 1
            for i in range(1 if k else 0, k + 1):
                bc = math.comb(k, i)
                for e in range(k - i + 1):
                    p = k - i - e
                    y = list(zero_y)
                    y[slot.y_var] = e
                    syms = tuple(sorted((("B", twr, i), ("S", xi1, up1, p))))
                    key = (tuple(y), syms)
                    coeff = base * bc * math.comb(k - i, e) * arg ** e * f1 ** p
                    entries[key] = entries.get(key, Fraction(0)) + coeff
            out.append(entries)
        return out

    (up1, xi1, f1), (up2, xi2, f2) = shifts
    for k in range(n + 1):
        base = Fraction(ts ** k, math.factorial(k))
        if mut and mut.kind == "binomial" and k == mut.degree:
            base *= 2
        entries = {}
        for i in range(1 if k else 0, k + 1):
            bc = math.comb(k, i)
            rem = k - i
            for e in range(rem + 1):
                for p in range(rem - e + 1):
                    q = rem - e - p
                    y = list(zero_y)
                    y[slot.y_var] = e
                    syms = tuple(sorted((("B", twr, i), ("S", xi1, up1, p), ("S", xi2, up2, q))))
                    key = (tuple(y), syms)
                    multinom = Fraction(math.factorial(rem),
                                        math.factorial(e) * math.factorial(p) * math.factorial(q))
                    coeff = base * bc * multinom * arg ** e * f1 ** p * f2 ** q
                    entries[key] = entries.get(key, Fraction(0)) + coeff
        out.append(entries)
    return out


def _convolve_symbolic(slot_lists, n: int, y_count: int):
    cur = [dict() for _ in range(n + 1)]
    cur[0][((0,) * y_count, ())] = Fraction(1)
    for sl in slot_lists:
        nxt = [dict() for _ in range(n + 1)]
        for t1, entries in enumerate(cur):
            if not entries:
                continue
            for t2 in range(n + 1 - t1):
                add = sl[t2]
                if not add:
                    continue
                bucket = nxt[t1 + t2]
                for (y1, s1), c1 in entries.items():
                    for (y2, s2), c2 in add.items():
                        key = (tuple(a + b for a, b in zip(y1, y2)), tuple(sorted(s1 + s2)))
                        prev = bucket.get(key)
                        bucket[key] = c1 * c2 if prev is None else prev + c1 * c2
        cur = nxt
    return cur


YPoly = dict[tuple[int, ...], CyclotomicNumber]


def expansion_polys(form: ExpansionForm, w: Sequence[int], ctx: EvalContext,
                    n_max: int, mutation: Optional[Mutation] = None,
                    check: bool = True) -> list[YPoly]:
    """The form's bracketed t^n/n! coefficients for n = 0..n_max, each as a
    polynomial in the y variables with cyclotomic coefficients."""
    if n_max < 0:
        raise ParameterError("n_max must be nonnegative")
    if check:
        _check_conditions(form.qt, ctx.twist, w)
    y_count = max(1, form.qt.y_count)
    slot_lists = [
        _slot_symbolic(ctx, slot, w, n_max, y_count, mutation, idx)
        for idx, slot in enumerate(form.slots)
    ]
    tensor = _convolve_symbolic(slot_lists, n_max, y_count)
    polys: list[YPoly] = []
    for n, entries in enumerate(tensor):
        fact = math.factorial(n)
        grouped: dict[tuple[int, ...], list] = {}
        for (y, syms), coeff in entries.items():
            grouped.setdefault(y, []).append((coeff * fact, ctx.sym_product(syms)))
        poly: YPoly = {}
        for y, terms in grouped.items():
            val = linear_combination(terms, ctx.m)
            if not val.is_zero():
                poly[y] = val
        polys.append(poly)
    return polys


def eval_ypoly(poly: YPoly, y: Sequence[Fraction], m: int) -> CyclotomicNumber:
    terms = []
    for exps, val in poly.items():
        scalar = Fraction(1)
        for yv, e in zip(y, exps):
            if e:
                scalar *= Fraction(yv) ** e
        terms.append((scalar, val))
    return linear_combination(terms, m)


def expansion_coefficients(form: ExpansionForm, w: Sequence[int], y: Sequence,
                           chi: DirichletCharacter, twist: TwistSpec, n_max: int,
                           ctx: Optional[EvalContext] = None,
                           mutation: Optional[Mutation] = None) -> list[CyclotomicNumber]:
    """The displayed coefficient of t^n/n! at a concrete rational y-point."""
    ctx = ctx or EvalContext(chi, twist)
    y = tuple(Fraction(v) for v in y)
    need = max(1, form.qt.y_count)
    if len(y) < need:
        y = y + (Fraction(0),) * (need - len(y))
    polys = expansion_polys(form, w, ctx, n_max, mutation)
    return [eval_ypoly(p, y, ctx.m) for p in polys]


# ---------------------------------------------------------------------------
# closed forms


def closed_form_series(qt: QuotientType, w: Sequence[int], y: Sequence,
                       chi: DirichletCharacter, twist: TwistSpec, order: int,
                       ctx: Optional[EvalContext] = None) -> TruncatedSeries:
    """The explicit right-hand-side series of the quotient type, exact to
    the requested order."""
    if order < 0:
        raise ParameterError("order must be nonnegative")
    ctx = ctx or EvalContext(chi, twist)
    _check_conditions(qt, twist, w)
    y = tuple(Fraction(v) for v in y)
    if len(y) < qt.y_count:
        raise ParameterError(f"{qt.name} needs {qt.y_count} y value(s)")

    if qt.family == "G":
        w1, w2 = w
        prod_all = w1 * w2
        num = ctx.char_sum_series(w1, order) * ctx.char_sum_series(w2, order)
        if qt.index:
            dq = ctx.denom_series(prod_all, order)
            for _ in range(qt.index):
                num = num * dq
        ysum = sum(y[: 2 - qt.index], Fraction(0))
        if ysum:
            num = num * ctx.exp_scalar(prod_all * ysum, order)
        num = num * ctx.denom_inverse(w1, order, "w1") * ctx.denom_inverse(w2, order, "w2")
        return num.shift_up(2 - qt.index).truncate(order)

    w1, w2, w3 = w
    q = w1 * w2 * w3
    pairs = (w2 * w3, w1 * w3, w1 * w2)
    pair_names = ("w2*w3", "w1*w3", "w1*w2")
    if qt.family == "L23":
        num = ctx.char_sum_series(pairs[0], order) * ctx.char_sum_series(pairs[1], order) \
            * ctx.char_sum_series(pairs[2], order)
        if qt.index:
            dq = ctx.denom_series(q, order)
            for _ in range(qt.index):
                num = num * dq
        ysum = sum(y[: 3 - qt.index], Fraction(0))
        if ysum:
            num = num * ctx.exp_scalar(q * ysum, order)
        for p, nm in zip(pairs, pair_names):
            num = num * ctx.denom_inverse(p, order, nm)
        return num.shift_up(3 - qt.index).truncate(order)

    if qt.family == "L13":
        num = ctx.char_sum_series(w1, order) * ctx.char_sum_series(w2, order) \
            * ctx.char_sum_series(w3, order)
        if qt.index:
            dq = ctx.denom_series(q, order)
            for _ in range(qt.index):
                num = num * dq
        ysum = sum(y[: 3 - qt.index], Fraction(0))
        if ysum:
            num = num * ctx.exp_scalar(q * ysum, order)
        num = num * ctx.denom_inverse(w1, order, "w1") * ctx.denom_inverse(w2, order, "w2") \
            * ctx.denom_inverse(w3, order, "w3")
        return num.shift_up(3 - qt.index).truncate(order)

    # L12
    num = ctx.char_sum_series(w1, order) * ctx.char_sum_series(w2, order) \
        * ctx.char_sum_series(w3, order)
    if qt.index == 0:
        ysum = y[0] * sum(pairs)
        if ysum:
            num = num * ctx.exp_scalar(ysum, order)
        shift = 3
    else:
        for p in pairs:
            num = num * ctx.denom_series(p, order)
        shift = 0
    num = num * ctx.denom_inverse(w1, order, "w1") * ctx.denom_inverse(w2, order, "w2") \
        * ctx.denom_inverse(w3, order, "w3")
    return num.shift_up(shift).truncate(order)


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
                      ctx: Optional[EvalContext] = None,
                      mutation: Optional[Mutation] = None) -> ConsistencyReport:
    """Assert expansion_n = weight * n![t^n] closed_form for every form of
    the type; report the first mismatch with both values."""
    if n_max < 0:
        raise ParameterError("n_max must be nonnegative")
    ctx = ctx or EvalContext(chi, twist)
    y = tuple(Fraction(v) for v in y)
    need = qt.y_count
    if len(y) < need:
        y = y + (Fraction(0),) * (need - len(y))
    closed = closed_form_series(qt, w, y, chi, twist, n_max, ctx)
    report = ConsistencyReport(qt.name, tuple(w), y, n_max, [f.form_id for f in FORMS[qt.name]])
    for form in FORMS[qt.name]:
        weight = form_weight(form, w)
        values = expansion_coefficients(form, w, y, chi, twist, n_max, ctx, mutation)
        for n in range(n_max + 1):
            lhs = values[n]
            rhs = closed.egf_coefficient(n).scale(weight)
            if lhs != rhs:
                report.mismatch = ConsistencyMismatch(form.form_id, n, lhs, rhs)
                return report
    return report
