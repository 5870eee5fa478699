"""Mutation controls: single-site perturbations the checks must catch,
planted from the test side, so that a passing check is shown not to be
vacuous without a second code path in `bernsym`.

Three kinds perturb one slot of a form at a w-tuple as its side (P, C) is
built (`mutated_side`):

  * 'binomial' doubles the t^degree coefficient of the slot's y-free
    factor P_s, the product of its factors, which for an S slot is its
    whole t^degree coefficient;
  * 'twist' bumps the slot's twist exponent by 1 and keeps its t-scale;
  * 'wpower' multiplies the slot's t-scale by w1 and keeps its twist.

`mutation` plants one of them for the length of a block.  Data mutants
(`data_mutants`) change the forms themselves instead: each is a form with
one slot monomial's exponent moved by 1, or one B slot moved to another y
variable.
"""

import contextlib
from dataclasses import replace

import pytest

from bernsym import identities, quotients
from bernsym.bernoulli import ParameterError
from bernsym.quotients import (
    BSlot,
    ExpansionForm,
    SSlot,
    _factors,
    _int_or_fraction,
    _slot_keys,
    mono_name,
    mono_val,
)
from bernsym.series import NonUnitConstantError, TruncatedSeries

KINDS = ("binomial", "twist", "wpower")


def _perturbed_keys(ctx, slot, w, kind) -> tuple[list[tuple], int]:
    """The slot's factor keys and c_s (`quotients._slot_keys`) with its twist
    exponent bumped by 1 ('twist': the first key's twist class moves, its
    scale does not) or its t-scale multiplied by w1 ('wpower': the scales
    and c_s move, the twist class does not)."""
    keys, c = _slot_keys(ctx, slot, w)
    first = list(keys[0])   # ("S", upper end, twist class, scale) or ("B", twist class, scale)
    if kind == "twist":
        twist = mono_val(slot.twist, w) + 1
        if isinstance(slot, BSlot) and (ctx.d * twist) % ctx.r == 0:
            name = mono_name(slot.twist)
            raise NonUnitConstantError(f"xi^(d*{name}) = 1 at w={tuple(w)}", factor=name)
        first[-2] = twist % ctx.r
        return [tuple(first), *keys[1:]], c
    first[-1] *= w[0]
    if isinstance(slot, SSlot):
        return [tuple(first)], c
    c *= w[0]
    asums = [key[:-1] + (_int_or_fraction(c, mono_val(asum.upper, w)),)
             for key, asum in zip(keys[1:], slot.asums)]
    return [tuple(first), *asums], c


def mutated_side(form: ExpansionForm, w, ctx, n_max: int, kind: str, slot: int = 0,
                 degree: int = 1) -> quotients.Side:
    """(P, C) of the form at w, built as `quotients._build_side` builds it,
    with slot `slot` perturbed by `kind`.  A slot outside the form, and a
    binomial degree outside 0..n_max, would perturb nothing, so they are
    refused.  P is multiplied here (`EvalContext.sym_product`), never read
    from or written to the series store; the factor series it reads are
    the true series of their keys."""
    if kind not in KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}")
    if not 0 <= slot < len(form.slots):
        raise ParameterError(f"mutation slot {slot} outside 0..{len(form.slots) - 1}")
    if kind == "binomial" and not 0 <= degree <= n_max:
        raise ParameterError(f"mutation degree {degree} outside 0..{n_max}")
    ys = [0] * max(1, form.qt.y_count)
    factors = []
    for idx, s in enumerate(form.slots):
        if idx == slot and kind != "binomial":
            keys, c = _perturbed_keys(ctx, s, w, kind)
        else:
            keys, c = _slot_keys(ctx, s, w)
        slot_factors = _factors(ctx.chi, ctx.twist, keys, n_max)
        if idx == slot and kind == "binomial":
            coeffs = list(ctx.sym_product(slot_factors).coeffs)
            coeffs[degree] = coeffs[degree].scale(2)
            slot_factors = [TruncatedSeries(ctx.m, coeffs)]
        factors += slot_factors
        if c:
            ys[s.y_var] += c
    return ctx.sym_product(factors), tuple(ys)


@contextlib.contextmanager
def mutation(kind: str, slot: int = 0, degree: int = 1):
    """For the length of the block, every theorem instance verified has a
    mutated side 1, and every side `quotients._build_side` builds is
    mutated (`consistency_check`, `side_series`, `expansion_polys`,
    `expansion_coefficients`).

    Side 1's record (`identities._side_records`) is the mutated side with
    the clean side's weight, built before any other side, so a refused
    mutation does no work; the other records are read as usual.  The clean
    records, side 1's included, are built and memoised as in a clean run."""
    records = identities._side_records

    def mutated_records(thm, w, n_max, ctx):
        side = mutated_side(thm.base, thm.picks[0](w), ctx, n_max, kind, slot, degree)
        clean = records(thm, w, n_max, ctx)
        weight = clean[0].weight
        return [identities._SideRecord(side, weight, side[0].normal_form(weight)), *clean[1:]]

    def mutated_build(form, w, ctx, n_max, products=None):
        return mutated_side(form, w, ctx, n_max, kind, slot, degree)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_side_records", mutated_records)
        patch.setattr(quotients, "_build_side", mutated_build)
        yield


def planted(mut):
    """`mutation(*mut)`, or no mutation when mut is None."""
    return contextlib.nullcontext() if mut is None else mutation(*mut)


# ---------------------------------------------------------------------------
# data mutants


def _bumps(mono):
    """Every monomial with one exponent moved by 1 and none below 0."""
    for i, exp in enumerate(mono):
        for step in (-1, 1):
            if exp + step >= 0:
                yield mono[:i] + (exp + step,) + mono[i + 1:]


def _slot_mutants(slot, y_count):
    """Every single-site change of the slot: one monomial exponent moved by
    1, an a-sum's upper end and twist included, or a B slot moved to
    another of the y_count y variables."""
    fields = ("upper", "twist") if isinstance(slot, SSlot) else ("twist", "arg_scale")
    for name in fields:
        for mono in _bumps(getattr(slot, name)):
            yield replace(slot, **{name: mono})
    if isinstance(slot, SSlot):
        return
    for i, asum in enumerate(slot.asums):
        for changed in _slot_mutants(asum, y_count):
            yield replace(slot, asums=slot.asums[:i] + (changed,) + slot.asums[i + 1:])
    for y_var in range(y_count):
        if y_var != slot.y_var:
            yield replace(slot, y_var=y_var)


def data_mutants():
    """(type name, mutant) for every single-site data mutant of every form
    in `quotients.FORMS`, in the order of the types, forms and slots."""
    for name, forms in quotients.FORMS.items():
        for form in forms:
            for i, slot in enumerate(form.slots):
                for changed in _slot_mutants(slot, form.qt.y_count):
                    yield name, replace(form, slots=form.slots[:i] + (changed,) + form.slots[i + 1:])
