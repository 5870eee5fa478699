"""Dirichlet characters mod d with exact cyclotomic values.

Characters are labeled by exponent tuples against a deterministic cyclic
decomposition of the unit group: smallest primitive root per odd prime
power, the (-1, 5) pair for powers of 2 at least 8.  The label is a stable
external identifier; enumeration order is lexicographic in the label.

Convention at d = 1: the character is identically 1 on all integers
(including 0), so the d = 1 generating function degenerates to the plain
twisted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .errors import ParameterError
from .exactnum import CyclotomicNumber, _factorize, divisors, euler_phi

# Ceiling on the modulus d, checked before d is factored.  `chars --d`
# lists phi(d) characters with d values each, the costliest use of d: it
# took 0.39 s at d = 101, 1.0 s at d = 149, 1.6 s at d = 199 (the largest
# prime under the ceiling) and 9.0 s at d = 331 on a 2-core Xeon.  The
# ceiling keeps every d < 200, the range the unit groups and characters
# are checked on against sympy.  An audit instance with the trivial
# character stays far below that (0.05 s at d = 1009); the field that a
# character of large order needs is bounded by `bernoulli.MAX_FIELD_DEGREE`.
MAX_MODULUS = 200


def _multiplicative_order(g: int, mod: int) -> int:
    order = 1
    x = g % mod
    while x != 1:
        x = (x * g) % mod
        order += 1
        if order > mod:
            raise ArithmeticError("not a unit")
    return order


@lru_cache(maxsize=None)
def _smallest_primitive_root(q: int) -> int:
    """Smallest primitive root modulo an odd prime power q."""
    target = euler_phi(q)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if _multiplicative_order(g, q) == target:
            return g
    raise ArithmeticError(f"no primitive root mod {q}")


def _crt_lift(residue: int, q: int, d: int) -> int:
    """The residue mod d that is `residue` mod q and 1 mod d/q."""
    rest = d // q
    if rest == 1:
        return residue % d
    inv_q = pow(q, -1, rest)
    # x = residue + q * t with x = 1 mod rest
    t = ((1 - residue) * inv_q) % rest
    return (residue + q * t) % d


@lru_cache(maxsize=None)
def unit_group_structure(d: int) -> tuple[tuple[int, int], ...]:
    """Deterministic cyclic decomposition of (Z/dZ)*: (generator, order) pairs.

    The 2-part comes first (the {-1, 5} pair for 2^k, k >= 3), then odd prime
    powers in ascending order.  Empty for d in {1, 2}.
    """
    if d < 1:
        raise ParameterError("d must be positive")
    if d > MAX_MODULUS:
        raise ParameterError(f"character modulus d={d} is above the ceiling of {MAX_MODULUS}")
    if d in (1, 2):
        return ()
    factors = _factorize(d)
    pairs: list[tuple[int, int]] = []
    for p, e in factors:
        q = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                pairs.append((_crt_lift(3, 4, d), 2))
            else:
                pairs.append((_crt_lift(q - 1, q, d), 2))
                pairs.append((_crt_lift(5, q, d), 2 ** (e - 2)))
        else:
            g = _smallest_primitive_root(q)
            pairs.append((_crt_lift(g, q, d), euler_phi(q)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _discrete_log_table(d: int) -> dict[int, tuple[int, ...]]:
    """Map each unit mod d to its exponent tuple over the chosen generators."""
    gens = unit_group_structure(d)
    table: dict[int, tuple[int, ...]] = {}
    ranges = [range(order) for _, order in gens]
    for exps in product(*ranges):
        a = 1
        for (g, _), e in zip(gens, exps):
            a = (a * pow(g, e, d)) % d
        table[a] = exps
    assert len(table) == euler_phi(d)
    return table


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod d determined by its exponent label.

    `exponents[i]` sets chi(g_i) = zeta_{n_i}^{exponents[i]} for the i-th
    cyclic factor (g_i, n_i).  `order` is the order of chi itself; nonzero
    values are stored in Q(zeta_order).
    """

    d: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        gens = unit_group_structure(self.d)
        if len(self.exponents) != len(gens):
            raise ParameterError(f"label for d={self.d} needs {len(gens)} exponents")
        for k, (_, order) in zip(self.exponents, gens):
            if not 0 <= k < order:
                raise ParameterError(f"label entry {k} out of range for factor of order {order}")

    # cached: every value chi(a) reads it
    @cached_property
    def order(self) -> int:
        gens = unit_group_structure(self.d)
        e = 1
        for k, (_, n) in zip(self.exponents, gens):
            if k:
                e = math.lcm(e, n // math.gcd(n, k))
        return e

    def _value_exponent(self, a: int) -> int | None:
        """Exponent s with chi(a) = zeta_order^s, or None when chi(a) = 0."""
        if self.d == 1:
            return 0
        a %= self.d
        if math.gcd(a, self.d) != 1:
            return None
        gens = unit_group_structure(self.d)
        logs = _discrete_log_table(self.d)[a]
        e = self.order
        s = 0
        for k, t, (_, n) in zip(self.exponents, logs, gens):
            # chi(g_i)^t = zeta_n^(k t) = zeta_e^(k t e / n); e is chosen so
            # that k*e/n is integral for every factor
            s += k * t * e // n
        return s % e

    def __call__(self, a: int) -> CyclotomicNumber:
        s = self._value_exponent(a)
        if s is None:
            return CyclotomicNumber.zero(self.order)
        return CyclotomicNumber.zeta(self.order, s)

    def conductor(self) -> tuple[int, bool]:
        """Smallest f | d such that chi is induced from a character mod f."""
        for f in divisors(self.d):
            if all(
                self._value_exponent(a) == 0
                for a in range(1, self.d + 1)
                if a % f == 1 % f and math.gcd(a, self.d) == 1
            ):
                return f, f == self.d
        return self.d, True  # pragma: no cover

    @property
    def is_primitive(self) -> bool:
        return self.conductor()[1]

    def key(self) -> tuple:
        return (self.d, self.exponents)

    def to_json(self) -> dict:
        return {"d": self.d, "exponents": list(self.exponents), "order": self.order}

    def __str__(self):
        label = ",".join(map(str, self.exponents)) or "-"
        return f"chi[{self.d}:{label}]"


def trivial_character(d: int) -> DirichletCharacter:
    return DirichletCharacter(d, tuple(0 for _ in unit_group_structure(d)))


def enumerate_characters(d: int) -> list[DirichletCharacter]:
    """All phi(d) characters mod d, ordered by exponent label."""
    gens = unit_group_structure(d)
    ranges = [range(order) for _, order in gens]
    return [DirichletCharacter(d, exps) for exps in product(*ranges)]
