import functools
import math
from fractions import Fraction

import pytest
import sympy
from sympy.ntheory import discrete_log, primitive_root

from bernsym import quotients


@pytest.fixture
def cold_store():
    """The process-wide series store, emptied: for tests whose series must
    all be built during the test, not read from an earlier one."""
    quotients._stored.cache_clear()
    return quotients._stored


# An oracle that shares no code with bernsym, for the character sums

_J, _N, _X = sympy.symbols("j n x", integer=True, nonnegative=True)


@functools.lru_cache(maxsize=None)
def _sympy_power_sum(i):
    """sum_{j<n} j^i as a polynomial in n, summed by sympy."""
    return sympy.Poly(sympy.summation(_J ** i, (_J, 0, _N - 1)), _N)


def _sympy_character_sums(d, e, r, w, order, upper):
    """The power-basis coordinates of sum_{a<upper} chi(a) zeta_r^(wa) a^k/k!
    for k = 0..order, in sympy alone.  d is an odd prime, and chi(g) =
    zeta_(d-1)^e at the smallest primitive root g mod d, the generator the
    label (e,) refers to; chi(a) is read from sympy's discrete logs.  Each
    class c mod L = lcm(d, r) sums (c + jL)^k over j < n from sympy's
    expansion in j and sympy's sums of j^i over j < n."""
    m = math.lcm(r, (d - 1) // math.gcd(d - 1, e))
    g = primitive_root(d, smallest=True)
    period = math.lcm(d, r)
    rows = [{} for _ in range(order + 1)]  # exponent s of zeta_m -> integer coefficient
    for c in range(min(period, upper)):
        if c % d == 0:
            continue
        exponent = (e * discrete_log(d, c, g) * m // (d - 1) + m // r * w * c) % m
        n = (upper - 1 - c) // period + 1
        sums = [int(_sympy_power_sum(i).eval(n)) for i in range(order + 1)]
        linear, power = sympy.Poly(c + period * _J, _J), sympy.Poly(1, _J)
        for row in rows:
            value = sum(int(a) * sums[i] for i, a in enumerate(reversed(power.all_coeffs())))
            row[exponent] = row.get(exponent, 0) + value
            power *= linear
    modulus = sympy.Poly(sympy.cyclotomic_poly(m, _X), _X, domain=sympy.QQ)
    phi = int(sympy.totient(m))
    out = []
    for k, row in enumerate(rows):
        poly = sympy.Poly.from_dict({(s,): sympy.Rational(v, math.factorial(k)) for s, v in row.items()} or {(0,): 0},
                                    _X, domain=sympy.QQ)
        coeffs = [Fraction(int(x.p), int(x.q)) for x in reversed(poly.rem(modulus).all_coeffs())]
        out.append(tuple(coeffs + [Fraction(0)] * (phi - len(coeffs))))
    return out


@pytest.fixture
def sympy_character_sums():
    """(d, e, r, w, order, upper) -> the coordinates of the t^k/k! rows of
    sum_{a<upper} chi(a) zeta_r^(wa) e^(at), computed in sympy alone."""
    return _sympy_character_sums


@pytest.fixture
def no_padic_work(monkeypatch):
    """Every function on the p-adic work path patched to raise: the
    Bernoulli target (`gen_bernoulli_numbers`), the per-level core
    (`padic._level_sum`) and the class kernel (`_class_sums`).  A refusal
    seen under it came before any work."""
    from bernsym import bernoulli, padic

    def work(*args, **kwargs):
        raise AssertionError("the p-adic work started")

    for module, name in ((padic, "gen_bernoulli_numbers"), (padic, "_level_sum"),
                         (padic, "_class_sums"), (bernoulli, "_class_sums")):
        monkeypatch.setattr(module, name, work)
