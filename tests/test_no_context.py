"""Every answer is a function of (chi, twist) and the instance alone.

The verifier's readers take the character and the twist themselves: no
function or method of `quotients`, `identities` or `cli` takes a `ctx`
parameter, and none of them builds an `EvalContext`, except where the
benchmark, which cannot change with the program, passes or reads one
(`CONTEXT_PARAMETERS`).  Where a context is still passed, it is not read,
so one for another pair changes no answer.
"""

import ast
import inspect
from fractions import Fraction
from pathlib import Path

from bernsym import cli, identities, quotients
from bernsym.bernoulli import TwistSpec
from bernsym.dirichlet import DirichletCharacter
from bernsym.quotients import QUOTIENT_TYPES, EvalContext, closed_form_series, consistency_check

MODULES = (quotients, identities, cli)

# The parameters named ctx that stay, and why: each goes when the
# benchmark's workloads and tracer change (ROADMAP item 15)
CONTEXT_PARAMETERS = {
    "quotients.closed_form_series":
        "perfbench/workloads.py passes its context as the trailing argument; it is not read",
    "quotients.consistency_check":
        "perfbench/workloads.py passes its context as the trailing argument; it is not read",
    "quotients.expansion_polys":
        "perfbench/layertrace.py binds the ctx argument by name to key the expansions it records",
}


def _functions(module):
    """(module.name, function) of every function the module defines at its
    top level, and of every method, property and static or class method of
    its classes."""
    prefix = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{prefix}.{name}", obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, val in vars(obj).items():
                fn = getattr(val, "__func__", None) or getattr(val, "fget", None) or getattr(val, "func", val)
                if inspect.isfunction(fn):
                    yield f"{prefix}.{name}.{attr}", fn


def test_no_reader_takes_a_context():
    taking = {name for module in MODULES for name, fn in _functions(module)
              if "ctx" in inspect.signature(fn).parameters}
    assert taking == set(CONTEXT_PARAMETERS)


def test_the_guard_sees_methods_and_properties():
    # the scan reaches the class members it must check: a static method, a
    # cached property and a plain method
    names = {name for module in MODULES for name, _ in _functions(module)}
    assert {"quotients.EvalContext.sym_product", "quotients.ExpansionForm._hash",
            "quotients.EvalContext.__init__", "identities.verify_instance"} <= names


def test_no_reader_builds_a_context():
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        built = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "EvalContext"]
        assert built == [], module.__name__


# a pair, and a context for another one: at w1 = 7 that pair's r = 7
# divides d*w1, so a check that read it would refuse T_w1/D_w1
PAIR = DirichletCharacter(5, (1,)), TwistSpec(3)
OTHER = EvalContext(DirichletCharacter(5, (2,)), TwistSpec(7))


def _points(qt):
    y = (Fraction(1, 2),) * qt.y_count
    return [(w, y) for w in ((1, 2, 4)[:qt.arity], (7, 1, 2)[:qt.arity])]


def test_a_foreign_trailing_context_leaves_the_closed_form():
    series = closed_form_series(QUOTIENT_TYPES["G1"], (1, 2), (0,), *PAIR, 4)
    assert series.m == 12
    assert closed_form_series(QUOTIENT_TYPES["G1"], (1, 2), (0,), *PAIR, 4, OTHER) == series
    for qt in QUOTIENT_TYPES.values():
        for w, y in _points(qt):
            assert closed_form_series(qt, w, y, *PAIR, 4, OTHER) == closed_form_series(qt, w, y, *PAIR, 4), \
                (qt.name, w)


def test_a_foreign_trailing_context_leaves_the_consistency_report():
    for qt in QUOTIENT_TYPES.values():
        for w, y in _points(qt):
            report = consistency_check(qt, w, y, *PAIR, 4)
            assert report.passed, (qt.name, w)
            assert consistency_check(qt, w, y, *PAIR, 4, OTHER).to_json() == report.to_json(), (qt.name, w)
