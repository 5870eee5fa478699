"""The benchmark's entry points and API exist in the package.

`perfbench/layertrace.py` refuses to trace when an entry point named in its
`METRIC_POINTS` is gone, and `perfbench/workloads.py` calls the package by
name; these tests fail first, at the change that removes or renames one.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import bernsym
import bernsym.cli  # noqa: F401  (the tracer reads every layer module)
import bernsym.quotients

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_cover_every_metric_point():
    layertrace = load_layertrace()
    points = set(layertrace.entry_points(bernsym).values())
    assert set(layertrace.METRIC_POINTS.values()) <= points


WORKLOADS = LAYERTRACE.parent / "workloads.py"


def test_workloads_api_resolves():
    # the benchmark calls bernsym only as lib.<layer>.<name>; every such name
    # must exist, or a benchmark run of this tree fails where the tests pass
    used = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "lib"):
            used.add((node.value.attr, node.attr))
    assert ("quotients", "QUOTIENT_TYPES") in used
    missing = [f"{layer}.{name}" for layer, name in sorted(used)
               if not hasattr(importlib.import_module(f"bernsym.{layer}"), name)]
    assert missing == []
    # the quotient-type attributes the workloads read, conditions() called
    for qt in bernsym.quotients.QUOTIENT_TYPES.values():
        assert isinstance(qt.name, str) and isinstance(qt.arity, int) and isinstance(qt.y_count, int)
        assert callable(qt.conditions) and isinstance(qt.conditions(), tuple)
