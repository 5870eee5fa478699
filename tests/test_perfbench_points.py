"""The traced benchmark's entry points exist in the package.

`perfbench/layertrace.py` refuses to trace when an entry point named in its
`METRIC_POINTS` is gone; this test fails first, at the change that removes
or renames one.
"""

import importlib.util
from pathlib import Path

import bernsym
import bernsym.cli  # noqa: F401  (the tracer reads every layer module)

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
