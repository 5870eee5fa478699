"""Every name that `src/bernsym` defines is used by the program.

A module-level function, class or constant, and a method of a module-level
class, must be named somewhere in `src/bernsym` (the CLI included), in
`perfbench/`, or as an entry point in `pyproject.toml`, outside its own
definition.  Code that only the tests use belongs in the tests
(`tests/helpers.py`).  A name counts as named by:

  * a bare name or an import, for a function, class or constant;
  * an attribute, `x.name`, for all of them, methods included, so a local
    variable that happens to share a method's name does not count;
  * a string in `src/bernsym` that is exactly the name, such as a
    `getattr`-style lookup (docstrings and `__all__` lists do not count).

A name in perfbench's tables of layers to trace is not a use: a traced
function that nothing calls reads 0 calls.  Dunder names are left out, so
an operator that nothing applies is not flagged.  A use is matched by name
alone, not by the class it belongs to: a method that shares its name with
a used one of another class passes unused, as `TruncatedSeries.one` and
`zero` did beside `CyclotomicNumber.one` and `zero`.
`ALLOWED` names each exception and why it stays; an entry that the scan no
longer flags, or that no longer exists, fails too, so the list stays exact.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bernsym"

ALLOWED = {
    "exactnum.linear_combination":
        "traced as a layer by perfbench/layertrace.py (the exactnum.linear_combination.* "
        "metrics); goes when the tracer's layers change (ROADMAP item 15)",
    "quotients.expansion_polys":
        "traced by perfbench/layertrace.py, which reads its distinct-ratio metrics from it; "
        "moves to the tests with spread_ypolys and YPoly when the tracer changes (ROADMAP item 15)",
    "identities.GridReport.failures":
        "a grid report's failure count for one theorem and mode, the query the acceptance "
        "criteria make of a report",
    "padic.distribution_check":
        "the measure's distribution relation of the p-adic sandbox, which acceptance "
        "criterion 9 checks",
    "quotients._Store.cache_info":
        "the series store's entries, bytes, hits, misses and evictions: the interface of the "
        "functools caches beside it, read by the tests and by a run that explains itself (item 5)",
    "quotients._Store.cache_clear":
        "empties the process-wide series store, as functools caches offer: the tests' cold "
        "store starts here",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> list[tuple[str, bool, ast.AST]]:
    """(dotted name within the module, is a method, node) of every name the
    module defines at its top level, and of its classes' methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, False, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{sub.name}", True, sub) for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(sub.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, False, node) for t in targets if isinstance(t, ast.Name) and not _dunder(t.id)]
    return out


def _skipped_strings(tree: ast.Module) -> set[int]:
    """The ids of the docstring and `__all__` constants of a module."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skipped |= {id(item) for item in ast.walk(node.value)}
    return skipped


def _references(tree: ast.Module, strings: bool) -> list[tuple[str, bool, int]]:
    """(name, is an attribute or import, line) of every name the module's
    code uses, and, with `strings`, of every string that is exactly a name."""
    skipped = _skipped_strings(tree) if strings else set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, False, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, True, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], True, node.lineno))
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skipped):
            out.append((node.value, True, node.lineno))
    return out


def _unnamed(src: Path = SRC) -> set[str]:
    """module.name of every definition in the package at `src` that nothing
    names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    refs = [(path, *ref) for path, tree in trees.items() for ref in _references(tree, strings=True)]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs += [(path, *ref) for ref in _references(ast.parse(path.read_text(encoding="utf-8")), strings=False)]
    scripts = re.findall(r'=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    refs += [(None, target, True, 0) for target in scripts]
    out = set()
    for path, tree in trees.items():
        for name, method, node in _definitions(tree):
            short = name.rpartition(".")[2]
            if not any(ref == short and (attr or not method)
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, ref, attr, line in refs):
                out.add(f"{path.stem}.{name}")
    return out


def test_every_name_in_src_is_used_by_the_program():
    unnamed = _unnamed()
    assert unnamed - set(ALLOWED) == set(), "named by nothing in src/, the CLI or perfbench/"
    assert set(ALLOWED) - unnamed == set(), "allowed but used (or gone): drop it from ALLOWED"


def test_the_scan_finds_an_unused_name(tmp_path):
    # the guard is not vacuous: a function that only names itself is
    # flagged, and once another module calls it, it is not
    copy = tmp_path / "bernsym"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with (copy / "series.py").open("a", encoding="utf-8") as out:
        out.write("\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n")
    assert "series.orphan" in _unnamed(copy)
    with (copy / "errors.py").open("a", encoding="utf-8") as out:
        out.write("\n\ndef caller():\n    from .series import orphan\n    return orphan(3)\n")
    unnamed = _unnamed(copy)
    assert "series.orphan" not in unnamed and "errors.caller" in unnamed
