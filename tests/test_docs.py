"""The names the docs cite still exist.

A backticked dotted name in README.md or in a module of `src/bernsym`,
such as `quotients.STORE_SIZE` or `TruncatedSeries.mul_exp`, is checked
when its first part is bernsym, one of its modules, or a class that
bernsym defines: each further part must resolve by getattr.  Other dotted
names (``ctx.side_memo``, file names) are not checked.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import bernsym

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")


def _roots() -> dict[str, object]:
    modules = {info.name: importlib.import_module(f"bernsym.{info.name}")
               for info in pkgutil.iter_modules(bernsym.__path__)}
    roots: dict[str, object] = {"bernsym": bernsym, **modules}
    for module in modules.values():
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__.startswith("bernsym."):
                roots.setdefault(name, obj)
    return roots


def _cited_names(roots) -> list[tuple[str, str]]:
    """(file, dotted name) for every backticked name with a bernsym root."""
    files = [ROOT / "README.md", *sorted((ROOT / "src" / "bernsym").glob("*.py"))]
    return [(path.name, match.group(1)) for path in files
            for match in DOTTED.finditer(path.read_text(encoding="utf-8"))
            if match.group(1).split(".")[0] in roots]


def _resolves(roots, name: str) -> bool:
    first, *rest = name.split(".")
    obj = roots[first]
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_backticked_names_resolve():
    roots = _roots()
    cited = _cited_names(roots)
    assert len(cited) >= 30   # the check reads the docs at all
    stale = [f"{path}: {name}" for path, name in cited if not _resolves(roots, name)]
    assert not stale, stale


def test_every_size_ceiling_is_cited():
    # each module-level MAX_* constant of src/bernsym is cited in README.md
    # as `module.NAME`, which test_backticked_names_resolve keeps resolving
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    ceilings = [f"{path.stem}.{target.id}"
                for path in sorted((ROOT / "src" / "bernsym").glob("*.py"))
                for node in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name) and target.id.startswith("MAX_")]
    assert len(ceilings) >= 7   # the check reads the modules at all
    missing = [name for name in ceilings if f"`{name}`" not in readme]
    assert not missing, missing
