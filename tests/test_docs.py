"""The names the docs cite still exist.

A backticked dotted name in README.md or in a module of `src/bernsym`,
such as `quotients.MAX_STORE_BYTES` or `TruncatedSeries.mul_exp`, is
checked when its first part is bernsym, one of its modules, or a class
that bernsym defines: each further part must resolve by getattr.  Other
dotted names (``ctx.chi``, file names) are not checked.  The README's
table of process-wide caches lists every cache in `src/bernsym`.
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


# module-level calls that make a table filled at run time
_TABLE_MAKERS = {"dict", "set", "list", "OrderedDict", "defaultdict", "WeakValueDictionary",
                 "WeakKeyDictionary", "WeakSet"}


def _name(node) -> str:
    """The last part of a Name or an Attribute (`functools.lru_cache` -> lru_cache)."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_table(value, stores: set[str]) -> bool:
    """An empty dict or list literal, or a call that makes a table."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return isinstance(value, ast.Call) and _name(value.func) in _TABLE_MAKERS | stores


def _process_caches() -> set[str]:
    """`module.name` of every process-wide cache in src/bernsym: a function
    decorated with lru_cache or cache, and a module-level table, bound to an
    empty literal, to a call that makes an empty container, or to an
    instance of a class with a cache_clear method."""
    found = set()
    for path in sorted((ROOT / "src" / "bernsym").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stores = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
                  and any(isinstance(item, ast.FunctionDef) and item.name == "cache_clear" for item in node.body)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if _name(deco.func if isinstance(deco, ast.Call) else deco) in ("lru_cache", "cache"):
                        found.add(f"{path.stem}.{node.name}")
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_table(node.value, stores):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {f"{path.stem}.{target.id}" for target in targets if isinstance(target, ast.Name)}
    return found


def _inventory() -> set[str]:
    """The caches the README's table of process-wide caches lists."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Process-wide caches", 1)[1].split("\n## ", 1)[0]
    return {match.group(1) for match in re.finditer(r"^\| `([\w.]+)`", section, re.MULTILINE)}


def test_every_process_wide_cache_is_in_the_inventory():
    caches, listed = _process_caches(), _inventory()
    assert len(caches) >= 20   # the walk finds the caches at all
    assert {"quotients._stored", "quotients._SHARED", "quotients._NORMALS", "series._fold_bits"} <= caches
    assert not caches - listed, sorted(caches - listed)
    assert not listed - caches, sorted(listed - caches)
