"""Package hygiene checked on the source itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "degreeflow"


def _unused_imports(path: Path) -> list[str]:
    """Top-level imported names that the module never refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_top_level_imports():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = [entry for p in modules for entry in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_exported_name_exists():
    # nothing imports *, so a name left in __all__ after its definition was
    # removed would otherwise go unnoticed
    names = ["degreeflow"] + [f"degreeflow.{p.stem}" for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert not missing, "names in __all__ that do not exist:\n" + "\n".join(missing)
