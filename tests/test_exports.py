import ast
import importlib
import pkgutil
from pathlib import Path

import nctorus


def test_every_export_resolves():
    # a deletion must not leave its name behind in a module's __all__
    modules = [importlib.import_module(f"nctorus.{m.name}") for m in pkgutil.iter_modules(nctorus.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 11
    stale = [f"{m.__name__}.{n}" for m in exporting for n in m.__all__ if not hasattr(m, n)]
    assert stale == []


def _unused_imports(path: Path) -> list:
    """Top-level imports of a module that it never names; a name listed
    in ``__all__`` counts as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.parent.name}/{path.name}: {name}" for name in imported if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "nctorus").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(paths) >= 20
    assert [u for p in paths for u in _unused_imports(p)] == []
