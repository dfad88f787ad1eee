import ast
import importlib
import pkgutil
from pathlib import Path

import nctorus

ROOT = Path(__file__).resolve().parent.parent


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


def _identifiers(tree) -> list:
    """(name, line) of every identifier a module names: variables,
    attributes and whole string constants, outside ``__all__``."""
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed = {id(n) for n in ast.walk(node.value)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append((n.id, n.lineno))
        elif isinstance(n, ast.Attribute):
            out.append((n.attr, n.lineno))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in listed:
            out.append((n.value, n.lineno))
    return out


def _is_click_command(node) -> bool:
    return any("command" in ast.unparse(d) or "group" in ast.unparse(d) for d in node.decorator_list)


def _definitions(tree) -> list:
    """(qualified name, name, first line, last line) of the top-level
    functions and classes of a module and the public methods of its
    classes; click commands are left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if not isinstance(node, defs) or _is_click_command(node):
            continue
        out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno))
    return out


def _unnamed(paths) -> list:
    """The package definitions that no module of ``paths`` names outside
    the definition's own body."""
    package = sorted((ROOT / "src" / "nctorus").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in set(package) | set(paths)}
    names = {p: _identifiers(t) for p, t in trees.items()}
    elsewhere = {}  # name -> the paths that name it
    for p in paths:
        for name, _ in names[p]:
            elsewhere.setdefault(name, set()).add(p)
    dead = []
    for p in package:
        for qualified, name, first, last in _definitions(trees[p]):
            if elsewhere.get(name, set()) - {p}:
                continue
            if not any(n == name and not first <= line <= last for n, line in names[p]):
                dead.append(f"{p.name}: {qualified}")
    assert len(package) >= 12
    return dead


def test_every_definition_is_named_elsewhere():
    # a definition that nothing names outside its own body is dead code
    paths = sorted((ROOT / "src" / "nctorus").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert _unnamed(paths + sorted((ROOT / "perfbench").rglob("*.py"))) == []


def test_no_helper_serves_only_the_tests():
    # what only tests name is not part of the program; the two helpers
    # left are the acceptance test's
    assert _unnamed(sorted((ROOT / "src" / "nctorus").glob("*.py"))) == [
        "coeff.py: UnitDecomposition.recompose",
        "sampling.py: random_unit_scalar",
    ]


def test_no_module_reads_the_environment():
    # a run is set by its configuration file and the command line only
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "nctorus").glob("*.py"))
    assert len(paths) >= 11
    found = [
        f"{p.name}:{line}"
        for p in paths
        for name, line in _identifiers(ast.parse(p.read_text(encoding="utf-8")))
        if name in ("environ", "getenv")
    ]
    assert found == []


def _package_imports(path: Path) -> set:
    """The ``nctorus`` modules that a module imports, relatively or by name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nctorus":
            parts = node.module.split(".")
            out |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("nctorus.")}
    return out


def test_checks_is_a_leaf_and_picard_does_not_import_gerbe():
    # the window sampler and the check loop serve every layer, so they
    # import none; the Appell-Humbert layer does not rest on the gerbe
    package = Path(__file__).resolve().parent.parent / "src" / "nctorus"
    assert _package_imports(package / "checks.py") == set()
    picard = _package_imports(package / "picard.py")
    assert "checks" in picard and "gerbe" not in picard


def _private_imports(path: Path) -> list:
    """(module, name) of every ``_``-prefixed name a module imports from
    another ``nctorus`` module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nctorus")):
            out += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
    return out


def test_private_names_cross_modules_only_on_the_allow_list():
    # a private decision of one module that another reads is a leak
    package = Path(__file__).resolve().parent.parent / "src" / "nctorus"
    found = sorted(pair for p in package.glob("*.py") for pair in _private_imports(p))
    assert found == [
        ("cli", "_default_z_choices"),
        ("expalg", "_reduced"),
        ("moyal_oracle", "_flatten"),
        ("picard", "_circle"),
        ("picard", "_reduced"),
        ("textfmt", "_circle"),
        ("textfmt", "_reduced"),
    ]
