import importlib
import pkgutil

import nctorus


def test_every_export_resolves():
    # a deletion must not leave its name behind in a module's __all__
    modules = [importlib.import_module(f"nctorus.{m.name}") for m in pkgutil.iter_modules(nctorus.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 11
    stale = [f"{m.__name__}.{n}" for m in exporting for n in m.__all__ if not hasattr(m, n)]
    assert stale == []
