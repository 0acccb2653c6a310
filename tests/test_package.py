import importlib
import pkgutil

import minkvox


def test_every_module_defines_its_all():
    # a stale __all__ entry makes `from minkvox.<module> import *` raise
    for info in pkgutil.iter_modules(minkvox.__path__):
        module = importlib.import_module(f"minkvox.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
