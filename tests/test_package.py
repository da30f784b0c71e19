"""Public surface: one definition and one export per name."""

import importlib
import pkgutil

import isingrg


def test_one_export_per_name():
    # each public name is exported by exactly one submodule's __all__, and
    # the package re-exports that same object
    owners = {}
    for info in pkgutil.iter_modules(isingrg.__path__):
        mod = importlib.import_module(f"isingrg.{info.name}")
        for name in getattr(mod, "__all__", ()):
            owners.setdefault(name, []).append(mod)
    assert {n: [m.__name__ for m in mods] for n, mods in owners.items()
            if len(mods) > 1} == {}
    for name in isingrg.__all__:
        assert hasattr(isingrg, name), name
        if name in owners:
            assert getattr(isingrg, name) is getattr(owners[name][0], name), name
