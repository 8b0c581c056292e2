"""Every exported name resolves, and the package re-exports exactly what
its library modules declare."""

from __future__ import annotations

import importlib

import projcad

MODULES = ("projcad", "projcad.polyring", "projcad.subresultants",
           "projcad.projection", "projcad.algnum", "projcad.lifting",
           "projcad.cadcore", "projcad.cli")

LIBRARY = ("projcad.polyring", "projcad.subresultants", "projcad.projection",
           "projcad.algnum", "projcad.lifting", "projcad.cadcore")


def test_all_names_resolve():
    exporting = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        names = getattr(mod, "__all__", ())
        assert len(set(names)) == len(names), name
        for attr in names:
            assert hasattr(mod, attr), "%s.%s" % (name, attr)
            exporting.add(name)
    # the package and the modules that declare __all__ all took part
    assert exporting == set(MODULES)


def test_package_reexports_the_library_modules():
    owner = {}
    for name in LIBRARY:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            assert attr not in owner, "%s in two modules" % attr
            owner[attr] = mod
    assert sorted(projcad.__all__) == sorted(owner)
    for attr, mod in owner.items():
        # the package's binding is the object its module defines
        obj = getattr(projcad, attr)
        assert obj is getattr(mod, attr) and obj.__module__ == mod.__name__, attr
