"""Every exported name resolves."""

from __future__ import annotations

import importlib

MODULES = ("projcad", "projcad.polyring", "projcad.subresultants",
           "projcad.projection", "projcad.algnum", "projcad.lifting",
           "projcad.cadcore", "projcad.cli")


def test_all_names_resolve():
    checked = 0
    for name in MODULES:
        mod = importlib.import_module(name)
        names = getattr(mod, "__all__", ())
        assert len(set(names)) == len(names), name
        for attr in names:
            assert hasattr(mod, attr), "%s.%s" % (name, attr)
            checked += 1
    # the package and the modules that declare __all__ all took part
    assert checked > 100
