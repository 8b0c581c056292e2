"""Every exported name resolves."""

from __future__ import annotations

import importlib

MODULES = ("projcad", "projcad.polyring", "projcad.subresultants",
           "projcad.projection", "projcad.algnum", "projcad.lifting",
           "projcad.cadcore", "projcad.cli")


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
    assert exporting == {"projcad", "projcad.projection", "projcad.algnum",
                         "projcad.lifting", "projcad.cadcore", "projcad.cli"}
