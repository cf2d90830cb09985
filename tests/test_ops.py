"""The operator protocol's exported names."""

from ordexp import ops


def test_star_import_gives_every_exported_name():
    # a definition deleted from `matrix` or `ops` must take its export with it
    namespace = {}
    exec("from ordexp.ops import *", namespace)
    assert ops.__all__ and all(namespace[name] is getattr(ops, name) for name in ops.__all__)
