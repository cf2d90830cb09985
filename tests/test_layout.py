"""Each operator store is read only by the module that defines it.

An exact or float `Matrix` keeps its entries in `num` over one
denominator `den`: a flat list below `matrix.SPARSE_FROM` columns, its
nonzero rows from it on; only `matrix.py` may read or write them, or
import a private helper of `matrix`.  A
`FreeElement` keeps its words in `terms`, integer numerators over one
denominator `denom`, each word a tuple of letters with a `name`, `site`
and `degree`; only `freealg.py` may read them.  Every
other module goes through the methods of the two classes, so either store
can be replaced in its own file.
"""

import ast
from pathlib import Path

import ordexp

PACKAGE = Path(ordexp.__file__).resolve().parent

# Each store attribute and the one module that may touch it.
OWNER = {"num": "matrix.py", "den": "matrix.py",
         "terms": "freealg.py", "denom": "freealg.py",
         "name": "freealg.py", "site": "freealg.py", "degree": "freealg.py"}


def store_reads(path: Path) -> list:
    """`file:line` and what was touched, for each store access `path` may not make."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and OWNER.get(node.attr, path.name) != path.name:
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "matrix"
              and path.name != "matrix.py"):
            found += [f"{path.name}:{node.lineno} imports matrix.{alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_each_operator_store_is_read_only_by_its_module(tmp_path):
    # the check itself sees each kind of access
    probe = tmp_path / "ops.py"
    probe.write_text("from .matrix import _wrap\n"
                     "def f(m, e, w):\n    return m.num, m.den, e.terms, e.denom, w[0].name\n")
    assert store_reads(probe) == ["ops.py:1 imports matrix._wrap", "ops.py:3 .num",
                                  "ops.py:3 .den", "ops.py:3 .terms", "ops.py:3 .denom",
                                  "ops.py:3 .name"]
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"matrix.py", "freealg.py", "ops.py"} <= {p.name for p in modules}
    assert [hit for path in modules for hit in store_reads(path)] == []
