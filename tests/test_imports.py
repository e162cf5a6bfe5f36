"""Every module-level import of the package and its tests is read, and
training binds none of tensor's pair-map kernels.

No linter ships with the project, so this is its unused-import check. A
name an import binds at module level must be read somewhere in the module
or listed in its __all__. Package __init__ files, which re-export, `from
__future__` imports and names on a line marked `# noqa: F401` are exempt.
"""

import ast
from pathlib import Path

import pytest

import cban.dynamics
import cban.tensor
import cban.training

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for folder in (ROOT / "src" / "cban", ROOT / "tests")
                 for p in folder.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each module-level import binding in source that is
    never read and not in __all__."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            if name not in read and name not in exported:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_what_it_must():
    source = "\n".join([
        "from __future__ import annotations",
        "import json",
        "import os.path",
        "from a import (b,",
        "    c as d,  # noqa: F401",
        "    e)",
        "from f import g",
        "__all__ = ['g']",
        "print(os, e)",
        "def h():",
        "    import sys",
    ])
    assert unused_imports(source) == [(2, "json"), (4, "b")]


def pair_map_bindings(module):
    """The names module binds to ConvKernel or to a _conv*, _pool*, _spread*
    or _flip* object of cban.tensor."""
    barred = {id(v) for n, v in vars(cban.tensor).items()
              if n == "ConvKernel" or n.startswith(("_conv", "_pool", "_spread", "_flip"))}
    return sorted(n for n, v in vars(module).items() if id(v) in barred)


def test_training_binds_no_pair_map_of_tensor():
    # how a pair maps (matrix transpose, kernel reversal, pooling and its
    # transpose) is stated in dynamics alone, and the TD(1) backward takes
    # each pair term back through dynamics' maps
    assert pair_map_bindings(cban.training) == []
    assert {"ConvKernel", "_pool2_np"} <= set(pair_map_bindings(cban.dynamics))
