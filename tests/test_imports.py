"""Every module of the package and of the tests reads each name it
imports; ``__init__.py`` is left out, since its imports are re-exports."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [path for path in (ROOT / "src" / "specmatch").glob("*.py")
     if path.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import
    order; ``from __future__`` imports are left out."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport numpy as np\n"
                          "from a import b, c\nprint(np, c)\n") == ["os", "b"]
    unused = {path.relative_to(ROOT).as_posix(): names for path in MODULES
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def package_imports(source: str) -> list[str]:
    """Each import statement of ``source``, at any level (function bodies
    included), that reads a module of the package: a relative import or
    an absolute ``specmatch`` one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            top = (node.module or "").partition(".")[0]
            if node.level or top == "specmatch":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            if any(alias.name.partition(".")[0] == "specmatch"
                   for alias in node.names):
                found.append(ast.unparse(node))
    return found


def test_graph_imports_no_other_module_of_the_package():
    # spectra, families, matchfactor, harness and cli import graph, so an
    # import back from graph closes a cycle
    assert package_imports(
        "import numpy\nfrom . import spectra\nfrom os import path\n"
        "def f():\n    from .spectra import stack_size\n"
        "    import specmatch.harness as hz\n") == [
        "from . import spectra", "from .spectra import stack_size",
        "import specmatch.harness as hz"]
    graph = ROOT / "src" / "specmatch" / "graph.py"
    assert package_imports(graph.read_text(encoding="utf-8")) == []
