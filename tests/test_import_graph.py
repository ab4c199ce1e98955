"""The package's own import graph, read from the source without importing it."""

import ast
import builtins
from pathlib import Path

import cryoforge

PACKAGE = Path(cryoforge.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _own_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports when it is itself imported:
    every import outside a function body, relative or by package name."""
    found, stack = set(), list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs at call time, when every module is loaded
        if isinstance(node, ast.ImportFrom):
            name = ".".join(["cryoforge"] * node.level + [node.module or ""]).strip(".")
            if name == "cryoforge":  # from . import x
                found.update(alias.name for alias in node.names)
            elif name.startswith("cryoforge."):
                found.add(name.split(".")[1])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            found.update(name.split(".")[1] for name in names if name.startswith("cryoforge."))
        stack.extend(ast.iter_child_nodes(node))
    return found & MODULES


def _graph() -> dict[str, set[str]]:
    return {path.stem: _own_imports(path) for path in PACKAGE.glob("*.py")}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that ends where it starts, or None."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module) :] + [module]
        if module in done:
            return None
        for dep in sorted(graph[module]):
            cycle = visit(dep, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return None


def test_reader_finds_every_import_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .recon import wbp_reconstruct\n"
        "from . import io\n"
        "import cryoforge.scene\n"
        "from cryoforge.volume import DensityVolume\n"
        "import numpy\n"
        "try:\n    from .apt import apt_forward\nexcept ImportError:\n    pass\n"
        "def late():\n    from .tiltalign import align_series\n"
    )
    assert _own_imports(source) == {"recon", "io", "scene", "volume", "apt"}


def test_cycle_finder_names_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_package_imports_form_no_cycle():
    cycle = _cycle(_graph())
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


def test_recon_does_not_import_tiltalign():
    # the aligner may call recon (projection matching), so recon must not
    # depend on tiltalign, or that call would close a cycle
    assert "tiltalign" not in _graph()["recon"]


def _unused_imports(path: Path) -> list[str]:
    """Names that a module-level import of ``path`` binds and nothing in the
    module reads, as ``line: name``; a line marked ``# noqa: F401`` (kept
    for a reason it states) is exempt."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_import_finder(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from .io import read_mrc, write_mrc\n"
        "from .recon import fourier_shift_2d  # noqa: F401  kept for a tracer\n"
        "def f(x: np.ndarray):\n    return sys.argv, write_mrc\n"
    )
    assert _unused_imports(source) == ["2: os", "4: read_mrc"]


def test_package_has_no_unused_import():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = {path.name: _unused_imports(path) for path in paths}
    unused = {name: found for name, found in unused.items() if found}
    assert not unused, f"unused imports: {unused}"


def _uncaught_exceptions(paths) -> list[str]:
    """Exception classes that ``paths`` define and that no ``except`` clause
    in them names, as ``module.Class``. A class is an exception class when a
    base is a built-in exception or another such class of ``paths``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    classes = {(module, node.name): [ast.unparse(base).split(".")[-1] for base in node.bases]
               for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    size = 0
    while size < len(exceptions):  # until no class joins
        size = len(exceptions)
        exceptions |= {name for (_, name), bases in classes.items() if exceptions & set(bases)}
    caught = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for node in ast.walk(handler.type) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(f"{module}.{name}" for module, name in classes
                  if name in exceptions and name not in caught)


def test_uncaught_exception_finder(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Base(ValueError):\n    pass\n"
        "class Leaf(Base):\n    pass\n"
        "class Caught(RuntimeError):\n    pass\n"
        "class Plain:\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "try:\n    pass\nexcept (a.Caught, OSError):\n    pass\n"
    )
    assert _uncaught_exceptions(sorted(tmp_path.glob("*.py"))) == ["a.Base", "a.Leaf"]


def test_every_exception_class_is_caught_by_type():
    # a class that no except clause names only renames its base
    uncaught = _uncaught_exceptions(sorted(PACKAGE.glob("*.py")))
    assert not uncaught, f"exception classes no except clause names: {uncaught}"
