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


def _unread_names(paths) -> list[str]:
    """Top-level names that ``paths`` define (a ``def``, a ``class`` or an
    assignment in a module's own body) and that no module of ``paths`` reads
    outside that definition, as ``module.name``. A read is a load of the
    name or of an attribute of that name (``cio.read_mrc``), matched by
    name alone; dunder names (``__version__``) are exempt."""
    defined, read_in = {}, {}  # read_in: name -> {(module, top-level statement)}
    for path in paths:
        for index, node in enumerate(ast.parse(path.read_text()).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:  # imports, loops, the __main__ guard
                names = set()
            for name in names:
                if not name.startswith("__"):
                    defined[path.stem, name] = index
            for sub in ast.walk(node):
                if isinstance(getattr(sub, "ctx", None), ast.Load):
                    name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                    read_in.setdefault(name, set()).add((path.stem, index))
    return sorted(f"{module}.{name}" for (module, name), index in defined.items()
                  if not read_in.get(name, set()) - {(module, index)})


def test_unread_name_finder(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Selfish:\n    @classmethod\n    def make(cls):\n        return Selfish()\n"
        "__version__ = '1'\n"
        "for unread in range(2):\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def caller():\n    return a.used()\n"
        "caller()\n"
    )
    assert _unread_names(sorted(tmp_path.glob("*.py"))) == [
        "a.Selfish", "a.UNUSED", "a.recursive"
    ]


# read by no module of the package, and kept for the reason given
UNREAD_BY_DESIGN = {
    "apt.apt_forward": "the paper's API: the tokenizer's forward pass",
    "nrcl.nrcl_step": "the paper's API: one evaluation of the contrastive objective",
    "nrcl.LinearProjectionEncoder": "the paper's API: the deterministic encoder nrcl_step runs with",
    "tiltalign.phase_correlate": "the paper's API: drift recovery, checked by criterion 5",
    "io.read_metadata": "perfbench pins it (ROADMAP item 20 releases it)",
    "tiltsim.project_tilt": "perfbench pins it (ROADMAP item 20 releases it)",
    "recon.reproject": "the groundwork of the projection matcher (ROADMAP item 2b-i)",
}


def test_every_top_level_name_is_read_by_the_package():
    # a name only tests reach belongs in tests/; the CLI reaches cmd_* by name
    unread = {name for name in _unread_names(sorted(PACKAGE.glob("*.py")))
              if not name.startswith("cli.cmd_")}
    assert not unread - UNREAD_BY_DESIGN.keys(), (
        f"top-level names the package never reads: {sorted(unread - UNREAD_BY_DESIGN.keys())}"
    )
    assert unread >= UNREAD_BY_DESIGN.keys(), "an allowed name is now read: drop it from the list"


def _environment_reads(path: Path) -> list[str]:
    """Where ``path`` reads the process environment, as ``line: expression``:
    each use of ``os.environ``, ``os.environb`` or ``os.getenv``, and each
    import of one of them from ``os``."""
    names = {"environ", "environb", "getenv"}
    found = []  # (line, expression)
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {alias.name}")
                      for alias in node.names if alias.name in names]
    return [f"{line}: {expression}" for line, expression in sorted(found)]


def test_environment_read_finder(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import os\n"
        "from os import getenv, path\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B', '1')\n"
        "c = os.cpu_count(), path.sep, getenv\n"
        "d = 'os.environ'\n"
    )
    assert _environment_reads(source) == [
        "2: from os import getenv", "3: os.environ", "4: os.getenv"
    ]


# modules that read the environment, and why; a run's inputs are its
# arguments and its config, so nothing else may
READS_THE_ENVIRONMENT = {
    "pipeline": "the densify provenance row reports the BLAS and OpenMP thread caps (_THREAD_CAPS)",
}


def test_package_reads_no_environment_variable():
    reads = {path.stem: _environment_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {module: found for module, found in reads.items() if found}
    hidden = {module: found for module, found in reads.items()
              if module not in READS_THE_ENVIRONMENT}
    assert not hidden, f"modules that read the environment: {hidden}"
    assert reads.keys() >= READS_THE_ENVIRONMENT.keys(), (
        "an allowed module no longer reads the environment: drop it from the list"
    )
