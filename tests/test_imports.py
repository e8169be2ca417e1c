"""Every name the package, its tests and its demos import is used. A name a
module lists in its own ``__all__`` is a re-export and counts as used; the
package ``__init__`` re-exports its API that way. No pipeline module imports
``oracles``: the reference implementations serve the tests only. Only
``harness`` imports ``ctypes``, for its one call into foreign code, the BLAS
thread pin. Only ``embedder`` reaches ``TupleView._trusted``, the view
constructor that checks nothing, and only on rows it draws itself; only
``models`` reaches ``Graph._trusted``, on matrices it builds symmetric."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src/powercycle", "tests", "demos") for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import in ``source`` that no
    other name in it reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n__all__ = ['loads']\nsystem.exit(dumps)\n"
    assert unused_imports(source) == [(1, "os")]


def test_no_unused_import():
    found = {
        str(path.relative_to(ROOT)): unused for path in SOURCES if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def imports_module(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a name from it."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return any(module in path.split(".") for path in paths)


def test_scan_finds_an_oracles_import():
    for source in ("from . import models, oracles\n", "from .oracles import naive_density\n", "import powercycle.oracles\n"):
        assert imports_module(source, "oracles")
    assert not imports_module("from . import models\nfrom .models import stream\n", "oracles")
    for source in ("import ctypes\n", "from ctypes import CDLL\n", "import ctypes.util\n"):
        assert imports_module(source, "ctypes")


PACKAGE = sorted((ROOT / "src/powercycle").glob("*.py"))


def test_no_pipeline_module_imports_the_oracles():
    assert [path.name for path in PACKAGE if path.name != "oracles.py" and imports_module(path.read_text(), "oracles")] == []


def test_only_the_harness_imports_ctypes():
    assert [path.name for path in PACKAGE if imports_module(path.read_text(), "ctypes")] == ["harness.py"]


TRUSTING = ("Graph", "TupleView")


def reads_trusted(source: str) -> set:
    """The classes whose ``_trusted`` constructor ``source`` reads: the
    attribute's owner when it is named ``Graph`` or ``TupleView``, directly
    or as a module attribute, called or aliased. Any other owner (an alias
    of a class, ``cls``, ``type(x)``) could be either, so it counts as both."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            found |= {name} if name in TRUSTING else set(TRUSTING)
    return found


def test_scan_finds_a_trusted_view():
    for source in (
        "TupleView._trusted(g, parts)\n",
        "graph_core.TupleView._trusted(g, parts)\n",
        "make = TupleView._trusted\nmake(g, parts)\n",
    ):
        assert reads_trusted(source) == {"TupleView"}
    assert reads_trusted("Graph._trusted(adj)\n") == {"Graph"}
    for source in ("View = TupleView\nView._trusted(g, parts)\n", "type(v)._trusted(g, parts)\n"):
        assert reads_trusted(source) == set(TRUSTING)
    for source in ("TupleView(g, parts)\n", "def _trusted(cls, g, parts):\n    pass\n", "'TupleView._trusted'\n"):
        assert reads_trusted(source) == set()


def test_only_the_embedder_builds_trusted_views():
    assert [path.name for path in PACKAGE if "TupleView" in reads_trusted(path.read_text())] == ["embedder.py"]


def test_only_the_models_adopt_trusted_matrices():
    assert [path.name for path in PACKAGE if "Graph" in reads_trusted(path.read_text())] == ["models.py"]
