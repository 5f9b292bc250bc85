"""Static checks on the package source: every imported name is used, each
module imports only modules below it in the layer order, no module
reaches for ``numpy.linalg`` or scipy, and none builds a raw strided view
of memory."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import centroqx

MODULES = sorted(Path(centroqx.__file__).parent.glob("*.py"))

# Each module may import only modules before it here. The package's
# ``__init__`` and ``__main__`` sit above every layer.
LAYERS = (
    "errors", "rng", "linalg", "centro", "xops", "matio", "qx", "bounds", "condnum", "harness",
    "cli",
)
LAYERED = [p for p in MODULES if p.stem not in ("__init__", "__main__")]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. A name counts as read when it
    appears in an expression, in a quoted annotation, or in ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_a_dead_import():
    source = (
        'import math\nfrom .centro import FoldedPair, fold\nfrom typing import Optional\n\n'
        'def f(x: "Optional[int]"):\n    """Returns a FoldedPair."""\n    return fold(math.pi)\n'
    )
    assert unused_imports(source) == ["FoldedPair (line 2)"]


def layer_violations(source: str, module: str) -> list[str]:
    """Package modules that ``module`` imports (relatively) from its own
    position in ``LAYERS`` or later. ``from . import name`` counts ``name``
    when it is a module; otherwise it reads the package ``__init__``."""
    own = LAYERS.index(module)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            found += [
                f"{t} (line {node.lineno})" for t in targets
                if t in LAYERS and LAYERS.index(t) >= own
            ]
    return found


def test_layer_order_lists_every_module():
    assert sorted(p.stem for p in LAYERED) == sorted(LAYERS)


@pytest.mark.parametrize("path", LAYERED, ids=[p.name for p in LAYERED])
def test_imports_follow_the_layer_order(path):
    assert layer_violations(path.read_text(encoding="utf-8"), path.stem) == []


def test_layer_check_flags_a_back_edge():
    source = (
        "from . import __version__\nfrom .centro import fold\n\n"
        "def f():\n    from .bounds import BOUNDS\n    return BOUNDS\n"
    )
    assert layer_violations(source, "qx") == ["bounds (line 5)"]
    assert layer_violations(source, "condnum") == []


def foreign_kernels(source: str) -> list[str]:
    """Uses of ``numpy.linalg`` or ``scipy``: imports of either, and reads
    of ``.linalg`` on a name numpy is bound to."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name.split(".")[0] == "scipy" or alias.name.startswith("numpy.linalg"):
                    found.append(f"import {alias.name} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            names = [alias.name for alias in node.names]
            if node.module.split(".")[0] == "scipy" or node.module.startswith("numpy.linalg") or (
                node.module == "numpy" and "linalg" in names
            ):
                found.append(f"from {node.module} import {', '.join(names)} (line {node.lineno})")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            found.append(f"{node.value.id}.linalg (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_numpy_linalg_or_scipy(path):
    """The kernels are the package's own, with tolerances and failure modes
    pinned here rather than by a LAPACK build."""
    assert foreign_kernels(path.read_text(encoding="utf-8")) == []


def test_foreign_kernel_check_flags_planted_uses():
    source = (
        "import numpy as xp\nimport scipy.linalg\nfrom numpy import linalg, ndarray\n"
        "from scipy import sparse\nimport numpy.linalg as la\n\n"
        "def f(a):\n    \"\"\"Not numpy.linalg.\"\"\"\n"
        "    return xp.linalg.norm(a) + np.linalg.det(a) + a.linalg\n"
    )
    assert foreign_kernels(source) == [
        "import scipy.linalg (line 2)",
        "from numpy import linalg, ndarray (line 3)",
        "from scipy import sparse (line 4)",
        "import numpy.linalg (line 5)",
        "xp.linalg (line 9)",
        "np.linalg (line 9)",
    ]


STRIDE_NAMES = frozenset({"as_strided", "stride_tricks"})


def strided_views(source: str) -> list[str]:
    """Raw strided views of memory: ``ndarray(...)`` given a buffer or
    strides (by keyword, or positionally from its third argument on), and
    any reach for ``as_strided`` or ``numpy.lib.stride_tricks`` (a name, an
    attribute or an import)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            keys = [k.arg for k in node.keywords if k.arg in ("buffer", "strides")]
            if callee == "ndarray" and (keys or len(node.args) > 2):
                found.append(f"ndarray({', '.join(keys) or 'positional'}) (line {node.lineno})")
        if isinstance(node, ast.Name):
            parts = [node.id]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
        elif isinstance(node, ast.alias):
            parts = node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in sorted(STRIDE_NAMES.intersection(parts))]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_raw_strided_views(path):
    """Views are taken by slicing, reshaping and transposing, which numpy
    checks against the array's bounds; a hand-made buffer view is not."""
    assert strided_views(path.read_text(encoding="utf-8")) == []


def test_strided_view_check_flags_planted_uses():
    source = (
        "import numpy as np\nfrom numpy.lib.stride_tricks import as_strided\n"
        "import numpy.lib.stride_tricks\n\n"
        "def f(a):\n"
        "    v = np.ndarray((2, 2), buffer=a, strides=(8, 8))\n"
        "    w = np.ndarray((2,), float, a)\n"
        "    x = np.lib.stride_tricks.sliding_window_view(a, 2)\n"
        "    fresh = np.ndarray((2, 2)) + np.ndarray(shape=(2,), dtype=float)\n"
        "    return as_strided(a, (2,), (8,)), a.diagonal(), a.reshape(2, -1).T\n"
    )
    assert strided_views(source) == [
        "stride_tricks (line 2)",
        "as_strided (line 2)",
        "stride_tricks (line 3)",
        "ndarray(buffer, strides) (line 6)",
        "ndarray(positional) (line 7)",
        "stride_tricks (line 8)",
        "as_strided (line 10)",
    ]


# Public names that no package module reads: the entry points a library
# user calls. Anything else unread is test-only code and belongs in the tests.
ENTRY_POINTS = {"centro.is_centrosymmetric", "matio.read_matrices", "qx.x_inverse"}


def unread_public_names(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each public top-level function or class in
    ``sources`` (module name -> source) that no source reads, by name or as
    an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined if name.split(".")[1] not in read}


def test_only_the_entry_points_lack_a_package_reader():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.stem != "__init__"}
    assert unread_public_names(sources) == ENTRY_POINTS


def test_unread_name_check_flags_a_dead_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef _private():\n    pass\n\nclass Dead:\n    pass\n",
        "b": (
            "from .a import used\n\ndef entry(x):\n    return used() + x.by_attribute()\n\n"
            "def by_attribute():\n    pass\n"
        ),
    }
    assert unread_public_names(sources) == {"a.Dead", "b.entry"}
