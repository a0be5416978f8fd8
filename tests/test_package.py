"""Package hygiene: every exported name exists, every name a module imports
from a sibling is exported there, no module imports a name it never uses,
and no module defines a private function it never references."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sandwichbeam

PYPROJECT = Path(sandwichbeam.__file__).parents[2] / "pyproject.toml"

MODULES = [sandwichbeam.__name__] + [
    f"{sandwichbeam.__name__}.{info.name}" for info in pkgutil.iter_modules(sandwichbeam.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_sibling_imports_are_exported(name):
    # ``from .x import name`` reads only names that x exports
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            sibling = importlib.import_module(f"{sandwichbeam.__name__}.{node.module}")
            exported = getattr(sibling, "__all__", [])
            private += [(node.module, a.name) for a in node.names if a.name not in exported]
    assert not private, private


def imported_names(tree):
    """(bound name, line) of every import statement, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # the package root re-exports nothing: callers import the submodules
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", []))
    unused = [(alias, line) for alias, line in imported_names(tree) if alias not in used]
    assert not unused, unused


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_private_functions(name):
    # a module-level _private function is the module's own, so the module
    # must reference it by name or as an attribute
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    private = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
    ]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    unused = [fn for fn in private if fn not in used]
    assert not unused, unused


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_parameters(name):
    # every module-level function reads each of its parameters; methods are
    # exempt, since the delay and damping laws share a (self, t) protocol
    # that constant laws satisfy without reading t
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        unused += [(node.name, a.arg) for a in params if a.arg not in read]
    assert not unused, unused


def _source(module):
    return [inspect.getsource(module)]


def _looked_up(module):
    """The modules ``module`` imports, and its string constants other than
    dictionary keys: the names it could look a module up by."""
    tree = ast.parse(inspect.getsource(module))
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys}
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names += [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys
    ]
    return names


@pytest.mark.parametrize(
    "pattern, texts",
    [
        # importing scipy.linalg costs about 0.3 s of package set-up per command
        (r"scipy\.linalg", _source),
        # importing scipy runs its package set-up, about 18 ms of every command,
        # and its compiled BLAS would be a second OpenBLAS next to numpy's
        (r"^scipy(\.|$)", _looked_up),
    ],
    ids=["scipy.linalg", "scipy"],
)
def test_no_module_names_scipy(pattern, texts):
    # sandwichbeam.lapack binds the compiled routines from numpy's OpenBLAS
    naming = [
        name
        for name in MODULES
        if any(re.search(pattern, text) for text in texts(importlib.import_module(name)))
    ]
    assert naming == []


def test_declared_numpy_floor_has_what_the_package_calls():
    # the package calls np.vecdot and np.trapezoid, which numpy 1.x lacks
    floor = re.search(r'"numpy>=([0-9.]+)"', PYPROJECT.read_text()).group(1)
    assert tuple(int(part) for part in floor.split(".")) >= (2, 0), floor


def test_version_matches_pyproject():
    # manifests record sandwichbeam.__version__, which pyproject.toml also states
    declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), flags=re.M).group(1)
    assert sandwichbeam.__version__ == declared
