"""The package keeps no process-global state.

Every module of ``robolabor`` is read as source, and no function in it may
rebind or mutate a module-level name: no ``global`` or ``nonlocal``
statement, no mutating method call (``append``, ``update``, ``pop``, ...),
no subscript or attribute store or delete, and no augmented assignment on
an object reached from a module-level name. State a run reuses lives on
the objects it is handed, such as a loaded config's compiled sector table.
"""

import ast
from pathlib import Path

import pytest

import robolabor

SOURCES = sorted(Path(robolabor.__file__).resolve().parent.glob("*.py"))

MUTATORS = frozenset((
    "append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
    "setdefault", "add", "discard", "sort", "reverse", "difference_update",
    "intersection_update", "symmetric_difference_update", "__setitem__", "__delitem__",
    "__setattr__", "__delattr__"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _root(node):
    """The name an attribute or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(body):
    """Names a module or function body binds, not counting nested scopes'."""
    names = set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            stack.extend(node.decorator_list)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _parameters(function):
    args = function.args
    return {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                args.vararg, args.kwarg) if arg is not None}


def violations(source):
    """Each place where a function in ``source`` writes module-level state,
    as ``(line, what)``."""
    tree = ast.parse(source)
    module_names = _bound_names(tree.body)
    # a global name's augmented assignment needs a global statement, so
    # only a target reached through a subscript or attribute is left
    augmented = {id(node.target) for node in ast.walk(tree)
                 if isinstance(node, ast.AugAssign)}
    found = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                body = child.body if isinstance(child.body, list) else [child.body]
                visit(child, (local or set()) | _parameters(child) | _bound_names(body))
                continue
            if local is not None:
                check(child, local)
            visit(child, local)

    def shared(target, local):
        name = _root(target)
        return name is not None and name in module_names and name not in local

    def check(node, local):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            found.append((node.lineno, f"{type(node).__name__.lower()} "
                                       f"{', '.join(node.names)}"))
        elif (isinstance(node, (ast.Subscript, ast.Attribute))
              and isinstance(node.ctx, (ast.Store, ast.Del)) and shared(node.value, local)):
            what = ("augmented assignment" if id(node) in augmented
                    else type(node.ctx).__name__.lower())
            found.append((node.lineno, f"{what} into {_root(node.value)}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and shared(node.func.value, local)):
            found.append((node.lineno, f"{node.func.attr} on {_root(node.func.value)}"))

    # module-level code runs once, at import: only functions are checked
    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_function_writes_module_state(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "_last = None\ndef f(x):\n    global _last\n    _last = x\n",
    "def f():\n    n = 0\n    def g():\n        nonlocal n\n        n += 1\n",
    "_seen = []\ndef f(x):\n    _seen.append(x)\n",
    "_seen = []\ndef f(x):\n    _seen.insert(0, x)\n",
    "_seen = []\ndef f():\n    del _seen[4:]\n",
    "_by_id = {}\ndef f(x):\n    _by_id[id(x)] = x\n",
    "_by_id = {}\ndef f(x):\n    _by_id.setdefault(id(x), []).append(x)\n",
    "_count = [0]\ndef f():\n    _count[0] += 1\n",
    "class _State:\n    last = None\ndef f(x):\n    _State.last = x\n",
    "_cache = {}\nclass T:\n    def get(self, key):\n        return _cache.pop(key)\n",
    "_kept = set()\nf = lambda x: _kept.add(x)\n",
    "from .core import TABLE\ndef f(key):\n    TABLE.update(key=1)\n",
])
def test_each_kind_of_write_is_found(source):
    assert len(violations(source)) == 1


@pytest.mark.parametrize("source", [
    # a local that shadows a module name, and state on an argument
    "_seen = []\ndef f(x):\n    _seen = []\n    _seen.append(x)\n",
    "_seen = []\ndef f(_seen):\n    _seen.append(1)\n",
    "def f(table, rate):\n    table.outcome = (rate,)\n",
    "class T:\n    def __init__(self):\n        self.rows = []\n        self.rows.append(1)\n",
    # filling a module table at import time, and an enclosing function's local
    "_TABLE = {}\nfor key in 'ab':\n    _TABLE[key] = key\n",
    "def f():\n    seen = []\n    def g(x):\n        seen.append(x)\n    return g\n",
])
def test_local_and_import_time_writes_are_allowed(source):
    assert violations(source) == []
