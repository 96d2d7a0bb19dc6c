"""The package republishes every module's public API, each name once.

``robolabor/__init__.py`` lists each module's public names and imports a
module on the first lookup of one of them, so a name listed under two
modules would resolve to one of them only, and a module's name that the
list leaves out is missing from the API. The lazy cases run in a new
interpreter, where no earlier lookup has bound a name yet.
"""

import importlib
import pkgutil
from collections import Counter

import robolabor

# the command-line entry point is the one module the package does not republish
MODULES = tuple(importlib.import_module(f"robolabor.{info.name}")
                for info in pkgutil.iter_modules(robolabor.__path__)
                if info.name != "cli")


def test_all_names_are_unique_and_resolve():
    assert len(robolabor.__all__) == len(set(robolabor.__all__))
    missing = [name for name in robolabor.__all__ if not hasattr(robolabor, name)]
    assert missing == []


def test_all_is_the_version_plus_every_module_all():
    published = set().union(*(module.__all__ for module in MODULES))
    assert set(robolabor.__all__) == {"__version__"} | published


def test_no_name_is_published_by_two_modules():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(robolabor, name) is getattr(module, name), name


def test_each_module_all_is_its_export_table_entry():
    # the package's table is the one declaration: no module restates it
    for name, names in robolabor._EXPORTS.items():
        assert getattr(robolabor, name).__all__ is names, name


SUBMODULES = [module.__name__.rpartition(".")[2] for module in MODULES]


def run_fresh(fresh_python, code, *args):
    run = fresh_python("-c", code, *args)
    assert run.returncode == 0, run.stderr


def test_bare_import_loads_no_submodule(fresh_python):
    run_fresh(fresh_python, """
import sys
import robolabor
loaded = [name for name in sys.modules if name.startswith("robolabor.")]
assert loaded == [], loaded
""")


def test_star_import_binds_every_name(fresh_python):
    # a name is an ordinary package attribute after its first lookup
    run_fresh(fresh_python, """
import robolabor
namespace = {}
exec("from robolabor import *", namespace)
missing = [name for name in robolabor.__all__ if name not in namespace]
assert missing == [], missing
unbound = [name for name in robolabor.__all__ if name not in vars(robolabor)]
assert unbound == [], unbound
""")


def test_each_submodule_resolves_as_an_attribute(fresh_python):
    run_fresh(fresh_python, """
import sys
import robolabor
for name in sys.argv[1:]:
    module = getattr(robolabor, name)
    assert module is sys.modules[f"robolabor.{name}"], name
""", *SUBMODULES)


def test_dir_lists_all_and_imports_nothing(fresh_python):
    run_fresh(fresh_python, """
import sys
import robolabor
names = set(dir(robolabor))
missing = (set(robolabor.__all__) | set(sys.argv[1:])) - names
assert missing == set(), missing
assert not any(name.startswith("robolabor.") for name in sys.modules)
""", *SUBMODULES)


def test_unknown_name_raises_attribute_error_naming_the_package(fresh_python):
    run_fresh(fresh_python, """
import robolabor
try:
    robolabor.no_such_name
except AttributeError as error:
    assert str(error) == "module 'robolabor' has no attribute 'no_such_name'", error
else:
    raise AssertionError("no AttributeError")
try:
    from robolabor import no_such_name
except ImportError as error:
    assert "cannot import name 'no_such_name' from 'robolabor'" in str(error), error
else:
    raise AssertionError("no ImportError")
""")
