"""The package republishes every module's public API, each name once.

``robolabor/__init__.py`` star-imports each module, so a name published by
two modules would silently resolve to the later one; and a module's name
that the package's ``__all__`` leaves out is missing from the API.
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
