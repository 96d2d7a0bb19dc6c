"""Config ingestion and validation.

Configs are YAML mappings with a fixed schema (see docs/config_schema.md).
Each section is read into the dataclass that declares it: the fields are
the allowed keys, a field without a default is required, and each value is
converted by the field's declared type. Validation is strict: unknown keys
are rejected, every error names the offending field by its dotted path,
and parse failures carry line and column.

The YAML is composed by libyaml when PyYAML has it, else by PyYAML's
pure-Python parser. One loader mixin over either, ``_OnePass``, builds plain
scalars, lists and maps in one recursive pass, rejecting a repeated key and
a recursive alias, and leaves every other tag to PyYAML's SafeConstructor.
"""

from __future__ import annotations

import enum
import functools
import importlib.resources
import math
import re
import sys
import types
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Union, get_args, get_origin

import yaml

from .core import EconomyState, ModelParams, StaticTheta, ThetaMode, ThetaRamp
from .engine import Scenario, _effective_params
from .errors import ConfigError, DomainError, _require
from .sectors import (
    JobCreationModel,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    Readiness,
    SectorProfile,
    _Table,
)

__all__ = [
    "OutputOptions",
    "RunConfig",
    "load_config",
    "loads_config",
    "default_config_path",
]

_FORMATS = ("csv", "json")

# libyaml's C parser when PyYAML was built with it. Both loaders share
# _OnePass, PyYAML's SafeConstructor and its Resolver, so they build the
# same document.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_TAGS = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP, _MERGE = (_TAGS + name for name in ("str", "seq", "map", "merge"))
# the scalar tags whose PyYAML function reads the node's text alone
_SCALAR_TAGS = frozenset(_TAGS + name for name in ("int", "float", "bool", "null"))
# the key tags PyYAML's flatten_mapping rewrites: "<<" merges, a plain "=" is a str
_REWRITTEN = frozenset((_MERGE, _TAGS + "value"))

# how deep collections may nest. PyYAML's composers recurse once per level:
# libyaml's crashes the process somewhere between 20,000 and 50,000 levels,
# and the pure-Python one raises RecursionError past about 490. _OnePass
# recurses two or three frames a level, and an alias can place a collection
# deeper than the text shows, so it bounds the depth it builds to as well,
# counting the merge sources PyYAML's flatten_mapping recurses into.
_MAX_DEPTH = 200


class _OnePass:
    """Loader mixin: builds plain scalars, lists and maps in one recursive pass.

    Each plain list and map is built once, so an alias gives the same object,
    and an alias inside the collection it names is an error, as is building
    past ``_MAX_DEPTH`` levels. A key stated twice in one map is an error;
    one merged by ``<<`` is not. Every other tag is left to ``SafeConstructor``.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self.merged_pairs = {}  # each flattened map: how many of its pairs were merged
        self.flattening = 0     # the maps flatten_mapping is flattening

    def construct_object(self, node, deep=False):
        kind = type(node)
        if kind is yaml.ScalarNode:
            if node.tag == _STR:
                return node.value
            if node.tag in _SCALAR_TAGS:
                return self.yaml_constructors[node.tag](self, node)
        elif node.tag == (_MAP if kind is yaml.MappingNode else _SEQ):
            built = self.constructed_objects
            if node in built:
                return built[node]
            if node in self.recursive_objects:
                raise yaml.constructor.ConstructorError(
                    None, None, "found unconstructable recursive node", node.start_mark)
            if len(self.recursive_objects) >= _MAX_DEPTH:  # the lists and maps being built
                raise yaml.constructor.ConstructorError(
                    None, None, f"collections nest deeper than {_MAX_DEPTH} levels",
                    node.start_mark)
            self.recursive_objects[node] = None
            built[node] = (self.construct_mapping(node) if kind is yaml.MappingNode
                           else [self.construct_object(child) for child in node.value])
            del self.recursive_objects[node]
            return built[node]
        return super().construct_object(node, deep=deep)

    def construct_mapping(self, node, deep=False):
        # also the pairs of a tag left to SafeConstructor, such as !!set
        if not isinstance(node, yaml.MappingNode):
            return super().construct_mapping(node, deep=deep)  # raises
        cut = self.merged_pairs.get(node)
        if cut is None:
            # no "<<" or "=" key, the common case: flatten_mapping would change nothing
            if not any(key.tag in _REWRITTEN for key, _ in node.value):
                return self._build_pairs(node, node.value, unique=True)
            self.flatten_mapping(node)  # the merged pairs first, then the own ones
            cut = self.merged_pairs[node]
        data = self._build_pairs(node, node.value[:cut], unique=False)
        data.update(self._build_pairs(node, node.value[cut:], unique=True))
        return data

    def flatten_mapping(self, node):
        # PyYAML flattens a map's merge sources in place, recursing into each
        # from the map that merges it: record every map it flattens, so that one
        # built later, through an alias, still tells its merged pairs from its own
        if node in self.merged_pairs:
            return
        if self.flattening + len(self.recursive_objects) >= _MAX_DEPTH:
            raise yaml.constructor.ConstructorError(
                None, None, f"merge keys nest deeper than {_MAX_DEPTH} levels", node.start_mark)
        own = sum(key.tag != _MERGE for key, _ in node.value)
        self.flattening += 1
        super().flatten_mapping(node)
        self.flattening -= 1
        self.merged_pairs[node] = len(node.value) - own

    def _build_pairs(self, node, pairs, unique):
        data = {}
        for key_node, value_node in pairs:
            key = self.construct_object(key_node)
            try:
                repeated = key in data
            except TypeError:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "found unhashable key", key_node.start_mark) from None
            if repeated and unique:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark)
            data[key] = self.construct_object(value_node)
        return data


_one_pass = functools.cache(lambda loader: type(loader.__name__, (_OnePass, loader), {}))

# a flow collection holding no bracket, quote, comment or tag. Only those
# can hide a closer: an unquoted "]" or "}" inside a flow collection always
# closes it, so such a collection closes where it seems to and is a leaf.
# One holding a quoted scalar counts as no leaf, so a text with many such
# collections, such as indented JSON, takes the exact walk.
_FLOW_LEAF = re.compile(r"""[\[{][^\[\]{}'"#!]*[\]}]""")


def _may_nest_deeper(text: str, depth: int) -> bool:
    """Whether collections in ``text`` could nest deeper than ``depth``.

    A cheap bound, never below the true depth. Block collections on one path
    start at ever deeper columns (a sequence may share its key's column), all
    within a line's leading run of indentation and block indicators, so with
    no run of ``depth // 4`` they nest at most ``depth // 2`` deep. Every flow
    collection on one path but the last holds another, so it is no leaf;
    counting the single-pair mapping a flow sequence may hold, ``depth // 4 -
    2`` such openers nest at most ``depth // 2 - 2`` deep.
    """
    run = depth // 4
    if any(brk in text for brk in "\r\x85\u2028\u2029"):  # YAML's other line breaks
        text = re.sub("[\r\x85\u2028\u2029]", "\n", text)
    if re.search(r"\n[\ufeff \t?:-]{%d}" % run, "\n" + text):
        return True
    openers = text.count("[") + text.count("{")
    return openers > run - 2 and openers - len(_FLOW_LEAF.findall(text)) > run - 2


def _check_nesting(text: str, loader: type) -> None:
    """Raise a composer error where collections first nest past ``_MAX_DEPTH``.

    Walking the events costs a third of a parse, so only a text that
    :func:`_may_nest_deeper` cannot clear is walked. Both parsers keep their
    own stack, so the walk never recurses.
    """
    if not _may_nest_deeper(text, _MAX_DEPTH):
        return
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise yaml.composer.ComposerError(
                    None, None, f"collections nest deeper than {_MAX_DEPTH} levels",
                    event.start_mark)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


@dataclass(frozen=True)
class OutputOptions:
    """Where and in which formats result files are written."""

    directory: str = "out"
    formats: tuple[str, ...] = _FORMATS
    figure_scenario: str | None = None


@dataclass(frozen=True)
class TaskProfile:
    """One row of a ``tasks`` table: descriptive metadata no computation reads."""

    name: str
    readiness: Readiness
    displacement_risk: float | None = None
    automation_potential: float | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        for key in ("displacement_risk", "automation_potential"):
            value = getattr(self, key)
            _require(value is None or 0 <= value <= 1,
                     "{}: {} must lie in [0, 1], got {}", self.name, key, value)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run setup: parameters, datasets and scenarios.

    ``sectors`` is held as a compiled ``sectors._Table``: any other
    sequence is checked and compiled once, here, so every run on the
    config reads the same columns and memo.
    """

    params: ModelParams
    initial_state: EconomyState
    baseline: LaborBaseline
    sectors: tuple[SectorProfile, ...] = ()
    tasks: Mapping[str, tuple[TaskProfile, ...]] = field(default_factory=dict)
    scenarios: tuple[Scenario, ...] = ()
    output: OutputOptions = OutputOptions()
    dataset_version: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.sectors, _Table):
            object.__setattr__(self, "sectors", _Table(self.sectors))

    def scenario(self, name: str) -> Scenario:
        """Look up a scenario by name; raises ConfigError when absent."""
        for candidate in self.scenarios:
            if candidate.name == name:
                return candidate
        known = ", ".join(s.name for s in self.scenarios) or "none"
        raise ConfigError(f"unknown scenario {name!r}; configured: {known}",
                          path="scenarios")


# the dataclass each value of a ``mode`` key selects, per tagged union
_MODES = {
    ThetaMode: {"static": StaticTheta, "ramp": ThetaRamp},
    JobCreationModel: {"ratio": JobCreationRatio, "ramp": JobCreationRamp},
}
_MODE_OF = {cls: mode for table in _MODES.values() for mode, cls in table.items()}

# YAML keys that differ from the field they fill
_KEYS = {"sigma_override": "sigma", "theta_override": "theta",
         "exposure_override": "exposure_share", "job_creation_model": "job_creation"}

_Converter = Callable[[Any, str], Any]


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _check_keys(node: dict, allowed: frozenset[str], path: str) -> None:
    unknown = sorted(set(node) - allowed, key=repr)  # YAML keys need not be strings
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}", path=path)


def _kind(node: Any) -> str:
    return "null" if node is None else type(node).__name__


def _shown(node: Any) -> str:
    """A scalar as an error shows it: null by its YAML name, else its repr."""
    return _kind(node) if node is None else repr(node)


def _as_map(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"expected a mapping, got {_kind(node)}", path=path)
    return node


def _as_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"expected a list, got {_kind(node)}", path=path)
    return node


def _as_float(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"expected a number, got {_shown(node)}", path=path)
    try:
        value = float(node)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {node!r}", path=path)
    return value


def _as_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"expected an integer, got {_shown(node)}", path=path)
    return node


def _as_bool(node: Any, path: str) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(f"expected a boolean, got {_shown(node)}", path=path)
    return node


def _as_str(node: Any, path: str) -> str:
    if not isinstance(node, str):
        raise ConfigError(f"expected a string, got {_shown(node)}", path=path)
    return node


def _get(node: dict, key: str, path: str) -> Any:
    if key not in node:
        raise ConfigError(f"missing required key {key!r}", path=path)
    return node[key]


def _domain_checked(builder, path: str):
    try:
        return builder()
    except DomainError as exc:
        raise ConfigError(str(exc), path=path) from exc


def _enum(cls: type[enum.Enum], key: str) -> _Converter:
    values = [member.value for member in cls]

    def convert(node: Any, path: str) -> enum.Enum:
        text = _as_str(node, path)
        try:
            return cls(text)
        except ValueError:
            raise ConfigError(f"{key} must be one of {values}, got {text!r}",
                              path=path) from None
    return convert


def _tagged(table: dict[str, type], key: str) -> _Converter:
    modes = " or ".join(map(repr, table))

    def convert(node: Any, path: str) -> Any:
        node = _as_map(node, path)
        mode = _as_str(_get(node, "mode", path), f"{path}.mode")
        if mode not in table:
            raise ConfigError(f"{key} mode must be {modes}, got {mode!r}",
                              path=f"{path}.mode")
        return _build(table[mode], node, path)
    return convert


_SCALARS: dict[Any, _Converter] = {float: _as_float, int: _as_int, bool: _as_bool,
                                  str: _as_str}


def _converter(tp: Any, key: str) -> _Converter:
    """Compile the function that reads a value declared as ``tp`` under ``key``."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if tp in _MODES:
        return _tagged(_MODES[tp], key)
    if is_dataclass(tp):
        return functools.partial(_build, tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _enum(tp, key)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        if type(None) in args:
            rest = tuple(a for a in args if a is not type(None))
            inner = _converter(Union[rest], key)
            return lambda node, path: None if node is None else inner(node, path)
        # the one other union: a scalar, or a list with one entry per year
        scalar, per_year = (_converter(a, key) for a in args)
        return lambda node, path: (per_year if isinstance(node, list)
                                   else scalar)(node, path)
    if origin is tuple and args[-1] is Ellipsis:
        item = _converter(args[0], key)
        return lambda node, path: tuple(item(v, f"{path}[{i}]")
                                        for i, v in enumerate(_as_list(node, path)))
    if origin is tuple:
        items = [_converter(a, key) for a in args]

        def fixed(node: Any, path: str) -> tuple:
            node = _as_list(node, path)
            if len(node) != len(items):
                raise ConfigError(f"expected exactly {len(items)} entries", path=path)
            return tuple(convert(v, f"{path}[{i}]")
                         for i, (convert, v) in enumerate(zip(items, node)))
        return fixed
    if origin is Mapping:
        name, value = (_converter(a, key) for a in args)
        return lambda node, path: {name(k, path): value(v, f"{path}.{k}")
                                   for k, v in _as_map(node, path).items()}
    raise TypeError(f"no config reader for {tp!r}")


def _keys(cls: type) -> frozenset[str]:
    """The keys a config section read into ``cls`` accepts."""
    keys = frozenset(_KEYS.get(f.name, f.name) for f in fields(cls))
    return keys | {"mode"} if cls in _MODE_OF else keys


def _field_types(cls: type) -> dict[str, Any]:
    """Each field's declared type: its annotation evaluated in the module of ``cls``.

    What ``typing.get_type_hints`` returns for these dataclasses, at a
    fraction of its cost; a test keeps the two equal.
    """
    namespace = vars(sys.modules[cls.__module__])
    return {f.name: eval(f.type, namespace) if isinstance(f.type, str) else f.type
            for f in fields(cls)}


@functools.cache
def _plan(cls: type) -> tuple[frozenset[str], tuple]:
    """Accepted keys, and per field its name, key, converter and whether it is required.

    Built once per class, on first use, so reading a value never inspects
    type hints.
    """
    declared = _field_types(cls)
    plan = []
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        required = f.default is MISSING and f.default_factory is MISSING
        plan.append((f.name, key, _converter(declared[f.name], key), required))
    return _keys(cls), tuple(plan)


def _build(cls: type, node: Any, path: str, defaults: dict | None = None) -> Any:
    """Read the mapping ``node`` into the dataclass ``cls``.

    A key left out takes its value from ``defaults``, else the field's own
    default; a field with neither is a required key.
    """
    node = _as_map(node, path)
    keys, plan = _plan(cls)
    _check_keys(node, keys, path)
    kwargs = {}
    for name, key, convert, required in plan:
        if key in node:
            kwargs[name] = convert(node[key], f"{path}.{key}")
        elif defaults is not None and name in defaults:
            kwargs[name] = defaults[name]
        elif required:
            raise ConfigError(f"missing required key {key!r}", path=path)
    return _domain_checked(lambda: cls(**kwargs), path)


def _section(data: dict, key: str, empty: dict | list, **kwargs: Any) -> Any:
    """Read the optional top-level section ``key`` as RunConfig declares it.

    Left out or null, the section reads as ``empty``. ``kwargs`` go to the
    section's reader, such as the ``defaults`` of one read into a dataclass.
    """
    node = data.get(key)
    convert = next(convert for name, _, convert, _ in _plan(RunConfig)[1] if name == key)
    return convert(empty if node is None else node, key, **kwargs)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def loads_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse and validate config YAML from a string."""
    loader = _one_pass(_LOADER)
    try:
        _check_nesting(text, loader)
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        if isinstance(exc, yaml.reader.ReaderError):
            # a bad character: the pure-Python reader counts its position in
            # characters, libyaml in UTF-8 bytes; "." ends the last line
            head = (text[:exc.position] if issubclass(loader, yaml.reader.Reader)
                    else text.encode()[:exc.position].decode())
            lines = (head + ".").splitlines()
            where = f" at line {len(lines)}, column {len(lines[-1])}"
        problem = getattr(exc, "problem", None) or str(exc).split("\n")[0]
        raise ConfigError(f"invalid YAML in {source}{where}: {problem}") from exc
    except ValueError as exc:
        # the constructor's int() and date() calls: an integer past Python's
        # digit limit, or an impossible calendar date
        raise ConfigError(f"invalid YAML in {source}: {exc}") from exc
    if data is None:
        raise ConfigError(f"{source} is empty")
    data = _as_map(data, "<root>")
    _check_keys(data, _keys(RunConfig), "<root>")
    version = _as_int(data.get("dataset_version", 1), "dataset_version")
    if version < 1:
        raise ConfigError(f"must be >= 1, got {version}", path="dataset_version")
    params = _build(ModelParams, _get(data, "params", "<root>"), "params")
    baseline = _build(LaborBaseline, _get(data, "baseline", "<root>"), "baseline")
    state = _section(data, "initial_state", {}, defaults={
        "year": 2024, "tfp": 1.0, "capital": 1.0, "labor": baseline.total_labor_force,
        "robotics": 1.0})
    sectors = _domain_checked(functools.partial(_Table, _section(data, "sectors", [])),
                              "sectors")
    tasks = _section(data, "tasks", {})
    scenarios = _section(data, "scenarios", [])
    for i, scenario in enumerate(scenarios):
        _domain_checked(lambda: _effective_params(scenario, params, state),
                        f"scenarios[{i}]")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique", path="scenarios")
    output = _section(data, "output", {})
    if not output.formats:
        raise ConfigError("formats must be nonempty", path="output.formats")
    for fmt in output.formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"format must be one of {list(_FORMATS)}, got {fmt!r}",
                              path="output.formats")
    figure = output.figure_scenario
    if figure is not None and figure not in names:
        raise ConfigError(f"figure_scenario {figure!r} names no configured scenario",
                          path="output.figure_scenario")
    return RunConfig(params=params, initial_state=state, baseline=baseline,
                     sectors=sectors, tasks=tasks, scenarios=scenarios,
                     output=output, dataset_version=version)


def default_config_path() -> Path:
    """Filesystem path of the bundled default dataset."""
    return Path(str(importlib.resources.files(__package__) / "data"
                    / "default_config.yaml"))


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a config file; ``"default"`` loads the bundled dataset."""
    if str(path) == "default":
        path = default_config_path()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 at byte {exc.start}") from exc
    return loads_config(text, source=str(path))

