"""Config ingestion and validation.

Configs are YAML mappings with a fixed schema (see docs/config_schema.md).
Each section is read into the dataclass that declares it: the fields are
the allowed keys, a field without a default is required, and each value is
converted by the field's declared type, read from ``dataclasses.Field.type``.
So this module and the three whose dataclasses it reads (``core``,
``sectors``, ``engine``) do not postpone their annotations (PEP 563): each
``Field.type`` is then the type itself, not its text. Validation is strict:
unknown keys are rejected, every error names the offending field by its
dotted path, and parse failures carry line and column.

The YAML is parsed by libyaml when PyYAML has it, else by PyYAML's
pure-Python parser. Over either, ``_OnePass`` builds the document from the
parser's events on one explicit stack, so nothing recurses, and reports the
first fault in document order. Tags other than a plain scalar's, list's or
map's go to PyYAML's SafeConstructor, with their items already built.
"""

import enum
import functools
import importlib.resources
import math
import types
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Union, get_args, get_origin

import yaml

from . import _EXPORTS
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

__all__ = _EXPORTS["config"]

_FORMATS = ("csv", "json")

# libyaml's C parser when PyYAML was built with it. Both build the same
# document through _OnePass, PyYAML's SafeConstructor and its Resolver.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_TAGS = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP, _MERGE = (_TAGS + name for name in ("str", "seq", "map", "merge"))
# the scalar tags whose PyYAML function reads the node's text alone
_SCALAR_TAGS = frozenset(_TAGS + name for name in ("int", "float", "bool", "null"))
# the tags PyYAML reads in a key alone: "<<" merges, a plain "=" is a str
_KEY_TAGS = frozenset((_MERGE, _TAGS + "value"))

# how deep collections may nest in the text, the root being level 1 (the
# bundled config nests 4 deep): the most the builder's stack ever holds
_MAX_DEPTH = 200

# a map's key slot before a key and after "<<" (the value an anchored "<<"
# holds); an anchor while its node is built
_NO_KEY, _MERGE_KEY, _BUILDING = object(), object(), object()


class _Built(yaml.ScalarNode):
    """A value already built, as an item of a node handed to SafeConstructor."""


def _fault(problem: str, mark, context: str | None = None, context_mark=None):
    return yaml.MarkedYAMLError(context, context_mark, problem, mark)


def _tagged_node(tag: str, value: dict | list, mark) -> yaml.Node:
    """A node of ``tag`` over built items, a list's maps as !!omap and !!pairs read them."""
    def node(items, tag=_MAP):
        return yaml.MappingNode(tag, [(_Built(None, key, mark), _Built(None, item, mark))
                                      for key, item in items.items()], mark)
    if isinstance(value, dict):
        return node(value, tag)
    return yaml.SequenceNode(tag, [node(item) if isinstance(item, dict)
                                   else _Built(None, item, mark) for item in value], mark)


def _merged(merged: dict, value: Any, mark) -> dict:
    """``merged`` and the maps a ``<<`` key's ``value`` gives, a list's first map winning."""
    sources = value if isinstance(value, list) else [value]
    for source in sources:
        if not isinstance(source, dict):
            kind = {list: "sequence", set: "mapping"}.get(type(source), "scalar")
            wanted = "a mapping" if sources is value else "a mapping or list of mappings"
            raise _fault(f"expected {wanted} for merging, but found {kind}", mark)
    for source in reversed(sources):
        merged.update(source)
    return merged


class _OnePass:
    """Loader mixin: builds the document from the parser's events.

    The open lists and maps are held on one stack. An alias gives the value
    its anchored node built, and one inside that node is an error. A key
    stated twice in one map is an error; one merged by ``<<`` is not.
    """

    def construct_object(self, node, deep=False):
        return node.value if type(node) is _Built else super().construct_object(node, deep)

    def get_single_data(self):
        get_event, resolve, constructors = self.get_event, self.resolve, self.yaml_constructors
        ScalarEvent, ScalarNode, AliasEvent = yaml.ScalarEvent, yaml.ScalarNode, yaml.AliasEvent
        ends = (yaml.MappingEndEvent, yaml.SequenceEndEvent)
        get_event()  # the stream's start
        if self.check_event(yaml.StreamEndEvent):
            return None
        get_event()  # the document's start
        anchors = {}  # each anchor: its node's value, or _BUILDING, and start mark
        # per open collection: items, key slot, merged pairs, tag, anchor, start mark
        stack, top = [], None
        while True:
            event = get_event()
            kind, mark = event.__class__, event.start_mark
            if kind is AliasEvent:
                if event.anchor not in anchors:
                    raise _fault(f"found undefined alias {event.anchor!r}", mark)
                value, mark = anchors[event.anchor]
                anchor = None  # an alias sets no anchor
                if value is _BUILDING:
                    raise _fault("found unconstructable recursive node", mark)
            elif kind in ends:
                value, _, merged, tag, anchor, mark = stack.pop()
                if merged is not None:
                    value = {**merged, **value}  # the map's own pairs last
                if tag not in (None, "!", _MAP if type(value) is dict else _SEQ):
                    value = self.construct_document(_tagged_node(tag, value, mark))
                top = stack[-1] if stack else None
            else:  # a scalar or a collection's start, either maybe anchored
                anchor, tag = event.anchor, event.tag
                if anchor is not None:
                    if anchor in anchors:
                        raise _fault("second occurrence", mark, f"found duplicate anchor "
                                     f"{anchor!r}; first occurrence", anchors[anchor][1])
                    anchors[anchor] = (_BUILDING, mark)
                if kind is not ScalarEvent:
                    if len(stack) == _MAX_DEPTH:
                        raise _fault(f"collections nest deeper than {_MAX_DEPTH} levels", mark)
                    top = [{} if kind is yaml.MappingStartEvent else [], _NO_KEY, None, tag,
                           anchor, mark]
                    stack.append(top)
                    continue
                if tag is None or tag == "!":
                    tag = resolve(ScalarNode, event.value, event.implicit)
                if tag == _STR:
                    value = event.value
                elif (tag in _KEY_TAGS and top is not None and top[1] is _NO_KEY
                      and type(top[0]) is dict):
                    value = _MERGE_KEY if tag == _MERGE else event.value
                else:
                    node = ScalarNode(tag, event.value, mark, event.end_mark)
                    value = (constructors[tag](self, node) if tag in _SCALAR_TAGS
                             else self.construct_document(node))
            if anchor is not None:
                anchors[anchor] = (value, mark)
            if top is None:  # the root is built
                break
            items, key = top[0], top[1]
            if value is _MERGE_KEY and (type(items) is list
                                        or key is not _NO_KEY and key is not _MERGE_KEY):
                # an alias to an anchored "<<" merges only in a map's key slot
                raise _fault(f"could not determine a constructor for the tag {_MERGE!r}", mark)
            if type(items) is list:
                items.append(value)
            elif key is _NO_KEY:
                try:
                    repeated = value in items
                except TypeError:
                    raise _fault("found unhashable key", mark,
                                 "while constructing a mapping", top[5]) from None
                if repeated:
                    raise _fault(f"found duplicate key {value!r}", mark)
                top[1] = value
            elif key is _MERGE_KEY:
                top[1], top[2] = _NO_KEY, _merged(top[2] or {}, value, mark)
            else:
                top[1], items[key] = _NO_KEY, value
        get_event()  # the document's end
        if not self.check_event(yaml.StreamEndEvent):
            raise _fault("but found another document", get_event().start_mark,
                         "expected a single document in the stream", mark)
        return value


_one_pass = functools.cache(lambda loader: type(loader.__name__, (_OnePass, loader), {}))


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
    """A value as an error shows it: a scalar by its repr, null and collections by kind."""
    return _kind(node) if node is None or isinstance(node, (dict, list, set)) else repr(node)


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


@functools.cache
def _plan(cls: type) -> tuple[frozenset[str], tuple]:
    """Accepted keys, and per field its name, key, converter and whether it is required.

    Built once per class, on first use, from each field's ``Field.type``:
    the declared type itself, since the modules that declare these
    dataclasses evaluate their annotations (a test keeps it equal to
    ``typing.get_type_hints``).
    """
    plan = []
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        required = f.default is MISSING and f.default_factory is MISSING
        plan.append((f.name, key, _converter(f.type, key), required))
    return _keys(cls), tuple(plan)


def _build(cls: type, node: Any, path: str) -> Any:
    """Read the mapping ``node`` into the dataclass ``cls``.

    A key left out takes the field's default; a field without one is a
    required key.
    """
    node = _as_map(node, path)
    keys, plan = _plan(cls)
    _check_keys(node, keys, path)
    kwargs = {}
    for name, key, convert, required in plan:
        if key in node:
            kwargs[name] = convert(node[key], f"{path}.{key}")
        elif required:
            raise ConfigError(f"missing required key {key!r}", path=path)
    return _domain_checked(lambda: cls(**kwargs), path)


def _section(data: dict, key: str, empty: dict | list) -> Any:
    """Read the optional top-level section ``key`` as RunConfig declares it.

    Left out or null, the section reads as ``empty``.
    """
    node = data.get(key)
    convert = next(convert for name, _, convert, _ in _plan(RunConfig)[1] if name == key)
    return convert(empty if node is None else node, key)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def loads_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse and validate config YAML from a string."""
    loader = _one_pass(_LOADER)
    try:
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
    node = data.get("initial_state")
    state = _build(EconomyState, {
        "year": 2024, "tfp": 1.0, "capital": 1.0, "labor": baseline.total_labor_force,
        "robotics": 1.0, **_as_map({} if node is None else node, "initial_state")},
        "initial_state")
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

