"""Run configuration: schema-validated YAML documents.

The whole document is validated before any work starts. Each mapping's
keys and values are declared in one rule table below and checked by
``data.checked``, which also checks the dataset manifest and rejects
unknown keys in both. Errors carry the offending key path and, where
the YAML node is known, its line number.
"""

from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .data import (BOOL, FILE_NAME, MAPPING, STRING, checked, integer, is_finite, is_path_name,
                   one_of)
from .methods import METHODS, check_param
from .selection import GridSpec


class ConfigError(ValueError):
    def __init__(self, message, path=None, line=None):
        loc = ""
        if path:
            loc = f" at {path}"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(f"{message}{loc}")
        self.path = path
        self.line = line


def _walk_lines(node, lines, path):
    """Record the 1-based line of every node in the tree, keyed by path."""
    lines[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            _walk_lines(value_node, lines, path + (key_node.value,))
    elif isinstance(node, yaml.SequenceNode):
        for i, child in enumerate(node.value):
            _walk_lines(child, lines, path + (i,))


def load_yaml_with_lines(text):
    # values come from safe_load; the composed node tree (identical
    # structure) supplies line numbers for error reporting
    try:
        doc = yaml.safe_load(text)
        root = yaml.compose(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        raise ConfigError(f"YAML parse error: {exc}", line=line) from exc
    if root is None:
        return {}, {}
    lines = {}
    _walk_lines(root, lines, ())
    return doc, lines


@dataclass
class DatasetDecl:
    name: str
    manifest: str | None = None
    synthetic: dict | None = None


@dataclass
class MethodDecl:
    name: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    datasets: list
    methods: list
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    output_dir: str = "out"
    parallelism: int = 1
    scaling: str = "minmax"
    retrain_with_validation: bool = False
    base_dir: Path = Path(".")

    @staticmethod
    def grid_for(decl):
        return GridSpec(**{key: tuple(value) if isinstance(value, list) else value
                           for key, value in decl.grid.items()})


_LIST = (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list")
_SEED = integer(0)

_TOP_RULES = {"datasets": _LIST, "methods": _LIST, "seeds": _LIST,
              "output_dir": (is_path_name, "a directory name"),
              "parallelism": integer(1), "scaling": one_of("minmax", "zscore", "none"),
              "retrain_with_validation": BOOL}
_DATASET_RULES = {"name": STRING, "manifest": FILE_NAME, "synthetic": MAPPING}
_KIND = {"kind": one_of("blobs", "arcs")}
# each kind takes only the keys its generator reads
_SYNTH_SHARED = {**_KIND, "seed": _SEED, "n_train": integer(1),
                 "n_val": integer(0), "n_test": integer(0)}
_SYNTH_RULES = {"blobs": {**_SYNTH_SHARED, "gap": (is_finite, "a finite number")},
                "arcs": {**_SYNTH_SHARED, "noise": (lambda v: is_finite(v) and v >= 0,
                                                    "a finite number >= 0")}}
_METHOD_RULES = {"name": one_of(*sorted(METHODS)), "params": MAPPING, "grid": MAPPING}
# GridSpec checks the axis values and the search policy
_GRID_RULES = {f.name: (lambda v: isinstance(v, list), "a list") for f in fields(GridSpec)}
_GRID_RULES["search"] = STRING


def _fmt_path(path):
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else ("." + part if out else part)
    return out


def _fail_at(lines, path):
    """fail for the walker: a ConfigError at the key's path and line (the
    mapping's line for a missing key)."""
    return lambda message, key: ConfigError(
        message, _fmt_path(path + (key,)), lines.get(path + (key,), lines.get(path)))


def _entries(doc, key, rules, lines):
    """(path, entry) of each mapping in the list doc[key], entry checked."""
    seen = set()
    for i, entry in enumerate(doc[key]):
        p = (key, i)
        if not isinstance(entry, dict):
            raise _fail_at(lines, (key,))(f"{key[:-1]} entry must be a mapping", i)
        checked(entry, rules, _fail_at(lines, p), required=("name",))
        if entry["name"] in seen:
            raise _fail_at(lines, p)(f"duplicate {key[:-1]} name {entry['name']!r}", "name")
        seen.add(entry["name"])
        yield p, entry


def load_config(path):
    """Parse and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    doc, lines = load_yaml_with_lines(text)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping", line=lines.get(()))
    checked(doc, _TOP_RULES, _fail_at(lines, ()), required=("datasets", "methods"))

    datasets = []
    for p, entry in _entries(doc, "datasets", _DATASET_RULES, lines):
        if ("manifest" in entry) == ("synthetic" in entry):
            raise ConfigError("dataset entry needs exactly one of manifest or synthetic",
                              _fmt_path(p), lines.get(p))
        if "synthetic" in entry:
            synth, fail = entry["synthetic"], _fail_at(lines, p + ("synthetic",))
            checked({"kind": synth.get("kind")}, _KIND, fail, subject="synthetic ")
            checked(synth, _SYNTH_RULES[synth["kind"]], fail, subject="synthetic ")
        datasets.append(DatasetDecl(**entry))

    methods = []
    for p, entry in _entries(doc, "methods", _METHOD_RULES, lines):
        for key, value in entry.get("params", {}).items():
            try:
                check_param(key, value)
            except ValueError as exc:
                raise _fail_at(lines, p + ("params",))(str(exc), key) from exc
        checked(entry.get("grid", {}), _GRID_RULES, _fail_at(lines, p + ("grid",)))
        decl = MethodDecl(**entry)
        try:
            RunConfig.grid_for(decl)
        except ValueError as exc:
            raise _fail_at(lines, p)(f"invalid grid: {exc}", "grid") from exc
        methods.append(decl)

    fail = _fail_at(lines, ("seeds",))
    for i, seed in enumerate(doc.get("seeds", ())):
        checked({"seed": seed}, {"seed": _SEED}, lambda message, _: fail(message, i))
    rest = {key: value for key, value in doc.items() if key not in ("datasets", "methods")}
    return RunConfig(datasets, methods, **rest, base_dir=path.parent)
