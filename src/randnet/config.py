"""Run configuration: schema-validated YAML documents.

The whole document is validated before any work starts; unknown keys
are rejected. Errors carry the offending key path and, where the YAML
node is known, its line number.
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .methods import DEFAULT_PARAMS, METHODS, check_param
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
    seeds: list
    output_dir: str
    parallelism: int = 1
    scaling: str = "minmax"
    retrain_with_validation: bool = False
    base_dir: Path = Path(".")

    @staticmethod
    def grid_for(decl):
        return GridSpec(**{key: tuple(value) if isinstance(value, list) else value
                           for key, value in decl.grid.items()})


_TOP_KEYS = {"datasets", "methods", "seeds", "output_dir", "parallelism",
             "scaling", "retrain_with_validation"}
_DATASET_KEYS = {"name", "manifest", "synthetic"}
# each kind takes only the keys its generator reads
_SYNTH_KEYS = {"blobs": {"kind", "n_train", "n_val", "n_test", "gap", "seed"},
               "arcs": {"kind", "n_train", "n_val", "n_test", "noise", "seed"}}
_METHOD_KEYS = {"name", "params", "grid"}
_GRID_KEYS = {f.name for f in fields(GridSpec)}


def _integer(low):
    # (test, description) of the integers >= low; a bool is no integer
    return lambda v: type(v) is int and v >= low, f"an integer >= {low}"


def _real(v):
    return type(v) in (int, float) and math.isfinite(v)


# (test, description) of each synthetic value
_SYNTH_RULES = {"seed": _integer(0), "n_train": _integer(1), "n_val": _integer(0),
                "n_test": _integer(0), "gap": (_real, "a finite number"),
                "noise": (lambda v: _real(v) and v >= 0, "a finite number >= 0")}


def _reject_unknown(mapping, allowed, lines, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r}; expected one of {sorted(allowed)}",
                _fmt_path(path + (key,)), lines.get(path + (key,)),
            )


def _fmt_path(path):
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else ("." + part if out else part)
    return out


def _require(cond, message, lines, path):
    if not cond:
        raise ConfigError(message, _fmt_path(path), lines.get(path))


def _check(rule, name, value, lines, path):
    test, wanted = rule
    _require(test(value), f"{name} must be {wanted}, got {value!r}", lines, path)


def load_config(path):
    """Parse and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    doc, lines = load_yaml_with_lines(text)
    _require(isinstance(doc, dict), "config must be a mapping", lines, ())
    _reject_unknown(doc, _TOP_KEYS, lines, ())

    _require("datasets" in doc, "config needs a datasets list", lines, ())
    _require(isinstance(doc["datasets"], list) and doc["datasets"],
             "datasets must be a non-empty list", lines, ("datasets",))
    datasets = []
    seen = set()
    for i, entry in enumerate(doc["datasets"]):
        p = ("datasets", i)
        _require(isinstance(entry, dict), "dataset entry must be a mapping", lines, p)
        _reject_unknown(entry, _DATASET_KEYS, lines, p)
        _require("name" in entry, "dataset entry needs a name", lines, p)
        name = entry["name"]
        _require(name not in seen, f"duplicate dataset name {name!r}", lines, p)
        seen.add(name)
        has_manifest = "manifest" in entry
        has_synth = "synthetic" in entry
        _require(has_manifest != has_synth,
                 "dataset entry needs exactly one of manifest or synthetic",
                 lines, p)
        if has_synth:
            sp = p + ("synthetic",)
            _require(isinstance(entry["synthetic"], dict),
                     "synthetic must be a mapping", lines, sp)
            kind = entry["synthetic"].get("kind")
            _require(kind in ("blobs", "arcs"),
                     f"synthetic kind must be blobs or arcs, got {kind!r}",
                     lines, sp)
            _reject_unknown(entry["synthetic"], _SYNTH_KEYS[kind], lines, sp)
            for key, value in entry["synthetic"].items():
                if key in _SYNTH_RULES:
                    _check(_SYNTH_RULES[key], f"synthetic {key}", value, lines, sp + (key,))
        datasets.append(DatasetDecl(name, entry.get("manifest"),
                                    entry.get("synthetic")))

    _require("methods" in doc, "config needs a methods list", lines, ())
    _require(isinstance(doc["methods"], list) and doc["methods"],
             "methods must be a non-empty list", lines, ("methods",))
    methods = []
    seen = set()
    for i, entry in enumerate(doc["methods"]):
        p = ("methods", i)
        _require(isinstance(entry, dict), "method entry must be a mapping", lines, p)
        _reject_unknown(entry, _METHOD_KEYS, lines, p)
        _require("name" in entry, "method entry needs a name", lines, p)
        name = entry["name"]
        _require(name in METHODS,
                 f"unknown method {name!r}; known: {', '.join(sorted(METHODS))}",
                 lines, p + ("name",))
        _require(name not in seen, f"duplicate method {name!r}", lines, p)
        seen.add(name)
        params = entry.get("params", {})
        _require(isinstance(params, dict), "params must be a mapping", lines,
                 p + ("params",))
        for key, value in params.items():
            _require(key in DEFAULT_PARAMS, f"unknown param {key!r}", lines,
                     p + ("params", key))
            try:
                check_param(key, value)
            except ValueError as exc:
                raise ConfigError(str(exc), _fmt_path(p + ("params", key)),
                                  lines.get(p + ("params", key))) from exc
        grid = entry.get("grid", {})
        _require(isinstance(grid, dict), "grid must be a mapping", lines,
                 p + ("grid",))
        _reject_unknown(grid, _GRID_KEYS, lines, p + ("grid",))
        decl = MethodDecl(name, params, grid)
        try:
            RunConfig.grid_for(decl)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid grid: {exc}", _fmt_path(p + ("grid",)),
                              lines.get(p + ("grid",))) from exc
        methods.append(decl)

    seeds = doc.get("seeds", [0, 1, 2, 3, 4])
    _require(isinstance(seeds, list) and seeds, "seeds must be a non-empty list",
             lines, ("seeds",))
    for i, seed in enumerate(seeds):
        _check(_integer(0), "seed", seed, lines, ("seeds", i))

    parallelism = doc.get("parallelism", 1)
    _require(isinstance(parallelism, int) and parallelism >= 1,
             "parallelism must be an integer >= 1", lines, ("parallelism",))

    scaling = doc.get("scaling", "minmax")
    _require(scaling in ("minmax", "zscore", "none"),
             f"scaling must be minmax, zscore, or none, got {scaling!r}",
             lines, ("scaling",))

    retrain = doc.get("retrain_with_validation", False)
    _require(isinstance(retrain, bool), "retrain_with_validation must be a bool",
             lines, ("retrain_with_validation",))

    return RunConfig(
        datasets=datasets,
        methods=methods,
        seeds=seeds,
        output_dir=doc.get("output_dir", "out"),
        parallelism=parallelism,
        scaling=scaling,
        retrain_with_validation=retrain,
        base_dir=path.parent,
    )
