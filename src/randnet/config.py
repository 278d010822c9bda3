"""Run configuration: schema-validated YAML documents.

The whole document is validated before any work starts. It is read by
``data.read_yaml``, as the dataset manifest is; each mapping's keys and
values are declared in one rule table below and checked by
``data.checked``, which rejects unknown keys, and each refusal names
the key path and its line (``data.fail_at``).
"""

from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from .data import (BOOL, FILE_NAME, MAPPING, NON_EMPTY_LIST, NON_NEGATIVE, STRING, checked,
                   fail_at, integer, is_finite, is_path_name, one_of, read_yaml)
from .methods import METHODS, check_param
from .selection import GridSpec
from .synthetic import GENERATORS


class ConfigError(ValueError):
    """A run config, a bench manifest or a command argument broke its rules."""


@dataclass
class DatasetDecl:
    name: str
    manifest: Path | None = None  # joined to the config file's directory
    synthetic: dict | None = None


@dataclass
class MethodDecl:
    name: str
    params: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)


@dataclass
class RunConfig:
    datasets: list
    methods: list
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    output_dir: str = "out"
    parallelism: int = 1
    scaling: str = "minmax"
    retrain_with_validation: bool = False


_SEED = integer(0)

_TOP_RULES = {"datasets": NON_EMPTY_LIST, "methods": NON_EMPTY_LIST, "seeds": NON_EMPTY_LIST,
              "output_dir": (is_path_name, "a directory name"),
              "parallelism": integer(1), "scaling": one_of("minmax", "zscore", "none"),
              "retrain_with_validation": BOOL}
_DATASET_RULES = {"name": STRING, "manifest": FILE_NAME, "synthetic": MAPPING}
_KIND = {"kind": one_of(*GENERATORS)}
# each kind takes only the keys its generator reads
_SYNTH_SHARED = {**_KIND, "seed": _SEED, "n_train": integer(1),
                 "n_val": integer(0), "n_test": integer(0)}
_SYNTH_RULES = {"blobs": {**_SYNTH_SHARED, "gap": (is_finite, "a finite number")},
                "arcs": {**_SYNTH_SHARED, "noise": NON_NEGATIVE}}
_METHOD_RULES = {"name": one_of(*sorted(METHODS)), "params": MAPPING, "grid": MAPPING}
# GridSpec checks the axis values and the search policy
_GRID_RULES = {f.name: (lambda v: isinstance(v, list), "a list") for f in fields(GridSpec)}
_GRID_RULES["search"] = STRING


def _entries(doc, key, rules, at):
    """(path, entry) of each mapping in the list doc[key], entry checked."""
    seen = set()
    for i, entry in enumerate(doc[key]):
        p = (key, i)
        if not isinstance(entry, dict):
            raise at((key,))(f"{key[:-1]} entry must be a mapping", i)
        checked(entry, rules, at(p), required=("name",))
        if entry["name"] in seen:
            raise at(p)(f"duplicate {key[:-1]} name {entry['name']!r}", "name")
        seen.add(entry["name"])
        yield p, entry


def load_config(path):
    """Parse and validate a run configuration file."""
    path = Path(path)
    doc, lines = read_yaml(path, ConfigError)
    at = partial(fail_at, ConfigError, lines)
    checked(doc, _TOP_RULES, at(()), required=("datasets", "methods"))

    datasets = []
    for p, entry in _entries(doc, "datasets", _DATASET_RULES, at):
        if ("manifest" in entry) == ("synthetic" in entry):
            raise at(p)("dataset entry needs exactly one of manifest or synthetic")
        if "synthetic" in entry:
            synth, fail = entry["synthetic"], at(p + ("synthetic",))
            checked({"kind": synth.get("kind")}, _KIND, fail, subject="synthetic ")
            checked(synth, _SYNTH_RULES[synth["kind"]], fail, subject="synthetic ")
        else:
            entry = dict(entry, manifest=path.parent / entry["manifest"])
        datasets.append(DatasetDecl(**entry))

    methods = []
    for p, entry in _entries(doc, "methods", _METHOD_RULES, at):
        for key, value in entry.get("params", {}).items():
            try:
                check_param(key, value)
            except ValueError as exc:
                raise at(p + ("params",))(str(exc), key) from exc
        grid = checked(entry.get("grid", {}), _GRID_RULES, at(p + ("grid",)))
        try:
            grid = GridSpec(**{key: value if key == "search" else tuple(value)
                               for key, value in grid.items()})
        except ValueError as exc:
            raise at(p)(f"invalid grid: {exc}", "grid") from exc
        methods.append(MethodDecl(**dict(entry, grid=grid)))

    fail = at(("seeds",))
    for i, seed in enumerate(doc.get("seeds", ())):
        checked({"seed": seed}, {"seed": _SEED}, lambda message, _: fail(message, i))
        if seed in doc["seeds"][:i]:
            raise fail(f"duplicate seed {seed}", i)
    rest = {key: value for key, value in doc.items() if key not in ("datasets", "methods")}
    return RunConfig(datasets, methods, **rest)
