"""Dataset ingestion, scaling, target encoding, and named split handling.

External formats (see README for byte-level examples):

* feature CSV: RFC-4180-style quoting, configurable delimiter, one
  label column, everything else numeric;
* partition index files: plain text, one zero-based row index per line;
* dataset manifest: a YAML document binding a name to the CSV, its
  parsing schema, and the partition files.

Every YAML document randnet reads, the manifest here and the run config
in config.py, is parsed by ``read_yaml``, and its refusals name the key
path and line through ``fail_at``. The rules of every mapping in them,
and of every spec and model dataclass field, are tables checked by one
walker, ``checked``, at the end of this module.
"""

import csv
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .numerics import ACTIVATION_NAMES, ShapeError

PARTITION_ROLES = ("train", "validation", "test")


class DataFormatError(ValueError):
    """A file failed to parse or violated a dataset invariant."""


@dataclass
class Dataset:
    """Feature matrix, class labels, one-hot targets, and named row partitions."""

    name: str
    X: np.ndarray
    labels: np.ndarray  # integer class ids, length n
    Y: np.ndarray  # one-hot, n x k
    partitions: dict
    label_values: tuple = ()  # original label tokens, index = class id

    @property
    def n_classes(self):
        return self.Y.shape[1]

    def part(self, role):
        """(X, Y, labels) restricted to the named partition."""
        idx = self.partitions[role]
        return self.X[idx], self.Y[idx], self.labels[idx]


def one_hot(labels, k):
    """Row i carries a single 1 at column labels[i]."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def load_csv(path, label_col=-1, header=False, delimiter=",", name=None):
    """Parse a feature CSV into a Dataset with no partitions attached.

    Every non-label cell must parse as a finite number; the label column
    may hold arbitrary tokens, which are mapped to class ids in sorted
    order. Parse failures name the offending row by its file line, blank
    lines and the header counted, and the column (both 1-based).
    """
    path = Path(path)
    reader = csv.reader(read_text(path, DataFormatError).splitlines(), delimiter=delimiter)
    # (file line, fields) of each row, numbered before blank lines drop
    rows = [(reader.line_num, row) for row in reader][1 if header else 0:]
    rows = [(line, row) for line, row in rows if row]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    width = len(rows[0][1])
    if width < 2:
        raise DataFormatError(f"{path}: need at least one feature and a label column")
    col = label_col if label_col >= 0 else width + label_col
    if not 0 <= col < width:
        raise DataFormatError(f"{path}: label column {label_col} out of range for width {width}")
    features, raw_labels = [], []
    for line, row in rows:
        if len(row) != width:
            raise DataFormatError(f"{path}: row {line} has {len(row)} fields, expected {width}")
        vals = []
        for j, cell in enumerate(row):
            if j == col:
                raw_labels.append(cell.strip())
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {line}, column {j + 1}: "
                    f"non-numeric feature value {cell.strip()!r}"
                ) from None
            if not np.isfinite(v):
                raise DataFormatError(
                    f"{path}: row {line}, column {j + 1}: non-finite value"
                )
            vals.append(v)
        features.append(vals)
    X = np.asarray(features, dtype=np.float64)
    values = sorted(set(raw_labels), key=_label_sort_key)
    to_id = {v: i for i, v in enumerate(values)}
    labels = np.array([to_id[v] for v in raw_labels], dtype=np.int64)
    Y = one_hot(labels, len(values))
    return Dataset(name or path.stem, X, labels, Y, {}, tuple(values))


def _label_sort_key(token):
    # numeric labels sort numerically so ids match the usual 0..k-1 coding
    try:
        return (0, float(token), token)
    except ValueError:
        return (1, 0.0, token)


@dataclass
class ScalingStats:
    """Per-feature affine maps fitted on the train partition only.

    Degenerate features (zero spread on train) map to 0. The map is
    applied unchanged outside the train range: no clipping.
    """

    method: str  # minmax | zscore
    center: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        check_fields(self, {"method": one_of("minmax", "zscore")}, "scaling ")

    def apply(self, M):
        if M.shape[1] != self.center.shape[0]:
            raise ShapeError(
                f"matrix has {M.shape[1]} features, scaler expects {self.center.shape[0]}"
            )
        ok = self.spread > 0
        # degenerate columns divide by 1 and are zeroed below
        divisor = np.where(ok, self.spread, 1.0)
        out = M - self.center
        if self.method == "minmax":
            # train min/max -> [-1, 1], rounded as -1 + 2 (M - min) / spread
            out *= 2.0
            out /= divisor
            out += -1.0
        else:
            out /= divisor
        if not ok.all():
            out[:, ~ok] = 0.0
        return out


def fit_scaling(M, method="minmax"):
    if method == "zscore":
        return ScalingStats("zscore", M.mean(axis=0), M.std(axis=0))
    mins = M.min(axis=0)
    return ScalingStats(method, mins, M.max(axis=0) - mins)  # checks method


def fit_apply_scaling(ds, method="minmax"):
    """Fit stats on the train partition, apply to every row of the dataset."""
    idx = ds.partitions.get("train")
    if idx is None or len(idx) == 0:
        raise ValueError(f"dataset {ds.name!r} has no non-empty 'train' partition")
    stats = fit_scaling(ds.X[idx], method)
    return replace(ds, X=stats.apply(ds.X)), stats


def attach_partitions(ds, partitions, disjoint=True):
    """ds with the named partitions (role -> row indices) attached and
    validated: each role non-empty and in range, every class in train.
    With disjoint=True (the published-split convention) no row may be
    listed twice, within one role or across roles."""
    n = ds.X.shape[0]
    for role, idx in partitions.items():
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise DataFormatError(f"{ds.name}: {role} partition is empty")
        if idx.min() < 0 or idx.max() >= n:
            raise DataFormatError(f"{ds.name}: {role} partition index out of range [0, {n})")
        partitions[role] = idx
    if "train" not in partitions:
        raise DataFormatError(f"{ds.name}: train partition is missing")
    present = set(np.unique(ds.labels[partitions["train"]]).tolist())
    missing = [c for c in range(ds.n_classes) if c not in present]
    if missing:
        raise DataFormatError(f"{ds.name}: classes {missing} absent from the train partition")
    if disjoint:
        rows, counts = np.unique(np.concatenate(list(partitions.values())), return_counts=True)
        if (counts > 1).any():
            row, count = int(rows[counts > 1][0]), int(counts[counts > 1][0])
            roles = [role for role, idx in partitions.items() if row in idx]
            raise DataFormatError(
                f"{ds.name}: row {row} is listed {count} times in partitions {roles}, "
                f"which are flagged disjoint: they may not overlap or repeat a row"
            )
    return replace(ds, partitions=partitions)


def read_text(path, error):
    """The text of the file at path; an unreadable file, or one that is not
    UTF-8, raises error naming path."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _read_index_file(path):
    idx = []
    for tok in read_text(path, DataFormatError).split():
        try:
            idx.append(np.int64(int(tok)))  # OverflowError beyond the int64 range
        except (ValueError, OverflowError):
            raise DataFormatError(f"{path}: bad index {tok!r}") from None
    return np.asarray(idx, dtype=np.int64)


def load_manifest(path):
    """Load a dataset manifest: CSV schema plus partition file bindings."""
    path = Path(path)
    doc, lines = read_yaml(path, DataFormatError)
    at = partial(fail_at, lambda message: DataFormatError(f"{path}: {message}"), lines)
    checked(doc, _MANIFEST_RULES, at(()), required=("csv", "partitions"))
    spec = dict(checked(doc["csv"], _CSV_RULES, at(("csv",)), required=("path",),
                        subject="csv."))
    parts = checked(doc["partitions"], _PARTITION_RULES, at(("partitions",)),
                    subject="partitions.")
    base = path.parent
    ds = load_csv(base / spec.pop("path"), **spec, name=doc.get("name", path.stem))
    partitions = {role: _read_index_file(base / name) for role, name in parts.items()}
    return attach_partitions(ds, partitions, doc.get("disjoint", True))


# ------------------------------------------------------------ YAML documents


def _walk_lines(node, lines, path):
    """Record the 1-based line of every node in the tree, keyed by path."""
    lines[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            _walk_lines(value_node, lines, path + (key_node.value,))
    elif isinstance(node, yaml.SequenceNode):
        for i, child in enumerate(node.value):
            _walk_lines(child, lines, path + (i,))


def read_yaml(path, error):
    """(doc, lines) of the YAML mapping in the file at path: lines holds the
    1-based line of every node by its key path (() for the root). The file
    is parsed once, as PyYAML's safe_load parses it; a file that cannot be
    read or parsed, or holds no mapping, raises error naming path."""
    text, loader = read_text(path, error), None
    try:
        loader = yaml.SafeLoader(text)  # refuses a character YAML does not allow
        root = loader.get_single_node()
        doc, lines = {}, {}
        if root is not None:
            doc = loader.construct_document(root)
            _walk_lines(root, lines, ())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" (line {mark.line + 1})" if mark else ""
        raise error(f"{path}: YAML parse error: {exc}{line}") from exc
    except RecursionError:  # the composer recurses once per nesting level
        raise error(f"{path}: YAML nests too deeply to read") from None
    finally:
        if loader is not None:
            loader.dispose()
    if not isinstance(doc, dict):
        raise error(f"{path}: the document must be a mapping (line {lines[()]})")
    return doc, lines


def _fmt_path(path):
    # a key need not be a string: YAML reads `1.5: x` as a float key
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else f"{part}")
    return out


def fail_at(error, lines, where):
    """fail for ``checked`` on the mapping at key path where in a document
    read by read_yaml: error(message) naming the key's path and line (the
    mapping's line for a missing key); a key of None names where itself."""
    def fail(message, key=None):
        path = where if key is None else where + (key,)
        loc = f" at {_fmt_path(path)}" if path else ""
        line = lines.get(path, lines.get(where))
        return error(f"{message}{loc}" + (f" (line {line})" if line else ""))
    return fail


# ------------------------------------------------------------ document rules
# Each YAML mapping randnet reads (here the manifest, in config.py the run
# config) and each spec or model dataclass is a table {key: (test, what it
# must be)}. Every test is total: on any value it returns False rather
# than raise.


def checked(mapping, rules, fail, required=(), subject=""):
    """mapping, once each key is one of rules and each present or required
    value passes its rule's test; else raise fail(message, key)."""
    for key in mapping:
        if key not in rules:
            raise fail(f"unknown key {key!r}; expected one of {sorted(rules)}", key)
    for key, (test, wanted) in rules.items():
        if key in required and key not in mapping:
            raise fail(f"{subject}{key} is missing; it must be {wanted}", key)
        if key in mapping and not test(mapping[key]):
            raise fail(f"{subject}{key} must be {wanted}, got {mapping[key]!r}", key)
    return mapping


def check_fields(obj, rules, subject=""):
    """Raise ValueError unless each field of obj named in rules passes its rule."""
    values = {key: getattr(obj, key) for key in rules}
    checked(values, rules, lambda message, _: ValueError(message), subject=subject)


def is_path_name(v):
    return isinstance(v, str) and "\0" not in v


def is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite(v):
    # an int beyond the float range is refused: math.isfinite would raise
    return is_number(v) and abs(v) <= sys.float_info.max


def integer(low):
    # bounded as is_finite: every count and seed is one a float can hold
    return lambda v: is_integer(v) and low <= v <= sys.float_info.max, f"an integer >= {low}"


def one_of(*choices):
    return lambda v: isinstance(v, str) and v in choices, f"one of {list(choices)}"


def optional(cls):
    return lambda v: v is None or isinstance(v, cls), f"a {cls.__name__} or null"


BOOL = (lambda v: isinstance(v, bool), "true or false")
STRING = (lambda v: isinstance(v, str), "a string")
FILE_NAME = (is_path_name, "a file name")
MAPPING = (lambda v: isinstance(v, dict), "a mapping")
NON_EMPTY_LIST = (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list")
POSITIVE = (lambda v: is_finite(v) and v > 0, "> 0 and finite")
NON_NEGATIVE = (lambda v: is_finite(v) and v >= 0, ">= 0 and finite")
FRACTION = (lambda v: is_number(v) and 0 <= v <= 1, "in [0, 1]")
ACTIVATION = one_of(*ACTIVATION_NAMES)

_MANIFEST_RULES = {"name": STRING, "csv": MAPPING, "partitions": MAPPING, "disjoint": BOOL}
_CSV_RULES = {"path": FILE_NAME, "label_col": (is_integer, "an integer"), "header": BOOL,
              "delimiter": (lambda v: isinstance(v, str) and len(v) == 1, "one character")}
_PARTITION_RULES = dict.fromkeys(PARTITION_ROLES, FILE_NAME)
