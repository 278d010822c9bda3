"""Dataset ingestion, scaling, target encoding, and named split handling.

External formats (see README for byte-level examples):

* feature CSV: RFC-4180-style quoting, configurable delimiter, one
  label column, everything else numeric;
* partition index files: plain text, one zero-based row index per line;
* dataset manifest: a YAML document binding a name to the CSV, its
  parsing schema, and the partition files.

The rules of every YAML mapping randnet reads, the manifest's here and
the run config's in config.py, and of every spec and model dataclass
field are tables checked by one walker, ``checked``, at the end of this
module.
"""

import csv
import sys
from dataclasses import dataclass, replace
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
    order. Parse failures name the offending row and column (1-based).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines(), delimiter=delimiter))
    if header and rows:
        rows = rows[1:]
    rows = [r for r in rows if r]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    width = len(rows[0])
    if width < 2:
        raise DataFormatError(f"{path}: need at least one feature and a label column")
    col = label_col if label_col >= 0 else width + label_col
    if not 0 <= col < width:
        raise DataFormatError(f"{path}: label column {label_col} out of range for width {width}")
    offset = 2 if header else 1
    features, raw_labels = [], []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row {i + offset} has {len(row)} fields, expected {width}"
            )
        vals = []
        for j, cell in enumerate(row):
            if j == col:
                raw_labels.append(cell.strip())
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {i + offset}, column {j + 1}: "
                    f"non-numeric feature value {cell.strip()!r}"
                ) from None
            if not np.isfinite(v):
                raise DataFormatError(
                    f"{path}: row {i + offset}, column {j + 1}: non-finite value"
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


def load_partition_indices(ds, files, disjoint=True):
    """Attach named partitions read from index files and validate them.

    files maps role -> path; each file holds one zero-based row index
    per line. With disjoint=True (the published-split convention) any
    overlap between roles is an error.
    """
    n = ds.X.shape[0]
    partitions = {}
    for role, path in files.items():
        idx = _read_index_file(Path(path), n)
        partitions[role] = idx
    return attach_partitions(ds, partitions, disjoint)


def attach_partitions(ds, partitions, disjoint=True):
    n = ds.X.shape[0]
    for role, idx in partitions.items():
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise DataFormatError(
                f"{ds.name}: {role} partition index out of range [0, {n})"
            )
        partitions[role] = idx
    train = partitions.get("train")
    if train is None or train.size == 0:
        raise DataFormatError(f"{ds.name}: train partition is missing or empty")
    present = set(np.unique(ds.labels[train]).tolist())
    missing = [c for c in range(ds.n_classes) if c not in present]
    if missing:
        raise DataFormatError(
            f"{ds.name}: classes {missing} absent from the train partition"
        )
    if disjoint:
        roles = [r for r in PARTITION_ROLES if r in partitions]
        for i, a in enumerate(roles):
            for b in roles[i + 1:]:
                overlap = np.intersect1d(partitions[a], partitions[b])
                if overlap.size:
                    raise DataFormatError(
                        f"{ds.name}: partitions {a!r} and {b!r} overlap "
                        f"(e.g. row {int(overlap[0])}) but are flagged disjoint"
                    )
    return replace(ds, partitions=partitions)


def _read_index_file(path, n):
    try:
        lines = path.read_text().split()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    idx = []
    for tok in lines:
        try:
            idx.append(int(tok))
        except ValueError:
            raise DataFormatError(f"{path}: bad index {tok!r}") from None
    return np.asarray(idx, dtype=np.int64)


def load_manifest(path):
    """Load a dataset manifest: CSV schema plus partition file bindings."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except RecursionError:
        raise DataFormatError(f"{path}: YAML nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: manifest must be a mapping")

    def fail(message, key):
        return DataFormatError(f"{path}: {message}")

    checked(doc, _MANIFEST_RULES, fail, required=("csv", "partitions"))
    spec = dict(checked(doc["csv"], _CSV_RULES, fail, required=("path",), subject="csv."))
    parts = checked(doc["partitions"], _PARTITION_RULES, fail, subject="partitions.")
    base = path.parent
    ds = load_csv(base / spec.pop("path"), **spec, name=doc.get("name", path.stem))
    files = {role: base / name for role, name in parts.items()}
    flags = {"disjoint": doc["disjoint"]} if "disjoint" in doc else {}
    return load_partition_indices(ds, files, **flags)


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
        if (key in mapping or key in required) and not test(mapping.get(key)):
            raise fail(f"{subject}{key} must be {wanted}, got {mapping.get(key)!r}", key)
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
    return lambda v: is_integer(v) and v >= low, f"an integer >= {low}"


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
ACTIVATION = one_of(*ACTIVATION_NAMES)

_MANIFEST_RULES = {"name": STRING, "csv": MAPPING, "partitions": MAPPING, "disjoint": BOOL}
_CSV_RULES = {"path": FILE_NAME, "label_col": (is_integer, "an integer"), "header": BOOL,
              "delimiter": (lambda v: isinstance(v, str) and len(v) == 1, "one character")}
_PARTITION_RULES = dict.fromkeys(PARTITION_ROLES, FILE_NAME)
