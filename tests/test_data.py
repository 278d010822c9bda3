import re

import numpy as np
import pytest

from randnet.data import (
    DataFormatError,
    attach_partitions,
    fit_apply_scaling,
    fit_scaling,
    load_csv,
    load_manifest,
    one_hot,
)
from randnet.synthetic import interleaved_arcs, separable_blobs

from oracles import scaling_apply_masked


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    p = write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    np.testing.assert_array_equal(ds.Y, [[1, 0], [0, 1], [1, 0]])


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_ragged_row_names_row(tmp_path):
    p = write(tmp_path, "d.csv", "1,2,0\n3,4\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_csv(p)


def test_load_csv_non_numeric_feature_names_column(tmp_path):
    p = write(tmp_path, "d.csv", "1,2,0\n3,high,1\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        load_csv(p)
    # rows are numbered by file line: the blank line 2 and a header count
    p = write(tmp_path, "d.csv", "1,2,a\n\n3,4,b\n5,x,a\n")
    with pytest.raises(DataFormatError, match="row 4, column 2"):
        load_csv(p)
    p = write(tmp_path, "d.csv", "f,g,cls\n\n3,4,b\n5,x,a\n")
    with pytest.raises(DataFormatError, match="row 4, column 2"):
        load_csv(p, header=True)


def test_load_csv_string_labels_and_header(tmp_path):
    p = write(tmp_path, "d.csv", "a,b,cls\n1,2,yes\n3,4,no\n", )
    ds = load_csv(p, header=True)
    assert ds.label_values == ("no", "yes")
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_load_csv_identical_loads(tmp_path):
    p = write(tmp_path, "d.csv", "1,2,0\n3,4,1\n")
    a, b = load_csv(p), load_csv(p)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_one_hot_basic():
    np.testing.assert_array_equal(one_hot([1], 3), [[0, 1, 0]])
    m = one_hot([0, 2, 1, 1], 3)
    np.testing.assert_array_equal(m.sum(axis=1), np.ones(4))
    np.testing.assert_array_equal(one_hot([0, 0], 1), [[1], [1]])


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_hot([0, 3], 3)


def test_one_hot_argmax_roundtrip():
    labels = np.array([2, 0, 1, 2, 1])
    np.testing.assert_array_equal(np.argmax(one_hot(labels, 3), axis=1), labels)


def test_minmax_scaling_endpoints():
    stats = fit_scaling(np.array([[0.0], [10.0]]), "minmax")
    out = stats.apply(np.array([[0.0], [10.0], [20.0]]))
    np.testing.assert_allclose(out[:, 0], [-1.0, 1.0, 3.0])


def test_scaling_degenerate_feature_maps_to_zero():
    stats = fit_scaling(np.array([[5.0, 1.0], [5.0, 3.0]]), "minmax")
    out = stats.apply(np.array([[5.0, 2.0], [7.0, 2.0]]))
    np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])


def test_zscore_scaling():
    stats = fit_scaling(np.array([[0.0], [2.0]]), "zscore")
    np.testing.assert_allclose(stats.apply(np.array([[1.0]])), [[0.0]])


@pytest.mark.parametrize("method", ["minmax", "zscore"])
@pytest.mark.parametrize("degenerate", [False, True], ids=["all_spread", "zero_spread"])
def test_scaling_apply_bitwise_masked_path(method, degenerate):
    # apply runs unmasked on every column: the mask path's bits, +0.0 where spread is 0
    rng = np.random.Generator(np.random.PCG64(4))
    train = rng.normal(size=(40, 6)) * rng.uniform(0.1, 30.0, 6) + rng.uniform(-5, 5, 6)
    if degenerate:
        train[:, 2] = 1.5
    stats = fit_scaling(train, method)
    M = rng.normal(size=(256, 6)) * 10.0
    out = stats.apply(M)
    assert out.tobytes() == scaling_apply_masked(stats, M).tobytes()
    assert out.flags.c_contiguous


def test_fit_apply_scaling_uses_train_rows_only():
    # canary: a feature constant on train but wild on test must not
    # leak into the fitted statistics
    X = np.array([[0.0, 1.0], [10.0, 1.0], [5.0, 999.0]])
    ds_base = attach_partitions(
        _tiny_dataset(X, [0, 1, 0]), {"train": [0, 1], "test": [2]}
    )
    ds, stats = fit_apply_scaling(ds_base, "minmax")
    assert stats.spread[1] == 0.0
    np.testing.assert_allclose(ds.X[:2, 0], [-1.0, 1.0])
    # degenerate-on-train canary column collapses to 0 everywhere
    np.testing.assert_array_equal(ds.X[:, 1], [0.0, 0.0, 0.0])


def _tiny_dataset(X, labels):
    from randnet.data import Dataset

    labels = np.asarray(labels)
    return Dataset("tiny", np.asarray(X, float), labels,
                   one_hot(labels, int(labels.max()) + 1), {})


def test_partition_indices_attach(tmp_path):
    csvp = write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n")
    ds = attach_partitions(load_csv(csvp), {"train": [0, 1], "test": [2]})
    np.testing.assert_array_equal(ds.partitions["train"], [0, 1])
    np.testing.assert_array_equal(ds.partitions["test"], [2])


def test_partition_index_out_of_range(tmp_path):
    csvp = write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n")
    with pytest.raises(DataFormatError, match="out of range"):
        attach_partitions(load_csv(csvp), {"train": [0, 5]})


def test_partition_overlap_rejected_when_disjoint():
    ds = _tiny_dataset([[1, 2], [3, 4], [5, 6]], [0, 1, 0])
    with pytest.raises(DataFormatError, match="overlap"):
        attach_partitions(ds, {"train": [0, 1], "test": [1, 2]}, disjoint=True)
    # a row repeated within one role loaded, and trained on twice
    with pytest.raises(DataFormatError, match=re.escape(
            "tiny: row 0 is listed 2 times in partitions ['train'], which are flagged "
            "disjoint: they may not overlap or repeat a row")):
        attach_partitions(ds, {"train": [0, 0, 1, 2]}, disjoint=True)
    # same split is fine when the scheme is not flagged disjoint
    attach_partitions(ds, {"train": [0, 1], "test": [1, 2]}, disjoint=False)
    kept = attach_partitions(ds, {"train": [0, 0, 1, 2]}, disjoint=False)
    np.testing.assert_array_equal(kept.partitions["train"], [0, 0, 1, 2])


def test_empty_train_partition_rejected():
    ds = _tiny_dataset([[1, 2], [3, 4]], [0, 1])
    with pytest.raises(DataFormatError, match="train"):
        attach_partitions(ds, {"train": [], "test": [0, 1]})


@pytest.mark.parametrize("role", ["validation", "test"])
def test_empty_validation_or_test_partition_rejected(role):
    # an empty validation file loaded: selection scored nan for every
    # candidate, picked the first one, and bench exited 0
    ds = _tiny_dataset([[1, 2], [3, 4], [5, 6], [7, 8]], [0, 1, 0, 1])
    partitions = {"train": [0, 1], "validation": [2], "test": [3], role: []}
    with pytest.raises(DataFormatError, match=f"tiny: {role} partition is empty"):
        attach_partitions(ds, partitions)


def test_class_missing_from_train_rejected():
    ds = _tiny_dataset([[1, 2], [3, 4], [5, 6]], [0, 0, 1])
    with pytest.raises(DataFormatError, match="absent"):
        attach_partitions(ds, {"train": [0, 1], "test": [2]})


def test_manifest_roundtrip(tmp_path):
    write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    write(tmp_path, "train.txt", "0\n1\n")
    write(tmp_path, "val.txt", "2\n")
    write(tmp_path, "test.txt", "3\n")
    man = write(
        tmp_path,
        "ds.yaml",
        "name: demo\n"
        "csv: {path: d.csv, label_col: -1}\n"
        "partitions: {train: train.txt, validation: val.txt, test: test.txt}\n",
    )
    ds = load_manifest(man)
    assert ds.name == "demo"
    assert ds.n_classes == 2
    assert len(ds.partitions) == 3


def test_manifest_unknown_key_rejected(tmp_path):
    man = write(tmp_path, "ds.yaml", "name: x\ncsv: {path: d.csv}\nextra: 1\n")
    with pytest.raises(DataFormatError, match="unknown"):
        load_manifest(man)


@pytest.mark.parametrize("csv_spec, parts, key", [
    ('{path: d.csv, delimeter: ";"}', "{train: train.txt}", "delimeter"),
    ("{path: d.csv}", "{train: train.txt, valid: val.txt}", "valid"),
], ids=["csv_key", "partition_role"])
def test_manifest_names_unknown_csv_key_or_role(tmp_path, csv_spec, parts, key):
    # a misspelled key would be ignored and fail later with another message
    write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    write(tmp_path, "train.txt", "0\n1\n")
    write(tmp_path, "val.txt", "2\n")
    man = write(tmp_path, "ds.yaml", f"csv: {csv_spec}\npartitions: {parts}\n")
    with pytest.raises(DataFormatError, match=f"unknown .*'{key}'"):
        load_manifest(man)


@pytest.mark.parametrize("csv_spec, message", [
    ("path: d.csv, label_col: x", "csv.label_col must be an integer, got 'x'"),
    ("path: d.csv, label_col: true", "csv.label_col must be an integer, got True"),
    ("path: d.csv, header: 1", "csv.header must be true or false, got 1"),
    ('path: d.csv, delimiter: ";;"', "csv.delimiter must be one character, got ';;'"),
    ("path: 5", "csv.path must be a file name, got 5"),
    ("header: true", "csv.path is missing; it must be a file name"),
], ids=["label_col_str", "label_col_bool", "header", "delimiter", "path", "no_path"])
def test_manifest_checks_csv_value_types(tmp_path, csv_spec, message):
    # unchecked, these reached load_csv: a TypeError, or a silently misread file
    write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    write(tmp_path, "train.txt", "0\n1\n")
    man = write(tmp_path, "ds.yaml", f"csv: {{{csv_spec}}}\npartitions: {{train: train.txt}}\n")
    with pytest.raises(DataFormatError, match=message):
        load_manifest(man)


@pytest.mark.parametrize("extra, message", [
    ("partitions: {train: 5}\n", "partitions.train must be a file name, got 5"),
    ("partitions: {train: train.txt}\ndisjoint: 'no'\n",
     "disjoint must be true or false, got 'no'"),
], ids=["partition_file_number", "disjoint_string"])
def test_manifest_checks_partition_and_disjoint_types(tmp_path, extra, message):
    # unchecked, a number reached Path / int (a TypeError) and any
    # non-empty string counted as disjoint: true
    write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    write(tmp_path, "train.txt", "0\n1\n")
    man = write(tmp_path, "ds.yaml", "csv: {path: d.csv}\n" + extra)
    with pytest.raises(DataFormatError, match=message):
        load_manifest(man)


@pytest.mark.parametrize("token", ["x", "1.5", "99999999999999999999"])
def test_manifest_refuses_bad_partition_index(tmp_path, token):
    # an index beyond the int64 range raised a bare OverflowError
    write(tmp_path, "d.csv", "1,2,0\n3,4,1\n")
    write(tmp_path, "train.txt", f"0\n1\n{token}\n")
    man = write(tmp_path, "ds.yaml", "csv: {path: d.csv}\npartitions: {train: train.txt}\n")
    with pytest.raises(DataFormatError, match=f"train.txt: bad index '{token}'"):
        load_manifest(man)


def test_manifest_nested_too_deeply_fails_loudly(tmp_path):
    # YAML's composer recursed past Python's limit: a bare RecursionError
    man = write(tmp_path, "ds.yaml", "csv: " + "[" * 3000 + "]" * 3000 + "\npartitions: {}\n")
    with pytest.raises(DataFormatError, match="nests too deeply"):
        load_manifest(man)


@pytest.mark.parametrize("text, where", [
    ("csv: {path: d.csv}\npartitions: {train: train.txt}\nextra: 1\n", "extra (line 3)"),
    ("name: [x]\ncsv: {path: d.csv}\npartitions: {train: train.txt}\n", "name (line 1)"),
    ("partitions: {train: train.txt}\ncsv:\n  path: d.csv\n  header: 1\n",
     "csv.header (line 4)"),
    ("partitions: {train: train.txt}\ncsv:\n  header: true\n", "csv.path (line 3)"),
    ("csv: {path: d.csv}\npartitions:\n  train: train.txt\n  validation: 5\n",
     "partitions.validation (line 4)"),
], ids=["top_unknown_key", "top_value", "csv_value", "csv_missing_key", "partition_value"])
def test_manifest_refusal_names_key_path_and_line(tmp_path, text, where):
    # manifest refusals named only the file, as run-config ones name the key
    # path and line; a missing key is placed at its mapping's line
    write(tmp_path, "d.csv", "1,2,0\n3,4,1\n")
    write(tmp_path, "train.txt", "0\n1\n")
    man = write(tmp_path, "ds.yaml", text)
    with pytest.raises(DataFormatError) as err:
        load_manifest(man)
    assert str(err.value).startswith(f"{man}: ")
    assert str(err.value).endswith(f" at {where}")


def test_blobs_deterministic_and_separable_shape():
    a = separable_blobs(n_train=50, n_test=20, seed=3)
    b = separable_blobs(n_train=50, n_test=20, seed=3)
    np.testing.assert_array_equal(a.X, b.X)
    assert a.X.shape == (70, 2)
    assert set(np.unique(a.labels)) == {0, 1}


def test_arcs_partitions_and_balance():
    ds = interleaved_arcs(n_train=100, n_val=40, n_test=40, seed=1)
    assert ds.X.shape == (180, 2)
    assert len(ds.partitions["train"]) == 100
    assert len(ds.partitions["validation"]) == 40
    assert len(ds.partitions["test"]) == 40
    frac = ds.labels.mean()
    assert 0.35 < frac < 0.65
