import numpy as np
import pytest

from randnet.data import (
    DataFormatError,
    attach_partitions,
    fit_apply_scaling,
    fit_scaling,
    load_csv,
    load_manifest,
    load_partition_indices,
    one_hot,
)
from randnet.synthetic import interleaved_arcs, separable_blobs


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
    with pytest.raises(DataFormatError, match="column 2"):
        load_csv(p)


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
    trn = write(tmp_path, "train.txt", "0\n1\n")
    tst = write(tmp_path, "test.txt", "2\n")
    ds = load_partition_indices(load_csv(csvp), {"train": trn, "test": tst})
    np.testing.assert_array_equal(ds.partitions["train"], [0, 1])
    np.testing.assert_array_equal(ds.partitions["test"], [2])


def test_partition_index_out_of_range(tmp_path):
    csvp = write(tmp_path, "d.csv", "1,2,0\n3,4,1\n5,6,0\n")
    trn = write(tmp_path, "train.txt", "0\n5\n")
    with pytest.raises(DataFormatError, match="out of range"):
        load_partition_indices(load_csv(csvp), {"train": trn})


def test_partition_overlap_rejected_when_disjoint():
    ds = _tiny_dataset([[1, 2], [3, 4], [5, 6]], [0, 1, 0])
    with pytest.raises(DataFormatError, match="overlap"):
        attach_partitions(ds, {"train": [0, 1], "test": [1, 2]}, disjoint=True)
    # same split is fine when the scheme is not flagged disjoint
    attach_partitions(ds, {"train": [0, 1], "test": [1, 2]}, disjoint=False)


def test_empty_train_partition_rejected():
    ds = _tiny_dataset([[1, 2], [3, 4]], [0, 1])
    with pytest.raises(DataFormatError, match="train"):
        attach_partitions(ds, {"train": [], "test": [0, 1]})


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


def test_blobs_deterministic_and_separable_shape():
    a = separable_blobs(n=50, n_test=20, seed=3)
    b = separable_blobs(n=50, n_test=20, seed=3)
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
