from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnet.methods import (
    METHODS,
    get_method,
    predict_group,
    predict_method,
    resolve_params,
    train_group,
    train_method,
)
from randnet.selection import GridSpec, accuracy, auc, expand_grid, grid_search
from randnet.synthetic import interleaved_arcs, separable_blobs

from oracles import (
    auc_brute_force,
    grid_search_per_candidate,
    validation_scores_per_candidate,
)


def small_grid(**overrides):
    base = dict(
        ae_widths=(10, 20),
        clf_widths=(50, 100),
        C_values=(0.1, 10.0),
        sigma_values=(1.0,),
        noise_values=(0.1,),
    )
    base.update(overrides)
    return GridSpec(**base)


def test_default_grid_sizes():
    g = GridSpec()
    assert len(g.C_values) == 8
    assert len(g.ae_widths) == 20
    assert len(g.clf_widths) == 20
    assert g.noise_values == (0.05, 0.1, 0.15, 0.3, 0.5, 0.75)


def test_expand_grid_restricts_to_method_axes():
    g = small_grid()
    no_noise = expand_grid(g, get_method("deep_rvfl_dense_l2"))
    with_noise = expand_grid(g, get_method("deep_rvfl_dense_denoise_l2"))
    assert len(no_noise) == 2 * 2 * 2
    assert len(with_noise) == 2 * 2 * 2 * 1
    assert all("noise" in c for c in with_noise)
    shallow = expand_grid(g, get_method("rvfl"))
    assert len(shallow) == 2 * 2


def test_expand_grid_deterministic_order():
    g = small_grid()
    a = expand_grid(g, get_method("rvfl"))
    b = expand_grid(g, get_method("rvfl"))
    assert a == b


def test_accuracy_values():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3], [3, 1, 2]) == 0.0
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_auc_extremes_and_ties():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_brute_force_example():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auc(scores, labels) == 0.75
    assert auc(scores, labels) == auc_brute_force(scores, labels)


def test_auc_random_cases_match_brute_force():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        n = 30
        scores = np.round(rng.uniform(0, 1, n), 1)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            continue
        assert auc(scores, labels) == pytest.approx(auc_brute_force(scores, labels))


def test_auc_affine_invariance():
    rng = np.random.Generator(np.random.PCG64(1))
    scores = rng.uniform(0, 1, 40)
    labels = rng.integers(0, 2, 40)
    a = auc(scores, labels)
    b = auc(3.0 * scores + 7.0, labels)
    assert a == pytest.approx(b)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 1)), min_size=2,
                     max_size=40).filter(lambda rows: len({y for _, y in rows}) == 2),
       slope=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3),
       gaps=st.lists(st.floats(1e-3, 1e3), min_size=11, max_size=11))
def test_auc_invariant_under_increasing_transforms(rows, slope, shift, gaps):
    # integer scores in a small range tie often; a strictly increasing map
    # keeps every tie and every order, so the AUC must not move by a bit
    scores = np.array([s for s, _ in rows], dtype=np.float64)
    labels = np.array([y for _, y in rows])
    steps = np.cumsum(gaps)  # any strictly increasing map of -5..5
    ref = auc(scores, labels)
    for mapped in (np.exp(scores), slope * scores + shift, steps[scores.astype(int) + 5]):
        assert auc(mapped, labels) == ref


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])


def test_auc_rejects_nan_score():
    with pytest.raises(ValueError, match="NaN or Inf"):
        auc([0.1, np.nan, 0.3, 0.4], [0, 0, 1, 1])


def test_metrics_invariant_under_sample_permutation():
    rng = np.random.Generator(np.random.PCG64(2))
    scores = rng.uniform(0, 1, 50)
    labels = rng.integers(0, 2, 50)
    pred = rng.integers(0, 2, 50)
    perm = rng.permutation(50)
    assert accuracy(labels, pred) == accuracy(labels[perm], pred[perm])
    assert auc(scores, labels) == pytest.approx(auc(scores[perm], labels[perm]))


@pytest.fixture(scope="module")
def blobs_split():
    return separable_blobs(n_train=120, n_val=40, n_test=40, seed=2)


def test_grid_search_single_config(blobs_split):
    g = small_grid(clf_widths=(50,), C_values=(1.0,))
    res = grid_search(blobs_split, get_method("rvfl"), g, seeds=[0])
    assert res.params == {"C": 1.0, "clf_width": 50}
    assert res.hidden_nodes == 50
    assert 0.0 <= res.val_accuracy <= 1.0


def test_grid_search_tie_prefers_fewer_nodes(blobs_split):
    # blobs are separable: both widths reach 100% validation accuracy
    g = small_grid(clf_widths=(100, 200), C_values=(1e4,))
    res = grid_search(blobs_split, get_method("rvfl"), g, seeds=[0])
    assert res.val_accuracy == 1.0
    assert res.params["clf_width"] == 100
    # equal score and equal hidden nodes: the earlier grid point wins,
    # whichever C it has
    for Cs in ((1e4, 1e3), (1e3, 1e4)):
        res = grid_search(blobs_split, get_method("rvfl"),
                          small_grid(clf_widths=(100,), C_values=Cs), seeds=[0])
        assert res.val_accuracy == 1.0
        assert res.params == {"C": Cs[0], "clf_width": 100}


def test_grid_search_reports_auc_for_binary(blobs_split):
    g = small_grid(clf_widths=(50,), C_values=(1e4,))
    res = grid_search(blobs_split, get_method("rvfl"), g, seeds=[0, 1])
    assert res.auc is not None and res.auc > 0.95
    assert res.train_time_ms > 0


def test_grid_search_never_reads_test_before_selection(blobs_split):
    # canary: trash every test row; selection must be unaffected, and
    # only the final test accuracy may move
    g = small_grid(clf_widths=(50, 100), C_values=(0.1, 10.0))
    method = get_method("rvfl")
    clean = grid_search(blobs_split, method, g, seeds=[0])
    X_bad = blobs_split.X.copy()
    X_bad[blobs_split.partitions["test"]] = 1e9
    poisoned = replace(blobs_split, X=X_bad)
    dirty = grid_search(poisoned, method, g, seeds=[0])
    assert dirty.params == clean.params
    assert dirty.val_accuracy == clean.val_accuracy
    assert dirty.test_accuracy != clean.test_accuracy


def test_grid_search_deep_capacity_on_arcs():
    ds = interleaved_arcs(n_train=150, n_val=75, n_test=75, noise=0.1, seed=4)
    g = small_grid(ae_widths=(20,), clf_widths=(200,), C_values=(1e4,))
    res = grid_search(ds, get_method("deep_rvfl_dense_l2"), g, seeds=[0],
                      base_params={"layers": 2})
    assert res.test_accuracy >= 0.9


def test_grid_search_deep_on_separable_reaches_99():
    ds = separable_blobs(n_train=150, n_val=50, n_test=50, seed=6)
    g = small_grid(ae_widths=(15,), clf_widths=(100,), C_values=(100.0,))
    res = grid_search(ds, get_method("deep_rvfl_dense_l2"), g, seeds=[0, 1],
                      base_params={"layers": 2})
    assert res.test_accuracy >= 0.99


def test_grid_search_retrain_with_validation_flag(blobs_split):
    g = small_grid(clf_widths=(50,), C_values=(1e4,))
    a = grid_search(blobs_split, get_method("rvfl"), g, seeds=[0])
    b = grid_search(blobs_split, get_method("rvfl"), g, seeds=[0],
                    retrain_with_validation=True)
    assert a.params == b.params


def test_resolve_params_rejects_unknown():
    with pytest.raises(ValueError, match="unknown params"):
        resolve_params(get_method("rvfl"), {"widht": 3})


def test_every_method_trains_on_tiny_data():
    ds = separable_blobs(n_train=60, seed=5)
    X, Y = ds.X, ds.Y
    fast = {"layers": 2, "ae_width": 10, "clf_width": 30, "solver_iters": 100}
    for name in sorted(METHODS):
        method = get_method(name)
        model = train_method(method, fast, X, Y, seed=0)
        from randnet.methods import predict_method

        scores, pred = predict_method(model, X)
        assert scores.shape == (60, 2)
        assert pred.shape == (60,)


def test_grid_spec_rejects_non_positive_values():
    with pytest.raises(ValueError, match="param C must be > 0 and finite, got 0"):
        GridSpec(C_values=(1.0, 0))
    with pytest.raises(ValueError, match="param sigma must be > 0 and finite, got -1.0"):
        GridSpec(sigma_values=(-1.0,))
    with pytest.raises(ValueError, match="param clf_width must be an integer >= 1"):
        GridSpec(clf_widths=(0,))
    with pytest.raises(ValueError, match="param ae_width must be an integer >= 1"):
        GridSpec(ae_widths=(10.5,))
    with pytest.raises(ValueError, match="param noise must be >= 0 and finite, got -0.1"):
        GridSpec(noise_values=(-0.1,))
    with pytest.raises(ValueError, match="param C must be > 0 and finite, got inf"):
        GridSpec(C_values=(1.0, float("inf")))
    with pytest.raises(ValueError, match="param sigma must be > 0 and finite, got inf"):
        GridSpec(sigma_values=(float("inf"),))


# --------------------------------------------------------------- C path

# widths 60 / 150 / 300 against 150 training rows give the primal, the
# square and the dual system; C = 1e7 is the badly conditioned end
PATH_GRID = GridSpec(clf_widths=(60, 150, 300), sigma_values=(0.3, 1.0, 3.0),
                     C_values=(1e-3, 1.0, 1e3, 1e7), search="full")


@pytest.fixture(scope="module", params=["blobs", "arcs"])
def path_ds(request):
    if request.param == "blobs":
        return separable_blobs(n_train=150, n_val=60, n_test=60, gap=1.0, seed=8)
    return interleaved_arcs(n_train=150, n_val=60, n_test=60, noise=0.15, seed=9)


@pytest.mark.parametrize("name", ["rvfl", "elm", "kelm"])
def test_C_path_scores_equal_per_candidate_bitwise(path_ds, name):
    method = get_method(name)
    Xtr, Ytr, _ = path_ds.part("train")
    Xva = path_ds.part("validation")[0]
    axis = method.axes[0]
    for value in PATH_GRID.axis(axis):
        params = {axis: value}
        models = train_group(method, [dict(params, C=C) for C in PATH_GRID.C_values],
                             Xtr, Ytr, 3)
        for C, (scores, labels) in zip(PATH_GRID.C_values, predict_group(models, Xva)):
            alone = train_method(method, dict(params, C=C), Xtr, Ytr, 3)
            ref_scores, ref_labels = predict_method(alone, Xva)
            assert scores.tobytes() == ref_scores.tobytes(), (value, C)
            assert labels.tolist() == ref_labels.tolist()


@pytest.mark.parametrize("name", ["rvfl", "elm", "kelm"])
def test_grid_search_equals_per_candidate_loop(path_ds, name):
    method = get_method(name)
    res = grid_search(path_ds, method, PATH_GRID, seeds=[0, 1])
    assert (res.params, res.val_accuracy, res.test_accuracy, res.auc) == \
        grid_search_per_candidate(path_ds, method, PATH_GRID, seeds=[0, 1])


@pytest.mark.parametrize("name", ["rvfl", "elm", "kelm", "ml_kelm"])
def test_grouped_validation_scores_equal_per_candidate(path_ds, name):
    # the candidates of every (width or sigma) group, scored along its C
    # path; a kernel-stack candidate is a group of its own
    from randnet.selection import grouped_accuracy

    method = get_method(name)
    candidates = expand_grid(PATH_GRID, method)
    Xtr, Ytr, _ = path_ds.part("train")
    Xva, _, yva = path_ds.part("validation")
    assert grouped_accuracy(method, candidates, Xtr, Ytr, Xva, yva, 3) == \
        validation_scores_per_candidate(path_ds, method, candidates, 3)


def test_group_fit_rejects_candidates_off_the_group_axis():
    X, Y = np.zeros((4, 2)), np.zeros((4, 2))
    with pytest.raises(ValueError, match="differ off its group axis C"):
        train_group(get_method("rvfl"), [{"clf_width": 50}, {"clf_width": 100}], X, Y, 0)
    with pytest.raises(ValueError, match="differ off its group axis clf_width"):
        train_group(get_method("helm_l2"), [{"C": 1.0}, {"C": 2.0}], X, Y, 0)
    with pytest.raises(ValueError, match="differ off its group axis None"):
        train_group(get_method("ml_kelm"), [{"sigma": 1.0}, {"sigma": 2.0}], X, Y, 0)


# ------------------------------------------------- shared deep stacks

# classifier widths 30 and 120 against 80 training rows give the primal
# and the dual system; every (ae_width, C, noise) group trains one stack
DEEP_BASE = {"layers": 2, "solver_iters": 30}
DEEP_METHODS = ["helm_l1", "deep_rvfl_direct_l2", "deep_rvfl_dense_elastic",
                "deep_rvfl_dense_denoise_l1"]


def deep_grid(search="full"):
    return GridSpec(ae_widths=(6, 12), clf_widths=(30, 120), C_values=(0.1, 100.0),
                    noise_values=(0.1, 0.4), search=search)


@pytest.fixture(scope="module")
def deep_ds():
    return interleaved_arcs(n_train=80, n_val=60, n_test=40, noise=0.3, seed=11)


@pytest.mark.parametrize("name", DEEP_METHODS)
def test_deep_group_scores_equal_per_candidate_bitwise(deep_ds, name):
    method = get_method(name)
    Xtr, Ytr, _ = deep_ds.part("train")
    Xva = deep_ds.part("validation")[0]
    grid = deep_grid()
    for params in expand_grid(grid, replace(method, axes=("ae_width", "C", "noise")),
                              DEEP_BASE):
        group = [dict(params, clf_width=w) for w in grid.clf_widths]
        models = train_group(method, group, Xtr, Ytr, 3)
        for member, model, (scores, labels) in zip(group, models,
                                                   predict_group(models, Xva)):
            alone = train_method(method, member, Xtr, Ytr, 3)
            ref_scores, ref_labels = predict_method(alone, Xva)
            assert scores.tobytes() == ref_scores.tobytes(), member
            assert labels.tolist() == ref_labels.tolist()
            assert model.classifier.layer.width == alone.classifier.layer.width


@pytest.mark.parametrize("name", DEEP_METHODS)
def test_deep_grouped_validation_scores_equal_per_candidate(deep_ds, name):
    from randnet.selection import grouped_accuracy

    method = get_method(name)
    candidates = expand_grid(deep_grid(), method, DEEP_BASE)
    Xtr, Ytr, _ = deep_ds.part("train")
    Xva, _, yva = deep_ds.part("validation")
    assert grouped_accuracy(method, candidates, Xtr, Ytr, Xva, yva, 3) == \
        validation_scores_per_candidate(deep_ds, method, candidates, 3)


@pytest.mark.parametrize("retrain", [False, True], ids=["train", "train+val"])
@pytest.mark.parametrize("search", ["full", "stagewise"])
@pytest.mark.parametrize("name", DEEP_METHODS)
def test_deep_grid_search_equals_per_candidate_loop(deep_ds, name, search, retrain):
    method = get_method(name)
    grid = deep_grid(search)
    res = grid_search(deep_ds, method, grid, seeds=[0, 1], base_params=DEEP_BASE,
                      retrain_with_validation=retrain)
    assert (res.params, res.val_accuracy, res.test_accuracy, res.auc) == \
        grid_search_per_candidate(deep_ds, method, grid, [0, 1], DEEP_BASE, retrain)
