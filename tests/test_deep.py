import numpy as np
import pytest

from randnet.autoencoders import AutoencoderSpec, KernelDecoder
from randnet.data import fit_scaling
from randnet.deep import (
    DeepConfig,
    ResourceError,
    deep_features,
    deep_predict,
    deep_train,
    hidden_node_count,
    mlkelm_train,
)
from randnet.methods import METHODS, predict_method, train_method
from randnet.numerics import NumericError, RngState, derive_seed
from randnet.shallow import elm_train, kelm_train
from randnet.shallow import predict as shallow_predict
from randnet.solvers import KernelSpec, RidgeConfig
from randnet.synthetic import separable_blobs


@pytest.fixture(scope="module")
def blobs():
    ds = separable_blobs(n=200, seed=0)
    return ds.X, ds.Y, ds.labels


def layer_specs(widths, lam=0.1):
    return [AutoencoderSpec(width=w, reg=RidgeConfig(lam=lam)) for w in widths]


def test_dense_dimension_ledger(blobs):
    X, Y, _ = blobs
    for L, widths in ((1, (10,)), (2, (10, 20)), (3, (10, 20, 30))):
        cfg = DeepConfig(layers=layer_specs(widths), connectivity="dense",
                         clf_width=50, seed=1)
        model = deep_train(X, Y, cfg)
        d = X.shape[1]
        feats = deep_features(model, X)
        assert feats.shape[1] == d + sum(widths)
        # classifier design: random map width + direct links
        assert model.classifier.weights.shape[0] == 50 + d + sum(widths)


def test_dense_classifier_width_eight_features():
    # d = 8 with widths (10, 20, 30): classifier reads 68 features
    from randnet.data import one_hot

    rng = RngState(40)
    X = rng.uniform(60, 8)
    Y = one_hot(np.arange(60) % 2, 2)
    cfg = DeepConfig(layers=layer_specs((10, 20, 30)), connectivity="dense",
                     clf_width=25, seed=2)
    model = deep_train(X, Y, cfg)
    assert deep_features(model, X).shape[1] == 68


def test_collapse_to_shallow(blobs):
    # one plain layer, then an ELM readout: the deep model must score
    # exactly like an ELM trained by hand on the encoded features
    X, Y, labels = blobs
    cfg = DeepConfig(layers=layer_specs((12,)), connectivity="plain",
                     classifier="elm", clf_width=40, clf_lam=0.01, seed=5)
    model = deep_train(X, Y, cfg)
    H = deep_features(model, X)
    manual = elm_train(H, Y, 40, [0.01], derive_seed(5, "classifier"))[0]
    _, pred_deep = deep_predict(model, X)
    _, pred_manual = shallow_predict(manual, H)
    np.testing.assert_array_equal(pred_deep, pred_manual)
    np.testing.assert_array_equal(model.classifier.weights, manual.weights)


def test_denoising_at_zero_sigma_is_bitwise_plain(blobs):
    # the denoising method at noise 0 trains the plain dense stack
    X, Y, _ = blobs
    params = {"layers": 2, "ae_width": 10, "clf_width": 30}
    a = train_method(METHODS["deep_rvfl_dense_l2"], params, X, Y, 9)
    for noise, same in ((0.0, True), (0.1, False)):
        b = train_method(METHODS["deep_rvfl_dense_denoise_l2"], dict(params, noise=noise),
                         X, Y, 9)
        assert all(np.array_equal(ea.decoder, eb.decoder)
                   for ea, eb in zip(a.encoders, b.encoders)) == same
        assert np.array_equal(a.classifier.weights, b.classifier.weights) == same


def test_plain_and_direct_share_encoder_weights(blobs):
    X, Y, _ = blobs
    widths = (10, 15)
    pa = deep_train(X, Y, DeepConfig(layers=layer_specs(widths),
                                     connectivity="plain", seed=4, clf_width=20))
    di = deep_train(X, Y, DeepConfig(layers=layer_specs(widths),
                                     connectivity="direct", seed=4, clf_width=20))
    for ea, eb in zip(pa.encoders, di.encoders):
        np.testing.assert_array_equal(ea.decoder, eb.decoder)
    # classifiers see different inputs, so their weights differ
    assert pa.classifier.weights.shape != di.classifier.weights.shape


def test_direct_classifier_input_is_last_layer_plus_raw(blobs):
    X, Y, _ = blobs
    cfg = DeepConfig(layers=layer_specs((10, 15)), connectivity="direct",
                     seed=4, clf_width=20)
    model = deep_train(X, Y, cfg)
    feats = deep_features(model, X)
    assert feats.shape[1] == 15 + X.shape[1]
    np.testing.assert_array_equal(feats[:, 15:], X)


def test_deep_capacity_on_separable(blobs):
    X, Y, labels = blobs
    cfg = DeepConfig(layers=layer_specs((20, 20)), connectivity="dense",
                     clf_width=200, clf_lam=1e-4, seed=11)
    model = deep_train(X, Y, cfg)
    _, pred = deep_predict(model, X)
    assert np.mean(pred == labels) >= 0.99


def test_deep_predict_single_row(blobs):
    X, Y, _ = blobs
    cfg = DeepConfig(layers=layer_specs((8,)), connectivity="dense",
                     clf_width=20, seed=2)
    model = deep_train(X, Y, cfg)
    scores, labels = deep_predict(model, X[:1])
    assert scores.shape == (1, 2)
    assert labels.shape == (1,)


def test_deep_predict_deterministic(blobs):
    X, Y, _ = blobs
    cfg = DeepConfig(layers=layer_specs((8, 8)), connectivity="dense",
                     clf_width=20, seed=3)
    model = deep_train(X, Y, cfg)
    s1, _ = deep_predict(model, X)
    s2, _ = deep_predict(model, X)
    np.testing.assert_array_equal(s1, s2)


def test_mlkelm_near_identity_first_layer(blobs):
    # a linear-kernel layer at tiny lam is close to an identity map up
    # to the affine rescale, so predictions track plain KRR closely
    X, Y, labels = blobs
    cfg = DeepConfig(layers=[AutoencoderSpec(reg=KernelDecoder(KernelSpec("linear"), 1e-8))],
                     connectivity="plain", classifier="kelm",
                     clf_kernel=KernelSpec("rbf", sigma=2.0), clf_lam=0.1)
    model = deep_train(X, Y, cfg)
    _, pred_deep = deep_predict(model, X)
    scaler = fit_scaling(X, "minmax")
    krr = kelm_train(scaler.apply(X), Y, KernelSpec("rbf", sigma=2.0), [0.1])[0]
    _, pred_krr = shallow_predict(krr, scaler.apply(X))
    assert np.mean(pred_deep == pred_krr) >= 0.99


def test_mlkelm_cap_guard(blobs):
    X, Y, _ = blobs
    big_X = np.tile(X, (21, 1))  # 4,200 rows, past MAX_KERNEL_ROWS
    big_Y = np.tile(Y, (21, 1))
    with pytest.raises(ResourceError, match="O\\(n\\^2\\)"):
        mlkelm_train(big_X, big_Y, KernelSpec("rbf"), 0.1, 1)


def test_mlkelm_deterministic(blobs):
    X, Y, _ = blobs
    a = mlkelm_train(X, Y, KernelSpec("rbf", sigma=1.0), 0.1, 1)
    b = mlkelm_train(X, Y, KernelSpec("rbf", sigma=1.0), 0.1, 1)
    sa, _ = deep_predict(a, X)
    sb, _ = deep_predict(b, X)
    np.testing.assert_array_equal(sa, sb)


def test_hidden_node_count(blobs):
    X, Y, _ = blobs
    cfg = DeepConfig(layers=layer_specs((10, 20)), connectivity="dense",
                     clf_width=100, seed=0)
    model = deep_train(X, Y, cfg)
    assert hidden_node_count(model) == 130


def test_deep_config_validation():
    with pytest.raises(ValueError):
        DeepConfig(layers=[])
    with pytest.raises(ValueError):
        DeepConfig(layers=layer_specs((5,)), connectivity="ring")
    with pytest.raises(ValueError):
        DeepConfig(layers=layer_specs((5,)), classifier="kelm")


def test_direct_vs_plain_ordering_soft_property(blobs, capsys):
    # soft sanity: direct links should not lose to plain by more than a
    # point on the easy synthetic; logged rather than hard-failed
    X, Y, labels = blobs
    means = {}
    for mode in ("plain", "direct"):
        accs = []
        for seed in range(10):
            cfg = DeepConfig(layers=layer_specs((15, 15)), connectivity=mode,
                             clf_width=100, clf_lam=1e-2, seed=seed)
            model = deep_train(X, Y, cfg)
            _, pred = deep_predict(model, X)
            accs.append(np.mean(pred == labels))
        means[mode] = float(np.mean(accs))
    print(f"ablation ordering: direct={means['direct']:.4f} "
          f"plain={means['plain']:.4f}")
    if means["direct"] < means["plain"] - 0.01:
        import warnings

        warnings.warn(
            f"direct links underperformed plain by more than 1%: {means}",
            stacklevel=1)


@pytest.mark.parametrize("method", ["rvfl", "kelm", "deep_rvfl_dense_l2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_rejects_non_finite_rows(blobs, method, bad):
    # a NaN score row used to argmax to class 0 without a word
    X, Y, _ = blobs
    params = {"layers": 2, "ae_width": 10, "clf_width": 30}
    model = train_method(METHODS[method], params, X, Y, seed=0)
    Xbad = X[:3].copy()
    Xbad[1, 0] = bad
    with pytest.raises(NumericError):
        predict_method(model, Xbad)


def test_deep_predict_checks_finiteness_once(blobs, monkeypatch):
    # the classifier features derive from the checked input; checking them
    # again cost most of a small batch's prediction time
    import randnet.deep
    import randnet.shallow
    from randnet.numerics import check_finite

    X, Y, _ = blobs
    model = train_method(METHODS["deep_rvfl_dense_l2"],
                         {"layers": 2, "ae_width": 10, "clf_width": 30}, X, Y, seed=0)
    checked = []

    def counting(name, m):
        checked.append(m.shape)
        check_finite(name, m)

    monkeypatch.setattr(randnet.deep, "check_finite", counting)
    monkeypatch.setattr(randnet.shallow, "check_finite", counting)
    predict_method(model, X[:5])
    assert checked == [(5, X.shape[1])]
    shallow_predict(model.classifier, np.zeros((5, model.classifier.layer.W.shape[0])))
    assert len(checked) == 2  # direct callers of shallow.predict are still checked
