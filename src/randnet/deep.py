"""Stacked architectures: autoencoder feature pyramids with a shallow readout.

Connectivity modes govern what each layer and the final classifier see:

* plain:  layer i reads H_{i-1}; the classifier reads H_L
* direct: layers as plain; the classifier reads [H_L, X]
* dense:  layer i reads [X, H_1, ..., H_{i-1}]; the classifier reads
          [X, H_1, ..., H_L]

Each layer output is rescaled per feature to [-1, 1] with train-set
min/max (stored for inference) before anything downstream consumes it;
without this, saturating activations degrade stacking. The classifier
is an ordinary shallow net, so it applies its own fresh random map to
whatever concatenation it receives, with a seed split from the master
seed independently of the layer seeds.
"""

from dataclasses import dataclass, replace

from .autoencoders import AutoencoderSpec, KernelDecoder, encode, rand_ae_train
from .data import fit_scaling
from .numerics import RngState, ShapeError, check_finite, concat_cols, derive_seed
from .shallow import ShallowModel, elm_train, kelm_train, rvfl_train
from .shallow import predict as shallow_predict
from .solvers import KernelSpec

CONNECTIVITIES = ("plain", "direct", "dense")


class ResourceError(RuntimeError):
    """A guard against problem sizes the dense kernel path cannot afford."""


@dataclass
class DeepConfig:
    layers: list  # one AutoencoderSpec per layer
    connectivity: str = "dense"
    classifier: str = "rvfl"  # rvfl | elm | kelm
    clf_width: int = 500
    clf_lam: float = 1.0
    clf_activation: str = "sigmoid"
    clf_kernel: KernelSpec | None = None  # kelm classifier only
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer spec")
        if self.connectivity not in CONNECTIVITIES:
            raise ValueError(f"unknown connectivity {self.connectivity!r}")
        if self.classifier not in ("rvfl", "elm", "kelm"):
            raise ValueError(f"unknown classifier kind {self.classifier!r}")
        if self.classifier == "kelm" and self.clf_kernel is None:
            raise ValueError("kelm classifier needs clf_kernel")


@dataclass
class DeepModel:
    config: DeepConfig
    encoders: list  # EncoderWeights per layer
    scalers: list  # ScalingStats per layer
    classifier: ShallowModel
    input_dim: int


def _layer_input(X, feats, mode, i):
    if mode == "dense":
        return concat_cols([X] + feats)
    return X if i == 0 else feats[-1]


def _classifier_input(X, feats, mode):
    if mode == "plain":
        return feats[-1]
    if mode == "direct":
        return concat_cols([feats[-1], X])
    return concat_cols([X] + feats)


def deep_train(X, Y, cfg, clf_widths=None):
    """Train the layer stack and the readout classifier on (X, Y).

    A sequence of clf_widths gives one model per width from one trained
    stack and one classifier input: the stack and the classifier seed do
    not depend on the width, so each model is bitwise the one trained at
    its width alone. The models share their encoder and scaler lists.
    """
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    d = X.shape[1]
    feats, encoders, scalers = [], [], []
    for i, spec in enumerate(cfg.layers):
        inp = _layer_input(X, feats, cfg.connectivity, i)
        if cfg.connectivity == "dense":
            expected = d + sum(f.shape[1] for f in feats)
            assert inp.shape[1] == expected, (
                f"dense layer {i} input width {inp.shape[1]} != {expected}"
            )
        enc = rand_ae_train(inp, spec, RngState(derive_seed(cfg.seed, "layer", i)))
        H = encode(inp, enc)
        scaler = fit_scaling(H, "minmax")
        feats.append(scaler.apply(H))
        encoders.append(enc)
        scalers.append(scaler)
    X_clf = _classifier_input(X, feats, cfg.connectivity)

    def with_classifier(width):
        c = replace(cfg, clf_width=width)
        return DeepModel(c, encoders, scalers, _train_classifier(X_clf, Y, c), d)

    if clf_widths is None:
        return with_classifier(cfg.clf_width)
    return [with_classifier(width) for width in clf_widths]


def _train_classifier(X_clf, Y, cfg):
    clf_seed = derive_seed(cfg.seed, "classifier")
    if cfg.classifier == "kelm":
        return kelm_train(X_clf, Y, cfg.clf_kernel, cfg.clf_lam)
    train = rvfl_train if cfg.classifier == "rvfl" else elm_train
    return train(X_clf, Y, cfg.clf_width, cfg.clf_lam, clf_seed, cfg.clf_activation)


def deep_features(model, X):
    """Replay the stored per-layer encode + scale + concatenate pipeline."""
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(
            f"input has {X.shape[1] if X.ndim == 2 else '?'} features, "
            f"model expects {model.input_dim}"
        )
    check_finite("input", X)
    feats = []
    for i, (enc, scaler) in enumerate(zip(model.encoders, model.scalers)):
        inp = _layer_input(X, feats, model.config.connectivity, i)
        feats.append(scaler.apply(encode(inp, enc)))
    return _classifier_input(X, feats, model.config.connectivity)


def deep_predict(model, X):
    """Scores and argmax labels from the replayed pipeline."""
    return deep_predict_path([model], X)[0]


def deep_predict_path(models, X):
    """deep_predict for each model of one deep_train call given a sequence
    of widths, replaying their shared stack on X once."""
    F = deep_features(models[0], X)
    # deep_features checked the input; finite input gives finite features
    return [shallow_predict(m.classifier, F, check_input=False) for m in models]


def mlkelm_train(X, Y, spec, lam, layers, max_train_rows=4096, seed=0):
    """Kernel stack: each of the layers and the classifier is a kernel-ridge
    map with the one kernel spec and weight lam.

    Training factorizes an n-by-n kernel matrix per layer, so n is
    capped: exceeding max_train_rows raises instead of thrashing.
    """
    n = X.shape[0]
    if n > max_train_rows:
        raise ResourceError(
            f"{n} training rows exceed the cap of {max_train_rows}: the kernel "
            f"stack needs O(n^2) memory per layer"
        )
    cfg = DeepConfig(
        layers=[AutoencoderSpec(reg=KernelDecoder(spec, lam))] * layers,
        connectivity="plain",
        classifier="kelm",
        clf_kernel=spec,
        clf_lam=lam,
        seed=seed,
    )
    return deep_train(X, Y, cfg)


def hidden_node_count(model):
    """Total hidden nodes: layer widths plus classifier width; kernel maps count 0."""
    total = 0
    for enc in model.encoders:
        if enc.kernel_map is None:
            total += enc.decoder.shape[0]
    if model.classifier.layer is not None:
        total += model.classifier.layer.width
    return total
