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

from dataclasses import dataclass

from .autoencoders import AutoencoderSpec, KernelDecoder, encode, rand_ae_train
from .data import (ACTIVATION, NON_EMPTY_LIST, POSITIVE, check_fields, fit_scaling, integer,
                   one_of, optional)
from .numerics import RngState, check_finite, concat_cols, derive_seed
from .shallow import ShallowModel, train_classifier
from .shallow import predict as shallow_predict
from .solvers import KernelSpec

CONNECTIVITIES = ("plain", "direct", "dense")
MAX_KERNEL_ROWS = 4096  # training rows a kernel stack may factorize


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
        check_fields(self, {"layers": NON_EMPTY_LIST, "connectivity": one_of(*CONNECTIVITIES),
                            "classifier": one_of("rvfl", "elm", "kelm"), "clf_width": integer(1),
                            "clf_lam": POSITIVE, "clf_activation": ACTIVATION, "seed": integer(0),
                            "clf_kernel": optional(KernelSpec)}, "deep ")
        if self.classifier == "kelm" and self.clf_kernel is None:
            raise ValueError("kelm classifier needs clf_kernel")


@dataclass
class DeepModel:
    connectivity: str
    encoders: list  # EncoderWeights per layer
    scalers: list  # ScalingStats per layer
    classifier: ShallowModel

    def __post_init__(self):
        check_fields(self, {"connectivity": one_of(*CONNECTIVITIES),
                            "encoders": NON_EMPTY_LIST}, "deep model ")


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
    feats, encoders, scalers = [], [], []
    for i, spec in enumerate(cfg.layers):
        inp = _layer_input(X, feats, cfg.connectivity, i)
        enc = rand_ae_train(inp, spec, RngState(derive_seed(cfg.seed, "layer", i)))
        H = encode(inp, enc)
        scaler = fit_scaling(H, "minmax")
        feats.append(scaler.apply(H))
        encoders.append(enc)
        scalers.append(scaler)
    X_clf = _classifier_input(X, feats, cfg.connectivity)

    def with_classifier(width):
        clf = train_classifier(cfg.classifier, X_clf, Y, [cfg.clf_lam], width,
                               derive_seed(cfg.seed, "classifier"), cfg.clf_activation,
                               cfg.clf_kernel)[0]
        return DeepModel(cfg.connectivity, encoders, scalers, clf)

    if clf_widths is None:
        return with_classifier(cfg.clf_width)
    return [with_classifier(width) for width in clf_widths]


def deep_features(model, X):
    """Replay the stored per-layer encode + scale + concatenate pipeline;
    the first layer's map checks the input's width."""
    check_finite("input", X)
    feats = []
    for i, (enc, scaler) in enumerate(zip(model.encoders, model.scalers)):
        inp = _layer_input(X, feats, model.connectivity, i)
        feats.append(scaler.apply(encode(inp, enc)))
    return _classifier_input(X, feats, model.connectivity)


def deep_predict(model, X):
    """Scores and argmax labels from the replayed pipeline."""
    return deep_predict_path([model], X)[0]


def deep_predict_path(models, X):
    """deep_predict for each model of one deep_train call given a sequence
    of widths, replaying their shared stack on X once."""
    F = deep_features(models[0], X)
    # deep_features checked the input; finite input gives finite features
    return [shallow_predict(m.classifier, F, check_input=False) for m in models]


def mlkelm_train(X, Y, spec, lam, layers, seed=0):
    """Kernel stack: each of the layers and the classifier is a kernel-ridge
    map with the one kernel spec and weight lam.

    Training factorizes an n-by-n kernel matrix per layer, so n is
    capped: exceeding MAX_KERNEL_ROWS raises instead of thrashing.
    """
    n = X.shape[0]
    if n > MAX_KERNEL_ROWS:
        raise ResourceError(
            f"{n} training rows exceed the cap of {MAX_KERNEL_ROWS}: the kernel "
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
