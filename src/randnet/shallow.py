"""Single-hidden-layer classifiers with closed-form output weights.

The RVFL feeds the output layer both the random hidden features H and
the raw inputs X (direct links), so the design matrix is D = [H X]; the
ELM is the same network with the direct links removed. Targets are
{0, 1} one-hot columns and the decision rule is argmax over class
scores with ties broken toward the lowest class index.
"""

from dataclasses import dataclass, replace

import numpy as np

from .data import ACTIVATION, BOOL, check_fields, optional
from .numerics import RngState, ShapeError, activate, check_finite, concat_cols
from .solvers import KernelMap, fit_kernel_map, kernel_matrix, ridge_solve


@dataclass
class RandomLayer:
    """Fixed random affine map plus non-linearity; never updated by training."""

    W: np.ndarray  # input_dim x width
    b: np.ndarray  # 1 x width
    activation: str = "sigmoid"

    def __post_init__(self):
        check_fields(self, {"activation": ACTIVATION}, "layer ")

    def transform(self, X):
        if X.ndim != 2 or X.shape[1] != self.W.shape[0]:
            raise ShapeError(
                f"input has {X.shape[1] if X.ndim == 2 else '?'} features, "
                f"layer expects {self.W.shape[0]}"
            )
        return activate(self.activation, X @ self.W + self.b)

    @property
    def width(self):
        return self.W.shape[1]


def make_random_layer(input_dim, width, seed, activation="sigmoid"):
    """Draw weights then biases from one uniform stream over [-1, 1]."""
    rng = RngState(seed)
    W = rng.uniform(input_dim, width)
    b = rng.uniform(1, width)
    return RandomLayer(W, b, activation)


@dataclass
class ShallowModel:
    """rvfl/elm: output weights on design(X); kelm: a kernel map from X."""

    layer: RandomLayer | None = None
    weights: np.ndarray | None = None  # Beta over design(X)
    direct_links: bool = False
    kernel_map: KernelMap | None = None

    def __post_init__(self):
        check_fields(self, {"layer": optional(RandomLayer), "weights": optional(np.ndarray),
                            "direct_links": BOOL, "kernel_map": optional(KernelMap)}, "shallow ")

    def design(self, X):
        """Feature map seen by the output weights (rvfl/elm only)."""
        parts = [self.layer.transform(X)]
        if self.direct_links:
            parts.append(X)
        return concat_cols(parts)


def rvfl_train(X, Y, width, lam, seed, activation="sigmoid", direct_links=True):
    """Random hidden layer, then ridge on D = [H X] along the path lam.

    One model per lam, from one layer draw, one design and one Gram matrix.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    base = ShallowModel(make_random_layer(X.shape[1], width, seed, activation),
                        direct_links=direct_links)
    return [replace(base, weights=beta) for beta in ridge_solve(base.design(X), Y, lam)]


def elm_train(X, Y, width, lam, seed, activation="sigmoid"):
    """RVFL with the direct links ablated, so ridge on D = H; shares its code path."""
    return rvfl_train(X, Y, width, lam, seed, activation, direct_links=False)


def kelm_train(X, Y, spec, lam):
    """Kernel variant: representer coefficients on K(X, X) along the path
    lam, inputs retained."""
    return [ShallowModel(kernel_map=km) for km in fit_kernel_map(X, Y, spec, lam)]


def train_classifier(kind, X, Y, lam, width, seed, activation, kernel):
    """The rvfl, elm or kelm readout along the path lam; kelm reads only
    the kernel spec, the random-layer kinds everything but it."""
    if kind == "kelm":
        return kelm_train(X, Y, kernel, lam)
    train = rvfl_train if kind == "rvfl" else elm_train
    return train(X, Y, width, lam, seed, activation)


def predict(model, X, check_input=True):
    """Class scores and argmax labels; ties go to the lowest class index.

    deep_predict passes check_input=False: it has checked the raw input.
    """
    return predict_path([model], X, check_input)[0]


def predict_path(models, X, check_input=True):
    """predict for each model of one path (a train call given a sequence
    of lams), forming their shared design(X) or K(X, anchors) once."""
    if check_input:
        check_finite("input", X)
    head = models[0]
    if head.kernel_map is None:
        F, readouts = head.design(X), [m.weights for m in models]
    else:
        km = head.kernel_map
        F = kernel_matrix(X, km.anchors, km.spec)
        readouts = [m.kernel_map.alpha for m in models]
    # one product per model: a single product with the readouts stacked
    # could block differently in BLAS and move the last bits of the scores
    return [(scores, np.argmax(scores, axis=1)) for scores in (F @ R for R in readouts)]
