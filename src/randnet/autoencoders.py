"""Randomized autoencoder layers: random encoder, learned decoder.

The layer input is randomly mapped (after optional corruption) to a
hidden representation, a decoder matrix is learned to reconstruct the
clean input from it, and that decoder is reused transposed as the
layer's forward encoding. Four decoder regularizations are supported:
ridge, l1 (FISTA), elastic net (ADMM), and kernel ridge.

Corruption only ever touches the decoder-learning step; forward
encoding always consumes clean inputs, and zero-intensity corruption is
exactly the identity (it draws nothing from its stream).
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeError, activate
from .solvers import (
    ElasticNetConfig,
    KernelSpec,
    L1Config,
    RidgeConfig,
    admm_elastic_net,
    fista_lasso,
    kernel_matrix,
    krr_fit,
    pinv_solve,
    ridge_solve,
)


@dataclass
class CorruptionSpec:
    kind: str = "none"  # none | gaussian | masking
    sigma: float = 0.0  # gaussian noise std
    nu: float = 0.0  # fraction of entries masked per row

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "masking"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError(f"gaussian sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"masking nu must be in [0, 1], got {self.nu}")


@dataclass
class KernelDecoder:
    """Kernel-ridge decoder: spec plus its regularization weight."""

    spec: KernelSpec = field(default_factory=KernelSpec)
    lam: float = 1.0


@dataclass
class AutoencoderSpec:
    """One layer's width, decoder regularization, activation, and corruption.

    reg is one of RidgeConfig, L1Config, ElasticNetConfig, or
    KernelDecoder; width is ignored for the kernel variant, whose
    encoding dimension equals its input dimension.
    """

    width: int = 50
    reg: object = field(default_factory=RidgeConfig)
    activation: str = "sigmoid"
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")

    @property
    def variant(self):
        return {
            RidgeConfig: "l2",
            L1Config: "l1",
            ElasticNetConfig: "elastic",
            KernelDecoder: "kernel",
        }[type(self.reg)]


@dataclass
class EncoderWeights:
    variant: str  # l2 | l1 | elastic | kernel
    activation: str = "sigmoid"
    decoder: np.ndarray | None = None  # width x input_dim; used transposed forward
    train_repr: np.ndarray | None = None  # kernel variant anchor rows
    alpha: np.ndarray | None = None  # kernel variant coefficients
    kernel: KernelSpec | None = None
    converged: bool = True

    @property
    def output_dim(self):
        if self.variant == "kernel":
            return self.alpha.shape[1]
        return self.decoder.shape[0]


def corrupt(X, spec, rng):
    """Apply the corruption process; zero intensity is exactly the identity.

    Gaussian adds i.i.d. noise with the given std; masking zeroes
    round(nu * p) entries per row, chosen uniformly without replacement.
    """
    if spec.kind == "none":
        return X
    if spec.kind == "gaussian":
        if spec.sigma == 0.0:
            return X
        return X + rng.gaussian(X.shape[0], X.shape[1], 0.0, spec.sigma)
    count = round(spec.nu * X.shape[1])
    if count == 0:
        return X
    out = X.copy()
    orders = rng.column_orders(X.shape[0], X.shape[1])
    rows = np.arange(X.shape[0])[:, None]
    out[rows, orders[:, :count]] = 0.0
    return out


def rand_ae_train(Hin, spec, rng):
    """Train one randomized autoencoder layer on Hin (rows are samples).

    The random map and the corruption draw from independent child
    streams of ``rng`` ("weights" and "noise"), so turning corruption on
    or off never changes the random weights.
    """
    if isinstance(spec.reg, KernelDecoder):
        return kernel_ae_train(Hin, spec.reg.spec, spec.reg.lam)
    p = Hin.shape[1]
    rng_w = rng.spawn("weights")
    W = rng_w.uniform(p, spec.width)
    b = rng_w.uniform(1, spec.width)
    Hr = activate(spec.activation, corrupt(Hin, spec.corruption, rng.spawn("noise")) @ W + b)
    converged = True
    if isinstance(spec.reg, RidgeConfig):
        if spec.reg.lam == 0:
            decoder = pinv_solve(Hr, Hin)
        else:
            decoder = ridge_solve(Hr, Hin, spec.reg.lam, spec.reg.mode)
    elif isinstance(spec.reg, L1Config):
        res = fista_lasso(Hr, Hin, spec.reg)
        decoder, converged = res.weights, res.converged
    elif isinstance(spec.reg, ElasticNetConfig):
        res = admm_elastic_net(Hr, Hin, spec.reg)
        decoder, converged = res.weights, res.converged
    else:
        raise TypeError(f"unsupported decoder regularization {type(spec.reg).__name__}")
    return EncoderWeights(
        variant=spec.variant,
        activation=spec.activation,
        decoder=decoder,
        converged=converged,
    )


def kernel_ae_train(Hin, spec, lam):
    """Kernel layer: reconstruct Hin from K(Hin, Hin); encoding keeps its width."""
    if lam <= 0:
        raise ValueError(f"lam must be > 0 for the kernel variant, got {lam}")
    alpha = krr_fit(kernel_matrix(Hin, Hin, spec), Hin, lam)
    # copy: the forward pass must never hit the same-object
    # symmetrization fast path and drift from a deserialized encoder
    return EncoderWeights(
        variant="kernel",
        train_repr=Hin.copy(),
        alpha=alpha,
        kernel=spec,
    )


def encode(Hin, enc):
    """Forward pass of a trained layer on clean inputs."""
    if enc.variant == "kernel":
        if Hin.shape[1] != enc.train_repr.shape[1]:
            raise ShapeError(
                f"input has {Hin.shape[1]} features, encoder expects "
                f"{enc.train_repr.shape[1]}"
            )
        return kernel_matrix(Hin, enc.train_repr, enc.kernel) @ enc.alpha
    if Hin.shape[1] != enc.decoder.shape[1]:
        raise ShapeError(
            f"input has {Hin.shape[1]} features, encoder expects {enc.decoder.shape[1]}"
        )
    return activate(enc.activation, Hin @ enc.decoder.T)
