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
from .shallow import make_random_layer
from .solvers import (
    ElasticNetConfig,
    KernelMap,
    KernelSpec,
    L1Config,
    RidgeConfig,
    admm_elastic_net,
    fista_lasso,
    fit_kernel_map,
    ridge_solve,
)


@dataclass
class CorruptionSpec:
    kind: str = "none"  # none | gaussian
    sigma: float = 0.0  # gaussian noise std

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError(f"gaussian sigma must be >= 0, got {self.sigma}")


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


@dataclass
class EncoderWeights:
    """A trained layer: a decoder used transposed forward, or a kernel map."""

    activation: str = "sigmoid"
    decoder: np.ndarray | None = None  # width x input_dim
    kernel_map: KernelMap | None = None  # kernel variant
    converged: bool = True


def corrupt(X, spec, rng):
    """Add i.i.d. Gaussian noise of std spec.sigma to X.

    Kind "none" and sigma = 0 return X itself and draw nothing from rng.
    """
    if spec.kind == "none" or spec.sigma == 0.0:
        return X
    return X + rng.gaussian(X.shape[0], X.shape[1], 0.0, spec.sigma)


def rand_ae_train(Hin, spec, rng):
    """Train one randomized autoencoder layer on Hin (rows are samples).

    The random map and the corruption draw from independent child
    streams of ``rng`` ("weights" and "noise"), so turning corruption on
    or off never changes the random weights.
    """
    if isinstance(spec.reg, KernelDecoder):
        return kernel_ae_train(Hin, spec.reg.spec, spec.reg.lam)
    layer = make_random_layer(Hin.shape[1], spec.width, rng.spawn("weights").seed,
                              spec.activation)
    Hr = layer.transform(corrupt(Hin, spec.corruption, rng.spawn("noise")))
    converged = True
    if isinstance(spec.reg, RidgeConfig):
        decoder = ridge_solve(Hr, Hin, spec.reg.lam)
    elif isinstance(spec.reg, L1Config):
        res = fista_lasso(Hr, Hin, spec.reg)
        decoder, converged = res.weights, res.converged
    elif isinstance(spec.reg, ElasticNetConfig):
        res = admm_elastic_net(Hr, Hin, spec.reg)
        decoder, converged = res.weights, res.converged
    else:
        raise TypeError(f"unsupported decoder regularization {type(spec.reg).__name__}")
    return EncoderWeights(activation=spec.activation, decoder=decoder, converged=converged)


def kernel_ae_train(Hin, spec, lam):
    """Kernel layer: reconstruct Hin from K(Hin, Hin); encoding keeps its width."""
    return EncoderWeights(kernel_map=fit_kernel_map(Hin, Hin, spec, lam))


def encode(Hin, enc):
    """Forward pass of a trained layer on clean inputs."""
    if enc.kernel_map is not None:
        return enc.kernel_map.apply(Hin)
    if Hin.shape[1] != enc.decoder.shape[1]:
        raise ShapeError(
            f"input has {Hin.shape[1]} features, encoder expects {enc.decoder.shape[1]}"
        )
    return activate(enc.activation, Hin @ enc.decoder.T)
