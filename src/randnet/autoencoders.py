"""Randomized autoencoder layers: random encoder, learned decoder.

The layer input is randomly mapped (after optional Gaussian noise) to a
hidden representation, a decoder matrix is learned to reconstruct the
clean input from it, and that decoder is reused transposed as the
layer's forward encoding. Four decoder regularizations are supported:
ridge, l1 (FISTA), elastic net (ADMM), and kernel ridge.

Noise only ever touches the decoder-learning step; forward encoding
always consumes clean inputs, and noise 0 is exactly the identity (it
draws nothing from its stream).
"""

from dataclasses import dataclass, field

import numpy as np

from .data import ACTIVATION, BOOL, NON_NEGATIVE, POSITIVE, check_fields, integer, optional
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
class KernelDecoder:
    """Kernel-ridge decoder: spec plus its regularization weight."""

    spec: KernelSpec = field(default_factory=KernelSpec)
    lam: float = 1.0

    def __post_init__(self):
        check_fields(self, {"lam": POSITIVE}, "kernel decoder ")


@dataclass
class AutoencoderSpec:
    """One layer's width, decoder regularization, activation, and input noise.

    reg is one of RidgeConfig, L1Config, ElasticNetConfig, or
    KernelDecoder; width is ignored for the kernel variant, whose
    encoding dimension equals its input dimension. noise is the std of
    the Gaussian noise on the decoder's input; 0 means clean input.
    """

    width: int = 50
    reg: object = field(default_factory=RidgeConfig)
    activation: str = "sigmoid"
    noise: float = 0.0

    def __post_init__(self):
        check_fields(self, {"width": integer(1), "activation": ACTIVATION, "noise": NON_NEGATIVE},
                     "autoencoder ")


@dataclass
class EncoderWeights:
    """A trained layer: a decoder used transposed forward, or a kernel map."""

    activation: str = "sigmoid"
    decoder: np.ndarray | None = None  # width x input_dim
    kernel_map: KernelMap | None = None  # kernel variant
    converged: bool = True

    def __post_init__(self):
        check_fields(self, {"activation": ACTIVATION, "decoder": optional(np.ndarray),
                            "kernel_map": optional(KernelMap), "converged": BOOL}, "encoder ")


def corrupt(X, noise, rng):
    """Add i.i.d. Gaussian noise of std noise to X; noise 0 returns X itself
    and draws nothing from rng."""
    if noise == 0.0:
        return X
    return X + rng.gaussian(X.shape[0], X.shape[1], 0.0, noise)


def rand_ae_train(Hin, spec, rng):
    """Train one randomized autoencoder layer on Hin (rows are samples).

    The random map and the noise draw from independent child streams of
    ``rng`` ("weights" and "noise"), so turning noise on or off never
    changes the random weights.
    """
    if isinstance(spec.reg, KernelDecoder):
        return kernel_ae_train(Hin, spec.reg.spec, spec.reg.lam)
    layer = make_random_layer(Hin.shape[1], spec.width, rng.spawn("weights").seed,
                              spec.activation)
    Hr = layer.transform(corrupt(Hin, spec.noise, rng.spawn("noise")))
    converged = True
    if isinstance(spec.reg, RidgeConfig):
        decoder = ridge_solve(Hr, Hin, [spec.reg.lam])[0]
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
    return EncoderWeights(kernel_map=fit_kernel_map(Hin, Hin, spec, [lam])[0])


def encode(Hin, enc):
    """Forward pass of a trained layer on clean inputs."""
    if enc.kernel_map is not None:
        return enc.kernel_map.apply(Hin)
    if Hin.ndim != 2 or Hin.shape[1] != enc.decoder.shape[1]:
        raise ShapeError(f"input has {Hin.shape[1] if Hin.ndim == 2 else '?'} features, "
                         f"encoder expects {enc.decoder.shape[1]}")
    return activate(enc.activation, Hin @ enc.decoder.T)
