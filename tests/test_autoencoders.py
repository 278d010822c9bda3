import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnet.autoencoders import (
    AutoencoderSpec,
    CorruptionSpec,
    EncoderWeights,
    KernelDecoder,
    corrupt,
    encode,
    kernel_ae_train,
    rand_ae_train,
)
from randnet.numerics import RngState
from randnet.solvers import (
    ElasticNetConfig,
    KernelSpec,
    L1Config,
    RidgeConfig,
    ridge_solve,
)


def test_corrupt_none_is_same_object():
    X = RngState(0).gaussian(5, 4)
    assert corrupt(X, CorruptionSpec("none"), RngState(1)) is X


def test_corrupt_gaussian_zero_sigma_identity():
    X = RngState(0).gaussian(5, 4)
    out = corrupt(X, CorruptionSpec("gaussian", sigma=0.0), RngState(1))
    assert out is X


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 20), p=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_zero_intensity_corruption_is_identity_and_draws_nothing(n, p, seed):
    spec = CorruptionSpec("gaussian", sigma=0.0)
    X = RngState(seed).uniform(n, p)
    rng, twin = RngState(seed + 1), RngState(seed + 1)
    assert corrupt(X, spec, rng) is X
    assert rng.uniform(1, 4).tobytes() == twin.uniform(1, 4).tobytes()


def test_corrupt_gaussian_mean_absolute_deviation():
    # half-normal mean is sigma * sqrt(2/pi) = 0.0798 for sigma 0.1
    X = RngState(2).gaussian(100, 100)
    out = corrupt(X, CorruptionSpec("gaussian", sigma=0.1), RngState(3))
    mad = np.mean(np.abs(out - X))
    assert 0.06 <= mad <= 0.10


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("gaussian", sigma=-0.1)
    for kind in ("masking", "dropout"):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            CorruptionSpec(kind)


def square_problem(seed, n=80, p=12):
    # well-conditioned input for square reconstruction checks
    return RngState(seed).uniform(n, p, -1.0, 1.0)


def test_l2_ae_reconstructs_square_case():
    # n = width makes the random feature matrix square, so the decoder
    # system is exactly solvable when it is well conditioned
    Hin = square_problem(5, n=12, p=12)
    spec = AutoencoderSpec(width=12, reg=RidgeConfig(lam=1e-10))
    enc = rand_ae_train(Hin, spec, RngState(6))
    # replay the random map to measure reconstruction through the decoder
    rng_w = RngState(6).spawn("weights")
    W = rng_w.uniform(Hin.shape[1], spec.width)
    b = rng_w.uniform(1, spec.width)
    from randnet.numerics import activate

    Hr = activate("sigmoid", Hin @ W + b)
    assert np.linalg.cond(Hr) < 1e6
    rel = np.linalg.norm(Hr @ enc.decoder - Hin) / np.linalg.norm(Hin)
    assert rel <= 1e-3


def test_l2_ae_decoder_is_exactly_ridge():
    Hin = square_problem(7)
    lam = 0.05
    spec = AutoencoderSpec(width=20, reg=RidgeConfig(lam=lam))
    enc = rand_ae_train(Hin, spec, RngState(8))
    rng_w = RngState(8).spawn("weights")
    W = rng_w.uniform(Hin.shape[1], 20)
    b = rng_w.uniform(1, 20)
    from randnet.numerics import activate

    Hr = activate("sigmoid", Hin @ W + b)
    np.testing.assert_array_equal(enc.decoder, ridge_solve(Hr, Hin, lam))


def test_zero_intensity_corruption_bitwise_equals_none():
    Hin = square_problem(9)
    base = AutoencoderSpec(width=15, reg=RidgeConfig(lam=0.1))
    zero_g = AutoencoderSpec(width=15, reg=RidgeConfig(lam=0.1),
                             corruption=CorruptionSpec("gaussian", sigma=0.0))
    enc0 = rand_ae_train(Hin, base, RngState(10))
    enc1 = rand_ae_train(Hin, zero_g, RngState(10))
    np.testing.assert_array_equal(enc0.decoder, enc1.decoder)


def test_corruption_does_not_shift_weight_stream():
    # noisy and clean runs share identical random weights by stream split
    Hin = square_problem(11)
    clean = AutoencoderSpec(width=10, reg=RidgeConfig(lam=0.1))
    noisy = AutoencoderSpec(width=10, reg=RidgeConfig(lam=0.1),
                            corruption=CorruptionSpec("gaussian", sigma=0.5))
    enc_clean = rand_ae_train(Hin, clean, RngState(12))
    enc_noisy = rand_ae_train(Hin, noisy, RngState(12))
    assert np.any(enc_clean.decoder != enc_noisy.decoder)  # noise did something
    rng_w = RngState(12).spawn("weights")
    W = rng_w.uniform(Hin.shape[1], 10)
    assert W.shape == (12, 10)


def test_l1_ae_full_shrinkage_gives_zero_decoder():
    Hin = square_problem(13, n=30, p=6)
    spec = AutoencoderSpec(width=8, reg=L1Config(lam=1e6))
    enc = rand_ae_train(Hin, spec, RngState(14))
    np.testing.assert_array_equal(enc.decoder, np.zeros_like(enc.decoder))


def test_elastic_ae_trains_and_flags_convergence():
    Hin = square_problem(15, n=40, p=8)
    spec = AutoencoderSpec(width=10, reg=ElasticNetConfig(lam=0.5, alpha_mix=0.5))
    enc = rand_ae_train(Hin, spec, RngState(16))
    assert enc.converged
    assert enc.decoder.shape == (10, 8)


def test_ae_deterministic():
    Hin = square_problem(17)
    spec = AutoencoderSpec(width=9, reg=RidgeConfig(lam=0.2),
                           corruption=CorruptionSpec("gaussian", sigma=0.3))
    a = rand_ae_train(Hin, spec, RngState(18))
    b = rand_ae_train(Hin, spec, RngState(18))
    np.testing.assert_array_equal(a.decoder, b.decoder)


def test_encode_identity_decoder():
    Hin = square_problem(19, n=10, p=4)
    enc = EncoderWeights(activation="linear", decoder=np.eye(4))
    np.testing.assert_array_equal(encode(Hin, enc), Hin)


def test_encode_output_width():
    Hin = square_problem(20)
    spec = AutoencoderSpec(width=7, reg=RidgeConfig(lam=0.1))
    enc = rand_ae_train(Hin, spec, RngState(21))
    assert encode(Hin, enc).shape == (Hin.shape[0], 7)


def test_encode_roundtrip_square_case():
    Hin = square_problem(22, n=12, p=12)
    spec = AutoencoderSpec(width=12, reg=RidgeConfig(lam=1e-10))
    enc = rand_ae_train(Hin, spec, RngState(23))
    H = encode(Hin, enc)
    # decoding through the trained direction: Hr -> Hin via the decoder
    rng_w = RngState(23).spawn("weights")
    W = rng_w.uniform(Hin.shape[1], spec.width)
    b = rng_w.uniform(1, spec.width)
    from randnet.numerics import activate

    Hr = activate("sigmoid", Hin @ W + b)
    rel = np.linalg.norm(Hr @ enc.decoder - Hin) / np.linalg.norm(Hin)
    assert rel <= 1e-3
    assert H.shape == Hin.shape


def test_kernel_ae_interpolation_limit():
    Hin = square_problem(24, n=25, p=5)
    enc = kernel_ae_train(Hin, KernelSpec("rbf", sigma=2.0), 1e-10)
    out = encode(Hin, enc)
    rel = np.linalg.norm(out - Hin) / np.linalg.norm(Hin)
    assert rel <= 1e-3


def test_kernel_ae_single_row():
    Hin = np.array([[0.5, -0.5]])
    lam = 0.3
    enc = kernel_ae_train(Hin, KernelSpec("rbf", sigma=1.0), lam)
    np.testing.assert_allclose(enc.kernel_map.alpha, Hin / (1.0 + lam))


def test_kernel_ae_output_dim_equals_input_dim():
    Hin = square_problem(25, n=20, p=6)
    enc = kernel_ae_train(Hin, KernelSpec("rbf", sigma=1.0), 0.1)
    assert encode(Hin, enc).shape == (20, 6)
    assert enc.kernel_map.alpha.shape[1] == 6


def test_kernel_variant_via_spec():
    Hin = square_problem(26, n=20, p=4)
    spec = AutoencoderSpec(reg=KernelDecoder(KernelSpec("rbf", sigma=1.0), lam=0.2))
    enc = rand_ae_train(Hin, spec, RngState(27))
    assert enc.kernel_map is not None
    assert isinstance(spec.reg, KernelDecoder)
