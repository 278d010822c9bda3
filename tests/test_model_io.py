import json
import struct
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np
import pytest

from randnet.autoencoders import AutoencoderSpec, CorruptionSpec, KernelDecoder
from randnet.deep import DeepConfig, DeepModel, deep_predict, deep_train, mlkelm_train
from randnet.methods import predict_method
from randnet.model_io import MAGIC, REGISTRY, load_model, save_model
from randnet.shallow import ShallowModel, elm_train, kelm_train, predict, rvfl_train
from randnet.solvers import ElasticNetConfig, KernelSpec, L1Config, RidgeConfig
from randnet.synthetic import separable_blobs


@pytest.fixture(scope="module")
def blobs():
    ds = separable_blobs(n=120, seed=0)
    return ds.X, ds.Y


def test_shallow_roundtrip_bit_identical_predictions(blobs, tmp_path):
    X, Y = blobs
    model = rvfl_train(X, Y, width=30, lam=0.1, seed=3)
    p = tmp_path / "m.rnm"
    save_model(model, p)
    loaded = load_model(p)
    s0, l0 = predict(model, X)
    s1, l1 = predict(loaded, X)
    np.testing.assert_array_equal(s0, s1)
    np.testing.assert_array_equal(l0, l1)


def test_kelm_roundtrip(blobs, tmp_path):
    X, Y = blobs
    model = kelm_train(X, Y, KernelSpec("rbf", sigma=1.3), 0.2)
    p = tmp_path / "m.rnm"
    save_model(model, p)
    loaded = load_model(p)
    np.testing.assert_array_equal(predict(model, X)[0], predict(loaded, X)[0])
    assert loaded.kernel.sigma == 1.3


def test_deep_roundtrip_all_variants(blobs, tmp_path):
    X, Y = blobs
    layers = [
        AutoencoderSpec(width=8, reg=RidgeConfig(lam=0.1),
                        corruption=CorruptionSpec("gaussian", sigma=0.1)),
        AutoencoderSpec(width=6, reg=L1Config(lam=0.5, max_iters=200)),
        AutoencoderSpec(width=5, reg=ElasticNetConfig(lam=0.5, max_iters=200)),
    ]
    cfg = DeepConfig(layers=layers, connectivity="dense", clf_width=20, seed=7)
    model = deep_train(X, Y, cfg)
    p = tmp_path / "deep.rnm"
    save_model(model, p)
    loaded = load_model(p)
    np.testing.assert_array_equal(deep_predict(model, X)[0],
                                  deep_predict(loaded, X)[0])
    assert loaded.config.connectivity == "dense"
    assert loaded.config.layers[1].reg.max_iters == 200


def test_kernel_stack_roundtrip(blobs, tmp_path):
    X, Y = blobs
    model = mlkelm_train(X, Y, [KernelSpec("rbf", sigma=1.0)], [0.1],
                         KernelSpec("rbf", sigma=1.0), 0.1)
    p = tmp_path / "k.rnm"
    save_model(model, p)
    loaded = load_model(p)
    np.testing.assert_array_equal(deep_predict(model, X)[0],
                                  deep_predict(loaded, X)[0])


def test_save_is_byte_deterministic(blobs, tmp_path):
    X, Y = blobs
    a, b = tmp_path / "a.rnm", tmp_path / "b.rnm"
    save_model(rvfl_train(X, Y, width=10, lam=0.1, seed=1), a)
    save_model(rvfl_train(X, Y, width=10, lam=0.1, seed=1), b)
    assert a.read_bytes() == b.read_bytes()


def test_reject_garbage_file(tmp_path):
    p = tmp_path / "x.rnm"
    p.write_bytes(b"not a model at all")
    with pytest.raises(ValueError):
        load_model(p)


def _case_elm(X, Y):
    return elm_train(X, Y, width=25, lam=0.1, seed=2)


def _case_output_bias(X, Y):
    return rvfl_train(X, Y, width=20, lam=0.1, seed=4, output_bias=True)


def _case_kelm_classifier_masking(X, Y):
    layers = [AutoencoderSpec(width=7, reg=RidgeConfig(lam=0.1),
                              corruption=CorruptionSpec("masking", nu=0.5))]
    cfg = DeepConfig(layers=layers, connectivity="direct", classifier="kelm",
                     clf_kernel=KernelSpec("rbf", sigma=0.8), clf_lam=0.1, seed=5)
    return deep_train(X, Y, cfg)


def _case_kernel_decoders(X, Y):
    layers = [AutoencoderSpec(reg=KernelDecoder(KernelSpec("rbf", sigma=1.0), 0.1)),
              AutoencoderSpec(width=6, reg=L1Config(lam=0.5, max_iters=50)),
              AutoencoderSpec(width=5, reg=ElasticNetConfig(lam=0.5, max_iters=50))]
    cfg = DeepConfig(layers=layers, connectivity="dense", clf_width=15, seed=9)
    return deep_train(X, Y, cfg)


ROUNDTRIP_CASES = {
    "elm": _case_elm,
    "output_bias": _case_output_bias,
    "kelm_classifier_masking": _case_kelm_classifier_masking,
    "kernel_decoders": _case_kernel_decoders,
}


@pytest.mark.parametrize("case", sorted(ROUNDTRIP_CASES))
def test_roundtrip_every_variant(blobs, tmp_path, case):
    # bit-identical predictions, and a re-save reproduces the file, so no
    # field was dropped or altered on the way through
    X, Y = blobs
    model = ROUNDTRIP_CASES[case](X, Y)
    a, b = tmp_path / "a.rnm", tmp_path / "b.rnm"
    save_model(model, a)
    loaded = load_model(a)
    np.testing.assert_array_equal(predict_method(model, X)[0],
                                  predict_method(loaded, X)[0])
    save_model(loaded, b)
    assert a.read_bytes() == b.read_bytes()


def _reachable_types(blobs):
    """Dataclass types named by field annotations or held by sample models."""
    found, todo = set(), [ShallowModel, DeepModel]
    X, Y = blobs
    samples = [build(X, Y) for build in ROUNDTRIP_CASES.values()]
    while todo or samples:
        obj = todo.pop() if todo else samples.pop()
        if isinstance(obj, list):
            samples.extend(obj)
        elif is_dataclass(obj):
            cls = obj if isinstance(obj, type) else type(obj)
            if cls not in found:
                found.add(cls)
                for hint in get_type_hints(cls).values():
                    todo.extend(h for h in (get_args(hint) or (hint,))
                                if is_dataclass(h))
            if not isinstance(obj, type):
                samples.extend(getattr(obj, f.name) for f in fields(obj))
    return found


def test_registry_covers_every_reachable_dataclass(blobs):
    found = _reachable_types(blobs)
    assert found == set(REGISTRY.values())
    assert all(REGISTRY[cls.__name__] is cls for cls in found)


def _rewrite(path, edit_header=None, edit_payload=None):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    payload = raw[16 + hlen:]
    if edit_header:
        edit_header(header)
    if edit_payload:
        payload = edit_payload(payload)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)


def _flip_last_byte(payload):
    return payload[:-1] + bytes([payload[-1] ^ 1])


def _drop_lam(header):
    del header["model"]["lam"]


def _rename_type(header):
    header["model"]["__type__"] = "Dataset"


def _version_1(header):
    header["version"] = 1


@pytest.mark.parametrize("edit, message", [
    ({"edit_payload": lambda p: p[:-8]}, "payload is"),
    ({"edit_payload": lambda p: p + b"junk"}, "payload is"),
    ({"edit_payload": _flip_last_byte}, "SHA-256"),
    ({"edit_header": _rename_type}, "unknown __type__ 'Dataset'"),
    ({"edit_header": _drop_lam}, "missing or unknown fields ['lam']"),
    ({"edit_header": _version_1}, "unsupported container version 1"),
], ids=["short_payload", "long_payload", "digest_mismatch", "unknown_type",
        "missing_field", "version_1"])
def test_defective_file_fails_loudly(blobs, tmp_path, edit, message):
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(rvfl_train(X, Y, width=10, lam=0.1, seed=1), p)
    _rewrite(p, **edit)
    with pytest.raises(ValueError) as err:
        load_model(p)
    assert str(p) in str(err.value)
    assert message in str(err.value)
