import json
import struct
import tempfile
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnet.autoencoders import AutoencoderSpec, CorruptionSpec, KernelDecoder
from randnet.deep import (
    CONNECTIVITIES,
    DeepConfig,
    DeepModel,
    deep_predict,
    deep_train,
    mlkelm_train,
)
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
    assert loaded.kernel_map.spec.sigma == 1.3


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
    model = mlkelm_train(X, Y, KernelSpec("rbf", sigma=1.0), 0.1, 1)
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


def _case_kelm_classifier_denoise(X, Y):
    layers = [AutoencoderSpec(width=7, reg=RidgeConfig(lam=0.1),
                              corruption=CorruptionSpec("gaussian", sigma=0.3))]
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
    "kelm_classifier_denoise": _case_kelm_classifier_denoise,
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


DECODERS = {
    "l2": RidgeConfig(lam=0.1),
    "l1": L1Config(lam=0.5, max_iters=20),
    "elastic": ElasticNetConfig(lam=0.5, max_iters=20),
    "kernel": KernelDecoder(KernelSpec("rbf", sigma=1.0), 0.1),
}
CORRUPTIONS = {
    "none": CorruptionSpec(),
    "gaussian": CorruptionSpec("gaussian", sigma=0.2),
}
RBF = KernelSpec("rbf", sigma=1.0)


@st.composite
def small_models(draw):
    """A shallow or deep model of any kind on a small blobs draw, with its inputs."""
    ds = separable_blobs(n=draw(st.integers(6, 30)), seed=draw(st.integers(0, 999)))
    X, Y = ds.X, ds.Y
    classifier = draw(st.sampled_from(["rvfl", "elm", "kelm"]))
    seed = draw(st.integers(0, 999))
    width = draw(st.integers(1, 12))
    if draw(st.booleans()):
        if classifier == "kelm":
            return kelm_train(X, Y, RBF, 0.1), X
        return rvfl_train(X, Y, width, draw(st.sampled_from([1e-6, 0.1])), seed,
                          direct_links=classifier == "rvfl"), X
    layers = [AutoencoderSpec(width=draw(st.integers(1, 8)),
                              reg=DECODERS[draw(st.sampled_from(sorted(DECODERS)))],
                              corruption=CORRUPTIONS[draw(st.sampled_from(sorted(CORRUPTIONS)))])
              for _ in range(draw(st.integers(1, 3)))]
    cfg = DeepConfig(layers=layers, connectivity=draw(st.sampled_from(CONNECTIVITIES)),
                     classifier=classifier, clf_width=width, clf_lam=0.1,
                     clf_kernel=RBF if classifier == "kelm" else None, seed=seed)
    return deep_train(X, Y, cfg), X


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_models())
def test_roundtrip_property(model_and_inputs):
    model, X = model_and_inputs
    with tempfile.TemporaryDirectory() as tmp:
        a, b = f"{tmp}/a.rnm", f"{tmp}/b.rnm"
        save_model(model, a)
        loaded = load_model(a)
        np.testing.assert_array_equal(predict_method(model, X)[0],
                                      predict_method(loaded, X)[0])
        save_model(loaded, b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


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


def _drop_direct_links(header):
    del header["model"]["direct_links"]


def _rename_type(header):
    header["model"]["__type__"] = "Dataset"


@pytest.mark.parametrize("edit, message", [
    ({"edit_payload": lambda p: p[:-8]}, "payload is"),
    ({"edit_payload": lambda p: p + b"junk"}, "payload is"),
    ({"edit_payload": _flip_last_byte}, "SHA-256"),
    ({"edit_header": _rename_type}, "unknown __type__ 'Dataset'"),
    ({"edit_header": _drop_direct_links}, "missing or unknown fields ['direct_links']"),
    ({"edit_header": lambda h: h.update(version=1)}, "unsupported container version 1"),
    ({"edit_header": lambda h: h.update(version=2)}, "unsupported container version 2"),
    ({"edit_header": lambda h: h.update(version=3)}, "unsupported container version 3"),
], ids=["short_payload", "long_payload", "digest_mismatch", "unknown_type",
        "missing_field", "version_1", "version_2", "version_3"])
def test_defective_file_fails_loudly(blobs, tmp_path, edit, message):
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(rvfl_train(X, Y, width=10, lam=0.1, seed=1), p)
    _rewrite(p, **edit)
    with pytest.raises(ValueError) as err:
        load_model(p)
    assert str(p) in str(err.value)
    assert message in str(err.value)


def test_replace_atomically_keeps_old_file_on_failure(tmp_path):
    from randnet.model_io import replace_atomically

    path = tmp_path / "artifact.txt"
    with replace_atomically(path) as fh:
        fh.write("old")
    with pytest.raises(RuntimeError, match="mid-write"):
        with replace_atomically(path) as fh:
            fh.write("new, half")
            raise RuntimeError("mid-write")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
