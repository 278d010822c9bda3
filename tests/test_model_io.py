import hashlib
import json
import re
import struct
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnet.autoencoders import AutoencoderSpec, EncoderWeights, KernelDecoder
from randnet.data import ScalingStats
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
from randnet.shallow import (
    RandomLayer,
    ShallowModel,
    elm_train,
    kelm_train,
    predict,
    rvfl_train,
)
from randnet.solvers import ElasticNetConfig, KernelSpec, L1Config, RidgeConfig
from randnet.synthetic import separable_blobs


@pytest.fixture(scope="module")
def blobs():
    ds = separable_blobs(n=120, seed=0)
    return ds.X, ds.Y


def test_shallow_roundtrip_bit_identical_predictions(blobs, tmp_path):
    X, Y = blobs
    model = rvfl_train(X, Y, width=30, lam=[0.1], seed=3)[0]
    p = tmp_path / "m.rnm"
    save_model(model, p)
    loaded = load_model(p)
    s0, l0 = predict(model, X)
    s1, l1 = predict(loaded, X)
    np.testing.assert_array_equal(s0, s1)
    np.testing.assert_array_equal(l0, l1)


def test_kelm_roundtrip(blobs, tmp_path):
    X, Y = blobs
    model = kelm_train(X, Y, KernelSpec("rbf", sigma=1.3), [0.2])[0]
    p = tmp_path / "m.rnm"
    save_model(model, p)
    loaded = load_model(p)
    np.testing.assert_array_equal(predict(model, X)[0], predict(loaded, X)[0])
    assert loaded.kernel_map.spec.sigma == 1.3


def test_deep_roundtrip_all_variants(blobs, tmp_path):
    X, Y = blobs
    layers = [
        AutoencoderSpec(width=8, reg=RidgeConfig(lam=0.1), noise=0.1),
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
    assert loaded.connectivity == "dense"


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
    save_model(rvfl_train(X, Y, width=10, lam=[0.1], seed=1)[0], a)
    save_model(rvfl_train(X, Y, width=10, lam=[0.1], seed=1)[0], b)
    assert a.read_bytes() == b.read_bytes()


def test_reject_garbage_file(tmp_path):
    p = tmp_path / "x.rnm"
    p.write_bytes(b"not a model at all")
    with pytest.raises(ValueError):
        load_model(p)


def _case_elm(X, Y):
    return elm_train(X, Y, width=25, lam=[0.1], seed=2)[0]


def _case_kelm_classifier_denoise(X, Y):
    layers = [AutoencoderSpec(width=7, reg=RidgeConfig(lam=0.1), noise=0.3)]
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
            return kelm_train(X, Y, RBF, [0.1])[0], X
        return rvfl_train(X, Y, width, [draw(st.sampled_from([1e-6, 0.1]))], seed,
                          direct_links=classifier == "rvfl")[0], X
    layers = [AutoencoderSpec(width=draw(st.integers(1, 8)),
                              reg=DECODERS[draw(st.sampled_from(sorted(DECODERS)))],
                              noise=draw(st.sampled_from([0.2, 0.0])))
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


def _container(blob, payload, digest=None):
    """A file of the model JSON blob and payload, signed unless a digest is given."""
    rest = struct.pack("<Q", len(blob)) + blob + payload
    return MAGIC + (digest or hashlib.sha256(rest).digest()) + rest


def _split(raw):
    """(model JSON bytes, payload bytes) of a container."""
    (jlen,) = struct.unpack("<Q", raw[40:48])
    return raw[48:48 + jlen], raw[48 + jlen:]


def _rewrite(path, edit_model=None, edit_payload=None, sign=True):
    # sign=True re-signs the edit, as a writer who knows the layout can,
    # so it reaches the field rules and the probe; sign=False keeps the old digest
    raw = path.read_bytes()
    blob, payload = _split(raw)
    doc = json.loads(blob)
    if edit_model:
        edit_model(doc)
    if edit_payload:
        payload = edit_payload(payload)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(_container(blob, payload, None if sign else raw[8:40]))


def _flip_last_byte(payload):
    return payload[:-1] + bytes([payload[-1] ^ 1])


def _drop_direct_links(model):
    del model["direct_links"]


def _rename_type(model):
    model["__type__"] = "Dataset"


def _linear_layer(model):
    model["layer"]["activation"] = "linear"


@pytest.mark.parametrize("edit, message", [
    ({"edit_payload": lambda p: p[:-8], "sign": False}, "SHA-256"),
    ({"edit_payload": lambda p: p + b"junk", "sign": False}, "SHA-256"),
    ({"edit_payload": _flip_last_byte, "sign": False}, "SHA-256"),
    ({"edit_model": _linear_layer, "sign": False}, "SHA-256"),
    ({"edit_payload": lambda p: p[:-8]}, "buffer is too small"),
    ({"edit_payload": lambda p: p + b"junk"}, "does not describe one model and its payload"),
    ({"edit_model": _rename_type}, "unknown __type__ 'Dataset'"),
    ({"edit_model": _drop_direct_links}, "missing or unknown fields ['direct_links']"),
    ({"edit_model": lambda m: m.update(extra=1)},
     "ShallowModel has missing or unknown fields ['extra']"),
    ({"edit_model": lambda m: m["weights"].update(__type__="RandomLayer")},
     "shape record has keys other than __shape__: ['__shape__', '__type__']"),
    ({"edit_model": lambda m: m["weights"].update(junk=1)},
     "shape record has keys other than __shape__: ['__shape__', 'junk']"),
], ids=["unsigned_short_payload", "unsigned_long_payload", "digest_mismatch",
        "unsigned_linear_activation", "short_payload", "long_payload", "unknown_type",
        "missing_field", "extra_model_key", "typed_shape", "shape_junk"])
def test_defective_file_fails_loudly(blobs, tmp_path, edit, message):
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(rvfl_train(X, Y, width=10, lam=[0.1], seed=1)[0], p)
    _rewrite(p, **edit)
    with pytest.raises(ValueError) as err:
        load_model(p)
    assert str(p) in str(err.value)
    assert message in str(err.value)


def test_v5_file_is_refused(blobs, tmp_path):
    # the previous layout: magic RNMODEL1, length, then a header holding
    # the model JSON beside its format, version and payload length and digest
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(rvfl_train(X, Y, width=10, lam=[0.1], seed=1)[0], p)
    blob, payload = _split(p.read_bytes())
    header = {"format": "randnet-model", "model": json.loads(blob),
              "payload_bytes": len(payload), "sha256": hashlib.sha256(payload).hexdigest(),
              "version": 5}
    header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    p.write_bytes(b"RNMODEL1" + struct.pack("<Q", len(header)) + header + payload)
    with pytest.raises(ValueError, match="not a model container with magic RNMODEL6") as err:
        load_model(p)
    assert str(p) in str(err.value)


def test_every_truncation_and_header_byte_substitution_fails_loudly(blobs, tmp_path):
    # the digest covers every byte after it: each truncation, every value of
    # each digest and length byte, each model JSON byte swapped within a
    # JSON alphabet and each payload byte with one bit flipped fails to load
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(rvfl_train(X, Y, width=4, lam=[0.1], seed=1)[0], p)
    raw = p.read_bytes()
    blob, _ = _split(raw)
    json_end = 48 + len(blob)

    def changed(i, values):
        return [raw[:i] + bytes([c]) + raw[i + 1:] for c in values if raw[i] != c]
    variants = [raw[:n] for n in range(len(raw))]
    variants += [v for i in range(8, 48) for v in changed(i, range(256))]
    variants += [v for i in range(48, json_end) for v in changed(i, b' "0,.19:[]aefu{}')]
    variants += [v for i in range(json_end, len(raw)) for v in changed(i, [raw[i] ^ 1])]
    for variant in variants:
        p.write_bytes(variant)
        with pytest.raises(ValueError) as err:
            load_model(p)
        assert str(p) in str(err.value)


@pytest.mark.parametrize("depth", [500, 100_000])
def test_deeply_nested_header_fails_loudly(blobs, tmp_path, depth):
    # 500 levels were a RecursionError in the model JSON walk, 100,000 one in
    # json itself; either is a defect of the file
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(rvfl_train(X, Y, width=10, lam=[0.1], seed=1)[0], p)
    blob, payload = _split(p.read_bytes())
    nested = b'"kernel_map":' + b"[" * depth + b"]" * depth
    p.write_bytes(_container(blob.replace(b'"kernel_map":null', nested), payload))
    with pytest.raises(ValueError, match="model JSON nests too deeply") as err:
        load_model(p)
    assert str(p) in str(err.value)


# every spec a model header rebuilds refuses what its trainer never writes
ACTS = "['linear', 'relu', 'sigmoid', 'tanh']"
LAYERS = [AutoencoderSpec()]


@pytest.mark.parametrize("make, message", [
    (lambda: KernelSpec("rbf", sigma=np.inf), "sigma must be > 0 and finite"),
    (lambda: KernelSpec("rbf", sigma=np.nan), "sigma must be > 0 and finite"),
    (lambda: KernelSpec("rbf", sigma=True), "sigma must be > 0 and finite"),
    (lambda: AutoencoderSpec(noise=np.nan), "noise must be >= 0 and finite"),
    (lambda: AutoencoderSpec(noise=np.inf), "noise must be >= 0 and finite"),
    (lambda: RidgeConfig(lam=True), "lam must be > 0 and finite"),
    (lambda: L1Config(max_iters=2.5), "max_iters must be an integer >= 1"),
    (lambda: ElasticNetConfig(max_iters=True), "max_iters must be an integer >= 1"),
    (lambda: ElasticNetConfig(alpha_mix=True), "alpha_mix must be in [0, 1]"),
    (lambda: AutoencoderSpec(width=2.5), "width must be an integer >= 1"),
    (lambda: ScalingStats("bogus", np.zeros(2), np.ones(2)),
     "scaling method must be one of ['minmax', 'zscore'], got 'bogus'"),
    (lambda: AutoencoderSpec(activation="bogus"), f"activation must be one of {ACTS}, got 'bogus'"),
    (lambda: RandomLayer(np.zeros((2, 3)), np.zeros((1, 3)), "bogus"),
     f"layer activation must be one of {ACTS}, got 'bogus'"),
    (lambda: EncoderWeights(activation=None), f"activation must be one of {ACTS}, got None"),
    (lambda: EncoderWeights(converged=1), "converged must be true or false, got 1"),
    (lambda: EncoderWeights(decoder=[1.0]), "decoder must be a ndarray or null, got [1.0]"),
    (lambda: EncoderWeights(kernel_map=0), "kernel_map must be a KernelMap or null, got 0"),
    (lambda: ShallowModel(layer="bogus"), "layer must be a RandomLayer or null, got 'bogus'"),
    (lambda: ShallowModel(weights="bogus"), "weights must be a ndarray or null, got 'bogus'"),
    (lambda: ShallowModel(direct_links=0), "direct_links must be true or false, got 0"),
    (lambda: ShallowModel(kernel_map=2.5), "kernel_map must be a KernelMap or null, got 2.5"),
    (lambda: KernelDecoder(lam=np.inf), "lam must be > 0 and finite, got inf"),
    (lambda: DeepConfig(LAYERS, clf_width=2.5), "clf_width must be an integer >= 1, got 2.5"),
    (lambda: DeepConfig(LAYERS, clf_lam=np.nan), "clf_lam must be > 0 and finite, got nan"),
    (lambda: DeepConfig(LAYERS, clf_activation=0),
     f"clf_activation must be one of {ACTS}, got 0"),
    (lambda: DeepConfig(LAYERS, seed=True), "seed must be an integer >= 0, got True"),
    (lambda: DeepConfig(LAYERS, clf_kernel=1.0),
     "clf_kernel must be a KernelSpec or null, got 1.0"),
    (lambda: DeepModel("ring", [EncoderWeights()], [], ShallowModel()),
     "connectivity must be one of ['plain', 'direct', 'dense'], got 'ring'"),
], ids=["kernel_sigma_inf", "kernel_sigma_nan", "kernel_sigma_bool", "corruption_sigma_nan",
        "corruption_sigma_inf", "ridge_lam_bool", "l1_iters_float", "elastic_iters_bool",
        "elastic_mix_bool", "ae_width_float", "scaling_method", "ae_activation",
        "layer_activation", "encoder_activation", "encoder_converged", "encoder_decoder",
        "encoder_kernel_map", "shallow_layer", "shallow_weights", "shallow_direct_links",
        "shallow_kernel_map", "kernel_decoder_lam", "deep_clf_width", "deep_clf_lam",
        "deep_clf_activation", "deep_seed", "deep_clf_kernel", "deep_connectivity"])
def test_spec_rejects_invalid_field(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_spec_accepts_numpy_floats():
    lam = np.float64(0.5)
    assert RidgeConfig(lam=lam).lam == L1Config(lam=lam).lam == lam
    assert KernelSpec("rbf", sigma=lam).sigma == AutoencoderSpec(noise=lam).noise


@pytest.mark.parametrize("sigma", [float("inf"), True], ids=["inf", "bool"])
def test_tampered_spec_value_fails_load(blobs, tmp_path, sigma):
    # an infinite bandwidth would load and then predict one label for every row
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(kelm_train(X, Y, KernelSpec("rbf", sigma=1.3), [0.2])[0], p)
    _rewrite(p, edit_model=lambda m: m["kernel_map"]["spec"].update(sigma=sigma))
    with pytest.raises(ValueError, match="sigma must be > 0 and finite") as err:
        load_model(p)
    assert str(p) in str(err.value)


def _scalar_leaves(doc, path=()):
    """Paths to every non-container value of a JSON document."""
    if not isinstance(doc, (dict, list)):
        return [path]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [leaf for key, value in items for leaf in _scalar_leaves(value, path + (key,))]


def _set_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _case_dense_deep(X, Y):
    layers = [AutoencoderSpec(width=6, reg=L1Config(lam=0.5, max_iters=20), noise=0.2),
              AutoencoderSpec(width=5, reg=ElasticNetConfig(lam=0.5, max_iters=20))]
    return deep_train(X, Y, DeepConfig(layers=layers, connectivity="dense", clf_width=12))


TAMPER_CASES = {
    "rvfl": lambda X, Y: rvfl_train(X, Y, width=10, lam=[0.1], seed=1)[0],
    "kelm": lambda X, Y: kelm_train(X, Y, KernelSpec("rbf", sigma=1.3), [0.2])[0],
    "dense_deep": _case_dense_deep,
    "ml_kelm": lambda X, Y: mlkelm_train(X, Y, RBF, 0.1, 2),
}
BAD_VALUES = [True, "bogus", float("inf"), -1, 2.5, None, 0,
              False, "plain", "direct", "linear"]


@pytest.mark.parametrize("case", sorted(TAMPER_CASES))
def test_tampered_scalar_fails_load_or_predicts(blobs, tmp_path, case):
    # each scalar of the model JSON, in turn, set to each bad value (re-signed): the load
    # refuses it naming the file, or the model it gives still predicts
    X, Y = blobs
    p = tmp_path / "m.rnm"
    save_model(TAMPER_CASES[case](X, Y), p)
    clean = p.read_bytes()
    late = []
    for path in _scalar_leaves(json.loads(_split(clean)[0])):
        for bad in BAD_VALUES:
            p.write_bytes(clean)
            _rewrite(p, edit_model=lambda m: _set_leaf(m, path, bad))
            try:
                model = load_model(p)
            except ValueError as err:
                assert str(p) in str(err)
                continue
            try:
                predict_method(model, X)
            except Exception as err:
                late.append(f"{'.'.join(map(str, path))} = {bad!r}: {type(err).__name__}")
    assert late == []


ROOT = Path(__file__).resolve().parents[1]


def test_readme_header_example_matches_a_trained_file(tmp_path):
    # README quotes the start of this model file and its model JSON in
    # full; only the digest bytes, which cover the payload bits, depend on
    # the BLAS build and thread count, so they are not compared
    from randnet.cli import main

    assert main(["train", "--config", str(ROOT / "configs" / "demo.yaml"),
                 "--dataset", "blobs", "--method", "rvfl", "--out", str(tmp_path)]) == 0
    raw = next(tmp_path.glob("*.rnm")).read_bytes()
    blob, payload = _split(raw)
    readme = (ROOT / "README.md").read_text()
    quoted = re.search(r'```\n(\{"__type__":"ShallowModel".*?)\n```', readme, re.S).group(1)
    assert blob.decode() == quoted.replace("\n", "")
    for start, end in ((0x00, 0x08), (0x28, 0x30), (0x30, 0x40)):
        assert f"{start:#04x}  {raw[start:end].hex(' ')}" in readme
    assert f"its {len(blob)}-byte model JSON reads" in readme
    assert f"model JSON is {len(blob):#x} bytes" in readme
    assert f"followed by the {len(payload):,} payload bytes" in " ".join(readme.split())


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
