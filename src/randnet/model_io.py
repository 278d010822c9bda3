"""Versioned binary container for trained models.

Layout: the 8-byte magic ``RNMODEL6`` (its last byte is the format
version), the 32-byte SHA-256 of every byte after it, an 8-byte
little-endian length, the model JSON (sorted keys, no whitespace), then
every array as raw little-endian float64, row-major, in field order,
depth first. In the JSON each dataclass is an object tagged with
``__type__`` and each array is ``{"__shape__": [...]}``. No time or
platform fact goes in, so the same seed, config, BLAS build and thread
count reproduce the file exactly. The loader checks the magic, then the
digest, before it reads any JSON; a re-signed file must still pass the
field rules of every dataclass, exact shape records and a payload that
the shapes use up exactly.

Artifacts (models here; the bench manifest and result CSVs in the
harness) are written through ``replace_atomically``, so a crash or a
failed write never leaves a torn file in place of the old one.
"""

import hashlib
import json
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .autoencoders import EncoderWeights
from .data import ScalingStats
from .deep import DeepModel
from .methods import predict_method
from .shallow import RandomLayer, ShallowModel
from .solvers import KernelMap, KernelSpec

MAGIC = b"RNMODEL6"

# every dataclass reachable from ShallowModel and DeepModel; load builds no other
REGISTRY = {cls.__name__: cls for cls in (
    ShallowModel, RandomLayer, KernelMap, KernelSpec, DeepModel, EncoderWeights, ScalingStats,
)}


@contextmanager
def replace_atomically(path, mode="w", **open_kwargs):
    """Open a temporary file beside path for writing; on a clean exit it
    replaces path in one os.replace, on an exception it is removed and
    path keeps its old contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _to_doc(obj, arrays):
    if isinstance(obj, np.ndarray):
        arrays.append(np.ascontiguousarray(obj, dtype="<f8"))
        return {"__shape__": list(obj.shape)}
    if isinstance(obj, list):
        return [_to_doc(v, arrays) for v in obj]
    if is_dataclass(obj):
        name = type(obj).__name__
        if REGISTRY.get(name) is not type(obj):
            raise TypeError(f"cannot serialize {name}")
        return {"__type__": name, **{f.name: _to_doc(getattr(obj, f.name), arrays)
                                     for f in fields(obj)}}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize a field of type {type(obj).__name__}")


def _from_doc(doc, take):
    if isinstance(doc, list):
        return [_from_doc(v, take) for v in doc]
    if not isinstance(doc, dict):
        return doc
    if "__shape__" in doc:
        if len(doc) != 1:
            raise ValueError(f"shape record has keys other than __shape__: {sorted(doc)}")
        return take(doc["__shape__"])
    cls = REGISTRY.get(doc.get("__type__"))
    if cls is None:
        raise ValueError(f"unknown __type__ {doc.get('__type__')!r}")
    odd = sorted(set(doc) ^ {"__type__", *(f.name for f in fields(cls))})
    if odd:
        raise ValueError(f"{cls.__name__} has missing or unknown fields {odd}")
    # field order, not the JSON's sorted key order, is the array order
    return cls(**{f.name: _from_doc(doc[f.name], take) for f in fields(cls)})


def save_model(model, path):
    """Write a ShallowModel or DeepModel; see the module docstring for layout."""
    if not isinstance(model, (ShallowModel, DeepModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays = []
    blob = json.dumps(_to_doc(model, arrays), sort_keys=True, separators=(",", ":")).encode()
    head = struct.pack("<Q", len(blob)) + blob
    digest = hashlib.sha256(head)
    for a in arrays:
        digest.update(a)
    with replace_atomically(path, "wb") as fh:
        fh.write(MAGIC + digest.digest() + head)
        for a in arrays:
            fh.write(a)


def load_model(path):
    """Read a container written by save_model and predict one all-zero row with
    it, so any defect, fields at odds with the arrays too, raises ValueError naming path."""
    try:
        model = _parse(memoryview(Path(path).read_bytes()))
    except (TypeError, ValueError, struct.error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: model JSON nests too deeply to read") from None
    try:  # a tampered model may lack these arrays; each has a column per input feature
        deep = isinstance(model, DeepModel)
        first = model.encoders[0] if deep else model
        inputs = (first.kernel_map.anchors if first.kernel_map is not None
                  else first.decoder if deep else first.layer.W.T)
        predict_method(model, np.zeros((1, inputs.shape[1])))
    except Exception as exc:
        raise ValueError(f"{path}: model fails on an all-zero row: {exc}") from None
    return model


def _parse(raw):
    if raw[:8] != MAGIC:
        raise ValueError(f"not a model container with magic {MAGIC.decode()}")
    if hashlib.sha256(raw[40:]).digest() != raw[8:40]:
        raise ValueError("SHA-256 does not match the file's contents")
    (jlen,) = struct.unpack("<Q", raw[40:48])
    doc = json.loads(bytes(raw[48:48 + jlen]))
    payload = raw[48 + jlen:]
    pos = 0

    def take(shape):
        nonlocal pos
        a = np.ndarray(shape, dtype="<f8", buffer=payload, offset=pos)
        pos += a.nbytes
        return a.astype(np.float64)
    model = _from_doc(doc, take)
    if pos != len(payload) or not isinstance(model, (ShallowModel, DeepModel)):
        raise ValueError("model JSON does not describe one model and its payload")
    return model
