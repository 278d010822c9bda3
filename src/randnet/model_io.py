"""Versioned binary container for trained models.

Layout: the 8-byte magic ``RNMODEL1``, an 8-byte little-endian length,
a JSON header (sorted keys, no whitespace), then every array as raw
little-endian float64, row-major, in field order, depth first. In the
header each dataclass is an object tagged with ``__type__`` and each
array is ``{"__shape__": [...]}``; the header also records the payload's
byte count and SHA-256. Nothing time- or platform-dependent goes in, so
the same seed and config reproduce the file byte for byte.

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

from .autoencoders import AutoencoderSpec, CorruptionSpec, EncoderWeights, KernelDecoder
from .data import ScalingStats
from .deep import DeepConfig, DeepModel
from .shallow import RandomLayer, ShallowModel
from .solvers import ElasticNetConfig, KernelMap, KernelSpec, L1Config, RidgeConfig

MAGIC = b"RNMODEL1"
FORMAT_VERSION = 4

# every dataclass reachable from ShallowModel and DeepModel; load builds no other
REGISTRY = {cls.__name__: cls for cls in (
    ShallowModel, RandomLayer, KernelMap, KernelSpec, DeepModel, DeepConfig,
    AutoencoderSpec, RidgeConfig, L1Config, ElasticNetConfig, KernelDecoder,
    CorruptionSpec, EncoderWeights, ScalingStats,
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
        return take(doc["__shape__"])
    cls = REGISTRY.get(doc.get("__type__"))
    if cls is None:
        raise ValueError(f"unknown __type__ {doc.get('__type__')!r}")
    odd = sorted(set(doc) ^ {"__type__", *(f.name for f in fields(cls))})
    if odd:
        raise ValueError(f"{cls.__name__} has missing or unknown fields {odd}")
    # field order, not the header's sorted key order, is the array order
    return cls(**{f.name: _from_doc(doc[f.name], take) for f in fields(cls)})


def save_model(model, path):
    """Write a ShallowModel or DeepModel; see the module docstring for layout."""
    if not isinstance(model, (ShallowModel, DeepModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays = []
    doc = _to_doc(model, arrays)
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    header = {"format": "randnet-model", "version": FORMAT_VERSION,
              "payload_bytes": sum(a.nbytes for a in arrays),
              "sha256": digest.hexdigest(), "model": doc}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with replace_atomically(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(blob)) + blob)
        fh.writelines(a.tobytes() for a in arrays)


def load_model(path):
    """Read a container written by save_model; any defect raises ValueError naming path."""
    try:
        return _parse(memoryview(Path(path).read_bytes()))
    except (TypeError, ValueError, struct.error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse(raw):
    if raw[:8] != MAGIC:
        raise ValueError("not a model container")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(bytes(raw[16:16 + hlen]))
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    payload = raw[16 + hlen:]
    if len(payload) != header.get("payload_bytes"):
        raise ValueError(f"payload is {len(payload)} bytes, not {header.get('payload_bytes')}")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise ValueError("payload SHA-256 does not match the header")
    pos = 0

    def take(shape):
        nonlocal pos
        a = np.ndarray(shape, dtype="<f8", buffer=payload, offset=pos)
        pos += a.nbytes
        return a.astype(np.float64)
    model = _from_doc(header.get("model"), take)
    if pos != len(payload) or not isinstance(model, (ShallowModel, DeepModel)):
        raise ValueError("header does not describe one model and its payload")
    return model
