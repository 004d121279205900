"""Binary model checkpoints.

Byte layout, little-endian throughout:

- 4 bytes magic ``SSTC``
- uint32 header length in bytes
- UTF-8 JSON header: ``{"version": 1, "config": {...}, "freeze": {...},
  "dtype": "<f8", "params": [{"name": ..., "shape": [...]}, ...]}``
- raw parameter payload: each tensor as little-endian float64 in C order,
  concatenated in header order.

Save then load then save reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
from pathlib import Path

import numpy as np

from hsiatl.autodiff import Tensor
from hsiatl.data import BadMagicError, FormatError, TruncatedPayloadError
from hsiatl.model import SstConfig, SstModel, param_spec

CHECKPOINT_MAGIC = b"SSTC"
VERSION = 1


def save_model(model: SstModel, path: str | Path) -> None:
    params = model.parameters()
    header = {
        "version": VERSION,
        "config": dataclasses.asdict(model.config),
        "freeze": model.freeze,
        "dtype": "<f8",
        "params": [
            {"name": name, "shape": list(t.data.shape)} for name, t in params.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(t.data, dtype="<f8").tobytes() for t in params.values()
    )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_model(path: str | Path) -> SstModel:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise TruncatedPayloadError(f"{path}: file shorter than magic")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise TruncatedPayloadError(f"{path}: header length missing")
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if len(raw) < 8 + header_len:
        raise TruncatedPayloadError(f"{path}: header incomplete")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object, got {type(header).__name__}")
    if header.get("version") != VERSION or header.get("dtype") != "<f8":
        raise FormatError(f"{path}: unsupported checkpoint version/dtype")
    config = _config(path, header.get("config"))
    freeze = header.get("freeze")
    if not isinstance(freeze, dict) or not all(isinstance(v, bool) for v in freeze.values()):
        raise FormatError(
            f"{path}: header field 'freeze' must map group names to true or false, "
            f"got {freeze!r}"
        )
    entries = header.get("params")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: header field 'params' must be a list, got {entries!r}")
    spec = param_spec(config)
    offset = 8 + header_len
    values: dict[str, np.ndarray] = {}
    for entry in entries:
        name, shape = _param_entry(path, entry)
        expected = spec.get(name)
        if expected is None:
            raise FormatError(f"{path}: unknown parameter {name!r}")
        if name in values:
            raise FormatError(f"{path}: parameter {name} is listed twice")
        if shape != expected:
            raise FormatError(
                f"{path}: parameter {name} has shape {list(shape)}, expected {list(expected)}"
            )
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > len(raw):
            raise TruncatedPayloadError(f"{path}: payload ends inside {name}")
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: parameter {name} has non-finite values")
        values[name] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    missing = [name for name in spec if name not in values]
    if missing:
        raise FormatError(f"{path}: checkpoint missing parameter {missing[0]}")
    params = {name: Tensor(values[name], requires_grad=True) for name in spec}
    model = SstModel(config, params, dict(freeze))
    groups = {model.group_of(name) for name in model.parameters()}
    if set(freeze) != groups:
        raise FormatError(
            f"{path}: header field 'freeze' must name the groups {sorted(groups)}, "
            f"got {sorted(freeze)}"
        )
    model.apply_freeze()
    return model


def type_mismatch(hint, value) -> str | None:
    """What a field annotated ``hint`` expects, as text, when the JSON value
    ``value`` does not fit it, else None: a bool is not an int, an int fits
    a float, null fits only an optional field, and a fixed-length tuple is a
    list of as many fitting values."""
    kinds = typing.get_args(hint) or (hint,)
    if typing.get_origin(hint) is tuple:
        fits = isinstance(value, list) and len(value) == len(kinds)
        fits = fits and not any(map(type_mismatch, kinds, value))
        return None if fits else "[" + ", ".join(k.__name__ for k in kinds) + "]"
    numbers = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) == (bool in kinds) and isinstance(value, numbers):
        return None
    return " or ".join("null" if k is type(None) else k.__name__ for k in kinds)


def _config(path, raw) -> SstConfig:
    """The model config from a header, checked field by field."""
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: header field 'config' must be an object, got {raw!r}")
    hints = typing.get_type_hints(SstConfig)
    for key, value in raw.items():
        if key not in hints:
            raise FormatError(f"{path}: unknown config field {key!r}")
        expected = type_mismatch(hints[key], value)
        if expected is not None:
            raise FormatError(
                f"{path}: config field {key!r} must be {expected}, got {value!r}"
            )
    try:
        return SstConfig(**raw)
    except (TypeError, ValueError) as exc:  # a missing field, or a bad value
        raise FormatError(f"{path}: invalid config: {exc}") from exc


def _param_entry(path, entry) -> tuple[str, tuple[int, ...]]:
    """(name, shape) of one header ``params`` entry."""
    shape = entry.get("shape") if isinstance(entry, dict) else None
    if (
        not isinstance(entry, dict)
        or not isinstance(entry.get("name"), str)
        or not isinstance(shape, list)
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape)
    ):
        raise FormatError(
            f"{path}: params entries must be {{\"name\": str, \"shape\": [int, ...]}}, "
            f"got {entry!r}"
        )
    return entry["name"], tuple(shape)
