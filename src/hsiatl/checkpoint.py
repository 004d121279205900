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
import itertools
import json
import math
import os
import struct
import typing
from pathlib import Path

import numpy as np

from hsiatl.data import BadMagicError, FormatError, TruncatedPayloadError, type_mismatch
from hsiatl.model import SstConfig, SstModel, _views, param_spec

CHECKPOINT_MAGIC = b"SSTC"
VERSION = 1


def save_model(model: SstModel, path: str | Path) -> None:
    header = {
        "version": VERSION,
        "config": dataclasses.asdict(model.config),
        "freeze": model.freeze,
        "dtype": "<f8",
        "params": [
            {"name": name, "shape": list(t.data.shape)} for name, t in model.params.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(model.vector.astype("<f8", copy=False))


def load_model(path: str | Path) -> SstModel:
    """An SSTC file's model: its payload is read into the model's vector last."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 4:
            raise TruncatedPayloadError(f"{path}: file shorter than magic")
        if head[:4] != CHECKPOINT_MAGIC:
            raise BadMagicError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 8:
            raise TruncatedPayloadError(f"{path}: header length missing")
        header_len = struct.unpack("<I", head[4:])[0]
        size -= 8 + header_len
        if size < 0:  # checked first, so a huge length is never read
            raise TruncatedPayloadError(f"{path}: header incomplete")
        config, freeze, listed = _header(path, fh.read(header_len))
        expected = 8 * config.n_parameters
        if size < expected:
            ends = itertools.accumulate(8 * math.prod(shape) for shape in listed.values())
            name = next(name for name, end in zip(listed, ends) if end > size)
            raise TruncatedPayloadError(f"{path}: payload ends inside {name}")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes")
        payload = np.empty(config.n_parameters, dtype="<f8")
        if fh.readinto(payload) < expected:  # the file shrank while it was read
            raise TruncatedPayloadError(f"{path}: payload ended early")
    payload = payload.astype(np.float64, copy=False)
    spec = param_spec(config)
    if list(listed) != list(spec):  # listed in another order: gather checkpoint order
        by_name = dict(_views(payload, listed))
        payload = np.concatenate([by_name[name].ravel() for name in spec])
    if not np.isfinite(payload).all():
        name = next(name for name, t in _views(payload, spec) if not np.isfinite(t).all())
        raise FormatError(f"{path}: parameter {name} has non-finite values")
    return SstModel(config, payload, freeze)


def _header(path, blob: bytes) -> tuple[SstConfig, dict, dict[str, tuple[int, ...]]]:
    """The config, freeze flags and listed {name: shape} of a checked header."""
    try:
        header = json.loads(blob.decode("utf-8"))
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
    listed: dict[str, tuple[int, ...]] = {}
    for entry in entries:
        name, shape = _param_entry(path, entry)
        expected = spec.get(name)
        if expected is None:
            raise FormatError(f"{path}: unknown parameter {name!r}")
        if name in listed:
            raise FormatError(f"{path}: parameter {name} is listed twice")
        if shape != expected:
            raise FormatError(
                f"{path}: parameter {name} has shape {list(shape)}, expected {list(expected)}"
            )
        listed[name] = shape
    missing = [name for name in spec if name not in listed]
    if missing:
        raise FormatError(f"{path}: checkpoint missing parameter {missing[0]}")
    groups = set(map(SstModel.group_of, spec))
    if set(freeze) != groups:
        raise FormatError(
            f"{path}: header field 'freeze' must name the groups {sorted(groups)}, "
            f"got {sorted(freeze)}"
        )
    return config, dict(freeze), listed


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
