"""Shared oracle helpers for the test suite."""

from __future__ import annotations

import json

import numpy as np


def numeric_gradient(fn, arrays: list[np.ndarray], step: float = 1e-5):
    """Central-difference gradients of a scalar function, one per input array.

    ``fn`` is called with the arrays themselves; entries are perturbed in
    place and restored, so ``fn`` must not cache its inputs.
    """
    grads = []
    for base in arrays:
        g = np.zeros_like(base, dtype=np.float64)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = base[i]
            base[i] = orig + step
            hi = fn(*arrays)
            base[i] = orig - step
            lo = fn(*arrays)
            base[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-3) -> float:
    """Largest elementwise relative error between two gradient arrays.

    The denominator is floored so that finite-difference roundoff noise in
    near-zero components does not register as a large relative error.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def rewrite_checkpoint(src, dst, edit_header=None, nan_at=None):
    """Copy an SSTC file with its JSON header edited, or one payload value NaN."""
    raw = src.read_bytes()
    length = int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8 : 8 + length])
    payload = bytearray(raw[8 + length :])
    if edit_header is not None:
        header = edit_header(header)
    if nan_at is not None:
        payload[8 * nan_at : 8 * nan_at + 8] = np.array(np.nan, dtype="<f8").tobytes()
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + bytes(payload))
