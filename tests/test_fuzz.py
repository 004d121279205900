"""Seeded byte-mutation fuzzing of the four file formats.

Valid HSIC, HSIL, manifest and SSTC files are truncated, bit-flipped and
spliced with bytes from each other in a plain seeded loop. A loader may
accept a mutated file or reject it, but only with a ``FormatError``.
``main()`` given a rejected file returns 2 with a one-line data error; given
an accepted one it returns 0, 2 or 3. Either way it raises nothing and prints
no traceback and no warning.

Each numeric config field of a checkpoint's header is also set, one at a
time, to values at and past its limits; ``eval`` on it exits 0, 2 or 3.
"""

import json
import struct
import typing
import warnings

import numpy as np
import pytest

from hsiatl import cli
from hsiatl.checkpoint import load_model, save_model
from hsiatl.data import (
    FormatError,
    load_cube,
    load_labels,
    load_manifest,
    make_split,
    save_cube,
    save_labels,
    save_manifest,
    synth_cube,
)
from hsiatl.model import SstConfig, init_model

CASES_PER_FORMAT = 150
LOADERS = {
    "cube": ("a.hsic", load_cube),
    "labels": ("a.hsil", load_labels),
    "manifest": ("a.split.json", load_manifest),
    "checkpoint": ("a.sstc", load_model),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cube, labels = synth_cube(3, 8, 8, 4, seed=0)
    save_cube(cube, root / "a.hsic")
    save_labels(labels, root / "a.hsil")
    save_manifest(make_split(labels, (0.3, 0.2, 0.5), seed=0), root / "a.split.json")
    cfg = SstConfig(bands=4, n_classes=3, window=4, subpatch=2, d_model=4, n_layers=1, n_heads=2)
    save_model(init_model(cfg, seed=0), root / "a.sstc")
    return root


def mutate(raw: bytes, donors: list[bytes], rng) -> bytes:
    """Truncate, flip one bit (half the time within the first 64 bytes, where
    the headers are), or splice up to 16 bytes of a donor file in, replacing
    or inserting."""
    kind = rng.integers(3)
    if kind == 0:
        return raw[: rng.integers(len(raw))]
    if kind == 1:
        out = bytearray(raw)
        span = min(len(out), 64) if rng.random() < 0.5 else len(out)
        out[rng.integers(span)] ^= 1 << int(rng.integers(8))
        return bytes(out)
    donor = donors[rng.integers(len(donors))]
    start, length = rng.integers(len(donor)), rng.integers(1, 17)
    at = rng.integers(len(raw) + 1)
    resume = at + (length if rng.random() < 0.5 else 0)
    return raw[:at] + donor[start : start + length] + raw[resume:]


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_mutated_files_fail_only_as_format_errors(valid_files, tmp_path, capsys, fmt):
    name, loader = LOADERS[fmt]
    donors = [(valid_files / f).read_bytes() for f, _ in LOADERS.values()]
    raw = (valid_files / name).read_bytes()
    paths = {key: valid_files / f for key, (f, _) in LOADERS.items()}
    paths[fmt] = tmp_path / name
    argv = ["eval", "--checkpoint", paths["checkpoint"], "--cube", paths["cube"],
            "--labels", paths["labels"], "--manifest", paths["manifest"],
            "--out", tmp_path / "eval.json"]
    rng = np.random.default_rng(sorted(LOADERS).index(fmt))
    rejected = 0
    for case in range(CASES_PER_FORMAT):
        paths[fmt].write_bytes(mutate(raw, donors, rng))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loader(paths[fmt])
                accepted = True
            except FormatError:
                accepted = False
                rejected += 1
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # printed to stderr, not raised
            code = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err, (case, err)
        if accepted:
            assert code in (0, 2, 3), (case, err)
        else:
            assert code == 2, (case, err)
            assert err.startswith("data error:") and err.count("\n") == 1, (case, err)
    assert rejected > CASES_PER_FORMAT // 3


def _edge_values(hint) -> tuple:
    """Header values past the limits of a config field: zero, negative,
    huge, and for an int field a fraction."""
    if int in (typing.get_args(hint) or (hint,)):
        return 0, -1, 10**12, 0.5
    return 0, -1, 1e300


CONFIG_EDGES = [(name, value) for name, hint in typing.get_type_hints(SstConfig).items()
                if hint is not bool for value in _edge_values(hint)]


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("edges")
    cube, labels = synth_cube(3, 12, 12, 6, seed=0)
    save_cube(cube, root / "a.hsic")
    save_labels(labels, root / "a.hsil")
    save_manifest(make_split(labels, (0.3, 0.2, 0.5), seed=0), root / "a.split.json")
    cfg = SstConfig(bands=6, n_classes=3, window=4, subpatch=2, d_model=4, n_layers=1, n_heads=2)
    save_model(init_model(cfg, seed=0), root / "a.sstc")
    return root


@pytest.mark.parametrize("field, value", CONFIG_EDGES)
def test_config_field_at_its_edges_ends_in_an_exit_code(eval_inputs, tmp_path, capsys,
                                                         field, value):
    raw = (eval_inputs / "a.sstc").read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + length])
    header["config"][field] = value
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    checkpoint = tmp_path / "a.sstc"
    checkpoint.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + length :])
    code = cli.main(["eval", "--checkpoint", str(checkpoint),
                     "--cube", str(eval_inputs / "a.hsic"),
                     "--labels", str(eval_inputs / "a.hsil"),
                     "--manifest", str(eval_inputs / "a.split.json"),
                     "--out", str(tmp_path / "eval.json")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    if code == 2:
        assert err.count("\n") == 1, err
