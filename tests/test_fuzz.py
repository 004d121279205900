"""Seeded byte-mutation fuzzing of the four file formats.

Valid HSIC, HSIL, manifest and SSTC files are truncated, bit-flipped and
spliced with bytes from each other in a plain seeded loop. A loader may
accept a mutated file or reject it, but only with a ``FormatError``; and
``main()`` given a rejected file returns 2 with a one-line data error,
without raising.
"""

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
                continue
            except FormatError:
                rejected += 1
        code = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 2, (case, err)
        assert err.startswith("data error:") and err.count("\n") == 1, (case, err)
    assert rejected > CASES_PER_FORMAT // 3
