"""Every numeric setting tried at the edges of its type, under every
subcommand that takes settings, in process through ``cli.main``.

The cases come from ``RunConfig``'s type hints: each int key with 0, -1,
10**12, 10**12 + 1 and 0.5 (some settings must be even, some odd, so a huge
value of each kind gets past that check), each float key with 0, -1, 1e300
and 1e-300. ``ablate`` runs once more with a target, on the keys its
transfer arms read. Whatever a subcommand makes of a value, it ends in a
documented exit code, prints no traceback, writes no file unless it
succeeds (or fails numerically once training began) and finishes within a
bound.
"""

import json
import signal
import time
import typing

import pytest

from hsiatl import cli

EDGES = {int: (0, -1, 10**12, 10**12 + 1, 0.5), float: (0, -1, 1e300, 1e-300)}
# 10**12 epochs asks for a long run, and gets one
LONG_RUNS = {("epochs", 10**12), ("epochs", 10**12 + 1)}
COMMANDS = ("train", "al", "transfer", "eval", "ablate")
# the keys that ablate's transfer arms read, swept again with a target given
TRANSFER_ARM_KEYS = ("rho", "target_fraction", "sample_count", "bandwidth")
TINY = {"epochs": 1, "rounds": 1, "window": 4, "d_model": 8, "n_heads": 2, "n_layers": 1}
BOUND_S = 10.0


def edge_cases():
    for key, hint in typing.get_type_hints(cli.RunConfig).items():
        kinds = () if typing.get_origin(hint) is tuple else typing.get_args(hint) or (hint,)
        for kind, values in EDGES.items():
            if kind in kinds:
                yield from ((key, v) for v in values if (key, v) not in LONG_RUNS)


CASES = list(edge_cases())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny cube, a shifted target and a checkpoint trained on the cube."""
    root = tmp_path_factory.mktemp("sweep-inputs")
    (root / "tiny.json").write_text(json.dumps(TINY))
    for stem, shift in (("a", "0"), ("b", "0.5")):
        assert cli.main(["synth", "--classes", "2", "--size", "8x8x4", "--shift", shift,
                         "--cube", str(root / f"{stem}.hsic"),
                         "--labels", str(root / f"{stem}.hsil")]) == 0
    assert cli.main(["train", "--config", str(root / "tiny.json"),
                     "--cube", str(root / "a.hsic"), "--labels", str(root / "a.hsil"),
                     "--manifest", str(root / "a.split.json"),
                     "--checkpoint", str(root / "a.sstc")]) == 0
    return root


def argv(command, inputs, out):
    data = ["--cube", inputs / "a.hsic", "--labels", inputs / "a.hsil"]
    target = ["--target-cube", inputs / "b.hsic", "--target-labels", inputs / "b.hsil"]
    return [str(a) for a in {
        "train": [*data, "--manifest", out / "split.json", "--checkpoint", out / "m.sstc",
                  "--out", out / "train.json"],
        "al": [*data, "--manifest", out / "split.json", "--checkpoint", out / "m.sstc",
               "--out", out / "rounds.jsonl"],
        "transfer": [*data, "--source-ckpt", inputs / "a.sstc", *target,
                     "--checkpoint", out / "t.sstc", "--out", out / "transfer.json"],
        "eval": [*data, "--checkpoint", inputs / "a.sstc", "--out", out / "eval.json"],
        "ablate": [*data, "--seeds", "0", "--out", out / "ablate.csv"],
        "ablate-target": [*data, *target, "--seeds", "0", "--out", out / "ablate.csv"],
    }[command]]


class Overran(BaseException):
    """Raised in the main thread when a case runs past its bound."""


def overran(signum, frame):
    raise Overran(f"still running after {BOUND_S} s")


def test_every_setting_type_has_cases():
    keys = {key for key, _ in CASES}
    assert {"window", "d_ff", "n_neighborhood", "epochs", "bandwidth", "rho"} <= keys
    assert "ratios" not in keys and "renormalize" not in keys


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key, value", CASES)
def test_edge_value(inputs, tmp_path, capsys, command, key, value):
    check_edge_value(inputs, tmp_path, capsys, command, key, value)


@pytest.mark.parametrize("key, value", [case for case in CASES if case[0] in TRANSFER_ARM_KEYS])
def test_ablate_with_target_edge_value(inputs, tmp_path, capsys, key, value):
    check_edge_value(inputs, tmp_path, capsys, "ablate-target", key, value)


def check_edge_value(inputs, tmp_path, capsys, command, key, value):
    (tmp_path / "cfg.json").write_text(json.dumps({**TINY, key: value}))
    out = tmp_path / "out"
    out.mkdir()
    before = sorted(inputs.iterdir())
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, BOUND_S)
    start = time.perf_counter()
    try:
        code = cli.main([command.split("-")[0], "--config", str(tmp_path / "cfg.json"),
                         *argv(command, inputs, out)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err, err
    written = sorted(p.name for p in out.iterdir())
    assert code in (0, 3) or not written, (code, written, err)
    assert sorted(inputs.iterdir()) == before
    assert elapsed < BOUND_S
