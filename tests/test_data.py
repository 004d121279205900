"""Binary formats against hand-assembled byte fixtures, window extraction
against a brute-force mirror oracle, split arithmetic, and the synthetic
generator against its closed-form prototypes."""

import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import extract_window, mirror_index

from hsiatl.checkpoint import load_model, save_model
from hsiatl.data import (
    BadMagicError,
    DimensionError,
    FormatError,
    HsiCube,
    LabelMap,
    SplitManifest,
    TruncatedPayloadError,
    class_prototypes,
    extract_windows_batch,
    load_cube,
    load_labels,
    load_manifest,
    make_split,
    mirror_pad,
    save_cube,
    save_labels,
    save_manifest,
    synth_cube,
    validate_split,
    window_pad,
)
from hsiatl.model import SstConfig, init_model


def build_cube_bytes(rows, cols, bands, values):
    header = b"HSIC" + struct.pack("<III", rows, cols, bands)
    return header + np.asarray(values, dtype="<f4").tobytes()


def build_label_bytes(rows, cols, values):
    header = b"HSIL" + struct.pack("<II", rows, cols)
    return header + np.asarray(values, dtype="<u2").tobytes()


class TestCubeFormat:
    def test_load_hand_assembled_file(self, tmp_path):
        path = tmp_path / "tiny.hsic"
        path.write_bytes(build_cube_bytes(2, 2, 1, [1.0, 2.0, 3.0, 4.0]))
        cube = load_cube(path)
        assert cube.data.shape == (2, 2, 1)
        np.testing.assert_array_equal(
            cube.data[:, :, 0], [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_row_major_band_order(self, tmp_path):
        # (row, col, band) ordering: value index = (r * cols + c) * bands + q
        path = tmp_path / "order.hsic"
        path.write_bytes(build_cube_bytes(2, 3, 2, np.arange(12.0)))
        cube = load_cube(path)
        assert cube.data[0, 0, 1] == 1.0
        assert cube.data[0, 1, 0] == 2.0
        assert cube.data[1, 0, 0] == 6.0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.hsic"
        full = build_cube_bytes(2, 2, 2, np.zeros(8))
        path.write_bytes(full[:-3])
        with pytest.raises(TruncatedPayloadError):
            load_cube(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.hsic"
        path.write_bytes(b"HSIC\x01\x00")
        with pytest.raises(TruncatedPayloadError):
            load_cube(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.hsic"
        path.write_bytes(b"HSIC" + struct.pack("<III", 100000, 100000, 1000))
        with pytest.raises(DimensionError):
            load_cube(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.hsic"
        path.write_bytes(b"HSIC" + struct.pack("<III", 0, 4, 4))
        with pytest.raises(DimensionError):
            load_cube(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "fat.hsic"
        path.write_bytes(build_cube_bytes(1, 1, 1, [1.0]) + b"\x00")
        with pytest.raises(FormatError):
            load_cube(path)

    def test_format_errors_keep_their_messages(self, tmp_path):
        path = tmp_path / "cube.hsic"
        full = build_cube_bytes(2, 2, 2, np.zeros(8))
        for raw, error, message in [
            (full[:-3], TruncatedPayloadError, "payload has 29 bytes, need 32"),
            (full + b"\x00\x00", FormatError, "2 trailing bytes"),
            (full[:10], TruncatedPayloadError, "header incomplete"),
            (full[:3], TruncatedPayloadError, "file shorter than magic"),
            (build_cube_bytes(2, 2, 2, [0, 0, 0, np.nan, 0, 0, 0, 0]), FormatError,
             "cube values must be finite"),
        ]:
            path.write_bytes(raw)
            with pytest.raises(error, match=message):
                load_cube(path)

    def test_payload_over_many_reads(self, tmp_path):
        # 3 MiB of float32, so the payload is converted in several chunks
        values = np.random.default_rng(6).normal(size=(32, 64, 384)).astype("<f4")
        path = tmp_path / "big.hsic"
        path.write_bytes(build_cube_bytes(32, 64, 384, values))
        assert load_cube(path).data.tobytes() == values.astype(np.float64).tobytes()
        values[-1, -1, -1] = np.inf  # in the last chunk
        path.write_bytes(build_cube_bytes(32, 64, 384, values))
        with pytest.raises(FormatError, match="must be finite"):
            load_cube(path)

    def test_file_bytes_are_not_held_beside_the_cube(self, tmp_path):
        path = tmp_path / "big.hsic"
        path.write_bytes(build_cube_bytes(64, 64, 256, np.ones(64 * 64 * 256)))
        tracemalloc.start()
        try:
            cube = load_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 8 MiB cube, one 1 MiB read and the finite check's 1 MiB mask;
        # reading the whole 4 MiB file first would peak above 12 MiB
        assert peak < cube.data.nbytes + (5 << 19), peak

    def test_roundtrip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(25):
            rows, cols, bands = rng.integers(1, 9, size=3)
            original = build_cube_bytes(
                rows, cols, bands, rng.normal(size=rows * cols * bands)
            )
            src = tmp_path / f"in_{trial}.hsic"
            dst = tmp_path / f"out_{trial}.hsic"
            src.write_bytes(original)
            save_cube(load_cube(src), dst)
            assert dst.read_bytes() == original


class TestLabelFormat:
    def test_load_hand_assembled_file(self, tmp_path):
        path = tmp_path / "tiny.hsil"
        path.write_bytes(build_label_bytes(2, 2, [0, 1, 2, 1]))
        labels = load_labels(path)
        np.testing.assert_array_equal(labels.labels, [[0, 1], [2, 1]])
        assert labels.n_classes == 2

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.hsil"
        path.write_bytes(build_label_bytes(2, 2, [1, 1, 1, 1])[:-1])
        with pytest.raises(TruncatedPayloadError):
            load_labels(path)

    def test_roundtrip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(25):
            rows, cols = rng.integers(1, 12, size=2)
            n_classes = int(rng.integers(1, 5))
            values = rng.integers(0, n_classes + 1, size=rows * cols)
            # keep ids contiguous so the LabelMap invariant holds
            present = np.unique(values[values > 0])
            remap = np.zeros(n_classes + 1, dtype=np.int64)
            remap[present] = np.arange(1, present.size + 1)
            original = build_label_bytes(rows, cols, remap[values])
            src = tmp_path / f"in_{trial}.hsil"
            dst = tmp_path / f"out_{trial}.hsil"
            src.write_bytes(original)
            save_labels(load_labels(src), dst)
            assert dst.read_bytes() == original

    def test_gap_in_class_ids_rejected(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0, 1], [3, 1]]))

    def test_cube_invariants(self):
        with pytest.raises(ValueError):
            HsiCube(np.full((2, 2, 2), np.inf))
        with pytest.raises(ValueError):
            HsiCube(np.zeros((2, 2)))


@pytest.fixture(scope="module")
def framed(tmp_path_factory):
    """A valid file of each binary format: its bytes, the length of its header
    (magic, words and, in SSTC, the JSON block), its loader and saver, and the
    message of a payload 3 bytes short."""
    root = tmp_path_factory.mktemp("framed")
    cube, labels = synth_cube(3, 32, 64, 160, seed=0)  # 1.25 MiB of float32: two reads
    cfg = SstConfig(bands=4, n_classes=3, window=4, subpatch=2, d_model=8, n_layers=1, n_heads=2)
    files = {}
    for fmt, value, save, load in [("hsic", cube, save_cube, load_cube),
                                   ("hsil", labels, save_labels, load_labels),
                                   ("sstc", init_model(cfg, seed=0), save_model, load_model)]:
        save(value, root / f"a.{fmt}")
        raw = (root / f"a.{fmt}").read_bytes()
        head = {"hsic": 16, "hsil": 12, "sstc": 8 + int.from_bytes(raw[4:8], "little")}[fmt]
        short = ("payload ends inside head.b2" if fmt == "sstc" else
                 f"payload has {len(raw) - head - 3} bytes, need {len(raw) - head}")
        files[fmt] = raw, head, load, save, short
    return files


# case: (the file's bytes, from a valid file's and its header's length; whether
# os.fstat still gives the valid file's size, as when a file loses its tail
# after its size was taken; the error; its message, None for the format's
# short-payload message). With no error, loading then saving gives the bytes.
FRAMING_CASES = {
    "bad-magic": (lambda raw, head: b"NOPE" + raw[4:], False, BadMagicError,
                  "bad magic b'NOPE'"),
    "shorter-than-magic": (lambda raw, head: raw[:3], False, TruncatedPayloadError,
                           "file shorter than magic"),
    "header-incomplete": (lambda raw, head: raw[:6], False, TruncatedPayloadError,
                          "header incomplete"),
    "header-cut-short": (lambda raw, head: raw[: head - 1], False, TruncatedPayloadError,
                         "header incomplete"),
    "short-payload": (lambda raw, head: raw[:-3], False, TruncatedPayloadError, None),
    "trailing-bytes": (lambda raw, head: raw + b"\0\0", False, FormatError, "2 trailing bytes"),
    "shrinks-mid-read": (lambda raw, head: raw[:-3], True, TruncatedPayloadError, None),
    "round-trip": (lambda raw, head: raw, False, None, None),
}


@pytest.mark.parametrize("case", FRAMING_CASES)
@pytest.mark.parametrize("fmt", ["hsic", "hsil", "sstc"])
def test_framing(framed, tmp_path, monkeypatch, fmt, case):
    """The three binary formats share one framing, and so its errors."""
    raw, head, load, save, short = framed[fmt]
    cut, stale_size, error, message = FRAMING_CASES[case]
    path = tmp_path / f"a.{fmt}"
    path.write_bytes(cut(raw, head))
    if stale_size:
        size = os.stat_result((0,) * 6 + (len(raw),) + (0,) * 3)
        monkeypatch.setattr(os, "fstat", lambda fd: size)
    if error is None:
        save(load(path), tmp_path / "saved")
        assert (tmp_path / "saved").read_bytes() == raw
    else:
        with pytest.raises(error, match=re.escape(f"{path}: {message or short}")):
            load(path)


def test_a_padded_cube_is_written_from_its_view_in_pieces(tmp_path):
    # padded() rebinds data to a strided view of the padded buffer; the
    # writer converts it a piece at a time, with no contiguous copy
    cube = HsiCube(np.random.default_rng(1).normal(size=(64, 64, 256)))
    save_cube(cube, tmp_path / "plain.hsic")
    cube.padded(4)
    assert not cube.data.flags.c_contiguous
    tracemalloc.start()
    try:
        save_cube(cube, tmp_path / "padded.hsic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 1 MiB piece of float32; the 4 MiB file as one bytes object would
    # peak above 8 MiB
    assert peak < 2 << 20, peak
    assert (tmp_path / "padded.hsic").read_bytes() == (tmp_path / "plain.hsic").read_bytes()


class TestMirrorIndex:
    def test_reflection_excludes_edge_repeat(self):
        # n=4: positions -2 -1 | 0 1 2 3 | 4 5 map to 2 1 0 1 2 3 2 1
        got = [mirror_index(i, 4) for i in range(-2, 6)]
        assert got == [2, 1, 0, 1, 2, 3, 2, 1]

    def test_matches_numpy_reflect_padding(self):
        base = np.arange(5.0)
        padded = np.pad(base, (4, 4), mode="reflect")
        for offset in range(-4, 9):
            assert base[mirror_index(offset, 5)] == padded[offset + 4]

    def test_degenerate_length_one(self):
        assert mirror_index(3, 1) == 0


class TestMirrorPad:
    def test_matches_mirror_oracle(self):
        # every axis length 1-7 against every half-width 0-19, including
        # widths that reflect more than once across a short axis
        for rows in range(1, 8):
            for cols in range(1, 8):
                data = np.arange(rows * cols * 2, dtype=np.float64).reshape(rows, cols, 2)
                for half in range(20):
                    padded = mirror_pad(data, half)
                    r_idx = [mirror_index(i - half, rows) for i in range(rows + 2 * half)]
                    c_idx = [mirror_index(j - half, cols) for j in range(cols + 2 * half)]
                    expected = data[np.ix_(r_idx, c_idx)]
                    assert padded.tobytes() == expected.tobytes(), (rows, cols, half)

    def test_bands_are_not_padded(self):
        assert mirror_pad(np.zeros((3, 4, 5)), 2).shape == (7, 8, 5)


class TestPaddedBuffer:
    @pytest.mark.parametrize("order", [1, -1], ids=["rising", "falling"])
    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 3, 2), (5, 4, 3), (7, 7, 1)])
    def test_every_halo_is_the_mirror_pad_of_the_original(self, shape, order):
        original = np.random.default_rng(3).normal(size=shape)
        cube = HsiCube(original.copy())
        # past the extent, so some halos reflect more than once
        for half in range(0, 3 * max(shape) + 2)[::order]:
            padded = cube.padded(half)
            assert padded.tobytes() == mirror_pad(original, half).tobytes(), half
            assert cube.data.tobytes() == original.tobytes(), half
            assert np.shares_memory(padded, cube.data)

    def test_narrower_halo_makes_no_copy(self, monkeypatch):
        cube = HsiCube(np.random.default_rng(4).normal(size=(6, 7, 3)))
        widest = cube.padded(3)
        monkeypatch.setattr(np, "pad", None)  # any further padding fails
        for half in (0, 1, 2, 3):
            assert np.shares_memory(cube.padded(half), widest)
        assert np.shares_memory(window_pad(cube, 4), widest)

    def test_rebound_data_is_padded_afresh(self):
        cube = HsiCube(np.random.default_rng(6).normal(size=(6, 7, 3)))
        window_pad(cube, 4)
        cube.data = np.arange(6 * 7 * 3.0).reshape(6, 7, 3)
        for half in (0, 1, 2):
            assert cube.padded(half).tobytes() == mirror_pad(cube.data, half).tobytes()
        assert extract_windows_batch(cube, [8], 2).tobytes() == cube.data[0:2, 0:2].tobytes()

    def test_wider_halo_makes_data_its_interior(self):
        data = np.random.default_rng(5).normal(size=(6, 7, 3))
        cube = HsiCube(data)
        assert cube.data is data
        padded = cube.padded(2)
        assert not np.shares_memory(cube.data, data)
        assert np.shares_memory(cube.data, padded)


class TestExtractWindow:
    def make_fixture(self):
        rng = np.random.default_rng(42)
        return HsiCube(rng.normal(size=(6, 7, 3)))

    def test_center_lands_at_half_window(self):
        cube = self.make_fixture()
        window = extract_windows_batch(cube, np.array([3 * 7 + 4]), 4)[0]
        np.testing.assert_array_equal(window[2, 2], cube.data[3, 4])
        assert window.shape == (4, 4, 3)

    def test_interior_window_is_direct_slice(self):
        cube = self.make_fixture()
        window = extract_windows_batch(cube, np.array([3 * 7 + 3]), 4)[0]
        np.testing.assert_array_equal(window, cube.data[1:5, 1:5])

    def test_corner_window_matches_mirror_oracle(self):
        cube = self.make_fixture()
        for center in [(0, 0), (0, 6), (5, 0), (5, 6), (1, 1)]:
            r, c = center
            window = extract_windows_batch(cube, np.array([r * 7 + c]), 6)[0]
            for i in range(6):
                for j in range(6):
                    src_r = mirror_index(r - 3 + i, 6)
                    src_c = mirror_index(c - 3 + j, 7)
                    np.testing.assert_array_equal(window[i, j], cube.data[src_r, src_c])

    def test_oversized_window_rejected(self):
        cube = self.make_fixture()
        with pytest.raises(ValueError):
            extract_windows_batch(cube, np.array([16]), 8)

    def test_odd_window_rejected(self):
        cube = self.make_fixture()
        with pytest.raises(ValueError):
            extract_windows_batch(cube, np.array([16]), 3)

    def test_batch_agrees_with_single(self):
        cube = self.make_fixture()
        indices = np.array([0, 6, 20, 41, 13])
        batch = extract_windows_batch(cube, indices, 4)
        for row, flat in enumerate(indices):
            single = extract_window(cube, divmod(int(flat), 7), 4)
            assert batch[row].tobytes() == single.tobytes()

    def test_every_pixel_byte_equal_to_oracle(self):
        rng = np.random.default_rng(5)
        for rows in range(1, 8):
            for cols in range(1, 8):
                cube = HsiCube(rng.normal(size=(rows, cols, 2)))
                pixels = np.arange(rows * cols)
                # every even window up to the extent, the extent included
                for window in range(2, min(rows, cols) + 1, 2):
                    batch = extract_windows_batch(cube, pixels, window)
                    assert batch.flags.c_contiguous
                    for flat in pixels:
                        single = extract_window(cube, divmod(int(flat), cols), window)
                        assert batch[flat].tobytes() == single.tobytes(), (
                            rows, cols, window, flat)

    @pytest.mark.parametrize("flat", [-1, 42])
    def test_pixel_outside_cube_rejected(self, flat):
        with pytest.raises(ValueError, match=r"pixel indices must lie in \[0, 42\)"):
            extract_windows_batch(self.make_fixture(), np.array([0, flat]), 4)


class TestMakeSplit:
    def labels_with_counts(self, counts, seed=0):
        values = np.concatenate(
            [np.full(n, cls + 1) for cls, n in enumerate(counts)]
        )
        rng = np.random.default_rng(seed)
        rng.shuffle(values)
        side = int(np.ceil(np.sqrt(values.size)))
        grid = np.zeros(side * side, dtype=np.int64)
        grid[: values.size] = values
        return LabelMap(grid.reshape(side, side))

    def test_single_class_100_pixel_example(self):
        labels = self.labels_with_counts([100])
        split = make_split(labels, (0.01, 0.49, 0.50), seed=1)
        assert (split.train.size, split.pool.size, split.test.size) == (1, 49, 50)

    def test_all_train_ratio(self):
        labels = self.labels_with_counts([10, 20])
        split = make_split(labels, (1.0, 0.0, 0.0), seed=1)
        assert split.train.size == 30
        assert split.pool.size == 0 and split.test.size == 0

    def test_partition_covers_labeled(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            counts = rng.integers(3, 60, size=rng.integers(2, 6))
            labels = self.labels_with_counts(counts.tolist(), seed=trial)
            split = make_split(labels, (0.1, 0.4, 0.5), seed=trial)
            validate_split(split, labels)

    def test_minimum_one_train_per_class(self):
        labels = self.labels_with_counts([3, 3, 200])
        split = make_split(labels, (0.01, 0.49, 0.5), seed=3)
        flat = labels.labels.ravel()
        for cls in (1, 2, 3):
            assert (flat[split.train] == cls).sum() >= 1

    def test_deterministic(self):
        labels = self.labels_with_counts([40, 40])
        a = make_split(labels, (0.2, 0.3, 0.5), seed=9)
        b = make_split(labels, (0.2, 0.3, 0.5), seed=9)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.pool, b.pool)
        np.testing.assert_array_equal(a.test, b.test)

    def test_seed_changes_split(self):
        labels = self.labels_with_counts([40, 40])
        a = make_split(labels, (0.2, 0.3, 0.5), seed=1)
        b = make_split(labels, (0.2, 0.3, 0.5), seed=2)
        assert not np.array_equal(a.train, b.train)

    def test_ratio_validation(self):
        labels = self.labels_with_counts([10])
        with pytest.raises(ValueError):
            make_split(labels, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            make_split(labels, (-0.1, 0.6, 0.5), seed=0)

    def test_tiny_class_rejected(self):
        labels = self.labels_with_counts([2, 50])
        with pytest.raises(ValueError):
            make_split(labels, (0.2, 0.3, 0.5), seed=0)

    def test_manifest_disjointness_enforced(self):
        with pytest.raises(ValueError):
            SplitManifest(
                seed=0, ratios=(0.3, 0.3, 0.4),
                train=[1, 2], pool=[2, 3], test=[4],
            )

    def test_manifest_json_roundtrip(self, tmp_path):
        labels = self.labels_with_counts([25, 25])
        split = make_split(labels, (0.2, 0.3, 0.5), seed=11)
        path = tmp_path / "split.json"
        save_manifest(split, path)
        loaded = load_manifest(path)
        assert loaded.seed == split.seed
        np.testing.assert_array_equal(loaded.train, split.train)
        np.testing.assert_array_equal(loaded.pool, split.pool)
        np.testing.assert_array_equal(loaded.test, split.test)

    def test_manifest_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1}')
        with pytest.raises(FormatError):
            load_manifest(path)


class TestSynthCube:
    def test_noise_free_pixels_equal_prototypes(self):
        cube, labels = synth_cube(3, 10, 10, 8, noise=0.0, seed=42)
        protos = class_prototypes(3, 8)
        flat_labels = labels.labels.ravel()
        flat_data = cube.data.reshape(-1, 8)
        for cls in (1, 2, 3):
            rows = flat_data[flat_labels == cls]
            np.testing.assert_array_equal(rows, np.tile(protos[cls - 1], (rows.shape[0], 1)))

    def test_prototype_closed_form(self):
        protos = class_prototypes(4, 16, shift=0.3)
        q = np.arange(16)
        for cls in range(4):
            expected = np.sin(2 * np.pi * q / 16 + 2 * np.pi * cls / 4 + 0.3)
            np.testing.assert_allclose(protos[cls], expected, atol=1e-15)

    def test_every_class_present(self):
        _, labels = synth_cube(5, 12, 12, 8, seed=3)
        np.testing.assert_array_equal(
            np.unique(labels.labels), np.arange(1, 6)
        )

    def test_labels_match_voronoi_recount(self):
        # independent recount: brute-force nearest site with the same tie rule
        _, labels = synth_cube(4, 15, 17, 8, noise=0.2, seed=9)
        rng = np.random.default_rng(9)
        sites = rng.choice(15 * 17, size=4, replace=False)
        site_rc = np.array([divmod(int(s), 17) for s in sites], dtype=np.float64)
        for r in range(15):
            for c in range(17):
                d2 = ((site_rc - [r, c]) ** 2).sum(axis=1)
                assert labels.labels[r, c] == d2.argmin() + 1

    def test_deterministic_given_seed(self):
        a_cube, a_labels = synth_cube(3, 9, 9, 6, noise=0.4, seed=5)
        b_cube, b_labels = synth_cube(3, 9, 9, 6, noise=0.4, seed=5)
        np.testing.assert_array_equal(a_cube.data, b_cube.data)
        np.testing.assert_array_equal(a_labels.labels, b_labels.labels)

    def test_shift_moves_prototypes_by_closed_form(self):
        bands, n_classes = 12, 3
        base, labels = synth_cube(n_classes, 8, 8, bands, noise=0.0, seed=2)
        shifted, _ = synth_cube(n_classes, 8, 8, bands, noise=0.0, shift=np.pi, seed=2)
        q = np.arange(bands)
        for cls in range(n_classes):
            mask = labels.labels == cls + 1
            diff = base.data[mask][0] - shifted.data[mask][0]
            theta = 2 * np.pi * q / bands + 2 * np.pi * cls / n_classes
            expected = np.sin(theta) - np.sin(theta + np.pi)
            np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_nearest_prototype_classifier_is_perfect_without_noise(self):
        cube, labels = synth_cube(4, 14, 14, 10, noise=0.0, seed=8)
        protos = class_prototypes(4, 10)
        spectra = cube.data.reshape(-1, 10)
        d2 = ((spectra[:, None, :] - protos[None]) ** 2).sum(axis=2)
        predicted = d2.argmin(axis=1) + 1
        np.testing.assert_array_equal(predicted, labels.labels.ravel())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_cube(1, 8, 8, 8)
        with pytest.raises(ValueError):
            synth_cube(4, 8, 8, 3)
        with pytest.raises(ValueError):
            synth_cube(10, 3, 3, 16)
        with pytest.raises(ValueError):
            synth_cube(3, 8, 8, 8, noise=-0.1)
