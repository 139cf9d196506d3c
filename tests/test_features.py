"""Feature container, the grid file format of feature and target files, and
synthetic text tokens."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affseg import container
from affseg.container import CorruptionError, FormatError, MAGIC
from affseg.data import DENSIFIED_SPARSE, AffordanceTarget, load_target, save_target
from affseg.features import (
    FeatureStack,
    load_features,
    save_features,
    synth_text_tokens,
)

UMD_AFFORDANCES = ["grasp", "cut", "scoop", "contain", "pound", "support", "wrap-grasp"]


def random_stack(rng, n_layers=3, grid=(2, 3), dim=5, image=(8, 12)):
    L = grid[0] * grid[1]
    return FeatureStack(
        layers=tuple(rng.standard_normal((L, dim)) for _ in range(n_layers)),
        cls=rng.standard_normal(dim),
        grid=grid,
        image_size=image,
    )


class TestFileFormat:
    def test_roundtrip_values_and_bytes(self, tmp_path):
        stack = random_stack(np.random.default_rng(0))
        path = tmp_path / "a.ooal"
        save_features(stack, path)
        loaded = load_features(path)
        for a, b in zip(stack.layers, loaded.layers):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(stack.cls, loaded.cls)
        assert loaded.grid == stack.grid and loaded.image_size == stack.image_size

        second = tmp_path / "b.ooal"
        save_features(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        n_layers=st.integers(1, 4),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, tmp_path_factory, n_layers, h, w, dim, seed):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, n_layers=n_layers, grid=(h, w), dim=dim)
        path = tmp_path_factory.mktemp("rt") / "s.ooal"
        save_features(stack, path)
        save_features(load_features(path), path.with_suffix(".2"))
        assert path.read_bytes() == path.with_suffix(".2").read_bytes()

    def test_bad_magic(self, tmp_path):
        stack = random_stack(np.random.default_rng(0))
        path = tmp_path / "a.ooal"
        save_features(stack, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: bad magic"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        stack = random_stack(np.random.default_rng(0))
        path = tmp_path / "a.ooal"
        save_features(stack, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CorruptionError):
            load_features(path)

    def test_header_payload_mismatch(self, tmp_path):
        # each header claims more than the one patch row the payload carries:
        # L=4; then 2**31 and 2**62 values, which must fail before any
        # allocation rather than as MemoryError or OverflowError
        import struct

        path = tmp_path / "bad.ooal"
        for header in ((1, 4, 2, 2, 2, 8, 8), (1, 2**16, 2**15, 2**8, 2**8, 8, 8),
                       (1, 2**31, 2**31, 2**16, 2**15, 8, 8)):
            with open(path, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<7I", *header))
                fh.write(np.zeros(2, dtype="<f8").tobytes())
            with pytest.raises(CorruptionError, match="payload shorter than expected"):
                load_features(path)

    def test_trailing_garbage(self, tmp_path):
        stack = random_stack(np.random.default_rng(0))
        path = tmp_path / "a.ooal"
        save_features(stack, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CorruptionError):
            load_features(path)


GRID_FILES = {
    "features": (random_stack, save_features, load_features),
    "target": (lambda rng: AffordanceTarget((rng.random((6, 5, 3)) < 0.4).astype(float)),
               save_target, load_target),
}


@pytest.fixture(params=sorted(GRID_FILES))
def grid_file(request, tmp_path):
    """A feature or a target file, and its loader."""
    make, save, load = GRID_FILES[request.param]
    path = tmp_path / "grid.ooal"
    save(make(np.random.default_rng(0)), path)
    return path, load


class TestGridFiles:
    @pytest.mark.parametrize("damage, error, match", [
        pytest.param(lambda raw: b"XXXXXXXX" + raw[8:], FormatError, "bad magic", id="bad-magic"),
        pytest.param(lambda raw: raw[:20], CorruptionError, "truncated header",
                     id="truncated-header"),
        pytest.param(lambda raw: raw[:8] + bytes(28) + raw[36:], CorruptionError,
                     r"implausible header \(0 layers, 0x0\)|not a dense target file",
                     id="zero-words"),
        pytest.param(lambda raw: raw[:-8], CorruptionError, "payload shorter than expected",
                     id="short-payload"),
        pytest.param(lambda raw: raw + bytes(8), CorruptionError, "trailing bytes after payload",
                     id="trailing-bytes"),
    ] + [
        # good magic, then the file ends inside the header words
        pytest.param(lambda raw, n=n: raw[:n], CorruptionError, "truncated header$",
                     id=f"truncated-header-at-{n}")
        for n in range(len(MAGIC), container.GRID_HEAD)
    ])
    def test_damaged_file_refused_with_one_line(self, grid_file, damage, error, match):
        path, load = grid_file
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(error, match=match) as info:
            load(path)
        assert "\n" not in str(info.value)

    def test_fixed_cost_of_a_load(self, grid_file, monkeypatch):
        """A load makes one read of the magic and header words, one payload
        read, and one ``fstat`` and one ``tell`` for the payload's size: no
        seek and no end-of-file read."""
        path, load = grid_file
        calls = []

        class Recorded:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                method = getattr(self.fh, name)
                return lambda *args: calls.append((name, *map(len, args))) or method(*args)

        def recorded_open(file, mode, buffering):
            assert (mode, buffering) == ("rb", 0)
            return Recorded(open(file, mode, buffering=buffering))

        monkeypatch.setattr(container, "open", recorded_open, raising=False)
        load(path)
        size = path.stat().st_size
        assert calls == [("readinto", container.GRID_HEAD), ("fileno",), ("tell",),
                         ("readinto", size - container.GRID_HEAD)]

    def test_one_payload_read_per_load(self, grid_file, monkeypatch):
        path, load = grid_file
        counts, read_f64 = [], container.read_f64
        monkeypatch.setattr(container, "read_f64",
                            lambda fh, count: counts.append(count) or read_f64(fh, count))
        load(path)
        assert counts == [(path.stat().st_size - 36) // 8]

    def test_short_reads_are_continued(self, grid_file, monkeypatch):
        """An unbuffered read may return less than asked; the payload, and in
        a whole load the header too, is read to its end all the same."""
        path, load = grid_file

        class Trickle:
            def __init__(self, fh):
                self.fileno, self.tell, self.close = fh.fileno, fh.tell, fh.close
                self.readinto = lambda buf: fh.readinto(buf[:16])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        count = (path.stat().st_size - 36) // 8
        with open(path, "rb", buffering=0) as fh:
            fh.seek(36)
            got = container.read_f64(Trickle(fh), count)
        assert got.tobytes() == path.read_bytes()[36:]

        want = load(path)
        monkeypatch.setattr(container, "open", raising=False, value=lambda file, mode, buffering:
                            Trickle(open(file, mode, buffering=buffering)))
        got = load(path)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("save, content", [
        pytest.param(save_features, FeatureStack((np.zeros((1, 1)),), np.zeros(1), (1, 1),
                                                 (2**32, 1)), id="features"),
        # a zero-strided view: save_target reads its shape and reshapes it
        # without a copy, so no 2**32-pixel target is allocated
        pytest.param(save_target, SimpleNamespace(M=np.broadcast_to(0.0, (2**16, 2**16, 1))),
                     id="target"),
    ])
    def test_refused_save_leaves_no_file(self, tmp_path, save, content):
        path = tmp_path / "grid.ooal"
        with pytest.raises(ValueError, match="header word 4294967296 out of uint32 range"):
            save(content, path)
        assert not path.exists()

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(sorted(GRID_FILES)), h=st.integers(1, 4), w=st.integers(1, 4),
           width=st.integers(1, 5), data=st.data())
    def test_round_trip_is_bitwise(self, tmp_path_factory, kind, h, w, width, data):
        path = tmp_path_factory.mktemp("grid") / "g.ooal"
        if kind == "features":
            values = st.floats(allow_nan=False, allow_infinity=False)
            layers = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 3)), h * w, width),
                                          elements=values))
            cls = data.draw(hnp.arrays(np.float64, width, elements=values))
            image = data.draw(st.tuples(st.integers(1, 2**32 - 1), st.integers(1, 2**32 - 1)))
            save_features(FeatureStack(tuple(layers), cls, (h, w), image), path)
            got = load_features(path)
            assert (got.grid, got.image_size) == ((h, w), image)
            assert np.array(got.layers).tobytes() == layers.tobytes()
            assert got.cls.tobytes() == cls.tobytes()
            save_features(got, path.with_suffix(".2"))
        else:
            values = st.floats(0.0, 1.0) | st.just(-0.0)
            M = data.draw(hnp.arrays(np.float64, (h, w, width), elements=values))
            save_target(AffordanceTarget(M, DENSIFIED_SPARSE), path)
            got = load_target(path, DENSIFIED_SPARSE)
            assert got.M.shape == M.shape and got.M.tobytes() == M.tobytes()
            save_target(got, path.with_suffix(".2"))
        assert path.read_bytes() == path.with_suffix(".2").read_bytes()


class TestStackInvariants:
    def test_layer_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FeatureStack(
                layers=(rng.standard_normal((4, 3)), rng.standard_normal((4, 2))),
                cls=rng.standard_normal(3),
                grid=(2, 2),
                image_size=(8, 8),
            )

    def test_grid_must_tile(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FeatureStack(
                layers=(rng.standard_normal((4, 3)),),
                cls=rng.standard_normal(3),
                grid=(3, 2),
                image_size=(8, 8),
            )

    @pytest.mark.parametrize("grid, image", [((2, 2), (0, 0)), ((2, 2), (0, 8)),
                                             ((2, 2), (8, 0)), ((-2, -2), (8, 8))])
    def test_sides_below_one_rejected(self, grid, image):
        with pytest.raises(ValueError, match="need sides of at least 1"):
            FeatureStack(layers=(np.zeros((4, 3)),), cls=np.zeros(3), grid=grid,
                         image_size=image)

    def test_file_with_an_image_side_of_zero_is_corrupt(self, tmp_path):
        import struct

        path = tmp_path / "flat.ooal"
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<7I", 1, 4, 3, 2, 2, 0, 8))
            fh.write(np.zeros(4 * 3 + 3, dtype="<f8").tobytes())
        with pytest.raises(CorruptionError, match=rf"^{re.escape(str(path))}: grid \(2, 2\) "
                                                  r"and image size \(0, 8\) need sides"):
            load_features(path)

    def test_nonfinite_rejected(self):
        layer = np.zeros((4, 3))
        layer[1, 1] = np.nan
        with pytest.raises(ValueError):
            FeatureStack(layers=(layer,), cls=np.zeros(3), grid=(2, 2), image_size=(8, 8))


class TestStackLayout:
    def test_loaded_layers_are_one_view_of_the_payload(self, tmp_path):
        stack = random_stack(np.random.default_rng(1), n_layers=4, grid=(2, 3), dim=5)
        save_features(stack, tmp_path / "s.ooal")
        loaded = load_features(tmp_path / "s.ooal")
        assert isinstance(loaded.layers, np.ndarray) and loaded.layers.dtype == np.float64
        assert loaded.layers.shape == (4, 6, 5)
        # one buffer: the summary token starts where the last layer ends
        payload = loaded.cls.base
        assert payload is not None and loaded.layers.base is payload
        assert np.shares_memory(loaded.layers, payload) and np.shares_memory(loaded.cls, payload)
        start = loaded.layers.__array_interface__["data"][0]
        assert loaded.cls.__array_interface__["data"][0] == start + loaded.layers.nbytes

    def test_a_tuple_is_stacked_to_the_bytes_of_its_file(self, tmp_path):
        rng = np.random.default_rng(2)
        layers = tuple(rng.standard_normal((6, 5)) for _ in range(3))
        built = FeatureStack(layers, rng.standard_normal(5), (2, 3), (8, 12))
        save_features(built, tmp_path / "s.ooal")
        loaded = load_features(tmp_path / "s.ooal")
        assert built.layers.shape == loaded.layers.shape == (3, 6, 5)
        assert built.layers.tobytes() == loaded.layers.tobytes() == np.stack(layers).tobytes()
        assert built.cls.tobytes() == loaded.cls.tobytes()

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_layer_refused(self, where, bad):
        layers = np.zeros((5, 4, 3))
        layers[where, 3, 2] = bad
        with pytest.raises(ValueError, match="^non-finite values in feature layer$"):
            FeatureStack(tuple(layers), np.zeros(3), (2, 2), (8, 8))
        with pytest.raises(ValueError, match="^non-finite values in feature layer$"):
            FeatureStack(layers, np.zeros(3), (2, 2), (8, 8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cls_refused(self, bad):
        cls = np.zeros(3)
        cls[1] = bad
        with pytest.raises(ValueError, match="^non-finite values in cls token$"):
            FeatureStack(np.zeros((2, 4, 3)), cls, (2, 2), (8, 8))

    @pytest.mark.parametrize("layers", [
        (np.zeros((4, 3)), np.zeros((4, 2))),
        (np.zeros((4, 3)), np.zeros((3, 3)), np.zeros((4, 3))),
        (np.zeros((4, 3)), np.zeros(3)),
    ])
    def test_ragged_tuple_refused(self, layers):
        with pytest.raises(ValueError, match="^layer shapes differ"):
            FeatureStack(layers, np.zeros(3), (2, 2), (8, 8))

    @pytest.mark.parametrize("layers, match", [
        ((), "^feature stack needs at least one layer$"),
        ((np.zeros(3),), r"^layers must be 2-d, got shape \(3,\)$"),
        (np.zeros((1, 4, 3, 1)), r"^layers must be 2-d, got shape \(4, 3, 1\)$"),
    ])
    def test_empty_or_misshapen_layers_refused(self, layers, match):
        with pytest.raises(ValueError, match=match):
            FeatureStack(layers, np.zeros(3), (2, 2), (8, 8))

    def test_last_is_built_once(self):
        stack = random_stack(np.random.default_rng(3))
        assert stack.last is stack.last
        assert stack.last.tobytes() == stack.layers[-1].tobytes()


class TestSynthTextTokens:
    def test_single_name_unit_norm(self):
        tokens = synth_text_tokens(["grasp"], 64, seed=3)
        assert tokens.shape == (1, 64) and tokens.dtype == np.float64
        assert abs(np.linalg.norm(tokens[0]) - 1.0) < 1e-12

    def test_deterministic(self):
        a = synth_text_tokens(UMD_AFFORDANCES, 32, seed=5)
        b = synth_text_tokens(UMD_AFFORDANCES, 32, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_equal_names_equal_rows(self):
        a = synth_text_tokens(["cut", "grasp"], 16, seed=1)
        b = synth_text_tokens(["grasp", "pound"], 16, seed=1)
        np.testing.assert_array_equal(a[1], b[0])

    def test_umd_rows_distinct_and_spread(self):
        # seed 0 satisfies the pairwise |cos| < 0.5 requirement at C_t=64
        tokens = synth_text_tokens(UMD_AFFORDANCES, 64, seed=0)
        gram = tokens @ tokens.T
        off = gram - np.eye(7)
        assert np.abs(off).max() < 0.5

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            synth_text_tokens(["cut", "cut"], 8, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            synth_text_tokens([], 8, seed=0)
