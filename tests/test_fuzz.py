"""Damaged files: truncated, extended or bit-flipped feature, target and
checkpoint files, and checkpoints with one manifest field replaced or
deleted, either load or fail with one of the three file errors."""

import copy
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affseg import gradcheck, training
from affseg.container import CorruptionError, FormatError
from affseg.data import (
    DENSE_BINARY,
    DENSIFIED_SPARSE,
    densify,
    load_target,
    save_target,
)
from affseg.features import load_features, save_features

FILE_ERRORS = (FormatError, CorruptionError, ValueError)

# header words sit in the first bytes of every file, so a quarter of the
# flips land there
_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("flip"), st.integers(0, 8 * 64 - 1)),
    st.tuples(st.just("flip"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20)),
)


def damaged(raw: bytes, mutations) -> bytes:
    buf = bytearray(raw)
    for op, arg in mutations:
        if op == "truncate":
            del buf[arg % (len(buf) + 1):]
        elif op == "extend":
            buf += arg
        elif buf:
            bit = arg % (8 * len(buf))
            buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


@pytest.fixture(scope="module")
def intact_files(tmp_path_factory):
    """name -> (path, loader) of one small valid file per loader call."""
    root = tmp_path_factory.mktemp("intact")
    params, enc, _, item = gradcheck.build_problem(seed=0, C=4, C_v=4, t=1)
    save_features(item.stack, root / "features.ooal")
    save_target(item.target, root / "binary.ooal")
    kp = {"aff0": [(1, 2)], "aff2": [(6.5, 0.25), (3, 3)]}
    save_target(densify(kp, 2.0, 8, 8, gradcheck.class_names()), root / "soft.ooal")
    cfg = training.TrainConfig(seed=0, p=2, j=2, t=1, C=4, C_t=8, iterations=0)
    training.save_checkpoint(training.Checkpoint(params, enc, gradcheck.class_names(), cfg),
                             root / "model.ooal")
    return {
        "features": (root / "features.ooal", load_features),
        "binary-target": (root / "binary.ooal", lambda p: load_target(p, DENSE_BINARY)),
        "soft-target": (root / "soft.ooal", lambda p: load_target(p, DENSIFIED_SPARSE)),
        "checkpoint": (root / "model.ooal", training.load_checkpoint),
    }


@pytest.mark.parametrize("name", ["features", "binary-target", "soft-target", "checkpoint"])
def test_intact_files_load(intact_files, name):
    path, load = intact_files[name]
    load(path)


@pytest.mark.parametrize("name", ["features", "binary-target", "soft-target", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_mutation, min_size=1, max_size=3))
def test_damaged_file_loads_or_fails_with_a_file_error(intact_files, tmp_path_factory, name,
                                                       mutations):
    path, load = intact_files[name]
    bad = tmp_path_factory.getbasetemp() / f"damaged-{name}.ooal"
    bad.write_bytes(damaged(path.read_bytes(), mutations))
    try:
        load(bad)
    except FILE_ERRORS as exc:
        assert "\n" not in str(exc)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _field_paths(doc, path=()):
    """The key path of every field of a JSON document, depth first."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _field_paths(value, path + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_manifest_field_replaced_or_deleted(intact_files, tmp_path_factory, data):
    path, load = intact_files["checkpoint"]
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    doc = json.loads(raw[12:12 + n])
    *keys, last = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
    value = data.draw(st.none() | st.tuples(_json), label="replacement (None deletes)")
    edited = copy.deepcopy(doc)
    parent = edited
    for key in keys:
        parent = parent[key]
    if value is None:
        del parent[last]
    else:
        parent[last] = value[0]
    blob = json.dumps(edited).encode()
    bad = tmp_path_factory.getbasetemp() / "edited-manifest.ooal"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
    try:
        load(bad)
    except FILE_ERRORS as exc:
        assert "\n" not in str(exc)
