"""Densification, manifests, one-shot trainset, and eval splits."""

import copy
import dataclasses
import functools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affseg import synth
from affseg.container import CorruptionError, FormatError
from affseg.data import (
    DEFAULT_SIGMA,
    DENSE_BINARY,
    DENSIFIED_SPARSE,
    SIGMA_RANGE,
    AffordanceTarget,
    DatasetManifest,
    ManifestItem,
    build_oneshot_trainset,
    densify,
    load_item,
    load_manifest,
    load_target,
    save_manifest,
    save_target,
    split_eval_sets,
)
from tests.oracles import densify_reference, gaussian_sum_reference

AFFS = ["grasp", "cut"]

# item target records that name no usable target, one per way of being wrong
BAD_TARGETS = [
    pytest.param({"kind": "keypoints"}, id="no-points"),
    pytest.param({"kind": "keypoints", "points": [[1, 1]]}, id="points-list"),
    pytest.param({"kind": "keypoints", "points": {"grasp": [1]}}, id="scalar-point"),
    pytest.param({"kind": "keypoints", "points": {"grasp": 1}}, id="point-list-not-list"),
    pytest.param({"kind": "keypoints", "points": {"grasp": [[1, 1, 1]]}}, id="three-coordinates"),
    pytest.param({"kind": "keypoints", "points": {"grasp": [["1", 1]]}}, id="string-coordinate"),
    pytest.param({"kind": "keypoints", "sigma": "2", "points": {"grasp": [[1, 1]]}},
                 id="string-sigma"),
    pytest.param({"kind": "mask"}, id="mask-without-path"),
    pytest.param({"kind": "mask", "path": "targets/base-00.ooal", "target_kind": "soft"},
                 id="mask-unknown-target-kind"),
    pytest.param({"kind": "mask", "path": "targets/base-00.ooal",
                  "target_kind": ["dense-binary"]}, id="mask-list-target-kind"),
    pytest.param({"kind": "bogus"}, id="unknown-kind"),
    pytest.param({}, id="no-kind"),
]


class TestDensify:
    def test_single_point_peak_and_symmetry(self):
        kp = {"grasp": [(5, 5)]}
        out = densify(kp, sigma=2.0, height=11, width=11, affordances=AFFS)
        ch = out.M[:, :, 0]
        assert ch[5, 5] == 1.0
        assert ch.max() == 1.0
        # radially symmetric decay around (5, 5)
        np.testing.assert_allclose(ch[5, 8], ch[8, 5], atol=1e-15)
        np.testing.assert_allclose(ch[2, 5], ch[5, 2], atol=1e-15)
        assert ch[5, 6] < ch[5, 5] and ch[5, 7] < ch[5, 6]

    def test_empty_channel_stays_zero(self):
        kp = {"grasp": [(1, 1)]}
        out = densify(kp, sigma=2.0, height=4, width=4, affordances=AFFS)
        assert out.M[:, :, 1].max() == 0.0
        assert out.kind == "densified-sparse"

    def test_two_point_midpoint_closed_form(self):
        # oracle: two points 10 px apart, sigma 2: midpoint carries
        # 2*exp(-25/8) before the channel-max division
        kp = {"grasp": [(5, 10), (15, 10)]}
        out = densify(kp, sigma=2.0, height=21, width=21, affordances=AFFS)
        ref = gaussian_sum_reference([(5, 10), (15, 10)], 2.0, 21, 21)
        np.testing.assert_allclose(out.M[:, :, 0], ref, atol=1e-12)
        peak = 1.0 + math.exp(-100.0 / 8.0)
        expected_mid = 2.0 * math.exp(-25.0 / 8.0) / peak
        assert abs(out.M[10, 10, 0] - expected_mid) < 1e-9

    def test_keypoint_order_irrelevant(self):
        pts = [(3, 4), (10, 2), (7, 7)]
        a = densify({"cut": pts}, 3.0, 12, 12, AFFS)
        b = densify({"cut": pts[::-1]}, 3.0, 12, 12, AFFS)
        np.testing.assert_array_equal(a.M, b.M)

    def test_three_sigma_concentration(self):
        kp = {"grasp": [(20, 20)]}
        out = densify(kp, sigma=3.0, height=41, width=41, affordances=AFFS)
        assert out.M[20, 29, 0] < 0.012  # 3 sigma to the side of a lone point

    def test_out_of_bounds_point(self):
        with pytest.raises(ValueError):
            densify({"grasp": [(50, 5)]}, 2.0, 10, 10, AFFS)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            densify({}, 0.0, 4, 4, AFFS)
        with pytest.raises(ValueError, match=r"sigma must be a number in \[0.05, "):
            densify({"grasp": [(0.5, 0.5)]}, 1e-3, 4, 4, AFFS)

    def test_far_keypoint_keeps_its_peak_at_the_sigma_floor(self):
        # almost 1 px past the last pixel centre on each axis, the farthest an
        # accepted keypoint lies from every pixel
        out = densify({"grasp": [(4 - 2**-20, 4 - 2**-20)]}, SIGMA_RANGE[0], 4, 4, AFFS)
        assert out.M[3, 3, 0] == out.M.max() == 1.0


def _coordinate(n):
    return st.integers(0, n - 1) | st.floats(0, n - 0.25) | st.sampled_from([0, 0.0, n - 0.25])


@st.composite
def densify_cases(draw, max_side=12):
    """(points, sigma, height, width, affordances) that ``densify`` accepts:
    integer and float keypoints including the edges 0 and side - 0.25, sigma
    across ``SIGMA_RANGE``, 1 to 5 channels, some of them empty."""
    H, W = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    names = [f"aff{i}" for i in range(draw(st.integers(1, 5)))]
    points = {}
    for name in names:
        pts = draw(st.lists(st.tuples(_coordinate(W), _coordinate(H)), max_size=4))
        if pts or draw(st.booleans()):
            points[name] = pts
    lo, hi = SIGMA_RANGE
    sigma = draw(st.floats(lo, hi) | st.sampled_from([lo, hi, DEFAULT_SIGMA])
                 | st.floats(-3.0, 6.0).map(lambda e: min(max(10.0**e, lo), hi)))
    return points, sigma, H, W, names


@settings(max_examples=200, deadline=None)
@given(case=densify_cases())
@example(case=({"aff0": [(12.5, 200.25), (100.0, 100.75), (180.3, 7.9)], "aff1": [(60.6, 150.2)],
                "aff2": [], "aff3": [(223.75, 223.75)]},
               DEFAULT_SIGMA, 224, 224, ["aff0", "aff1", "aff2", "aff3"]))
@example(case=({"aff1": [(223.75, 223.75)], "aff2": [(0, 0), (111.5, 37.25), (223, 0.5)]},
               DEFAULT_SIGMA, 224, 224, ["aff0", "aff1", "aff2"]))
def test_densify_bitwise_equal_to_reference(case):
    points, sigma, H, W, names = case
    out = densify(points, sigma, H, W, names)
    assert out.M.tobytes() == densify_reference(points, sigma, H, W, names).tobytes()


def test_densified_target_is_channel_major():
    M = densify({"cut": [(1.0, 2.0)]}, 2.0, 6, 7, AFFS).M
    assert M.shape == (6, 7, len(AFFS)) and M.transpose(2, 0, 1).flags.c_contiguous


class TestTargetFile:
    def test_channel_major_target_writes_c_order_bytes(self, tmp_path):
        target = densify({"cut": [(1.0, 2.0)], "grasp": [(4.5, 0.0)]}, 2.0, 6, 7, AFFS)
        save_target(target, tmp_path / "cm.ooal")
        c_ordered = AffordanceTarget(np.ascontiguousarray(target.M), target.kind)
        save_target(c_ordered, tmp_path / "c.ooal")
        assert (tmp_path / "cm.ooal").read_bytes() == (tmp_path / "c.ooal").read_bytes()

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = (rng.random((6, 5, 3)) < 0.4).astype(float)
        target = AffordanceTarget(M=M)
        path = tmp_path / "t.ooal"
        save_target(target, path)
        loaded = load_target(path)
        np.testing.assert_array_equal(loaded.M, M)
        save_target(loaded, tmp_path / "t2.ooal")
        assert path.read_bytes() == (tmp_path / "t2.ooal").read_bytes()

    @pytest.mark.parametrize("header, match", [
        pytest.param((1, 30, 3, 6, 5, 6, 5), "payload shorter", id="truncated"),
        pytest.param((1, 30, 3, 6, 5, 5, 6), "not a dense target", id="grid-mismatch"),
        pytest.param((2, 30, 3, 6, 5, 6, 5), "not a dense target", id="two-layers"),
        pytest.param((1, 2**30, 2, 2**15, 2**15, 2**15, 2**15), "payload shorter",
                     id="claims-2^31-values"),
        pytest.param((1, 2**32 - 2**17 + 1, 2**30, 2**16 - 1, 2**16 - 1, 2**16 - 1, 2**16 - 1),
                     "payload shorter", id="claims-2^62-values"),
        pytest.param((1, 30, 0, 6, 5, 6, 5), r"implausible header \(6x5 pixels, 0 channels\)",
                     id="no-channels"),
        pytest.param((1, 0, 3, 0, 0, 0, 0), r"implausible header \(0x0 pixels, 3 channels\)",
                     id="no-pixels"),
        pytest.param((1, 0, 3, 6, 0, 6, 0), "implausible header", id="no-columns"),
    ])
    def test_corrupt_file_fails_as_corruption(self, tmp_path, header, match):
        import struct

        path = tmp_path / "t.ooal"
        save_target(AffordanceTarget(M=np.zeros((6, 5, 3))), path)
        raw = path.read_bytes()
        # new header words after the magic; the payload loses its last value
        path.write_bytes(raw[:8] + struct.pack("<7I", *header) + raw[36:-8])
        with pytest.raises(CorruptionError, match=match):
            load_target(path)

    @pytest.mark.parametrize("shape", [(2, 2, 0), (0, 2, 1), (2, 0, 3), (0, 0, 0)])
    def test_empty_target_rejected_by_shape(self, shape):
        with pytest.raises(ValueError) as info:
            AffordanceTarget(M=np.zeros(shape))
        assert str(info.value) == f"target of shape {shape} is empty"

    @pytest.mark.parametrize("make", [
        pytest.param(lambda path: AffordanceTarget(M=np.eye(3)[:, :, None]), id="constructed"),
        pytest.param(load_target, id="loaded"),
        pytest.param(lambda path: densify({"cut": [(1.0, 2.0)]}, 2.0, 4, 5, AFFS), id="densified"),
    ])
    def test_target_is_read_only(self, tmp_path, make):
        save_target(AffordanceTarget(M=np.ones((4, 5, 2))), tmp_path / "t.ooal")
        target = make(tmp_path / "t.ooal")
        before = target.M.copy()
        for array in (target.M, target.mask):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        np.testing.assert_array_equal(target.M, before)

    def test_target_views_the_array_it_is_given(self):
        M = np.zeros((3, 4, 2))
        target = AffordanceTarget(M=M)
        assert np.shares_memory(target.M, M) and M.flags.writeable

    @settings(max_examples=50, deadline=None)
    @given(shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 4)),
           channel_major=st.booleans(), binary=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_mask_is_the_channel_major_half_cut(self, shape, channel_major, binary, seed):
        # 0/1 values, as a dense-binary target holds, in either layout
        M = np.random.default_rng(seed).random(shape)
        if binary:
            M = np.round(M)
        if channel_major:
            M = np.ascontiguousarray(M.transpose(2, 0, 1)).transpose(1, 2, 0)
        target = AffordanceTarget(M=M, kind=DENSE_BINARY if binary else DENSIFIED_SPARSE)
        assert target.mask.flags.c_contiguous and target.mask.dtype == bool
        np.testing.assert_array_equal(target.mask, (M >= 0.5).transpose(2, 0, 1))
        np.testing.assert_array_equal(target.mask_count, (M >= 0.5).sum(axis=(0, 1)))
        assert target.mask is target.mask  # built once

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            AffordanceTarget(M=np.full((2, 2, 1), 1.5))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
    def test_non_finite_or_negative_values_rejected(self, bad):
        M = np.zeros((2, 2, 1))
        M[1, 0, 0] = bad
        with pytest.raises(ValueError, match=r"must be finite and in \[0, 1\]"):
            AffordanceTarget(M=M)

    def test_dense_binary_rejects_soft_values(self):
        with pytest.raises(ValueError):
            AffordanceTarget(M=np.full((2, 2, 1), 0.25), kind="dense-binary")

    @pytest.mark.parametrize("value, kind, match", [
        (1.5, "dense-binary", r"target values must be finite and in \[0, 1\]"),
        (np.nan, "dense-binary", r"target values must be finite and in \[0, 1\]"),
        (0.25, "dense-binary", "dense-binary target has non-binary entries"),
        (1.5, DENSIFIED_SPARSE, r"target values must be finite and in \[0, 1\]"),
        (1.5, "soft", r"target values must be finite and in \[0, 1\]"),
        (1.0, "soft", "unknown target kind 'soft'"),
        (0.25, "soft", "unknown target kind 'soft'"),
    ])
    def test_first_failed_check_names_the_refusal(self, value, kind, match):
        M = np.zeros((2, 2, 1))
        M[0, 1, 0] = value
        with pytest.raises(ValueError, match=f"^{match}"):
            AffordanceTarget(M=M, kind=kind)

    @pytest.mark.parametrize("kind", ["dense-binary", DENSIFIED_SPARSE])
    def test_binary_values_pass_either_kind(self, kind):
        M = np.array([0.0, -0.0, 1.0, 1.0]).reshape(2, 2, 1)
        assert AffordanceTarget(M=M, kind=kind).M.tobytes() == M.tobytes()


# manifest edits that only DatasetManifest's cross-checks catch, with their message
MANIFEST_CONSISTENCY = [
    pytest.param(lambda d: {**d, "objects": d["objects"] + d["objects"][:1]},
                 "duplicate object ids", id="duplicate-object"),
    pytest.param(lambda d: {**d, "items": d["items"] + d["items"][:1]},
                 "duplicate item id base-00-0", id="duplicate-item"),
    pytest.param(lambda d: {**d, "items": [{**d["items"][0], "object": "ghost"}] + d["items"][1:]},
                 "item base-00-0 references unknown object ghost", id="unknown-object"),
    pytest.param(lambda d: {**d, "objects": d["objects"] + [{"id": "lonely", "novel": False}]},
                 "object lonely has no items", id="object-without-items"),
] + [
    # a record whose path is not a string is refused where its file is looked for
    pytest.param(lambda d, f=f: {**d, "items": [{**d["items"][0], "features": f}]
                                 + d["items"][1:]},
                 f"item base-00-0: feature file {f!r} not found", id=f"features-{i}")
    for i, f in (("number", 5), ("list", ["feats/base-00-0.ooal"]), ("object", {"a": 1}))
] + [
    pytest.param(lambda d, p=p: {**d, "items": [{**d["items"][0], "target": {
                     "kind": "mask", "path": p}}] + d["items"][1:]},
                 f"item base-00-0: mask target file {p!r} not found", id=f"mask-path-{i}")
    for i, p in (("number", 5), ("list", ["targets/base-00.ooal"]), ("object", {"a": 1}))
]


def write_world(tmp_path, num_base=3, num_novel=2, items=2, seed=21):
    """Small on-disk synthetic dataset via the library (not the CLI)."""
    from affseg.features import save_features

    world = synth.make_world(seed=seed, num_base=num_base, num_novel=num_novel,
                             num_parts=2, grid=(4, 4), image_size=(16, 16),
                             feature_dim=8, affordances=AFFS)
    (tmp_path / "feats").mkdir(exist_ok=True)
    (tmp_path / "targets").mkdir(exist_ok=True)
    entries = []
    for obj in world.objects:
        save_target(AffordanceTarget(M=synth.synth_target(world, obj.object_id)),
                    tmp_path / f"targets/{obj.object_id}.ooal")
        for v in range(items):
            stack = synth.synth_vision_encode(world, obj.object_id, 0.02, variant=v)
            save_features(stack, tmp_path / f"feats/{obj.object_id}-{v}.ooal")
            entries.append(ManifestItem(
                item_id=f"{obj.object_id}-{v}", object_id=obj.object_id,
                features=f"feats/{obj.object_id}-{v}.ooal",
                target={"kind": "mask", "path": f"targets/{obj.object_id}.ooal"},
            ))
    manifest = DatasetManifest(
        affordances=tuple(AFFS),
        objects=tuple((o.object_id, o.novel) for o in world.objects),
        items=tuple(entries), root=tmp_path,
    )
    save_manifest(manifest, tmp_path / "manifest.json")
    return manifest


def record_runs(items) -> int:
    """The number of runs of equal consecutive target records in *items*."""
    return sum(k == 0 or it.target != items[k - 1].target for k, it in enumerate(items))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = write_world(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.affordances == manifest.affordances
        assert loaded.objects == manifest.objects
        assert [i.item_id for i in loaded.items] == [i.item_id for i in manifest.items]
        # each relative path is joined once, and a copy onto another root joins anew
        moved = dataclasses.replace(loaded, root=tmp_path / "feats")
        for it in loaded.items:
            path = loaded.resolve(it.features)
            assert path == tmp_path.resolve() / it.features and loaded.resolve(it.features) is path
            assert moved.resolve(it.features) == tmp_path.resolve() / "feats" / it.features

    def test_missing_feature_file(self, tmp_path):
        write_world(tmp_path)
        (tmp_path / "feats/base-00-0.ooal").unlink()
        with pytest.raises(ValueError, match="not found"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda d: [d], id="list-document"),
        pytest.param(lambda d: 3, id="number-document"),
        pytest.param(lambda d: {**d, "objects": ["base-00"] + d["objects"][1:]}, id="object-entry"),
        pytest.param(lambda d: {**d, "items": [5] + d["items"][1:]}, id="item-entry"),
        pytest.param(lambda d: {**d, "items": [{**d["items"][0], "target": "targets/x.ooal"}]
                                + d["items"][1:]}, id="item-target"),
        pytest.param(lambda d: {**d, "objects": [{**d["objects"][0], "novel": "false"}]
                                + d["objects"][1:]}, id="novel-string"),
        pytest.param(lambda d: {**d, "objects": [{**d["objects"][0], "novel": 1}]
                                + d["objects"][1:]}, id="novel-number"),
        pytest.param(lambda d: {**d, "objects": [{**o, "id": 7} if o["id"] == "base-00" else o
                                                 for o in d["objects"]],
                                "items": [{**i, "object": 7} if i["object"] == "base-00" else i
                                          for i in d["items"]]}, id="object-id-number"),
        pytest.param(lambda d: {**d, "items": [{**d["items"][0], "id": 7}] + d["items"][1:]},
                     id="item-id-number"),
        pytest.param(lambda d: {**d, "items": [{**d["items"][0], "id": "base-00-0\nx"}]
                                + d["items"][1:]}, id="item-id-line-break"),
    ] + [
        pytest.param(lambda d, t=p.values[0]: {**d, "items": [{**d["items"][0], "target": t}]
                                               + d["items"][1:]}, id=p.id)
        for p in BAD_TARGETS
    ] + [
        pytest.param(lambda d, f=f: {**d, "items": [{**d["items"][0], "features": f}]
                                     + d["items"][1:]}, id=f"features-{i}")
        for i, f in (("root", ""), ("directory", "feats"), ("number", 5))
    ] + [
        pytest.param(lambda d, a=a: {**d, "affordances": a}, id=f"affordances-{i}")
        for i, a in (("string", "grasp"), ("numbers", [1, 2]), ("duplicate", ["grasp", "grasp"]),
                     ("nested", [["grasp"], "cut"]), ("empty", []))
    ])
    def test_non_object_entries_name_the_manifest(self, tmp_path, mutate):
        write_world(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match="manifest.json"):
            load_manifest(path)

    @pytest.mark.parametrize("mutate, message", MANIFEST_CONSISTENCY)
    def test_consistency_errors_name_the_manifest(self, tmp_path, mutate, message):
        write_world(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ValueError) as info:
            load_manifest(path)
        assert str(info.value) == f"manifest {path}: {message}"

    @pytest.mark.parametrize("target", [t for t in BAD_TARGETS
                                        if t.values[0].get("kind") == "keypoints"])
    def test_bad_keypoint_record_names_the_item(self, tmp_path, target):
        manifest = write_world(tmp_path)
        item = ManifestItem("odd-item", "base-00", manifest.items[0].features, target)
        with pytest.raises(ValueError, match="item odd-item"):
            load_item(manifest, item)

    @pytest.mark.parametrize("path, error", [
        pytest.param("manifest.json", FormatError, id="not-a-container"),
        pytest.param("feats/base-00-0.ooal", CorruptionError, id="feature-file"),
    ])
    def test_unreadable_mask_file_names_the_item_and_file(self, tmp_path, path, error):
        manifest = write_world(tmp_path)
        item = ManifestItem("odd-item", "base-00", manifest.items[0].features,
                            {"kind": "mask", "path": path})
        with pytest.raises(error, match=f"^item odd-item: mask target .*{path} read as "
                                        "target_kind 'dense-binary': ") as info:
            load_item(manifest, item)
        assert "\n" not in str(info.value)

    def test_mask_target_kind_selects_the_reader(self, tmp_path):
        manifest = write_world(tmp_path)
        kp = {"grasp": [(3, 4)], "cut": [(9, 9)]}
        save_target(densify(kp, 2.0, 16, 16, AFFS), tmp_path / "soft.ooal")
        record = {"kind": "mask", "path": "soft.ooal"}
        item = ManifestItem("soft-item", "base-00", manifest.items[0].features, record)
        with pytest.raises(CorruptionError, match="non-binary") as info:
            load_item(manifest, item)
        # one line naming the item, the file and the field that would load it
        msg = str(info.value)
        assert "\n" not in msg and msg.startswith("item soft-item: ")
        assert str(manifest.resolve("soft.ooal")) in msg
        assert "target_kind 'dense-binary'" in msg and repr(DENSIFIED_SPARSE) in msg
        item = ManifestItem("soft-item", "base-00", manifest.items[0].features,
                            {**record, "target_kind": DENSIFIED_SPARSE})
        loaded = load_item(manifest, item)
        assert loaded.target.kind == DENSIFIED_SPARSE
        np.testing.assert_array_equal(loaded.target.M, densify(kp, 2.0, 16, 16, AFFS).M)

    def test_given_target_is_used_and_still_checked(self, tmp_path, monkeypatch):
        import affseg.data

        manifest = write_world(tmp_path)
        first, second = manifest.items[:2]
        shared = load_item(manifest, first).target
        monkeypatch.setattr(affseg.data, "load_target", None)  # a read would fail
        assert load_item(manifest, second, target=shared).target is shared
        three = AffordanceTarget(M=np.zeros((16, 16, 3)))
        with pytest.raises(ValueError, match="^item base-00-1: target has 3 channels, "
                                             "manifest lists 2 affordances$"):
            load_item(manifest, second, target=three)

    def test_given_target_of_another_size_is_densified_again(self, tmp_path):
        manifest = write_world(tmp_path)
        record = {"kind": "keypoints", "sigma": 2.0, "points": {"cut": [[1, 2]]}}
        item = ManifestItem("kp", "base-00", manifest.items[0].features, record)
        other = densify(record["points"], 2.0, 8, 8, AFFS)
        loaded = load_item(manifest, item, target=other)
        np.testing.assert_array_equal(loaded.target.M, densify(record["points"], 2.0, 16, 16,
                                                               AFFS).M)

    def test_unknown_object_reference(self):
        with pytest.raises(ValueError, match="unknown object"):
            DatasetManifest(
                affordances=("grasp",),
                objects=(("a", False),),
                items=(ManifestItem("x", "ghost", "f", {"kind": "mask", "path": "t"}),),
            )

    def test_object_without_items(self):
        with pytest.raises(ValueError, match="no items"):
            DatasetManifest(
                affordances=("grasp",),
                objects=(("a", False), ("b", True)),
                items=(ManifestItem("x", "a", "f", {"kind": "mask", "path": "t"}),),
            )


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_world(root, num_base=1, num_novel=1, items=1)
    return root


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
_coord = st.integers(-2, 17) | st.floats(-2, 17) | st.floats() | _json
_xy = st.lists(st.integers(-1, 16) | st.floats(-1, 16), min_size=2, max_size=2)
_point = st.one_of(_xy, _xy, _xy, st.lists(_coord, max_size=3), _json)
_points = st.dictionaries(st.sampled_from(AFFS + ["bogus"]), st.lists(_point, max_size=3)
                          | _json, max_size=3)
_DELETE = object()  # stands for removing the field
_target_records = st.one_of(
    st.fixed_dictionaries({"kind": st.just("keypoints"), "points": _points},
                          optional={"sigma": st.floats(0.5, 20) | st.floats() | _json}),
    st.fixed_dictionaries({"kind": st.just("keypoints")},
                          optional={"points": _json, "sigma": _json}),
    st.fixed_dictionaries({"kind": st.just("mask")}, optional={"path": st.sampled_from(
        ["targets/base-00.ooal", "feats/base-00-0.ooal", "feats", "manifest.json", "",
         "missing.ooal"]) | _json, "target_kind": st.sampled_from(
        ["dense-binary", "densified-sparse"]) | _json}),
    st.fixed_dictionaries({"kind": _json}),
    _json,
)


@settings(max_examples=200, deadline=None)
@given(record=_target_records)
def test_any_target_record_loads_or_fails_with_one_error(fuzz_world, record):
    doc = json.loads((fuzz_world / "manifest.json").read_text())
    doc["items"][0]["target"] = record
    path = fuzz_world / "fuzzed.json"
    path.write_text(json.dumps(doc))
    try:
        manifest = load_manifest(path)
        loaded = load_item(manifest, manifest.items[0])
    except (ValueError, FormatError, CorruptionError):
        return
    assert loaded.target.shape == (16, 16, len(AFFS))


# every field of the fuzz world's manifest, as the keys that lead to it from the document
_MANIFEST_FIELDS = [(), ("affordances",), ("objects",), ("objects", 0), ("objects", 0, "id"),
                    ("objects", 0, "novel"), ("items",), ("items", 0), ("items", 0, "id"),
                    ("items", 0, "object"), ("items", 0, "features"), ("items", 0, "target")]
_paths = st.sampled_from(["feats/base-00-0.ooal", "targets/base-00.ooal", "manifest.json",
                          "feats", "", "missing.ooal"])
_field_values = (_json | _paths | _target_records | st.just("base-00") | st.just(AFFS)
                 | st.just(_DELETE))


def damage(doc, keys, value):
    """*doc* with the field at *keys* set to a copy of *value*, or removed for
    ``_DELETE``; a field that an earlier damage took away is left alone. The
    copy keeps a later damage from writing into a shared value such as AFFS."""
    value = value if value is _DELETE else copy.deepcopy(value)
    if not keys:
        return None if value is _DELETE else value
    try:
        parent = functools.reduce(operator.getitem, keys[:-1], doc)
        if value is _DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


@settings(max_examples=300, deadline=None)
@given(keys=st.sampled_from(_MANIFEST_FIELDS), value=_field_values)
def test_any_manifest_field_loads_or_fails_with_one_error(fuzz_world, keys, value):
    doc = damage(json.loads((fuzz_world / "manifest.json").read_text()), keys, value)
    path = fuzz_world / "fuzzed-manifest.json"
    path.write_text(json.dumps(doc))
    try:
        manifest = load_manifest(path)
        for item in manifest.items:
            assert load_item(manifest, item).target.shape == (16, 16, len(manifest.affordances))
    except (ValueError, FormatError, CorruptionError) as exc:
        assert "\n" not in str(exc)


class TestOneShotTrainset:
    def test_one_item_per_base_object(self, tmp_path):
        manifest = write_world(tmp_path, num_base=8, num_novel=2)
        chosen = build_oneshot_trainset(manifest, seed=0)
        assert len(chosen) == 8
        assert sorted({c.object_id for c in chosen}) == sorted(manifest.base_objects())

    def test_single_item_forced(self, tmp_path):
        manifest = write_world(tmp_path, items=1)
        for seed in (0, 1, 99):
            chosen = build_oneshot_trainset(manifest, seed)
            assert [c.item_id for c in chosen] == [
                manifest.items_of(oid)[0].item_id for oid in manifest.base_objects()
            ]

    def test_matches_reference_generator(self, tmp_path):
        # oracle: the documented draw rule, regenerated independently
        manifest = write_world(tmp_path, num_base=4, items=5)
        for seed in (3, 17):
            rng = np.random.default_rng(seed)
            expected = []
            for oid in manifest.base_objects():
                items = manifest.items_of(oid)
                expected.append(items[int(rng.integers(len(items)))].item_id)
            got = [c.item_id for c in build_oneshot_trainset(manifest, seed)]
            assert got == expected


class TestSplits:
    def test_no_novel_objects(self, tmp_path):
        manifest = write_world(tmp_path, num_novel=0)
        chosen = build_oneshot_trainset(manifest, seed=1)
        seen, unseen = split_eval_sets(manifest, chosen)
        assert unseen == []
        assert len(seen) == len(manifest.items) - len(chosen)

    def test_training_items_excluded_and_disjoint(self, tmp_path):
        manifest = write_world(tmp_path, num_base=5, num_novel=2, items=3)
        chosen = build_oneshot_trainset(manifest, seed=2)
        seen, unseen = split_eval_sets(manifest, chosen)
        train_ids = {c.item_id for c in chosen}
        assert train_ids.isdisjoint({s.item_id for s in seen})
        assert {s.object_id for s in seen} <= set(manifest.base_objects())
        assert {u.object_id for u in unseen} == set(manifest.novel_objects())
        assert set(manifest.base_objects()).isdisjoint(manifest.novel_objects())

    def test_umd_shaped_manifest(self, tmp_path):
        # 17 objects split 8 base / 9 novel, as in the UMD protocol
        manifest = write_world(tmp_path, num_base=8, num_novel=9, items=2)
        chosen = build_oneshot_trainset(manifest, seed=0)
        seen, unseen = split_eval_sets(manifest, chosen)
        assert len(manifest.objects) == 17
        assert len({u.object_id for u in unseen}) == 9
        assert len(chosen) == 8
