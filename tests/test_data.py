"""Densification, manifests, one-shot trainset, and eval splits."""

import json
import math

import numpy as np
import pytest

from affseg import synth
from affseg.data import (
    AffordanceTarget,
    DatasetManifest,
    KeypointAnnotation,
    ManifestItem,
    build_oneshot_trainset,
    densify,
    load_manifest,
    load_target,
    save_manifest,
    save_target,
    split_eval_sets,
)
from tests.oracles import gaussian_sum_reference

AFFS = ["grasp", "cut"]


class TestDensify:
    def test_single_point_peak_and_symmetry(self):
        kp = KeypointAnnotation(points={"grasp": [(5, 5)]})
        out = densify(kp, sigma=2.0, height=11, width=11, affordances=AFFS)
        ch = out.M[:, :, 0]
        assert ch[5, 5] == 1.0
        assert ch.max() == 1.0
        # radially symmetric decay around (5, 5)
        np.testing.assert_allclose(ch[5, 8], ch[8, 5], atol=1e-15)
        np.testing.assert_allclose(ch[2, 5], ch[5, 2], atol=1e-15)
        assert ch[5, 6] < ch[5, 5] and ch[5, 7] < ch[5, 6]

    def test_empty_channel_stays_zero(self):
        kp = KeypointAnnotation(points={"grasp": [(1, 1)]})
        out = densify(kp, sigma=2.0, height=4, width=4, affordances=AFFS)
        assert out.M[:, :, 1].max() == 0.0
        assert out.kind == "densified-sparse"

    def test_two_point_midpoint_closed_form(self):
        # oracle: two points 10 px apart, sigma 2: midpoint carries
        # 2*exp(-25/8) before the channel-max division
        kp = KeypointAnnotation(points={"grasp": [(5, 10), (15, 10)]})
        out = densify(kp, sigma=2.0, height=21, width=21, affordances=AFFS)
        ref = gaussian_sum_reference([(5, 10), (15, 10)], 2.0, 21, 21)
        np.testing.assert_allclose(out.M[:, :, 0], ref, atol=1e-12)
        peak = 1.0 + math.exp(-100.0 / 8.0)
        expected_mid = 2.0 * math.exp(-25.0 / 8.0) / peak
        assert abs(out.M[10, 10, 0] - expected_mid) < 1e-9

    def test_keypoint_order_irrelevant(self):
        pts = [(3, 4), (10, 2), (7, 7)]
        a = densify(KeypointAnnotation(points={"cut": pts}), 3.0, 12, 12, AFFS)
        b = densify(KeypointAnnotation(points={"cut": pts[::-1]}), 3.0, 12, 12, AFFS)
        np.testing.assert_array_equal(a.M, b.M)

    def test_three_sigma_concentration(self):
        kp = KeypointAnnotation(points={"grasp": [(20, 20)]})
        out = densify(kp, sigma=3.0, height=41, width=41, affordances=AFFS)
        assert out.M[20, 29, 0] < 0.012  # 3 sigma to the side of a lone point

    def test_out_of_bounds_point(self):
        with pytest.raises(ValueError):
            densify(KeypointAnnotation(points={"grasp": [(50, 5)]}), 2.0, 10, 10, AFFS)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            densify(KeypointAnnotation(points={}), 0.0, 4, 4, AFFS)


class TestTargetFile:
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

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            AffordanceTarget(M=np.full((2, 2, 1), 1.5))

    def test_dense_binary_rejects_soft_values(self):
        with pytest.raises(ValueError):
            AffordanceTarget(M=np.full((2, 2, 1), 0.25), kind="dense-binary")


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


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = write_world(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.affordances == manifest.affordances
        assert loaded.objects == manifest.objects
        assert [i.item_id for i in loaded.items] == [i.item_id for i in manifest.items]

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
    ])
    def test_non_object_entries_name_the_manifest(self, tmp_path, mutate):
        write_world(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match="manifest.json"):
            load_manifest(path)

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
