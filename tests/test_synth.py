"""Synthetic world generator: planted parts, layer structure, determinism."""

import re

import numpy as np
import pytest

from affseg.synth import make_world, part_map, synth_target, synth_vision_encode


@pytest.fixture(scope="module")
def world():
    return make_world(seed=11, num_base=8, num_novel=2, num_parts=4)


def test_deterministic_given_args(world):
    a = synth_vision_encode(world, "base-00", 0.05)
    b = synth_vision_encode(world, "base-00", 0.05)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(a.cls, b.cls)


def test_variant_changes_noise(world):
    a = synth_vision_encode(world, "base-00", 0.05, variant=0)
    b = synth_vision_encode(world, "base-00", 0.05, variant=1)
    assert not np.array_equal(a.last, b.last)


def test_unknown_object(world):
    with pytest.raises(ValueError):
        synth_vision_encode(world, "no-such-thing", 0.0)


def test_zero_noise_single_part_covers_all():
    # one part, one object whose placement covers the whole grid
    world = make_world(seed=3, num_base=1, num_novel=0, num_parts=1, grid=(2, 2))
    obj = world.objects[0]
    from dataclasses import replace

    from affseg.synth import Placement, SynthWorldSpec

    full = replace(obj, placements=(Placement(part=0, row0=0, col0=0, rows=2, cols=2),))
    world = SynthWorldSpec(
        seed=world.seed,
        parts=world.parts,
        objects=(full,),
        background=world.background,
        affordances=world.affordances,
        grid=world.grid,
        image_size=world.image_size,
        num_layers=world.num_layers,
    )
    stack = synth_vision_encode(world, full.object_id, noise_scale=0.0)
    sig = world.parts[0][0]
    for row in stack.last:
        np.testing.assert_allclose(row, sig, atol=0)
    np.testing.assert_allclose(stack.cls, sig, atol=1e-15)


def test_zero_noise_same_part_identical_within_layer(world):
    stack = synth_vision_encode(world, "base-01", 0.0)
    labels = part_map(world, "base-01").reshape(-1)
    for layer in stack.layers:
        for part in set(labels[labels >= 0]):
            rows = layer[labels == part]
            assert np.ptp(rows, axis=0).max() == 0.0


def test_layers_differ(world):
    stack = synth_vision_encode(world, "base-02", 0.0)
    labels = part_map(world, "base-02").reshape(-1)
    # mixing only moves patches where the part differs from the object mean,
    # so compare on a covered patch
    covered = np.nonzero(labels >= 0)[0][0]
    assert not np.array_equal(stack.layers[0][covered], stack.last[covered])


def test_cls_is_mean_of_last_layer(world):
    stack = synth_vision_encode(world, "base-03", 0.05)
    np.testing.assert_allclose(stack.cls, stack.last.mean(axis=0), atol=1e-15)


def test_shared_part_high_cosine(world):
    # oracle: two objects sharing a part: corresponding patches stay aligned
    # under noise 0.05 (cosine computed directly on the generated features)
    shared = None
    for a in world.objects:
        for b in world.objects:
            if a.object_id >= b.object_id:
                continue
            parts_a = {p.part for p in a.placements}
            parts_b = {p.part for p in b.placements}
            common = parts_a & parts_b
            if common:
                shared = (a, b, common.pop())
                break
        if shared:
            break
    assert shared is not None, "world should contain objects with shared parts"
    obj_a, obj_b, part = shared
    stack_a = synth_vision_encode(world, obj_a.object_id, 0.05)
    stack_b = synth_vision_encode(world, obj_b.object_id, 0.05)
    lab_a = part_map(world, obj_a.object_id).reshape(-1)
    lab_b = part_map(world, obj_b.object_id).reshape(-1)
    va = stack_a.last[lab_a == part].mean(axis=0)
    vb = stack_b.last[lab_b == part].mean(axis=0)
    cos = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
    assert cos > 0.95


def test_target_matches_part_map(world):
    target = synth_target(world, "base-00")
    H, W = world.image_size
    assert target.shape == (H, W, len(world.affordances))
    assert set(np.unique(target)) <= {0.0, 1.0}
    # each placement's affordance channel must contain its patch rectangle's
    # center pixel
    for pl in world.objects[0].placements:
        aff = world.parts[pl.part][1]
        cy = round((pl.row0 + pl.rows / 2) / world.grid[0] * (H - 1))
        cx = round((pl.col0 + pl.cols / 2) / world.grid[1] * (W - 1))
        assert target[cy, cx, aff] == 1.0


def test_every_affordance_present_on_base(world):
    seen = set()
    for obj in world.objects:
        if obj.novel:
            continue
        for pl in obj.placements:
            seen.add(world.parts[pl.part][1])
    assert seen == set(range(len(world.affordances)))


def test_novel_objects_reuse_signatures(world):
    novel_parts = {
        pl.part for o in world.objects if o.novel for pl in o.placements
    }
    base_parts = {
        pl.part for o in world.objects if not o.novel for pl in o.placements
    }
    assert novel_parts <= base_parts


@pytest.mark.parametrize("sizes, named", [
    ({"num_layers": 10**20}, f"num_layers {10**20} and feature_dim 32 on grid (8, 8)"),
    ({"feature_dim": 10**20}, f"num_layers 4 and feature_dim {10**20} on grid (8, 8)"),
])
def test_stack_numpy_cannot_hold_is_refused_by_name(sizes, named):
    # past what numpy can index, so nothing is allocated
    with pytest.raises(ValueError, match=rf"^{re.escape(named)}: \d+ values are more than one "
                       "numpy array can hold$"):
        make_world(seed=0, **sizes)
