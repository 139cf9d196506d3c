"""Heatmap and segmentation metrics against hand-arithmetic oracles."""

import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affseg import data, synth, training
from affseg.data import AffordanceTarget
from affseg.decoder import Prediction
from affseg.features import save_features
from affseg.metrics import (
    MetricsReport,
    evaluate,
    evaluate_checkpoint,
    fixations_from_heatmap,
    hiou,
    iou_counts,
    iou_per_class,
    keypoint_fixations,
    kld,
    miou,
    nss,
    sim,
)
from tests.oracles import kld_reference, nss_reference, sim_reference


def pred_of(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return Prediction(logits=np.zeros((1, scores.shape[2])), upsampled=scores, grid=(1, 1))


class TestKld:
    def test_identical_maps(self):
        m = np.random.default_rng(0).random((5, 5)) + 0.1
        assert -1e-9 <= kld(m, m) <= 1e-9

    def test_hand_case(self):
        # oracle: gt uniform over 2 cells, pred (0.9, 0.1):
        # 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1) = 0.5108
        got = kld(np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]]))
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert abs(got - 0.5108) < 1e-3
        assert abs(got - expected) < 1e-6

    def test_asymmetry_witness(self):
        # oracle: swapping arguments: 0.9 ln(0.9/0.5) + 0.1 ln(0.1/0.5)
        got = kld(np.array([[0.5, 0.5]]), np.array([[0.9, 0.1]]))
        expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert abs(got - 0.3681) < 1e-3
        assert abs(got - expected) < 1e-6
        assert got != kld(np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]]))

    def test_matches_reference_on_random_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = rng.random((4, 6)) + 1e-3
            g = rng.random((4, 6)) + 1e-3
            assert abs(kld(p, g) - kld_reference(p, g)) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.random((3, 3)) + 0.1
        g = rng.random((3, 3)) + 0.1
        assert abs(kld(7.0 * p, g) - kld(p, g)) < 1e-12
        assert abs(kld(p, 0.25 * g) - kld(p, g)) < 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            kld(np.zeros((2, 2)), np.ones((2, 2)))


class TestSim:
    def test_identity(self):
        m = np.random.default_rng(3).random((4, 4)) + 0.05
        assert abs(sim(m, m) - 1.0) < 1e-12

    def test_disjoint_supports(self):
        p = np.array([[1.0, 0.0]])
        g = np.array([[0.0, 1.0]])
        assert sim(p, g) == 0.0

    def test_hand_case(self):
        # oracle: p=(0.7, 0.3), g=(0.5, 0.5) -> min sums to 0.8
        assert abs(sim(np.array([[0.7, 0.3]]), np.array([[0.5, 0.5]])) - 0.8) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        p = rng.random((3, 5)) + 0.01
        g = rng.random((3, 5)) + 0.01
        assert abs(sim(p, g) - sim(g, p)) < 1e-12
        assert abs(sim(p, g) - sim_reference(p, g)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 1000))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((3, 3)) + 0.1
        g = rng.random((3, 3)) + 0.1
        assert abs(sim(scale * p, g) - sim(p, g)) < 1e-9


class TestNss:
    def test_constant_prediction(self):
        fix = np.zeros((2, 2), dtype=bool)
        fix[0, 0] = True
        assert nss(np.full((2, 2), 3.3), fix) == 0.0

    def test_single_fixation_hand_case(self):
        # oracle: pred equals the fixation map (one of four pixels):
        # (1 - 0.25) / sqrt(0.1875) = 1.7321
        fix = np.array([[1.0, 0.0], [0.0, 0.0]])
        got = nss(fix, fix > 0.5)
        assert abs(got - (0.75 / math.sqrt(0.1875))) < 1e-12
        assert abs(got - 1.7321) < 1e-3

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        p = rng.random((4, 4))
        fix = rng.random((4, 4)) > 0.6
        fix[0, 0] = True
        assert abs(nss(p + 11.0, fix) - nss(p, fix)) < 1e-9

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(6)
        p = rng.random((4, 4))
        fix = rng.random((4, 4)) > 0.5
        fix[1, 1] = True
        assert abs(nss(2.5 * p + 3.0, fix) - nss(p, fix)) < 1e-9
        assert abs(nss(p, fix) - nss_reference(p, fix)) < 1e-12

    def test_empty_fixations_rejected(self):
        with pytest.raises(ValueError):
            nss(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_fixation_binarization_rule(self):
        ch = np.array([[1.0, 0.6], [0.49, 0.0]])
        np.testing.assert_array_equal(
            fixations_from_heatmap(ch), [[True, True], [False, False]]
        )


class TestIoU:
    def test_perfect_prediction(self):
        y = (np.random.default_rng(7).random((4, 4, 3)) < 0.5).astype(float)
        per = iou_per_class(pred_of(y), AffordanceTarget(M=y))
        np.testing.assert_array_equal(per[~np.isnan(per)], 1.0)

    def test_disjoint_nonempty(self):
        y = np.zeros((2, 2, 1))
        y[0, 0, 0] = 1.0
        s = np.zeros((2, 2, 1))
        s[1, 1, 0] = 1.0
        assert iou_per_class(pred_of(s), AffordanceTarget(M=y))[0] == 0.0

    def test_counting_hand_case(self):
        # oracle: pred covers 3 cells, gt 2, overlap 2 -> IoU 2/3
        s = np.array([[0.9, 0.8], [0.7, 0.1]]).reshape(2, 2, 1)
        y = np.array([[1.0, 1.0], [0.0, 0.0]]).reshape(2, 2, 1)
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y), 0.5)
        assert inter[0] == 2 and union[0] == 3
        assert abs(iou_per_class(pred_of(s), AffordanceTarget(M=y))[0] - 2.0 / 3.0) < 1e-12

    def test_soft_gt_rejected(self):
        s = np.full((2, 2, 1), 0.9)
        soft = AffordanceTarget(M=np.full((2, 2, 1), 0.5), kind="densified-sparse")
        with pytest.raises(ValueError):
            iou_per_class(pred_of(s), soft)

    def test_threshold_stability_within_margin(self):
        # scores keep a margin around 0.5, so nearby thresholds agree
        s = np.array([[0.9, 0.8], [0.2, 0.1]]).reshape(2, 2, 1)
        y = np.array([[1.0, 0.0], [1.0, 0.0]]).reshape(2, 2, 1)
        base = iou_per_class(pred_of(s), AffordanceTarget(M=y), 0.5)
        for thr in (0.45, 0.55):
            np.testing.assert_array_equal(
                iou_per_class(pred_of(s), AffordanceTarget(M=y), thr), base
            )

    def test_miou_class_order_invariance(self):
        rng = np.random.default_rng(8)
        y = (rng.random((4, 4, 3)) < 0.5).astype(float)
        s = rng.random((4, 4, 3))
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y))
        perm = [2, 0, 1]
        inter_p, union_p = iou_counts(pred_of(s[:, :, perm]), AffordanceTarget(M=y[:, :, perm]))
        assert abs(miou(inter, union) - miou(inter_p, union_p)) < 1e-12

    def test_empty_union_class_excluded(self):
        y = np.zeros((2, 2, 2))
        y[0, 0, 0] = 1.0
        s = np.zeros((2, 2, 2))
        s[0, 0, 0] = 1.0
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y))
        assert union[1] == 0
        assert miou(inter, union) == 1.0


class TestHiou:
    def test_benchmark_split_arithmetic(self):
        # harmonic means of two seen/unseen percent pairs, to 0.15
        assert abs(hiou(72.0, 60.8) - 66.0) < 0.15
        assert abs(hiou(74.6, 59.7) - 66.4) < 0.15

    def test_equal_arguments_fixed_point(self):
        for x in (0.0, 0.3, 55.5, 100.0):
            assert abs(hiou(x, x) - x) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hiou(-0.1, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    def test_bounds(self, s, u):
        h = hiou(s, u)
        assert min(s, u) - 1e-12 <= h <= (s + u) / 2 + 1e-12
        if abs(s - u) > 1e-9:
            assert h < (s + u) / 2


class TestEvaluate:
    @staticmethod
    def run_item(entry):
        return entry  # items already materialized as result tuples

    def test_empty_set(self):
        report = evaluate(self.run_item, [], "heatmap", ["a"])
        assert report.items == []
        assert report.aggregates == {"kld": None, "sim": None, "nss": None}
        report = evaluate(self.run_item, [], "dense", ["a"])
        assert report.aggregates["miou"] is None

    def test_oracle_item(self):
        y = np.zeros((4, 4, 1))
        y[1:3, 1:3, 0] = 1.0
        entry = ("it0", pred_of(y), AffordanceTarget(M=y), None)
        report = evaluate(self.run_item, [entry], "heatmap", ["a"])
        rec = report.items[0]
        assert rec["kld"] < 1e-6
        assert abs(rec["sim"] - 1.0) < 1e-9
        assert rec["nss"] > 0

    def test_totals_match_independent_recomputation(self):
        rng = np.random.default_rng(9)
        entries = []
        for i in range(4):
            y = (rng.random((5, 5, 2)) < 0.4).astype(float)
            s = rng.random((5, 5, 2))
            entries.append((f"it{i}", pred_of(s), AffordanceTarget(M=y), None))
        report = evaluate(self.run_item, entries, "dense", ["a", "b"])
        inter = np.zeros(2)
        union = np.zeros(2)
        for _, p, t, _ in entries:
            i, u = iou_counts(p, t)
            inter += i
            union += u
        assert abs(report.aggregates["miou"] - miou(inter, union)) < 1e-12

        hm = evaluate(self.run_item, entries, "heatmap", ["a", "b"])
        manual = np.mean([rec["kld"] for rec in hm.items])
        assert abs(hm.aggregates["kld"] - manual) < 1e-12

    @staticmethod
    def dense_entries(n=6):
        rng = np.random.default_rng(10)
        entries = []
        for i in range(n):
            y = (rng.random((4, 4, 2)) < 0.4).astype(float)
            entries.append((f"it{i}", pred_of(rng.random((4, 4, 2))), AffordanceTarget(M=y), None))
        return entries

    def test_items_run_once_in_order_on_calling_thread(self, monkeypatch):
        entries = self.dense_entries()
        calls = []

        def run_item(entry):
            calls.append((entry[0], threading.get_ident()))
            return entry

        monkeypatch.delenv("OOAL_THREADS", raising=False)
        reference = evaluate(run_item, entries, "dense", ["a", "b"]).to_json()
        assert calls == [(e[0], threading.get_ident()) for e in entries]
        for value in ("1", "4", "0", "many"):
            monkeypatch.setenv("OOAL_THREADS", value)
            assert evaluate(self.run_item, entries, "dense", ["a", "b"]).to_json() == reference

    def test_run_item_error_propagates_and_stops(self):
        entries = self.dense_entries()
        failure = RuntimeError("cannot load it2")
        calls = []

        def run_item(entry):
            calls.append(entry[0])
            if entry[0] == "it2":
                raise failure
            return entry

        with pytest.raises(RuntimeError) as info:
            evaluate(run_item, entries, "dense", ["a", "b"])
        assert info.value is failure
        assert calls == ["it0", "it1", "it2"]

    @pytest.mark.parametrize("mode", ["dense", "heatmap"])
    def test_one_prediction_alive_at_a_time(self, mode):
        rng = np.random.default_rng(11)
        alive = []

        def run_item(i):
            assert all(ref() is None for ref in alive), "an earlier prediction is still held"
            y = np.ones((4, 4, 2))
            pred = pred_of(rng.random((4, 4, 2)))
            alive.append(weakref.ref(pred))
            return f"it{i}", pred, AffordanceTarget(M=y), None

        assert evaluate(run_item, range(5), mode, ["a", "b"]).to_json()["count"] == 5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            evaluate(self.run_item, [], "both", ["a"])


def test_report_json_shape():
    report = MetricsReport(mode="dense", items=[{"id": "x", "iou": [0.5]}],
                           aggregates={"miou": 0.5})
    doc = report.to_json()
    assert doc["count"] == 1 and doc["mode"] == "dense"


class TestKeypointFixations:
    @settings(max_examples=200, deadline=None)
    @given(drawn=st.data(), H=st.integers(1, 40), W=st.integers(1, 40))
    def test_each_accepted_keypoint_marks_its_nearest_pixel(self, drawn, H, W):
        x = drawn.draw(st.floats(0.0, W, exclude_max=True))
        y = drawn.draw(st.floats(0.0, H, exclude_max=True))
        fix = keypoint_fixations({"b": [(x, y)]}, (H, W, 2), ["a", "b"])
        assert fix.shape == (H, W, 2)
        assert fix.sum() == 1 and fix[:, :, 1].sum() == 1
        (row,), (col,) = np.nonzero(fix[:, :, 1])
        assert row == min(round(y), H - 1) and col == min(round(x), W - 1)


@pytest.fixture(scope="module")
def keypoint_world(tmp_path_factory):
    """A one-object world on disk plus an untrained checkpoint for it."""
    world = synth.make_world(seed=3, num_base=1, num_novel=0, num_parts=2, grid=(4, 4),
                             image_size=(16, 16), feature_dim=8)
    obj = world.objects[0].object_id
    root = tmp_path_factory.mktemp("kp")
    save_features(synth.synth_vision_encode(world, obj, 0.05), root / "f.ooal")
    cfg = training.TrainConfig(iterations=0, seed=3, p=2, j=2, t=1, C=8, C_t=8)
    table, enc = training.build_text_pipeline(cfg, world.affordances)
    params = training.init_model(cfg, world.feature_dim)
    ckpt = training.Checkpoint(params=params, enc=enc, affordances=world.affordances, cfg=cfg)
    return world, obj, root, ckpt


@settings(max_examples=25, deadline=None)
@given(x=st.floats(0.0, 16.0, exclude_max=True), y=st.floats(0.0, 16.0, exclude_max=True))
def test_heatmap_eval_of_any_accepted_keypoint(keypoint_world, x, y):
    world, obj, root, ckpt = keypoint_world
    target = {"kind": "keypoints", "sigma": 2.0, "points": {world.affordances[0]: [[x, y]]}}
    item = data.ManifestItem("kp-item", obj, "f.ooal", target)
    manifest = data.DatasetManifest(world.affordances, ((obj, False),), (item,), root)
    rec = evaluate_checkpoint(ckpt, manifest, [item], "heatmap").items[0]
    assert all(rec[key] is not None and math.isfinite(rec[key]) for key in ("kld", "sim", "nss"))
