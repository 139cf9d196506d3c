"""Heatmap and segmentation metrics against hand-arithmetic oracles."""

import dataclasses
import json
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affseg import data, decoder, fusion, metrics, prompt, synth, training
from affseg.cli import ABLATIONS
from affseg.data import AffordanceTarget
from affseg.decoder import Prediction
from affseg.features import FeatureStack, save_features
from affseg.metrics import (
    EPS,
    MetricsReport,
    evaluate,
    evaluate_checkpoint,
    fixations_from_heatmap,
    heatmap_record,
    hiou,
    iou_counts,
    keypoint_fixations,
    kld,
    miou,
    nss,
    sim,
)
from tests.oracles import (
    evaluate_reference,
    heatmap_record_reference,
    iou_counts_reference,
    kld_reference,
    nss_reference,
    sim_reference,
)
from tests.test_data import AFFS, densify_cases, write_world


def pred_of(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return Prediction(logits=np.zeros((1, scores.shape[2])), upsampled=scores)


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
        # an all-zero gt has no distribution; an all-zero prediction does (TestSaliencyOracles)
        with pytest.raises(ValueError, match="all-zero map"):
            kld(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="all-zero map"):
            sim(np.ones((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [
        pytest.param([[np.nan, 1.0]], id="nan"),
        pytest.param([[np.inf, 1.0]], id="inf"),
        # finite values whose sum overflows; scored as an all-zero map before
        pytest.param([[1e308, 1e308]], id="overflowing-sum"),
    ])
    @pytest.mark.parametrize("metric", [kld, sim])
    def test_non_finite_map_rejected(self, metric, bad):
        ok = np.ones((1, 2))
        # as in eval, which runs under np.errstate(over="ignore")
        with np.errstate(over="ignore"):
            for pred, gt in ((np.array(bad), ok), (ok, np.array(bad))):
                with pytest.raises(ValueError, match="is not finite"):
                    metric(pred, gt)


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

    @pytest.mark.parametrize("pred", [np.arange(9.0).reshape(3, 3), np.full((3, 3), 2.0)],
                             ids=["varying", "constant"])
    def test_shape_mismatch_rejected(self, pred):
        with pytest.raises(ValueError, match=r"prediction \(3, 3\) vs fixations \(2, 2\)"):
            nss(pred, np.ones((2, 2), dtype=bool))

    def test_fixation_binarization_rule(self):
        ch = np.array([[1.0, 0.6], [0.49, 0.0]])
        np.testing.assert_array_equal(
            fixations_from_heatmap(ch), [[True, True], [False, False]]
        )


class TestSaliencyOracles:
    """Closed forms from Bylinskii et al., "What do different evaluation
    metrics tell us about saliency models?" (TPAMI 2019), on maps whose
    sums, means and deviations are taken with ``math.fsum``."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), shape=st.tuples(st.integers(2, 9), st.integers(2, 9)))
    def test_single_pixel_ground_truth(self, seed, shape):
        rng = np.random.default_rng(seed)
        P = rng.uniform(0.1, 1.0, shape)
        k = tuple(int(rng.integers(n)) for n in shape)
        P[k] = 2.0  # the peak keeps KLD and NSS away from zero
        g = np.zeros(shape)
        g[k] = 1.0
        values = P.ravel().tolist()
        p_k = P[k] / math.fsum(values)
        mean = math.fsum(values) / P.size
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / P.size)
        want = {"kld": math.log(1.0 / (p_k + EPS) + EPS), "sim": p_k,
                "nss": (P[k] - mean) / std}
        got = {"kld": kld(P, g), "sim": sim(P, g), "nss": nss(P, g > 0)}
        rec = heatmap_record("it", P[:, :, None], g[:, :, None])
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12), key
            assert rec[key] == pytest.approx(value, rel=1e-12), key

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), shape=st.tuples(st.integers(1, 9), st.integers(1, 9)))
    def test_all_zero_prediction(self, seed, shape):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.7)
        g[0, 0] = 1.0
        gn = (g / math.fsum(g.ravel().tolist())).ravel().tolist()
        want = {"kld": math.fsum(v * math.log(v / EPS + EPS) for v in gn), "sim": 0.0,
                "nss": 0.0}
        P = np.zeros(shape)
        got = {"kld": kld(P, g), "sim": sim(P, g), "nss": nss(P, g >= 0.5)}
        rec = heatmap_record("it", P[:, :, None], g[:, :, None])
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12), key
            assert rec[key] == pytest.approx(value, rel=1e-12), key


class TestIoU:
    def test_perfect_prediction(self):
        y = (np.random.default_rng(7).random((4, 4, 3)) < 0.5).astype(float)
        inter, union = iou_counts(pred_of(y), AffordanceTarget(M=y))
        np.testing.assert_array_equal(inter, union)

    def test_disjoint_nonempty(self):
        y = np.zeros((2, 2, 1))
        y[0, 0, 0] = 1.0
        s = np.zeros((2, 2, 1))
        s[1, 1, 0] = 1.0
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y))
        assert inter[0] == 0.0 and union[0] == 2.0

    def test_counting_hand_case(self):
        # oracle: pred covers 3 cells, gt 2, overlap 2 -> IoU 2/3
        s = np.array([[0.9, 0.8], [0.7, 0.1]]).reshape(2, 2, 1)
        y = np.array([[1.0, 1.0], [0.0, 0.0]]).reshape(2, 2, 1)
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y), 0.5)
        assert inter[0] == 2 and union[0] == 3
        assert abs(inter[0] / union[0] - 2.0 / 3.0) < 1e-12

    def test_soft_gt_rejected(self):
        s = np.full((2, 2, 1), 0.9)
        soft = AffordanceTarget(M=np.full((2, 2, 1), 0.5), kind="densified-sparse")
        with pytest.raises(ValueError):
            iou_counts(pred_of(s), soft)

    def test_threshold_stability_within_margin(self):
        # scores keep a margin around 0.5, so nearby thresholds agree
        s = np.array([[0.9, 0.8], [0.2, 0.1]]).reshape(2, 2, 1)
        y = np.array([[1.0, 0.0], [1.0, 0.0]]).reshape(2, 2, 1)
        base = iou_counts(pred_of(s), AffordanceTarget(M=y), 0.5)
        for thr in (0.45, 0.55):
            np.testing.assert_array_equal(
                iou_counts(pred_of(s), AffordanceTarget(M=y), thr), base
            )

    def test_miou_class_order_invariance(self):
        rng = np.random.default_rng(8)
        y = (rng.random((4, 4, 3)) < 0.5).astype(float)
        s = rng.random((4, 4, 3))
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y))
        perm = [2, 0, 1]
        inter_p, union_p = iou_counts(pred_of(s[:, :, perm]), AffordanceTarget(M=y[:, :, perm]))
        assert abs(miou(inter, union) - miou(inter_p, union_p)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)),
           threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           channel_major=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_counts_equal_boolean_sums(self, shape, threshold, channel_major, seed):
        rng = np.random.default_rng(seed)
        s = np.where(rng.random(shape) < 0.2, threshold, rng.random(shape))
        if channel_major:  # the layout the prediction head returns
            s = np.ascontiguousarray(s.transpose(2, 0, 1)).transpose(1, 2, 0)
        y = (rng.random(shape) < 0.5).astype(float)
        inter, union = iou_counts(pred_of(s), AffordanceTarget(M=y), threshold)
        ref_inter, ref_union = iou_counts_reference(s, y, threshold)
        assert inter.dtype == union.dtype == np.float64
        np.testing.assert_array_equal(inter, ref_inter)
        np.testing.assert_array_equal(union, ref_union)

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


@settings(max_examples=150, deadline=None)
@given(drawn=st.data(), case=densify_cases(max_side=10), soft=st.booleans(),
       given_fixations=st.booleans())
def test_heatmap_record_bitwise_equal_to_reference(drawn, case, soft, given_fixations):
    points, sigma, H, W, names = case
    shape = (H, W, len(names))
    scores = drawn.draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)
                                   | st.sampled_from([0.0, 0.5, 1.0])))
    if soft:
        gt = data.densify(points, sigma, H, W, names).M
    else:
        gt = drawn.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0])))
    fix = keypoint_fixations(points, shape, names) if given_fixations else None
    got = heatmap_record("it", scores, gt, fix)
    assert got == heatmap_record_reference("it", scores, gt, fix)


@pytest.mark.parametrize("arg", ["scores", "fixations"])
def test_heatmap_record_refuses_fewer_channels_than_gt(arg):
    args = {"scores": np.full((4, 5, 3), 0.5), "fixations": np.ones((4, 5, 3), dtype=bool)}
    args[arg] = args[arg][:, :, :2]
    with pytest.raises(ValueError, match=rf"{arg} \(4, 5, 2\) vs gt \(4, 5, 3\)"):
        heatmap_record("it", args["scores"], np.ones((4, 5, 3)), args["fixations"])


@settings(max_examples=60, deadline=None)
@given(case=densify_cases(max_side=80), seed=st.integers(0, 2**32 - 1),
       given_fixations=st.booleans())
def test_heatmap_record_same_bits_in_either_layout(case, seed, given_fixations):
    # channel-major, as eval passes them: the prediction, densify's target and
    # keypoint_fixations' stack; then their C-ordered copies
    points, sigma, H, W, names = case
    rng = np.random.default_rng(seed)
    scores = rng.random((len(names), H, W)).transpose(1, 2, 0)
    gt = data.densify(points, sigma, H, W, names).M
    fix = keypoint_fixations(points, gt.shape, names) if given_fixations else None
    c_ordered = [None if a is None else np.ascontiguousarray(a) for a in (scores, gt, fix)]
    assert heatmap_record("it", scores, gt, fix) == heatmap_record("it", *c_ordered)


class TestKeypointFixations:
    def test_stack_is_channel_major(self):
        fix = keypoint_fixations({"b": [(1.0, 2.0)]}, (4, 5, 3), ["a", "b", "c"])
        assert fix.shape == (4, 5, 3) and fix.transpose(2, 0, 1).flags.c_contiguous

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


@pytest.fixture(scope="module")
def trained_world(tmp_path_factory):
    """A mask-target world on disk plus one keypoint item, and a briefly
    trained checkpoint for the full model and for each ablation."""
    root = tmp_path_factory.mktemp("trained")
    masks = write_world(root)
    keypoints = data.ManifestItem(
        "kp-item", masks.items[-1].object_id, masks.items[-1].features,
        {"kind": "keypoints", "sigma": 2.0,
         "points": {AFFS[0]: [[3.0, 4.5]], AFFS[1]: [[15.4, 0.2]]}},
    )
    manifest = data.DatasetManifest(masks.affordances, masks.objects, masks.items + (keypoints,),
                                    root)
    cfg = training.TrainConfig(lr=0.05, iterations=40, seed=4, p=2, j=2, t=1, C=8, C_t=8)
    trainset = [data.load_item(manifest, it)
                for it in data.build_oneshot_trainset(manifest, cfg.seed)]
    ckpts = {}
    for ablate in (None, *ABLATIONS):
        ablated = dataclasses.replace(cfg, **ABLATIONS.get(ablate, {}))
        params, _ = training.train(ablated, trainset, manifest.affordances)
        _, enc = training.build_text_pipeline(ablated, manifest.affordances)
        ckpts[ablate] = training.Checkpoint(params, enc, manifest.affordances, ablated)
    return manifest, ckpts


@pytest.mark.parametrize("ablate", (None, *ABLATIONS))
def test_evaluate_checkpoint_equals_per_item_forward(trained_world, ablate):
    manifest, ckpts = trained_world
    ckpt = ckpts[ablate]
    masks = [it for it in manifest.items if it.target["kind"] == "mask"]
    dense = {}
    for threshold in (0.3, 0.5, 0.7):
        dense[threshold] = evaluate_checkpoint(ckpt, manifest, masks, "dense",
                                               threshold=threshold).to_json()
        assert dense[threshold] == evaluate_reference(ckpt, manifest, masks, "dense", threshold)
    assert dense[0.3] != dense[0.7]
    heatmap = evaluate_checkpoint(ckpt, manifest, manifest.items, "heatmap").to_json()
    reference = evaluate_reference(ckpt, manifest, manifest.items, "heatmap")
    if ablate == "mlff":  # j 0, no fusion: the folded embedder is the embedder itself
        assert heatmap == reference
    else:  # the fold re-associates the fusion products, which moves the last bits
        assert_heatmap_reports_close(heatmap, reference, rel=1e-12, abs_=1e-13)


def assert_heatmap_reports_close(got: dict, want: dict, rel: float, abs_: float):
    """Mode, count and item ids equal; every KLD/SIM/NSS value within *rel*
    of the reference or *abs_* of it, whichever is larger. The absolute part
    covers values that are zero up to rounding (an NSS whose fixations are
    every pixel) or nearly zero (the KLD of a near-perfect fit), where a
    last-bit change reads as a large relative one."""
    assert (got["mode"], got["count"]) == (want["mode"], want["count"])
    assert [r["id"] for r in got["items"]] == [r["id"] for r in want["items"]]
    for g, w in [*zip(got["items"], want["items"]), (got["aggregates"], want["aggregates"])]:
        for key in ("kld", "sim", "nss"):
            assert (g[key] is None) == (w[key] is None)
            if w[key] is not None:
                assert g[key] == pytest.approx(w[key], rel=rel, abs=abs_), key


@pytest.mark.parametrize("ablate", (None, *ABLATIONS))
def test_repeated_eval_equals_a_fresh_load(trained_world, tmp_path, ablate):
    manifest, ckpts = trained_world
    ckpt = ckpts[ablate]
    training.save_checkpoint(ckpt, tmp_path / "m.ooal")
    loaded = training.load_checkpoint(tmp_path / "m.ooal")
    masks = [it for it in manifest.items if it.target["kind"] == "mask"]
    for mode, items in (("dense", masks), ("heatmap", manifest.items)):
        first, second, fresh = (evaluate_checkpoint(c, manifest, items, mode).to_json()
                                for c in (ckpt, ckpt, loaded))
        assert first == second == fresh


def assert_built_once_per_checkpoint(ckpt, manifest, items, tmp_path, calls):
    """Rebuilding *ckpt* from its parts and loading it from a file each add
    exactly one entry to *calls*; evaluating either, twice in each mode, adds
    none."""
    training.save_checkpoint(ckpt, tmp_path / "m.ooal")
    for make in (lambda: training.Checkpoint(ckpt.params, ckpt.enc, ckpt.affordances, ckpt.cfg),
                 lambda: training.load_checkpoint(tmp_path / "m.ooal")):
        calls.clear()
        built = make()
        assert len(calls) == 1
        for mode in ("dense", "heatmap", "dense", "heatmap"):
            report = evaluate_checkpoint(built, manifest, items, mode)
            assert report.to_json()["count"] == len(items)
        assert len(calls) == 1


@pytest.mark.parametrize("count", [1, 5])
def test_prompts_encoded_once_per_checkpoint(trained_world, tmp_path, monkeypatch, count):
    manifest, ckpts = trained_world
    calls = []
    encode = prompt.encode_texts_cached

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompt, "encode_texts_cached", counted)
    assert_built_once_per_checkpoint(ckpts[None], manifest, manifest.items[:count], tmp_path,
                                     calls)


@pytest.mark.parametrize("ablate", [None, "mlff"])
def test_fusion_folded_once_per_checkpoint(trained_world, tmp_path, monkeypatch, ablate):
    manifest, ckpts = trained_world
    calls = []
    fold = fusion.fold_embedder

    def counted(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(fusion, "fold_embedder", counted)
    assert_built_once_per_checkpoint(ckpts[ablate], manifest, manifest.items[:5], tmp_path,
                                     calls)
    assert (calls[0][0].depth == 0) == (ablate == "mlff")


@pytest.fixture(scope="module")
def mixed_world(trained_world):
    """trained_world's mask items interleaved with items of a second world at
    another grid and image size, so eval chunks break on shape. -> (manifest,
    dense items, heatmap items (every other one with keypoints), the chunk
    sizes the dense items form)."""
    masks = trained_world[0]
    root = masks.root
    world = synth.make_world(seed=22, num_base=4, num_novel=2, num_parts=2, grid=(2, 3),
                             image_size=(10, 14), feature_dim=8, affordances=AFFS)
    (root / "other").mkdir()
    other = []
    for k, obj in enumerate(world.objects):
        data.save_target(AffordanceTarget(M=synth.synth_target(world, obj.object_id)),
                         root / f"other/{obj.object_id}.target")
        save_features(synth.synth_vision_encode(world, obj.object_id, 0.02),
                      root / f"other/{obj.object_id}.ooal")
        other.append(data.ManifestItem(
            f"other-{k}", masks.items[k].object_id, f"other/{obj.object_id}.ooal",
            {"kind": "mask", "path": f"other/{obj.object_id}.target"}))
    ours = [it for it in masks.items if it.target["kind"] == "mask"]
    order = "AAABBABBBAAAAB"
    runs = {"A": iter(ours), "B": iter(other)}
    dense = [next(runs[c]) for c in order]
    heatmap = []
    for k, it in enumerate(dense):
        if k % 2:
            H, W = (16, 16) if it in ours else (10, 14)
            it = dataclasses.replace(it, item_id=f"{it.item_id}-kp", target={
                "kind": "keypoints", "sigma": 2.0,
                "points": {AFFS[0]: [[k % W, H - 1.25]], AFFS[1]: [[W - 0.5, k / 3]]}})
        heatmap.append(it)
    manifest = dataclasses.replace(masks, items=masks.items + tuple(other + heatmap[1::2]))
    return manifest, dense, heatmap, [3, 2, 1, 3, 4, 1]


def chunk_sizes(monkeypatch):
    """Record how many items each decoder pass in eval takes."""
    sizes = []
    decode = metrics._decode

    def spy(ckpt, visual, cls):
        sizes.append(len(visual))
        return decode(ckpt, visual, cls)

    monkeypatch.setattr(metrics, "_decode", spy)
    return sizes


def one_item_chunks(fn):
    """*fn()* with every eval run holding one item."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "EVAL_CHUNK_BYTES", 0)
        return fn()


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


# two items of the first world, which hold 4096 bytes of target and 1024 of
# embedding each; three of the second world's fit too
TWO_ITEMS = 2 * (16 * 16 * 2 * 8 + 16 * 8 * 8)


@pytest.mark.parametrize("ablate", (None, *ABLATIONS))
def test_chunked_eval_equals_one_item_chunks(trained_world, mixed_world, monkeypatch, ablate):
    ckpt = trained_world[1][ablate]
    manifest, dense, heatmap, sizes = mixed_world
    for mode, items in (("dense", dense), ("heatmap", heatmap)):
        want = one_item_chunks(lambda: evaluate_checkpoint(ckpt, manifest, items, mode).to_json())
        if mode == "dense":
            assert want == evaluate_reference(ckpt, manifest, items, mode)
        for budget, chunks in ((metrics.EVAL_CHUNK_BYTES, sizes),
                               (TWO_ITEMS, [2, 1, 2, 1, 3, 2, 2, 1])):
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "EVAL_CHUNK_BYTES", budget)
                seen = chunk_sizes(patch)
                got = evaluate_checkpoint(ckpt, manifest, items, mode).to_json()
            assert json.dumps(got) == json.dumps(want), (mode, budget)
            assert seen == chunks


def test_chunked_eval_holds_one_prediction_at_a_time(trained_world, mixed_world, monkeypatch):
    manifest, dense, _, _ = mixed_world
    alive = []
    predict = decoder.predict_cached

    def spy(*args):
        assert all(ref() is None for ref in alive), "an earlier prediction is still held"
        pred, cache = predict(*args)
        alive.append(weakref.ref(pred))
        return pred, cache

    monkeypatch.setattr(decoder, "predict_cached", spy)
    evaluate_checkpoint(trained_world[1][None], manifest, dense, "dense")
    assert len(alive) == len(dense)


def test_chunked_eval_decodes_views_of_one_buffer(trained_world, mixed_world, monkeypatch):
    manifest, dense, _, sizes = mixed_world
    embedded, decoded = [], []
    embed, decode = fusion.embed_folded, metrics._decode

    def embed_spy(*args):
        visual = embed(*args)
        embedded.append(weakref.ref(visual))
        return visual

    def decode_spy(ckpt, visual, cls):
        assert all(ref() is None for ref in embedded), "an item's own embedding is still held"
        assert visual.ndim == 3 and visual.base is not None and cls.base is not None
        decoded.append(len(visual))
        return decode(ckpt, visual, cls)

    monkeypatch.setattr(fusion, "embed_folded", embed_spy)
    monkeypatch.setattr(metrics, "_decode", decode_spy)
    evaluate_checkpoint(trained_world[1][None], manifest, dense, "dense")
    assert decoded == sizes and len(embedded) == len(dense)


def write_scaled(manifest, item, scale, name):
    """A copy of *item* whose features are multiplied by *scale*."""
    stack = data.load_item(manifest, item).stack
    save_features(FeatureStack(tuple(scale * x for x in stack.layers), scale * stack.cls,
                               stack.grid, stack.image_size), manifest.root / name)
    return dataclasses.replace(item, item_id=f"{item.item_id}-x{scale:g}", features=name)


@pytest.mark.parametrize("mode", ["dense", "heatmap"])
def test_chunked_eval_errors_come_in_item_order(trained_world, mixed_world, mode):
    ckpt = trained_world[1][None]
    manifest, dense, _, _ = mixed_world
    a0, a1, a2 = dense[:3]
    huge = write_scaled(manifest, a1, 1e200, f"huge-{mode}.ooal")
    (manifest.root / f"bad-{mode}.ooal").write_bytes(b"not a feature file")
    bad = dataclasses.replace(a2, item_id="unreadable", features=f"bad-{mode}.ooal")
    today = raised(lambda: data.load_item(manifest, bad))
    overflow = ArithmeticError, f"item {huge.item_id}: non-finite value in decoder layer output"
    for items, want in (([a0, huge, a2, dense[3]], overflow),  # mid-chunk overflow
                        ([a0, huge, bad, a2], overflow),  # unreadable after an overflow
                        ([a0, a2, bad, huge], today),  # unreadable before an overflow
                        ([bad], today)):
        def run():
            return evaluate_checkpoint(ckpt, manifest, items, mode)

        assert raised(run) == want
        assert one_item_chunks(lambda: raised(run)) == want
