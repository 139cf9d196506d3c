"""Gated cross-attention decoder, prediction head, and their gradients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affseg import resample
from affseg.training import TrainConfig, init_model
from affseg.decoder import (
    DecoderLayerParams,
    DecoderParams,
    _sigmoid,
    cls_mask,
    decode_cached,
    decode_backward,
    decoder_layer_cached,
    predict_cached,
    predict_backward,
    score_band,
)
from tests.oracles import (
    bilinear_reference,
    central_difference,
    decoder_layer_reference,
    max_rel_err,
    sigmoid_masked_reference,
    softmax_rows,
)


def layer_params(C=2, cls_dim=2, rng=None, identity=True):
    if identity:
        eye = np.eye(C)
        return DecoderLayerParams(
            wq=eye.copy(), wk=eye.copy(), wv=eye.copy(),
            wc=np.eye(cls_dim, C),
            w1=np.zeros((C, 4 * C)), b1=np.zeros(4 * C),
            w2=np.zeros((4 * C, C)), b2=np.zeros(C),
        )
    # scales comparable to the real init: keeps the attention softmax away
    # from saturation, where finite differences lose their footing
    return DecoderLayerParams(
        wq=0.3 * rng.standard_normal((C, C)), wk=0.3 * rng.standard_normal((C, C)),
        wv=0.3 * rng.standard_normal((C, C)), wc=0.3 * rng.standard_normal((cls_dim, C)),
        w1=rng.standard_normal((C, 4 * C)) / math.sqrt(C), b1=0.1 * rng.standard_normal(4 * C),
        w2=0.1 * rng.standard_normal((4 * C, C)), b2=0.1 * rng.standard_normal(C),
    )


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
               745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]


# NaN is left out: both forms return NaN, but exp(-|x|) can flip its sign bit
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3),
                  elements=st.floats(allow_nan=False) | st.sampled_from(EDGE_VALUES)))
@example(np.array(EDGE_VALUES))
def test_sigmoid_bitwise_equal_to_masked_reference(x):
    assert _sigmoid(x).tobytes() == sigmoid_masked_reference(x).tobytes()


def floats_around(b: float, ulps: int) -> np.ndarray:
    """Every float64 within *ulps* steps of *b*, in order; across zero the
    steps run through the subnormals and a single zero."""
    key = int(np.float64(abs(b)).view(np.int64)) * (-1 if b < 0 else 1)
    keys = np.arange(key - ulps, key + ulps + 1)
    mags = np.abs(keys).view(np.float64)
    return np.where(keys < 0, -mags, mags)


# the float sigmoid steps down and up again just above this threshold's logit
STEP_T = 0.3326333798388983
STEP_Z = float.fromhex("-0x1.648140f986e3cp-1")


def assert_band_splits_scores(t, z):
    lo, hi = score_band(t)
    s = _sigmoid(z)
    assert not np.any(s[z < lo] >= t), "a logit below lo reaches the threshold"
    assert np.all(s[z >= hi] >= t), "a logit at or above hi misses the threshold"


@pytest.mark.parametrize("t", [0.5, 0.3, 0.7, 0.1, 1e-300, 5e-324, 1 - 2**-53, STEP_T])
def test_score_band_splits_the_scores_at_its_edges(t):
    lo, hi = score_band(t)
    assert lo < hi
    for edge in (lo, hi):
        if math.isfinite(edge):
            assert_band_splits_scores(t, floats_around(edge, 10**5))


def test_score_band_at_half_holds_the_logits_that_round_to_half():
    lo, hi = score_band(0.5)
    assert lo == -hi and 1.8e-9 < hi < 1.9e-9
    # logits in [-4.510281037539698e-17, 0) squash to exactly 0.5
    assert lo < -4.510281037539698e-17 < 0.0 < hi


@pytest.mark.parametrize("t, side", [(5e-324, 0), (1e-320, 0), (1 - 2**-53, 1),
                                     (1 - 2**-31, 1)])
def test_score_band_is_unbounded_where_the_margin_passes_0_or_1(t, side):
    band = score_band(t)
    assert band[side] == (-math.inf, math.inf)[side]
    assert math.isfinite(band[1 - side])
    assert_band_splits_scores(t, np.array([-np.inf, -800.0, -745.0, -30.0, 0.0, 30.0, np.inf]))


def test_no_single_logit_marks_the_threshold():
    # b squashes to t, b + 1 ulp below it and b + 2 ulps to t again; the band
    # holds all three, so a pixel at b + 1 ulp is squashed, not counted on its logit
    z = floats_around(STEP_Z, 2)[2:]
    np.testing.assert_array_equal(_sigmoid(z) >= STEP_T, [True, False, True])
    lo, hi = score_band(STEP_T)
    assert lo < z.min() and z.max() < hi


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       hnp.arrays(np.float64, hnp.array_shapes(max_dims=3),
                  elements=st.floats(allow_nan=False) | st.sampled_from(EDGE_VALUES)))
@example(STEP_T, floats_around(STEP_Z, 16))
def test_logits_outside_the_band_are_on_the_side_of_their_scores(t, z):
    assert_band_splits_scores(t, z)


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 70), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False) | st.sampled_from(EDGE_VALUES)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_squashing_a_gathered_band_gives_the_full_maps_bits(z, seed, channel_major):
    # iou_counts squashes only the logits in the band, gathered from the map
    if channel_major:
        z = np.ascontiguousarray(z.T).T
    band = np.random.default_rng(seed).random(z.shape) < 0.3
    assert _sigmoid(z[band]).tobytes() == _sigmoid(z)[band].tobytes()


class TestClsMask:
    def test_zero_projection_gives_half(self):
        K = np.random.default_rng(0).standard_normal((5, 3))
        out = cls_mask(np.zeros(4), K, np.zeros((4, 3)))
        np.testing.assert_array_equal(out, np.full(5, 0.5))

    def test_negating_keys_mirrors_sigmoid(self):
        rng = np.random.default_rng(1)
        cls = rng.standard_normal(4)
        K = rng.standard_normal((6, 3))
        wc = rng.standard_normal((4, 3))
        a = cls_mask(cls, K, wc)
        b = cls_mask(cls, -K, wc)
        np.testing.assert_allclose(a + b, 1.0, atol=1e-12)

    def test_hand_case(self):
        # oracle: projected cls (1,0), keys ((2,0),(-2,0)), key width 2:
        # logits (2,-2)/sqrt(2) = (sqrt 2, -sqrt 2) -> sigmoid = (0.8044, 0.1956)
        cls = np.array([1.0, 0.0])
        wc = np.eye(2)
        K = np.array([[2.0, 0.0], [-2.0, 0.0]])
        out = cls_mask(cls, K, wc)
        expected = np.array([1 / (1 + math.exp(-math.sqrt(2))), 1 / (1 + math.exp(math.sqrt(2)))])
        np.testing.assert_allclose(out, [0.8044, 0.1956], atol=1e-4)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            out = cls_mask(
                rng.standard_normal(3) * 50,
                rng.standard_normal((8, 4)) * 50,
                rng.standard_normal((3, 4)),
            )
            assert (out > 0).all() and (out < 1).all()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cls_mask(np.zeros(3), np.zeros((4, 2)), np.zeros((2, 2)))


class TestDecoderLayer:
    def test_gate_neutral_with_zero_ffn_is_plain_attention(self):
        rng = np.random.default_rng(3)
        C = 4
        text = rng.standard_normal((3, C))
        visual = rng.standard_normal((5, C))
        p = layer_params(C=C, cls_dim=2, identity=True)
        for w in (p.wq, p.wk, p.wv):
            w[...] = rng.standard_normal((C, C))
        out = decoder_layer_cached(text, visual, np.zeros(2), p, use_gate=False)[0]
        A = softmax_rows(text @ p.wq @ (visual @ p.wk).T / math.sqrt(C))
        np.testing.assert_allclose(out, A @ (visual @ p.wv) + text, atol=1e-12)

    def test_patch_permutation_invariance(self):
        rng = np.random.default_rng(4)
        C = 6
        text = rng.standard_normal((3, C))
        visual = rng.standard_normal((7, C))
        cls = rng.standard_normal(5)
        p = layer_params(C=C, cls_dim=5, rng=rng, identity=False)
        base = decoder_layer_cached(text, visual, cls, p)[0]
        perm = rng.permutation(7)
        permuted = decoder_layer_cached(text, visual[perm], cls, p)[0]
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_hand_case_identity_weights(self):
        # oracle: N=1, L=2, C=2, all maps identity; the oracle recomputes
        # the layer with scalar math
        text = np.array([[1.0, 0.0]])
        visual = np.array([[1.0, 1.0], [0.0, -1.0]])
        cls = np.array([0.5, -0.5])
        p = layer_params(C=2, cls_dim=2, identity=True)
        expected = decoder_layer_reference(text, visual, cls, p)
        out, _ = decoder_layer_cached(text, visual, cls, p)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_random_case_matches_reference(self):
        rng = np.random.default_rng(5)
        text = rng.standard_normal((4, 6))
        visual = rng.standard_normal((9, 6))
        cls = rng.standard_normal(3)
        p = layer_params(C=6, cls_dim=3, rng=rng, identity=False)
        expected = decoder_layer_reference(text, visual, cls, p)
        out, _ = decoder_layer_cached(text, visual, cls, p)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_attention_rows_sum_to_one_pre_gate(self):
        rng = np.random.default_rng(6)
        text = rng.standard_normal((3, 4))
        visual = rng.standard_normal((6, 4))
        cls = rng.standard_normal(2)
        p = layer_params(C=4, cls_dim=2, rng=rng, identity=False)
        _, cache = decoder_layer_cached(text, visual, cls, p)
        np.testing.assert_allclose(cache.attn.sum(axis=1), 1.0, atol=1e-12)
        assert (cache.gated.sum(axis=1) <= 1.0 + 1e-12).all()
        assert (cache.gate > 0).all() and (cache.gate < 1).all()

    def test_logit_shift_invariance(self):
        # adding a constant to every score in a row leaves the softmax alone
        rng = np.random.default_rng(7)
        S = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            softmax_rows(S), softmax_rows(S + 123.456), atol=1e-12
        )
        from affseg.decoder import _row_softmax

        np.testing.assert_allclose(_row_softmax(S), _row_softmax(S + 123.456), atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_input_raises(self):
        text = np.array([[np.inf, 0.0]])
        visual = np.ones((2, 2))
        p = layer_params(C=2, cls_dim=2, identity=True)
        with pytest.raises(ArithmeticError):
            decoder_layer_cached(text, visual, np.zeros(2), p)


class TestDecode:
    def test_zero_layers_identity(self):
        rng = np.random.default_rng(8)
        text = rng.standard_normal((3, 4))
        out, _ = decode_cached(
            text, rng.standard_normal((5, 4)), rng.standard_normal(2), DecoderParams()
        )
        np.testing.assert_array_equal(out, text)

    def test_two_layers_compose(self):
        rng = np.random.default_rng(9)
        text = rng.standard_normal((3, 4))
        visual = rng.standard_normal((5, 4))
        cls = rng.standard_normal(2)
        dp = DecoderParams(
            layers=[layer_params(C=4, cls_dim=2, rng=rng, identity=False) for _ in range(2)]
        )
        step1 = decoder_layer_cached(text, visual, cls, dp.layers[0])[0]
        step2 = decoder_layer_cached(step1, visual, cls, dp.layers[1])[0]
        np.testing.assert_array_equal(decode_cached(text, visual, cls, dp)[0], step2)

    def test_permutation_invariance_any_depth(self):
        rng = np.random.default_rng(10)
        text = rng.standard_normal((2, 4))
        visual = rng.standard_normal((6, 4))
        cls = rng.standard_normal(3)
        for t in (0, 1, 3):
            dp = DecoderParams(
                layers=[layer_params(C=4, cls_dim=3, rng=rng, identity=False) for _ in range(t)]
            )
            perm = rng.permutation(6)
            np.testing.assert_allclose(
                decode_cached(text, visual[perm], cls, dp)[0],
                decode_cached(text, visual, cls, dp)[0],
                atol=1e-10,
            )

    def test_gradients_match_finite_differences(self):
        # oracle: finite-difference oracle, t=2, N=3, L=4, C=8
        rng = np.random.default_rng(11)
        C = 8
        text = rng.standard_normal((3, C))
        visual = rng.standard_normal((4, C))
        cls = rng.standard_normal(5)
        dp = DecoderParams(
            layers=[layer_params(C=C, cls_dim=5, rng=rng, identity=False) for _ in range(2)]
        )
        probe = rng.standard_normal((3, C))

        def loss():
            return float((decode_cached(text, visual, cls, dp)[0] * probe).sum())

        arrays = []
        for layer in dp.layers:
            arrays += [layer.wq, layer.wk, layer.wv, layer.wc,
                       layer.w1, layer.b1, layer.w2, layer.b2]
        fd = central_difference(loss, arrays)

        _, caches = decode_cached(text, visual, cls, dp)
        grads, _, _ = decode_backward(caches, probe)
        analytic = []
        for g in grads:
            analytic += [g["wq"], g["wk"], g["wv"], g["wc"], g["w1"], g["b1"], g["w2"], g["b2"]]
        worst = max(max_rel_err(a, n) for a, n in zip(analytic, fd))
        assert worst < 1e-4


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 12), L=st.integers(1, 12), C=st.integers(1, 5), Cv=st.integers(1, 4),
       B=st.none() | st.integers(1, 3), stacked_text=st.booleans(), use_gate=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(N=12, L=1, C=3, Cv=2, B=None, stacked_text=False, use_gate=True, seed=0)
@example(N=5, L=2, C=4, Cv=3, B=2, stacked_text=True, use_gate=False, seed=1)
def test_layer_matches_key_value_reference(N, L, C, Cv, B, stacked_text, use_gate, seed):
    # the layer scores and pools from the text side; the oracle forms keys
    # and values, so the two agree up to rounding
    rng = np.random.default_rng(seed)
    p = layer_params(C=C, cls_dim=Cv, rng=rng, identity=False)
    lead = () if B is None else (B,)
    text = rng.standard_normal((lead if stacked_text else ()) + (N, C))
    visual = rng.standard_normal(lead + (L, C))
    cls = rng.standard_normal(lead + (Cv,))
    out, _ = decoder_layer_cached(text, visual, cls, p, use_gate)
    assert out.shape == lead + (N, C)
    for b in np.ndindex(*lead):
        text_b = text[b] if text.ndim == visual.ndim else text
        expected = decoder_layer_reference(text_b, visual[b], cls[b], p, use_gate)
        np.testing.assert_allclose(out[b], expected, rtol=1e-9, atol=1e-11)


class TestCostModel:
    """The attention runs from the text side: N queries against L patches
    cost O(N L C + N C^2) per layer, with no L x C keys or values."""

    N, L, C, Cv = 2, 48, 5, 3

    def problem(self, lead=()):
        rng = np.random.default_rng(16)
        p = layer_params(C=self.C, cls_dim=self.Cv, rng=rng, identity=False)
        return (p, rng.standard_normal((self.N, self.C)),
                rng.standard_normal(lead + (self.L, self.C)), rng.standard_normal(lead + (self.Cv,)))

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("use_gate", [True, False])
    def test_cache_holds_no_keys_or_values(self, lead, use_gate):
        p, text, visual, cls = self.problem(lead)
        _, cache = decoder_layer_cached(text, visual, cls, p, use_gate)
        for name, value in cache._asdict().items():
            if name not in ("params", "visual") and isinstance(value, np.ndarray):
                assert value.shape[-2:] != (self.L, self.C), name

    def test_gate_from_the_text_side_matches_gate_on_keys(self):
        p, _, visual, cls = self.problem()
        np.testing.assert_allclose(cls_mask(cls @ p.wc, visual, p.wk.T),
                                   cls_mask(cls, visual @ p.wk, p.wc), rtol=1e-12, atol=0)

    def test_gradients_match_finite_differences_at_many_patches(self):
        # L >> N: wk reaches the loss through the scores and through the
        # gate, wc through the gate alone; the ungated model's wk gradient
        # differs, so the gate's share is tested too
        rng = np.random.default_rng(17)
        p, text, visual, cls = self.problem()
        layers = [p, layer_params(C=self.C, cls_dim=self.Cv, rng=rng, identity=False)]
        probe = rng.standard_normal((self.N, self.C))
        wk_grads = {}
        for gated in (True, False):
            dp = DecoderParams(layers=layers, gated=gated)

            def loss():
                return float((decode_cached(text, visual, cls, dp)[0] * probe).sum())

            arrays = [text, visual]
            for layer in layers:
                arrays += [layer.wq, layer.wk, layer.wv, layer.wc,
                           layer.w1, layer.b1, layer.w2, layer.b2]
            fd = central_difference(loss, arrays)
            grads, d_text, d_visual = decode_backward(decode_cached(text, visual, cls, dp)[1],
                                                      probe)
            analytic = [d_text, d_visual]
            for g in grads:
                analytic += [g["wq"], g["wk"], g["wv"], g["wc"],
                             g["w1"], g["b1"], g["w2"], g["b2"]]
            assert max(max_rel_err(a, n) for a, n in zip(analytic, fd)) < 1e-4
            assert (np.abs(grads[0]["wc"]).max() > 1e-3) == gated
            wk_grads[gated] = grads[0]["wk"]
        assert max_rel_err(wk_grads[True], wk_grads[False]) > 1e-2


# (B, L, C, C_v, N): odd sizes, the eval-dense geometry, a 384-wide summary
# token, and one item at query geometry, which eval decodes as a run of one
STACKED_SHAPES = [(5, 7, 6, 3, 2), (6, 64, 64, 32, 4), (8, 16, 8, 384, 3), (1, 256, 64, 384, 4)]


class TestStacked:
    """Items stacked along a leading axis give, slice by slice, the bytes of
    separate 2-D calls; eval decodes a run of items in one call on this."""

    @staticmethod
    def problem(B, L, C, Cv, N):
        rng = np.random.default_rng([B, L, C, Cv, N])
        dp = DecoderParams(
            layers=[layer_params(C=C, cls_dim=Cv, rng=rng, identity=False) for _ in range(2)]
        )
        texts = {2: rng.standard_normal((N, C)), 3: rng.standard_normal((B, N, C))}
        visual = rng.standard_normal((B, L, C))
        cls = rng.standard_normal((B, Cv)) / math.sqrt(Cv)
        return dp, texts, visual, cls

    @pytest.mark.parametrize("shape", STACKED_SHAPES)
    def test_cls_mask_slices_equal_separate_calls(self, shape):
        dp, _, K, cls = self.problem(*shape)
        gates = cls_mask(cls, K, dp.layers[0].wc)
        assert gates.shape == K.shape[:2]
        for b in range(len(K)):
            assert gates[b].tobytes() == cls_mask(cls[b], K[b], dp.layers[0].wc).tobytes()

    @pytest.mark.parametrize("shape", STACKED_SHAPES)
    @pytest.mark.parametrize("use_gate", [True, False])
    @pytest.mark.parametrize("text_dims", [2, 3])
    def test_layer_and_decode_slices_equal_separate_calls(self, shape, use_gate, text_dims):
        dp, texts, visual, cls = self.problem(*shape)
        dp = dataclasses.replace(dp, gated=use_gate)
        text = texts[text_dims]
        layer_out, layer_cache = decoder_layer_cached(text, visual, cls, dp.layers[0], use_gate)
        out, _ = decode_cached(text, visual, cls, dp)
        assert out.shape == layer_out.shape == visual.shape[:1] + text.shape[-2:]
        for b in range(len(visual)):
            text_b = text if text_dims == 2 else text[b]
            one, one_cache = decoder_layer_cached(text_b, visual[b], cls[b], dp.layers[0],
                                                  use_gate)
            assert layer_out[b].tobytes() == one.tobytes()
            if use_gate:
                assert layer_cache.gate[b].tobytes() == one_cache.gate.tobytes()
            one, _ = decode_cached(text_b, visual[b], cls[b], dp)
            assert out[b].tobytes() == one.tobytes()


class TestPredict:
    def test_zero_text_gives_half_everywhere(self):
        rng = np.random.default_rng(12)
        visual = rng.standard_normal((4, 5))
        pred = predict_cached(visual, np.zeros((3, 5)), grid=(2, 2), image_size=(6, 6))[0]
        np.testing.assert_array_equal(pred.upsampled, np.full((6, 6, 3), 0.5))

    def test_orthonormal_row_selectivity(self):
        visual = np.eye(4)  # 4 orthonormal patch rows
        text_out = visual[:1]
        pred = predict_cached(visual, text_out, grid=(2, 2), image_size=(2, 2))[0]
        np.testing.assert_allclose(pred.logits[:, :, 0].ravel(), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_corner_pixels_exact_under_align_corners(self):
        # oracle: closed-form bilinear oracle on a 2x2 -> 4x4 upsample
        rng = np.random.default_rng(13)
        visual = rng.standard_normal((4, 3))
        text_out = rng.standard_normal((2, 3))
        pred = predict_cached(visual, text_out, grid=(2, 2), image_size=(4, 4))[0]
        logits_grid = (visual @ text_out.T).reshape(2, 2, 2)
        expected = 1.0 / (1.0 + np.exp(-bilinear_reference(logits_grid, 4, 4)))
        np.testing.assert_allclose(pred.upsampled, expected, atol=1e-12)
        for (r, c), (pr, pc) in [((0, 0), (0, 0)), ((0, 3), (0, 1)),
                                 ((3, 0), (1, 0)), ((3, 3), (1, 1))]:
            want = 1.0 / (1.0 + math.exp(-logits_grid[pr, pc, 0]))
            assert abs(pred.upsampled[r, c, 0] - want) < 1e-15

    def test_argmax_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(14)
        visual = rng.standard_normal((6, 4))
        text_out = rng.standard_normal((3, 4))
        a = predict_cached(visual, text_out, grid=(2, 3), image_size=(4, 6))[0]
        b = predict_cached(3.7 * visual, text_out, grid=(2, 3), image_size=(4, 6))[0]
        np.testing.assert_array_equal(
            a.logits.argmax(axis=-1), b.logits.argmax(axis=-1)
        )

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            predict_cached(np.zeros((4, 2)), np.zeros((1, 2)), grid=(3, 2), image_size=(4, 4))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        visual = rng.standard_normal((4, 3))
        text_out = rng.standard_normal((2, 3))
        probe = rng.standard_normal((5, 7, 2))

        def loss():
            p = predict_cached(visual, text_out, grid=(2, 2), image_size=(5, 7))[0]
            return float((p.logits * probe).sum())

        fd = central_difference(loss, [visual, text_out])
        _, cache = predict_cached(visual, text_out, (2, 2), (5, 7))
        d_vis, d_txt = predict_backward(cache, probe)
        assert max_rel_err(d_vis, fd[0]) < 1e-4
        assert max_rel_err(d_txt, fd[1]) < 1e-4


@pytest.mark.parametrize("h, H", [(8, 64), (16, 224)])
@pytest.mark.parametrize("N", [1, 4])
def test_upsampling_bitwise_equal_to_einsum(h, H, N):
    # at the gen-synth and benchmark geometry the two matmuls are the ones
    # np.einsum(optimize=True) picks, so bytes and strides match
    rng = np.random.default_rng(h + N)
    grid = rng.standard_normal((h, h, N))
    d_c = rng.standard_normal((H, H, N))
    d_channels = np.ascontiguousarray(d_c.transpose(2, 0, 1)).transpose(1, 2, 0)
    U = resample.bilinear_matrix(h, H)
    up = np.einsum("ak,kcn,bc->abn", U, grid, U, optimize=True)
    got = resample.upsample_bilinear(grid, (H, H))
    assert got.strides == up.strides and got.tobytes() == up.tobytes()
    for d_out in (d_c, d_channels):
        adj = np.einsum("ak,abn,bc->kcn", U, d_out, U, optimize=True)
        got = resample.upsample_bilinear_adjoint(d_out, (h, h))
        assert got.strides == adj.strides and got.tobytes() == adj.tobytes()


@pytest.mark.parametrize("n_src, n_dst", [(8, 64), (1, 5), (5, 1)])
def test_cached_resampling_tables_are_read_only(n_src, n_dst):
    # one shared array per size pair: a write would change every later upsampling
    grid = np.ones((n_src, n_src, 1))
    before = resample.upsample_bilinear(grid, (n_dst, n_dst))
    for table in (resample.bilinear_matrix(n_src, n_dst), resample.nearest_index(n_src, n_dst)):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 7
    after = resample.upsample_bilinear(grid, (n_dst, n_dst))
    assert after.tobytes() == before.tobytes() and (after == 1.0).all()


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 16), w=st.integers(1, 16), H=st.integers(1, 64), W=st.integers(1, 64),
       N=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
@example(h=4, w=4, H=16, W=16, N=4, seed=0)  # einsum would take another path here
@example(h=3, w=3, H=30, W=30, N=17, seed=0)
def test_upsampling_matches_scalar_reference_and_its_adjoint(h, w, H, W, N, seed):
    # off the gen-synth and benchmark geometry the fixed plan may round
    # differently from einsum, so it is held to the scalar reference within
    # 1e-13 of the largest input, and to the adjoint identity <U g, d> = <g, U^T d>
    # within 1e-14 of sum |U g| |d|
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((h, w, N))
    d_out = rng.standard_normal((H, W, N))
    up = resample.upsample_bilinear(grid, (H, W))
    assert up.shape == (H, W, N)
    np.testing.assert_allclose(up, bilinear_reference(grid, H, W), rtol=0,
                               atol=1e-13 * np.abs(grid).max())
    adj = resample.upsample_bilinear_adjoint(d_out, (h, w))
    assert adj.shape == (h, w, N)
    scale = (np.abs(up) * np.abs(d_out)).sum()
    assert abs((up * d_out).sum() - (grid * adj).sum()) <= 1e-14 * scale


def test_init_decoder_shapes():
    dp = init_model(TrainConfig(seed=0, p=0, j=0, t=2, C=8, C_t=1), 12).dp
    assert len(dp.layers) == 2
    assert dp.layers[0].wc.shape == (12, 8)
    assert dp.layers[0].w1.shape == (8, 32)
