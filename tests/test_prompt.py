"""Context-vector prompt learning and the frozen text projection."""

import hashlib

import numpy as np
import pytest

from affseg.features import synth_text_tokens
from affseg.prompt import (
    StubTextEncoder,
    encode_texts_cached,
    encode_texts_backward,
)
from affseg.training import TrainConfig, init_model
from tests.oracles import central_difference, max_rel_err


def init_context(p, C_t, seed):
    """The initial p x C_t context of a model: the context alone, no other layer."""
    return init_model(TrainConfig(seed=seed, p=p, j=0, t=0, C=1, C_t=C_t), 1).ctx


def pipeline(num_classes=4, p=3, C_t=16, C=8, seed=2):
    tokens = synth_text_tokens([f"aff{i}" for i in range(num_classes)], C_t, seed)
    enc = StubTextEncoder.create(C_t, C, seed)
    ctx = init_context(p, C_t, seed)
    return ctx, tokens, enc


class TestInitContext:
    def test_paper_shape(self):
        # p = 8 learnable tokens is the configuration default
        ctx = init_model(TrainConfig(), 32).ctx
        assert ctx.shape == (8, 64)

    def test_deterministic(self):
        a = init_context(4, 32, seed=9)
        b = init_context(4, 32, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_near_zero(self):
        # oracle: statistical check: mean of 8x512 N(0, 0.02^2) draws
        ctx = init_context(8, 512, seed=1)
        assert -0.01 < ctx.mean() < 0.01
        assert 0.015 < ctx.std() < 0.025

    def test_negative_count_rejected(self):
        assert init_context(0, 8, seed=0).shape == (0, 8)
        with pytest.raises(ValueError, match="p must be >= 0"):
            TrainConfig(p=-1)


class TestEncodeTexts:
    def test_context_equal_to_token_collapses_to_token(self):
        # p=1 with v_1 = token_i: pooling returns the token itself
        tokens = synth_text_tokens(["grasp"], 8, seed=4)
        enc = StubTextEncoder.create(8, 6, seed=4)
        ctx = tokens.copy()
        out = encode_texts_cached(ctx, tokens, enc)[0]
        h = tokens[0] @ enc.proj
        expected = (h - h.mean()) / np.sqrt(((h - h.mean()) ** 2).mean() + 1e-12)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_rows_standardized(self):
        ctx, tokens, enc = pipeline()
        out = encode_texts_cached(ctx, tokens, enc)[0]
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-8)

    def test_class_permutation_equivariance(self):
        ctx, tokens, enc = pipeline(num_classes=5)
        out = encode_texts_cached(ctx, tokens, enc)[0]
        perm = [3, 0, 4, 1, 2]
        out_perm = encode_texts_cached(ctx, tokens[perm], enc)[0]
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_dim_mismatch(self):
        ctx, tokens, _ = pipeline()
        bad_enc = StubTextEncoder.create(tokens.shape[1] + 1, 8, seed=0)
        with pytest.raises(ValueError):
            encode_texts_cached(ctx, tokens, bad_enc)

    @pytest.mark.parametrize("shape", [(16,), (2, 4, 16)])
    def test_tokens_not_2d_rejected(self, shape):
        ctx, _, enc = pipeline()
        with pytest.raises(ValueError, match="N x C_t array"):
            encode_texts_cached(ctx, np.zeros(shape), enc)

    @pytest.mark.parametrize("shape", [(16,), (1, 2, 16)])
    def test_context_not_2d_rejected(self, shape):
        _, tokens, enc = pipeline()
        with pytest.raises(ValueError, match="^context must be a p x C_t array"):
            encode_texts_cached(np.zeros(shape), tokens, enc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_context_raises_at_first_use(self, bad):
        # nothing checks the context before it is encoded: the variance check refuses it
        ctx, tokens, enc = pipeline()
        ctx[1, 2] = bad
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ArithmeticError, match="non-finite layer-norm variance"):
            encode_texts_cached(ctx, tokens, enc)

    def test_gradient_matches_finite_differences(self):
        # oracle: finite-difference oracle over a scalar readout
        ctx, tokens, enc = pipeline()
        rng = np.random.default_rng(0)
        probe = rng.standard_normal((tokens.shape[0], enc.proj.shape[1]))

        def loss():
            return float((encode_texts_cached(ctx, tokens, enc)[0] * probe).sum())

        (fd,) = central_difference(loss, [ctx])
        out, cache = encode_texts_cached(ctx, tokens, enc)
        analytic = encode_texts_backward(cache, probe)
        assert max_rel_err(analytic, fd) < 1e-4

    def test_context_gradient_rows_identical(self):
        # design fact: each context vector enters every class row as 1/(p+1)
        # of the pooled token, so all p rows get the same gradient and only
        # their sum affects the output
        ctx, tokens, enc = pipeline(p=5)
        probe = np.random.default_rng(1).standard_normal((tokens.shape[0], enc.proj.shape[1]))
        _, cache = encode_texts_cached(ctx, tokens, enc)
        grad = encode_texts_backward(cache, probe)
        assert grad.shape == (5, tokens.shape[1])
        np.testing.assert_array_equal(grad, np.broadcast_to(grad[0], grad.shape))
        # with one context vector the row is d_pooled.sum(0) / 2, exact to undo
        (half_sum,) = encode_texts_backward(cache._replace(count=1), probe)
        np.testing.assert_array_equal(grad[0], (2.0 * half_sum) / 6)

    def test_overflowing_variance_raises(self):
        # every pooled value stays finite, but the layer-norm variance
        # overflows; normalized by it, every prompt would be all zeros
        ctx, tokens, enc = pipeline(p=2, C_t=16)
        ctx[0, 0] = -3e306
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ArithmeticError, match="non-finite layer-norm variance"):
            encode_texts_cached(ctx, tokens, enc)

    def test_no_context_variant(self):
        # p = 0 encodes the class tokens alone, bitwise
        ctx, tokens, enc = pipeline(p=0)
        out, cache = encode_texts_cached(ctx, tokens, enc)
        assert cache.count == 0
        h = tokens @ enc.proj
        mu = h.mean(axis=1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
        assert out.tobytes() == ((h - mu) * (1.0 / np.sqrt(var + 1e-12))).tobytes()
        assert encode_texts_backward(cache, np.ones_like(out)).shape == (0, tokens.shape[1])


def test_projection_frozen_during_use():
    ctx, tokens, enc = pipeline()
    digest = hashlib.sha256(enc.proj.tobytes()).hexdigest()
    for _ in range(3):
        encode_texts_cached(ctx, tokens, enc)
    assert hashlib.sha256(enc.proj.tobytes()).hexdigest() == digest
    with pytest.raises(ValueError):
        enc.proj[0, 0] = 1.0
