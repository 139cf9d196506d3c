"""Context-vector prompt learning and the frozen text projection."""

import hashlib

import numpy as np
import pytest

from affseg.features import synth_text_tokens
from affseg.prompt import (
    ContextVectors,
    StubTextEncoder,
    encode_texts,
    encode_texts_cached,
    encode_texts_backward,
    init_context,
)
from tests.oracles import central_difference, max_rel_err


def pipeline(num_classes=4, p=3, C_t=16, C=8, seed=2):
    table = synth_text_tokens([f"aff{i}" for i in range(num_classes)], C_t, seed)
    enc = StubTextEncoder.create(C_t, C, seed)
    ctx = init_context(p, C_t, seed)
    return ctx, table, enc


class TestInitContext:
    def test_paper_shape(self):
        # p = 8 learnable tokens is the configuration default
        ctx = init_context(8, 64, seed=0)
        assert ctx.vectors.shape == (8, 64)

    def test_deterministic(self):
        a = init_context(4, 32, seed=9)
        b = init_context(4, 32, seed=9)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_sample_mean_near_zero(self):
        # oracle: statistical check: mean of 8x512 N(0, 0.02^2) draws
        ctx = init_context(8, 512, seed=1)
        assert -0.01 < ctx.vectors.mean() < 0.01
        assert 0.015 < ctx.vectors.std() < 0.025

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            init_context(0, 8, seed=0)


class TestEncodeTexts:
    def test_context_equal_to_token_collapses_to_token(self):
        # p=1 with v_1 = token_i: pooling returns the token itself
        table = synth_text_tokens(["grasp"], 8, seed=4)
        enc = StubTextEncoder.create(8, 6, seed=4)
        ctx = ContextVectors(vectors=table.tokens.copy())
        out = encode_texts(ctx, table, enc)
        h = table.tokens[0] @ enc.proj
        expected = (h - h.mean()) / np.sqrt(((h - h.mean()) ** 2).mean() + 1e-12)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_rows_standardized(self):
        ctx, table, enc = pipeline()
        out = encode_texts(ctx, table, enc)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-8)

    def test_class_permutation_equivariance(self):
        ctx, table, enc = pipeline(num_classes=5)
        out = encode_texts(ctx, table, enc)
        perm = [3, 0, 4, 1, 2]
        from affseg.features import ClassTokenTable

        shuffled = ClassTokenTable(
            names=tuple(table.names[i] for i in perm), tokens=table.tokens[perm]
        )
        out_perm = encode_texts(ctx, shuffled, enc)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_dim_mismatch(self):
        ctx, table, _ = pipeline()
        bad_enc = StubTextEncoder.create(table.token_dim + 1, 8, seed=0)
        with pytest.raises(ValueError):
            encode_texts(ctx, table, bad_enc)

    def test_gradient_matches_finite_differences(self):
        # oracle: finite-difference oracle over a scalar readout
        ctx, table, enc = pipeline()
        rng = np.random.default_rng(0)
        probe = rng.standard_normal((table.num_classes, enc.embed_dim))

        def loss():
            return float((encode_texts(ctx, table, enc) * probe).sum())

        (fd,) = central_difference(loss, [ctx.vectors])
        out, cache = encode_texts_cached(ctx, table, enc)
        analytic = encode_texts_backward(cache, probe)
        assert max_rel_err(analytic, fd) < 1e-4

    def test_context_gradient_rows_identical(self):
        # design fact: each context vector enters every class row as 1/(p+1)
        # of the pooled token, so all p rows get the same gradient and only
        # their sum affects the output
        ctx, table, enc = pipeline(p=5)
        probe = np.random.default_rng(1).standard_normal((table.num_classes, enc.embed_dim))
        _, cache = encode_texts_cached(ctx, table, enc)
        grad = encode_texts_backward(cache, probe)
        assert grad.shape == (5, table.token_dim)
        np.testing.assert_array_equal(grad, np.broadcast_to(grad[0], grad.shape))
        # with one context vector the row is d_pooled.sum(0) / 2, exact to undo
        (half_sum,) = encode_texts_backward(cache._replace(count=1), probe)
        np.testing.assert_array_equal(grad[0], (2.0 * half_sum) / 6)

    def test_no_context_variant(self):
        _, table, enc = pipeline()
        out, cache = encode_texts_cached(None, table, enc)
        assert cache.count == 0
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-8)
        assert encode_texts_backward(cache, np.ones_like(out)).shape == (0, table.token_dim)


def test_projection_frozen_during_use():
    ctx, table, enc = pipeline()
    digest = hashlib.sha256(enc.proj.tobytes()).hexdigest()
    for _ in range(3):
        encode_texts(ctx, table, enc)
    assert hashlib.sha256(enc.proj.tobytes()).hexdigest() == digest
    with pytest.raises(ValueError):
        enc.proj[0, 0] = 1.0
