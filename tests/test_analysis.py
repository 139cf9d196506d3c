"""PCA, similarity maps, and PPM rendering."""

import numpy as np
import pytest

from affseg import synth
from affseg.analysis import COLORMAP_ANCHORS, pca_project, render_heatmap, similarity_map
from affseg.features import FeatureStack
from affseg.synth import part_map, synth_vision_encode
from tests.oracles import colormap_reference


class TestPca:
    def test_rank_one_data(self):
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(6)
        X = np.outer(rng.standard_normal(40), direction)
        result = pca_project(X, k=1)
        assert result.explained_variance[0] / result.total_variance >= 1.0 - 1e-9

    def test_isotropic_gaussian_components_balanced(self):
        # oracle: statistical oracle: 10k isotropic 2-d samples give two
        # nearly equal explained variances
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10_000, 2))
        result = pca_project(X, k=2)
        ev = result.explained_variance
        assert ev[0] >= ev[1]
        assert ev[1] / ev[0] > 0.95

    def test_exact_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        basis = np.linalg.qr(rng.standard_normal((7, 3)))[0].T  # 3 x 7
        X = rng.standard_normal((30, 3)) @ basis
        result = pca_project(X, k=3)
        recon = result.scores @ result.components + X.mean(axis=0)
        assert np.abs(recon - X).max() <= 1e-8

    def test_variances_nonincreasing_nonnegative(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 8)) * np.array([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
        result = pca_project(X, k=4)
        ev = result.explained_variance
        assert (np.diff(ev) <= 1e-12).all()
        assert (ev >= 0).all()

    def test_row_permutation_consistency(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 5)) @ np.diag([3, 2, 1, 0.5, 0.1])
        perm = rng.permutation(20)
        a = pca_project(X, k=2)
        b = pca_project(X[perm], k=2)
        # undo the permutation; scores agree up to per-component sign
        unpermuted = np.empty_like(b.scores)
        unpermuted[perm] = b.scores
        for c in range(2):
            col = unpermuted[:, c]
            ref = a.scores[:, c]
            assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) < 1e-8

    def test_near_tied_top_eigenvalues(self):
        # oracle: rows built so the sample covariance has exactly the spectrum
        # below in a random basis; the top two eigenvalues are 1e-4 apart
        rng = np.random.default_rng(5)
        spectrum = np.array([1.0, 0.9999, 0.5, 0.3, 0.2, 0.1])
        Z = rng.standard_normal((40, 6))
        Z = np.linalg.qr(Z - Z.mean(axis=0))[0] * np.sqrt(39)  # centered, Z.T Z / 39 = I
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        X = Z * np.sqrt(spectrum) @ basis.T
        result = pca_project(X, k=1)
        cov = np.cov(X, rowvar=False)
        np.testing.assert_allclose(result.components @ cov @ result.components.T,
                                   np.diag(result.explained_variance), rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.explained_variance, spectrum[:1], rtol=0, atol=1e-12)

    def test_k_bounds(self):
        X = np.zeros((3, 4))
        with pytest.raises(ValueError):
            pca_project(X, k=3)
        with pytest.raises(ValueError):
            pca_project(X, k=0)


class TestSimilarityMap:
    def make_stack(self, rng, L=6, dim=4):
        return FeatureStack(
            layers=(rng.standard_normal((L, dim)),),
            cls=rng.standard_normal(dim),
            grid=(2, 3),
            image_size=(4, 6),
        )

    def test_self_similarity(self):
        rng = np.random.default_rng(5)
        stack = self.make_stack(rng)
        query = stack.last[3]
        out = similarity_map(query, stack)
        assert abs(out.reshape(-1)[3] - 1.0) < 1e-12
        assert out.shape == (2, 3)
        assert (out >= -1 - 1e-12).all() and (out <= 1 + 1e-12).all()

    def test_orthogonal_query(self):
        feats = np.zeros((4, 3))
        feats[:, 0] = [1, 2, 3, 4]
        stack = FeatureStack(layers=(feats,), cls=np.zeros(3), grid=(2, 2), image_size=(4, 4))
        out = similarity_map(np.array([0.0, 1.0, 0.0]), stack)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_query_scale_invariance(self):
        rng = np.random.default_rng(6)
        stack = self.make_stack(rng)
        q = rng.standard_normal(4)
        np.testing.assert_allclose(
            similarity_map(q, stack), similarity_map(4.2 * q, stack), atol=1e-12
        )

    def test_zero_query_rejected(self):
        stack = self.make_stack(np.random.default_rng(7))
        with pytest.raises(ValueError):
            similarity_map(np.zeros(4), stack)

    def test_zero_patch_warns_and_scores_zero(self):
        feats = np.ones((4, 3))
        feats[2] = 0.0
        stack = FeatureStack(layers=(feats,), cls=np.zeros(3), grid=(2, 2), image_size=(4, 4))
        with pytest.warns(UserWarning, match="zero-norm"):
            out = similarity_map(np.ones(3), stack)
        assert out.reshape(-1)[2] == 0.0

    def test_planted_parts_correspond_across_objects(self):
        # oracle: computed on generated features: a part patch of object A
        # lights up the same part on object B well above B's background
        world = synth.make_world(seed=11, num_base=8, num_novel=2, num_parts=4)
        pairs = [
            (a, b, (pa & pb).pop())
            for a in world.objects
            for b in world.objects
            if a.object_id < b.object_id
            for pa in [{p.part for p in a.placements}]
            for pb in [{p.part for p in b.placements}]
            if pa & pb
        ]
        obj_a, obj_b, part = pairs[0]
        stack_a = synth_vision_encode(world, obj_a.object_id, 0.05)
        stack_b = synth_vision_encode(world, obj_b.object_id, 0.05)
        lab_a = part_map(world, obj_a.object_id).reshape(-1)
        lab_b = part_map(world, obj_b.object_id)
        query = stack_a.last[np.nonzero(lab_a == part)[0][0]]
        smap = similarity_map(query, stack_b)
        on_part = smap[lab_b == part].mean()
        on_background = smap[lab_b < 0].mean()
        assert on_part - on_background >= 0.3


class TestRenderHeatmap:
    def test_constant_map_single_color(self, tmp_path):
        path = tmp_path / "c.ppm"
        render_heatmap(np.full((3, 4), 2.5), path)
        raw = path.read_bytes()
        header, pixels = raw.split(b"255\n", 1)
        assert header == b"P6\n4 3\n"
        assert len(pixels) == 3 * 4 * 3
        first = pixels[:3]
        assert pixels == first * 12
        assert first == bytes(COLORMAP_ANCHORS[0][1])

    def test_bit_deterministic(self, tmp_path):
        rng = np.random.default_rng(8)
        m = rng.random((5, 7))
        render_heatmap(m, tmp_path / "a.ppm")
        render_heatmap(m, tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_hand_evaluated_colormap(self, tmp_path):
        # oracle: 2x2 values min-max normalize to (0, 1/3, 2/3, 1); the
        # oracle evaluates the anchor interpolation per pixel
        m = np.array([[0.0, 1.0], [2.0, 3.0]]) / 3.0
        path = tmp_path / "m.ppm"
        render_heatmap(m, path)
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        expected = b""
        for v in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            expected += bytes(colormap_reference(v, COLORMAP_ANCHORS))
        assert pixels == expected

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_heatmap(np.array([[np.nan, 1.0]]), tmp_path / "x.ppm")
