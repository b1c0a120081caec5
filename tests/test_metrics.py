import json

import numpy as np
import pytest

from craftlora.exceptions import EmptySet, GridIncomplete
from craftlora.metrics import (
    EvalReport,
    ImageFeatureExtractor,
    content_preservation,
    cross_influence,
    random_pair_distance,
    separation_score,
    sigma_sweep,
    style_fidelity,
    write_report,
)
from craftlora.pairs import content_render, style_render
from craftlora.utils import make_rng

PAPER_SIGMAS = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


@pytest.fixture(scope="module")
def extractor():
    return ImageFeatureExtractor(seed=0)


class TestFeatureExtractor:
    def test_unit_norm(self, extractor):
        rng = make_rng(0)
        feats = extractor.transform(rng.random((5, 16, 16)))
        assert feats.shape == (5, 128)
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0)

    def test_zero_image_zero_vector(self, extractor):
        assert np.array_equal(extractor.transform(np.zeros((16, 16))), np.zeros(128))

    def test_deterministic_given_seed(self):
        img = make_rng(1).random((16, 16))
        a = ImageFeatureExtractor(seed=7).transform(img)
        b = ImageFeatureExtractor(seed=7).transform(img)
        c = ImageFeatureExtractor(seed=8).transform(img)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)


class TestContentPreservation:
    def test_self_similarity_is_one(self, extractor):
        ref = content_render(0)
        assert content_preservation(extractor, [ref], ref) == pytest.approx(1.0)

    def test_orthogonal_features_give_zero(self):
        class AxisExtractor(ImageFeatureExtractor):
            def transform(self, images):
                img = np.asarray(images)
                vec = np.zeros(4)
                vec[int(img.flat[0])] = 1.0
                return vec

        ex = AxisExtractor()
        base = np.zeros((2, 2))
        other = np.zeros((2, 2))
        other[0, 0] = 1.0
        assert content_preservation(ex, [other], base) == pytest.approx(0.0)

    def test_noise_robustness(self, extractor):
        ref = content_render(2)
        rng = make_rng(2)
        noisy = [np.clip(ref + 0.01 * rng.standard_normal(ref.shape), 0, 1) for _ in range(10)]
        assert content_preservation(extractor, noisy, ref) > 0.9

    def test_empty_set_rejected(self, extractor):
        with pytest.raises(EmptySet):
            content_preservation(extractor, [], content_render(0))

    def test_permutation_invariant(self, extractor):
        rng = make_rng(3)
        images = [rng.random((16, 16)) for _ in range(6)]
        ref = content_render(1)
        forward = content_preservation(extractor, images, ref)
        backward = content_preservation(extractor, images[::-1], ref)
        assert forward == backward


class TestStyleFidelity:
    def test_reference_against_itself(self, extractor):
        ref = style_render(0)
        assert style_fidelity(extractor, [ref], ref) == pytest.approx(1.0)

    def test_constant_images_error(self, extractor):
        flat = np.full((16, 16), 0.5)
        with pytest.raises(EmptySet):
            style_fidelity(extractor, [flat], flat)

    def test_matched_style_beats_mismatched(self, extractor):
        # three contents dressed in style 0 vs style 5; similarity is
        # measured against style 0's residual channel
        sigma = 0.35
        ref = style_render(0)
        matched = [
            np.clip(0.6 * content_render(i) + 0.4 * style_render(0), 0, 1) for i in range(3)
        ]
        mismatched = [
            np.clip(0.6 * content_render(i) + 0.4 * style_render(5), 0, 1) for i in range(3)
        ]
        s_match = style_fidelity(extractor, matched, ref, sigma=sigma)
        s_mismatch = style_fidelity(extractor, mismatched, ref, sigma=sigma)
        assert s_match > s_mismatch


class TestCrossInfluence:
    def test_identical_grid_scores_zero(self, extractor):
        img = content_render(0)
        grid = [[img, img, img], [img, img, img]]
        assert cross_influence(extractor, grid) == 0.0

    def test_random_grid_near_ceiling(self, extractor):
        rng = make_rng(4)
        grid = [[rng.random((16, 16)) for _ in range(4)] for _ in range(4)]
        assert cross_influence(extractor, grid) > 0.9

    def test_incomplete_grid_rejected(self, extractor):
        img = content_render(0)
        with pytest.raises(GridIncomplete):
            cross_influence(extractor, [[img, img], [img]])
        with pytest.raises(GridIncomplete):
            cross_influence(extractor, [[img, None], [img, img]])
        with pytest.raises(GridIncomplete):
            cross_influence(extractor, [[img], [img]])

    def test_calibration_deterministic(self, extractor):
        a = random_pair_distance(extractor, 16, 16)
        b = random_pair_distance(extractor, 16, 16)
        assert a == b


class TestSeparationScore:
    def test_identical_components_zero(self, extractor):
        img = content_render(3)
        assert separation_score([(img, img)], extractor) == pytest.approx(0.0)

    def test_orthogonal_components_one(self):
        class AxisExtractor(ImageFeatureExtractor):
            def transform(self, images):
                img = np.asarray(images)
                vec = np.zeros(4)
                vec[int(img.flat[0])] = 1.0
                return vec

        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, 0] = 1.0
        assert separation_score([(a, b)], AxisExtractor()) == pytest.approx(1.0)

    def test_empty_rejected(self, extractor):
        with pytest.raises(EmptySet):
            separation_score([], extractor)

    def test_sigma_sweep_emits_ranked_table(self, extractor):
        rng = make_rng(5)
        images = [
            np.clip(0.5 * content_render(i) + 0.5 * style_render(i), 0, 1)
            for i in range(5)
        ]
        table = sigma_sweep(images, PAPER_SIGMAS, extractor)
        assert len(table) == len(PAPER_SIGMAS)
        scores = [score for _, score in table]
        assert scores == sorted(scores, reverse=True)
        assert {sigma for sigma, _ in table} == set(PAPER_SIGMAS)
        # the winner is recorded, not asserted: just make sure it is one of
        # the swept values and the run is reproducible
        again = sigma_sweep(images, PAPER_SIGMAS, extractor)
        assert table == again


class TestEvalReport:
    def test_json_keys_and_roundtrip(self, tmp_path):
        report = EvalReport(s_c=0.5, s_s=0.25, s_x=0.1, pairs=[{"i": 0}], seed=3, config_hash="ab")
        path = tmp_path / "report.json"
        write_report(path, report)
        doc = json.loads(path.read_text())
        assert set(doc) == {"s_c", "s_s", "s_x", "pairs", "seed", "config_hash"}
        assert doc["s_c"] == 0.5 and doc["seed"] == 3
