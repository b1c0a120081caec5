import json
import math
import tracemalloc

import numpy as np
import pytest

from craftlora.exceptions import EmptySet, GridIncomplete, ShapeMismatch
from craftlora.frequency import gaussian_lowpass
from craftlora.metrics import (
    CALIBRATION_DRAWS,
    EvalReport,
    ImageFeatureExtractor,
    content_preservation,
    cross_influence,
    random_pair_distance,
    style_fidelity,
    write_report,
)
from craftlora.pairs import content_render, style_render
from craftlora.utils import make_rng

SIGMA = 0.35


def one_stack_ceiling(extractor, height, width, sigma):
    """The calibration ceiling with all its images drawn and scored as one stack."""
    rng = make_rng(extractor.seed, "cross-influence-calibration", height, width, sigma)
    images = rng.random((2 * CALIBRATION_DRAWS, height, width))
    feats = extractor.transform(gaussian_lowpass(images, sigma))
    return math.fsum(np.linalg.norm(feats[0::2] - feats[1::2], axis=1)) / CALIBRATION_DRAWS


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

    def test_neither_image_nor_stack_is_shape_mismatch(self, extractor):
        ragged = [np.zeros((4, 4)), np.zeros((3, 4))]
        for bad in (np.zeros(16), np.zeros((2, 2, 4, 4)), np.zeros((0, 4, 4)), ragged):
            with pytest.raises(ShapeMismatch):
                extractor.transform(bad)
        with pytest.raises(ShapeMismatch):
            content_preservation(extractor, ragged, np.zeros((4, 4)))

    def test_deterministic_given_seed(self):
        img = make_rng(1).random((16, 16))
        a = ImageFeatureExtractor(seed=7).transform(img)
        b = ImageFeatureExtractor(seed=7).transform(img)
        c = ImageFeatureExtractor(seed=8).transform(img)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_stack_matches_single_images(self, extractor):
        # one matrix product over the stack against one image at a time
        images = make_rng(5).random((7, 16, 16))
        images[3] = 0.0
        feats = extractor.transform(images)
        single = np.stack([extractor.transform(img) for img in images])
        assert feats.shape == (7, 128)
        assert np.abs(feats - single).max() <= 1e-15
        assert not feats[3].any()

    def test_row_permutation_permutes_features(self, extractor):
        images = make_rng(6).random((9, 16, 16))
        perm = make_rng(7).permutation(9)
        feats = extractor.transform(images)
        assert extractor.transform(images[perm]).tobytes() == feats[perm].tobytes()


class TestContentPreservation:
    def test_self_similarity_is_one(self, extractor):
        ref = content_render(0)
        assert content_preservation(extractor, [ref], ref) == pytest.approx(1.0)

    def test_orthogonal_features_give_zero(self):
        class AxisExtractor(ImageFeatureExtractor):
            def transform(self, images):
                # one-hot on the first pixel of each image of the stack
                return np.eye(4)[np.asarray(images)[:, 0, 0].astype(int)]

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

    @pytest.mark.parametrize("score", ["s_c", "s_s", "s_x"])
    def test_permutation_invariant(self, extractor, score):
        # reordering the generated images, or the rows and the columns of a
        # grid, leaves every score byte-identical
        rng = make_rng(3)
        images = [
            np.clip(0.7 * content_render(k % 3) + 0.3 * rng.random((16, 16)), 0, 1)
            for k in range(12)
        ]
        if score == "s_x":
            grid = [images[4 * i:4 * i + 4] for i in range(3)]
            forward = cross_influence(extractor, grid, sigma=SIGMA)
            assert 0.0 < forward < 1.0
            for _ in range(8):
                rows, cols = rng.permutation(3), rng.permutation(4)
                permuted = [[grid[i][j] for j in cols] for i in rows]
                assert cross_influence(extractor, permuted, sigma=SIGMA) == forward
            return

        def measure(imgs):
            if score == "s_c":
                return content_preservation(extractor, imgs, content_render(1))
            return style_fidelity(extractor, imgs, style_render(1), sigma=SIGMA)

        forward = measure(images)
        for _ in range(8):
            assert measure([images[k] for k in rng.permutation(12)]) == forward


class TestStyleFidelity:
    def test_reference_against_itself(self, extractor):
        ref = style_render(0)
        assert style_fidelity(extractor, [ref], ref, sigma=SIGMA) == pytest.approx(1.0)

    def test_constant_images_error(self, extractor):
        flat = np.full((16, 16), 0.5)
        with pytest.raises(EmptySet):
            style_fidelity(extractor, [flat], flat, sigma=SIGMA)

    def test_matched_style_beats_mismatched(self, extractor):
        # three contents dressed in style 0 vs style 5; similarity is
        # measured against style 0's residual channel
        ref = style_render(0)
        matched = [
            np.clip(0.6 * content_render(i) + 0.4 * style_render(0), 0, 1) for i in range(3)
        ]
        mismatched = [
            np.clip(0.6 * content_render(i) + 0.4 * style_render(5), 0, 1) for i in range(3)
        ]
        s_match = style_fidelity(extractor, matched, ref, sigma=SIGMA)
        s_mismatch = style_fidelity(extractor, mismatched, ref, sigma=SIGMA)
        assert s_match > s_mismatch


class TestCrossInfluence:
    def test_identical_grid_scores_zero(self, extractor):
        img = content_render(0)
        grid = [[img, img, img], [img, img, img]]
        assert cross_influence(extractor, grid, sigma=SIGMA) == 0.0

    def test_random_grid_near_ceiling(self, extractor):
        rng = make_rng(4)
        grid = [[rng.random((16, 16)) for _ in range(4)] for _ in range(4)]
        assert cross_influence(extractor, grid, sigma=SIGMA) > 0.9

    def test_incomplete_grid_rejected(self, extractor):
        img = content_render(0)
        with pytest.raises(GridIncomplete):
            cross_influence(extractor, [[img, img], [img]], sigma=SIGMA)
        with pytest.raises(GridIncomplete):
            cross_influence(extractor, [[img, None], [img, img]], sigma=SIGMA)
        with pytest.raises(GridIncomplete):
            cross_influence(extractor, [[img], [img]], sigma=SIGMA)

    def test_calibration_deterministic(self, extractor):
        a = random_pair_distance(extractor, 16, 16, sigma=SIGMA)
        b = random_pair_distance(extractor, 16, 16, sigma=SIGMA)
        assert a == b

    @pytest.mark.parametrize("sigma", [SIGMA, 0.6])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_calibration_blocks_match_one_stack(self, seed, sigma):
        extractor = ImageFeatureExtractor(seed=seed)
        assert random_pair_distance(extractor, 16, 16, sigma) == one_stack_ceiling(
            extractor, 16, 16, sigma
        )

    def test_calibration_working_set_is_bounded(self):
        # one stack of all 400 images peaked at 3.3 MB; the projection is
        # the extractor's cached constant, built before the measurement
        extractor = ImageFeatureExtractor(seed=3)
        extractor.transform(np.zeros((16, 16)))
        tracemalloc.start()
        try:
            random_pair_distance(extractor, 16, 16, sigma=SIGMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestEvalReport:
    def test_json_keys_and_roundtrip(self, tmp_path):
        report = EvalReport(
            s_c=0.5, s_s=0.25, s_x=0.1, content_rows=[("a disc", 0.5)],
            style_columns=[("stripes", 0.2), ("checks", 0.3)], seed=3, config_hash="ab",
        )
        path = tmp_path / "report.json"
        write_report(path, report)
        doc = json.loads(path.read_text())
        assert set(doc) == {"s_c", "s_s", "s_x", "pairs", "seed", "config_hash"}
        assert doc["s_c"] == 0.5 and doc["seed"] == 3
        assert [(p["style_prompt"], p["style_similarity"]) for p in doc["pairs"]] == [
            ("stripes", 0.2), ("checks", 0.3)
        ]

    def test_json_matches_the_per_cell_construction(self):
        # the report once held one dict per cell; to_json builds the same
        # list from the row and column scores, byte for byte
        rng = make_rng(40)
        content_scores = rng.random(4).tolist()
        style_scores = rng.random(3).tolist()
        content_prompts = [f"content {i}" for i in range(4)]
        style_prompts = [f"style {j}" for j in range(3)]
        per_cell = {
            "s_c": 0.5,
            "s_s": 0.25,
            "s_x": 0.125,
            "pairs": [
                {
                    "content_index": i,
                    "style_index": j,
                    "content_prompt": content_prompts[i],
                    "style_prompt": style_prompts[j],
                    "content_similarity": content_scores[i],
                    "style_similarity": style_scores[j],
                }
                for i in range(4)
                for j in range(3)
            ],
            "seed": 7,
            "config_hash": "cd",
        }
        report = EvalReport(
            s_c=0.5,
            s_s=0.25,
            s_x=0.125,
            content_rows=list(zip(content_prompts, content_scores)),
            style_columns=list(zip(style_prompts, style_scores)),
            seed=7,
            config_hash="cd",
        )
        assert report.to_json() == json.dumps(per_cell, sort_keys=True, indent=2) + "\n"

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        from craftlora import checkpoint

        path = tmp_path / "report.json"
        write_report(path, EvalReport(s_c=0.5, s_s=0.25, s_x=0.1, seed=3))
        good = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(checkpoint.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            write_report(path, EvalReport(s_c=0.9, s_s=0.9, s_x=0.9, seed=4))
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
