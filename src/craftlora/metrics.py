"""Disentanglement metrics over a fixed toy feature space.

A seed-initialized random projection with a pointwise nonlinearity stands in
for a pretrained image encoder; every score here is directional or
self-relative, never an absolute quality claim. Content similarity runs on
whole images, style similarity on high-frequency residuals, and
cross-influence measures how much low-frequency (content-channel) features
drift when only the style prompt changes.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EmptySet, GridIncomplete
from .frequency import gaussian_lowpass, style_residual
from .utils import make_rng
from .validation import as_image

CALIBRATION_DRAWS = 200


class ImageFeatureExtractor:
    """Fixed projection from images to unit-normalized 128-dim features.

    ``transform`` accepts a single (H, W) image or a stack (n, H, W). Zero
    images map to the zero vector, which the metrics exclude from
    similarities. Deterministic given the seed.
    """

    def __init__(self, n_features=128, seed=0):
        self.n_features = n_features
        self.seed = seed
        self._projections = {}

    def _projection(self, height, width):
        key = (height, width)
        proj = self._projections.get(key)
        if proj is None:
            rng = make_rng(self.seed, "feature-projection", height, width)
            proj = rng.standard_normal((height * width, self.n_features))
            proj /= np.sqrt(height * width)
            self._projections[key] = proj
        return proj

    def transform(self, images):
        arr = np.asarray(images, dtype=np.float64)
        if arr.ndim == 2:
            return self._single(arr)
        if arr.ndim != 3:
            raise ValueError(f"expected (H, W) or (n, H, W), got shape {arr.shape}")
        return np.stack([self._single(img) for img in arr])

    def _single(self, img):
        img = as_image(img)
        raw = np.tanh(img.reshape(-1) @ self._projection(*img.shape))
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            return np.zeros(self.n_features)
        return raw / norm


def _cosine_pairs(features, reference_feature):
    if np.linalg.norm(reference_feature) == 0.0:
        raise EmptySet("the reference maps to the zero feature vector")
    sims = []
    for f in features:
        if np.linalg.norm(f) > 0.0:
            sims.append(float(f @ reference_feature))
    if not sims:
        raise EmptySet("no generated image yields a nonzero feature vector")
    return sims


def content_preservation(extractor, generated, content_reference):
    """Mean cosine similarity of generations to the content reference."""
    if len(generated) == 0:
        raise EmptySet("content preservation needs a nonempty generated set")
    ref = extractor.transform(as_image(content_reference))
    feats = [extractor.transform(as_image(img)) for img in generated]
    return float(np.mean(_cosine_pairs(feats, ref)))


def style_fidelity(extractor, generated, style_reference, sigma=0.35):
    """Mean cosine similarity on the style channel (high-frequency residual).

    Constant images have a zero residual and are reported as an error, since
    their style features are undefined.
    """
    if len(generated) == 0:
        raise EmptySet("style fidelity needs a nonempty generated set")
    ref = extractor.transform(style_residual(as_image(style_reference), sigma))
    feats = [extractor.transform(style_residual(as_image(img), sigma)) for img in generated]
    return float(np.mean(_cosine_pairs(feats, ref)))


def _content_channel_feature(extractor, img, sigma):
    return extractor.transform(gaussian_lowpass(as_image(img), sigma))


def random_pair_distance(extractor, height, width, sigma=0.35, draws=CALIBRATION_DRAWS):
    """Monte-Carlo ceiling: mean content-channel feature distance between
    independent uniform-random images. Normalizes cross-influence to [0, 1]."""
    rng = make_rng(extractor.seed, "cross-influence-calibration", height, width, sigma)
    total = 0.0
    for _ in range(draws):
        a = rng.random((height, width))
        b = rng.random((height, width))
        fa = _content_channel_feature(extractor, a, sigma)
        fb = _content_channel_feature(extractor, b, sigma)
        total += float(np.linalg.norm(fa - fb))
    return total / draws


def cross_influence(extractor, grid, sigma=0.35):
    """Style-induced drift of content-channel features, in [0, 1].

    ``grid[i][j]`` is the generation for content prompt i and style prompt
    j. For each content row, the mean pairwise distance between the
    low-pass-channel features across styles is taken, averaged over rows,
    then divided by the Monte-Carlo random-image ceiling and clipped.
    Identical rows score 0; unrelated random images score near 1.
    """
    if len(grid) == 0 or any(len(row) == 0 for row in grid):
        raise GridIncomplete("the generation grid is empty")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise GridIncomplete("the generation grid is ragged")
    if any(cell is None for row in grid for cell in row):
        raise GridIncomplete("the generation grid has missing cells")
    if width < 2:
        raise GridIncomplete("cross influence needs at least two style columns")

    first = as_image(grid[0][0])
    ceiling = random_pair_distance(extractor, *first.shape, sigma=sigma)
    row_means = []
    for row in grid:
        feats = [_content_channel_feature(extractor, img, sigma) for img in row]
        dists = [
            float(np.linalg.norm(feats[a] - feats[b]))
            for a in range(width)
            for b in range(a + 1, width)
        ]
        row_means.append(float(np.mean(dists)))
    return float(np.clip(np.mean(row_means) / ceiling, 0.0, 1.0))


def separation_score(components, extractor):
    """Mean (1 - |cos|) between content and style component features.

    Higher is better separation: identical components score 0, orthogonal
    feature pairs score 1. Pairs whose features vanish are skipped.
    """
    if len(components) == 0:
        raise EmptySet("separation score needs at least one component pair")
    scores = []
    for content_part, style_part in components:
        fc = extractor.transform(as_image(content_part))
        fs = extractor.transform(as_image(style_part))
        if np.linalg.norm(fc) == 0.0 or np.linalg.norm(fs) == 0.0:
            continue
        scores.append(1.0 - abs(float(fc @ fs)))
    if not scores:
        raise EmptySet("every component pair had zero features")
    return float(np.mean(scores))


def sigma_sweep(images, sigmas, extractor):
    """Separation score of the low-pass/residual split per cutoff.

    Returns (sigma, score) tuples sorted best-first; the winner is recorded,
    not asserted, because it depends on the feature encoder.
    """
    results = []
    for sigma in sigmas:
        components = [
            (gaussian_lowpass(as_image(img), sigma), 0.5 + style_residual(as_image(img), sigma))
            for img in images
        ]
        results.append((float(sigma), separation_score(components, extractor)))
    return sorted(results, key=lambda item: item[1], reverse=True)


@dataclass
class EvalReport:
    """Aggregate disentanglement scores plus the per-cell breakdown."""

    s_c: float
    s_s: float
    s_x: float
    pairs: list = field(default_factory=list)
    seed: int = 0
    config_hash: str = ""

    def to_json(self):
        doc = {
            "s_c": self.s_c,
            "s_s": self.s_s,
            "s_x": self.s_x,
            "pairs": self.pairs,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(path, report):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())
