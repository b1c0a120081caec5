"""Disentanglement metrics over a fixed toy feature space.

A seed-initialized random projection with a pointwise nonlinearity stands in
for a pretrained image encoder; every score here is directional or
self-relative, never an absolute quality claim. Content similarity runs on
whole images, style similarity on high-frequency residuals, and
cross-influence measures how much low-frequency (content-channel) features
drift when only the style prompt changes.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import write_atomic
from .exceptions import EmptySet, GridIncomplete
from .frequency import gaussian_lowpass, style_residual
from .utils import make_rng
from .validation import as_image, as_images, check_same_shape

CALIBRATION_DRAWS = 200
# Calibration pairs drawn, filtered and scored at a time; it divides
# CALIBRATION_DRAWS. The stream order and the ceiling are those of one stack
# of all the pairs, and a call's tracemalloc peak at 16x16 is 0.5 MB, not 3.3.
CALIBRATION_BLOCK_PAIRS = 25
# Width of the feature space.
N_FEATURES = 128


class ImageFeatureExtractor:
    """Fixed projection from images to unit-normalized 128-dim features.

    ``transform`` maps a stack (n, H, W) to (n, 128) features in one matrix
    product, or a single (H, W) image to one 128-vector. Zero images map to
    the zero vector, which the metrics exclude from similarities. Each row
    depends only on its own image, never on its position in the stack.
    Deterministic given the seed.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._projections = {}

    def _projection(self, height, width):
        key = (height, width)
        proj = self._projections.get(key)
        if proj is None:
            rng = make_rng(self.seed, "feature-projection", height, width)
            proj = rng.standard_normal((height * width, N_FEATURES))
            proj /= np.sqrt(height * width)
            self._projections[key] = proj
        return proj

    def transform(self, images):
        arr = as_images(images)
        height, width = arr.shape[-2:]
        feats = arr.reshape(-1, height * width) @ self._projection(height, width)
        np.tanh(feats, out=feats)
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        # a zero-norm row is all zeros already and stays so
        np.divide(feats, norms, out=feats, where=norms > 0.0)
        return feats[0] if arr.ndim == 2 else feats


def _with_reference(reference, images, what):
    """The reference image stacked in front of the images, as (1 + n, H, W)."""
    if len(images) == 0:
        raise EmptySet(f"{what} needs a nonempty generated set")
    reference = as_image(reference, "reference")
    images = as_images(images, "generated images")
    check_same_shape(reference, images[0], "the reference", "each generated image")
    return np.concatenate([reference[None], images])


def _mean_cosine(features, reference):
    """Mean cosine of the nonzero feature rows to the reference feature."""
    if not reference.any():
        raise EmptySet("the reference maps to the zero feature vector")
    kept = features[features.any(axis=1)]
    if len(kept) == 0:
        raise EmptySet("no generated image yields a nonzero feature vector")
    return math.fsum((kept * reference).sum(axis=1)) / len(kept)


def content_preservation(extractor, generated, content_reference):
    """Mean cosine similarity of generations to the content reference."""
    stack = _with_reference(content_reference, generated, "content preservation")
    feats = extractor.transform(stack)
    return _mean_cosine(feats[1:], feats[0])


def style_fidelity(extractor, generated, style_reference, sigma):
    """Mean cosine similarity on the style channel (high-frequency residual).

    Constant images have a zero residual and are reported as an error, since
    their style features are undefined.
    """
    stack = _with_reference(style_reference, generated, "style fidelity")
    feats = extractor.transform(style_residual(stack, sigma))
    return _mean_cosine(feats[1:], feats[0])


def random_pair_distance(extractor, height, width, sigma):
    """Monte-Carlo ceiling: mean content-channel feature distance between
    independent uniform-random images. Normalizes cross-influence to [0, 1]."""
    rng = make_rng(extractor.seed, "cross-influence-calibration", height, width, sigma)
    # pair k is images 2k and 2k + 1, drawn in blocks of consecutive pairs;
    # fsum rounds the total once, whatever the blocks
    dists = []
    for _ in range(CALIBRATION_DRAWS // CALIBRATION_BLOCK_PAIRS):
        images = rng.random((2 * CALIBRATION_BLOCK_PAIRS, height, width))
        feats = extractor.transform(gaussian_lowpass(images, sigma))
        dists.extend(np.linalg.norm(feats[0::2] - feats[1::2], axis=1))
    return math.fsum(dists) / CALIBRATION_DRAWS


def cross_influence(extractor, grid, sigma):
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
    cells = as_images(np.reshape(grid, (-1, *first.shape)), "grid")
    ceiling = random_pair_distance(extractor, *first.shape, sigma=sigma)
    feats = extractor.transform(gaussian_lowpass(cells, sigma)).reshape(len(grid), width, -1)
    a, b = np.triu_indices(width, k=1)
    # every row has the same number of pairs, so the mean over all pairs is
    # the mean of the row means
    dists = np.linalg.norm(feats[:, a] - feats[:, b], axis=-1)
    return float(np.clip(math.fsum(dists.ravel()) / dists.size / ceiling, 0.0, 1.0))


@dataclass
class EvalReport:
    """Aggregate disentanglement scores plus each grid row's and column's score.

    ``content_rows`` holds one ``(content prompt, s_c of its row)`` pair per
    content row and ``style_columns`` one ``(style prompt, s_s of its
    column)`` pair per style column, so the report holds each score once.
    ``to_json`` lists the grid's cells under ``"pairs"``, row by row, each
    with its row's and its column's score.
    """

    s_c: float
    s_s: float
    s_x: float
    content_rows: list = field(default_factory=list)
    style_columns: list = field(default_factory=list)
    seed: int = 0
    config_hash: str = ""

    def to_json(self):
        pairs = [
            {
                "content_index": i,
                "style_index": j,
                "content_prompt": content_prompt,
                "style_prompt": style_prompt,
                "content_similarity": content_score,
                "style_similarity": style_score,
            }
            for i, (content_prompt, content_score) in enumerate(self.content_rows)
            for j, (style_prompt, style_score) in enumerate(self.style_columns)
        ]
        doc = {
            "s_c": self.s_c,
            "s_s": self.s_s,
            "s_x": self.s_x,
            "pairs": pairs,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(path, report):
    """Write the report's JSON with ``checkpoint.write_atomic``."""
    write_atomic(path, report.to_json().encode("utf-8"))
