"""Contrastive content/style pair construction.

Synthetic mode composes parametric shape layouts (content, low-frequency)
with parametric textures (style, high-frequency) and splits the blend in
the frequency domain: the pair's content member is the low-pass part, its
style member the residual re-centered around mid-gray. Diffusion mode grows
both members with frequency-filtered denoising trajectories of the toy
model. Indices into the fixed ten-entry banks select the prompts.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_all_atomic
from .config import DatasetSettings, DenoiserSettings
from .denoiser import NoiseSchedule, forward_pass, reverse_process
from .exceptions import ConfigInvalid, CorruptCheckpoint, ModelUntrained, ShapeMismatch
from .frequency import FrequencyMask, freq_mask_filter, gaussian_lowpass
from .pgm import pgm_bytes, read_pgm
from .prompts import encode_semantic
from .utils import make_rng, standard_normal_rows

CONTENT_PROMPTS = (
    "a filled disc",
    "a hollow ring",
    "a solid square",
    "a diagonal cross",
    "two tall bars",
    "a wide triangle",
    "a diamond mark",
    "a corner bracket",
    "a dot cluster",
    "a thick frame",
)

CONTENT_MODIFIERS = (
    "showing a filled disc",
    "showing a hollow ring",
    "showing a solid square",
    "showing a diagonal cross",
    "showing two tall bars",
    "showing a wide triangle",
    "showing a diamond mark",
    "showing a corner bracket",
    "showing a dot cluster",
    "showing a thick frame",
)

STYLE_PROMPTS = (
    "in fine stripe style",
    "in broad stripe style",
    "in checker style",
    "in diagonal weave style",
    "in speckle grain style",
    "in ripple ring style",
    "in cross hatch style",
    "in ridge band style",
    "in row stripe style",
    "in static noise style",
)

STYLE_MODIFIERS = (
    "with fine stripe texture",
    "with broad stripe texture",
    "with checker texture",
    "with diagonal weave texture",
    "with speckle grain texture",
    "with ripple ring texture",
    "with cross hatch texture",
    "with ridge band texture",
    "with row stripe texture",
    "with static noise texture",
)


@dataclass(frozen=True)
class ContrastPair:
    """One content-emphasizing and one style-emphasizing image with prompts."""

    pair_id: int
    content_image: np.ndarray
    style_image: np.ndarray
    content_prompt: str
    style_prompt: str
    content_modifier: str
    style_modifier: str

    def __post_init__(self):
        for name in ("content_prompt", "style_prompt", "content_modifier", "style_modifier"):
            if not getattr(self, name):
                raise ConfigInvalid(f"pair field {name} must be nonempty")


def _coords(size):
    ax = (np.arange(size) - (size - 1) / 2.0) / (size / 2.0)
    return np.meshgrid(ax, ax, indexing="xy")


def _soft(mask_value, softness=0.08):
    return 0.5 * (1.0 + np.tanh(mask_value / softness))


def content_render(index, size=DenoiserSettings.image_size):
    """Smooth-edged geometric layout for content index 0..9, values in [0, 1]."""
    x, y = _coords(size)
    r = np.hypot(x, y)
    i = int(index) % len(CONTENT_PROMPTS)
    if i == 0:
        fig = _soft(0.55 - r)
    elif i == 1:
        fig = _soft(0.18 - np.abs(r - 0.5))
    elif i == 2:
        fig = _soft(0.45 - np.maximum(np.abs(x), np.abs(y)))
    elif i == 3:
        fig = np.maximum(_soft(0.16 - np.abs(x - y)), _soft(0.16 - np.abs(x + y)))
    elif i == 4:
        fig = np.maximum(_soft(0.14 - np.abs(x - 0.4)), _soft(0.14 - np.abs(x + 0.4)))
    elif i == 5:
        fig = _soft(0.5 - np.abs(x) - np.maximum(y, -0.2)) * _soft(y + 0.55)
    elif i == 6:
        fig = _soft(0.55 - np.abs(x) - np.abs(y))
    elif i == 7:
        fig = np.maximum(
            _soft(0.14 - np.abs(x + 0.35)) * _soft(0.5 - np.abs(y)),
            _soft(0.14 - np.abs(y + 0.35)) * _soft(0.5 - np.abs(x)),
        )
    elif i == 8:
        fig = np.zeros_like(x)
        for cx, cy in ((-0.45, -0.45), (0.45, -0.45), (-0.45, 0.45), (0.45, 0.45), (0.0, 0.0)):
            fig = np.maximum(fig, _soft(0.22 - np.hypot(x - cx, y - cy)))
    else:
        band = np.maximum(np.abs(x), np.abs(y))
        fig = _soft(0.12 - np.abs(band - 0.62))
    return 0.1 + 0.8 * fig


def style_render(index, size=DenoiserSettings.image_size):
    """High-frequency texture for style index 0..9, values in [0, 1]."""
    idx = np.arange(size)
    col, row = np.meshgrid(idx, idx, indexing="xy")
    x, y = _coords(size)
    j = int(index) % len(STYLE_PROMPTS)
    if j == 0:
        tex = 0.5 + 0.45 * np.cos(math.pi * col)
    elif j == 1:
        tex = 0.5 + 0.45 * np.cos(math.pi * col / 2.0)
    elif j == 2:
        tex = 0.5 + 0.45 * np.cos(math.pi * col) * np.cos(math.pi * row)
    elif j == 3:
        tex = 0.5 + 0.45 * np.cos(math.pi * (col + row) / 1.5)
    elif j == 4:
        tex = make_rng(0, "style-texture", j, size).uniform(0.05, 0.95, size=(size, size))
    elif j == 5:
        tex = 0.5 + 0.45 * np.cos(2.0 * math.pi * np.hypot(x, y) * 3.5)
    elif j == 6:
        tex = 0.5 + 0.225 * (np.cos(math.pi * (col + row)) + np.cos(math.pi * (col - row)))
    elif j == 7:
        tex = 0.5 + 0.45 * np.sign(np.cos(math.pi * col / 1.5))
    elif j == 8:
        tex = 0.5 + 0.45 * np.cos(math.pi * row)
    else:
        grain = make_rng(0, "style-texture", j, size).uniform(0.0, 1.0, size=(size, size))
        tex = np.where(grain > 0.5, 0.9, 0.1)
    return np.clip(tex, 0.0, 1.0)


def _clip01(img):
    return np.clip(img, 0.0, 1.0)


def synthetic_pair_images(content_index, style_index, sigma, size=DenoiserSettings.image_size):
    """Frequency-split blend of one shape layout and one texture."""
    blend = _clip01(0.55 * content_render(content_index, size) + 0.45 * style_render(style_index, size))
    low = gaussian_lowpass(blend, sigma)
    # the style member is the residual ``style_residual`` would return
    return _clip01(low), _clip01(0.5 + (blend - low))


# Filtered clean estimates are clamped to this range, which keeps the long
# trajectories of small models stable.
DIFFUSION_X0_RANGE = (-0.25, 1.25)


def generate_pair_dataset(
    n_content=DatasetSettings.n_content,
    n_style=DatasetSettings.n_style,
    mode=DatasetSettings.mode,
    seed=0,
    sigma=DatasetSettings.sigma,
    size=DenoiserSettings.image_size,
    backbone=None,
    schedule=None,
):
    """Cartesian product of content references and style references.

    Every (i, j) index pair appears exactly once; pair ids are
    ``i * n_style + j``. Diffusion mode runs the content members (low mask)
    as the rows of one batch and the style members (high mask) as another,
    each row on its own ``make_rng(seed, "pairgen", pair_id, member)``
    stream, through ``reverse_process``: each step predicts every row's
    noise in one forward pass and keeps the clean estimate to the mask's
    band, clamped to ``DIFFUSION_X0_RANGE``; at t == 1 that estimate is the
    output. Deterministic given the seed.
    """
    if not (1 <= n_content <= len(CONTENT_PROMPTS)):
        raise ConfigInvalid(f"n_content must lie in [1, {len(CONTENT_PROMPTS)}]")
    if not (1 <= n_style <= len(STYLE_PROMPTS)):
        raise ConfigInvalid(f"n_style must lie in [1, {len(STYLE_PROMPTS)}]")
    if mode not in ("synthetic", "diffusion"):
        raise ConfigInvalid(f"mode must be 'synthetic' or 'diffusion', got {mode!r}")
    grid = [(i, j) for i in range(n_content) for j in range(n_style)]

    if mode == "synthetic":
        members = np.array([synthetic_pair_images(i, j, sigma, size) for i, j in grid])
        content_images, style_images = members[:, 0], members[:, 1]
    else:
        if backbone is None:
            raise ModelUntrained("diffusion mode needs a trained backbone")
        if backbone.input_dim != size * size:
            raise ShapeMismatch(
                f"the backbone expects {backbone.input_dim} pixels, "
                f"not the {size * size} of {size}x{size} images"
            )
        schedule = schedule or NoiseSchedule.linear()

        def diffusion(prompts, member, mask):
            rngs = [make_rng(seed, "pairgen", pair_id, member) for pair_id in range(len(grid))]
            e_rows = np.stack([encode_semantic(p) for p in prompts])

            def x0_map(x0):
                band = freq_mask_filter(x0.reshape(-1, size, size), mask).reshape(x0.shape)
                return np.clip(band, *DIFFUSION_X0_RANGE)

            x = reverse_process(
                lambda: standard_normal_rows(rngs, size * size),
                lambda x_t, t: forward_pass(x_t, t, e_rows, backbone)[0], schedule, x0_map,
            )
            return _clip01(x.reshape(-1, size, size))

        content_images = diffusion(
            [f"{CONTENT_PROMPTS[i]} {STYLE_MODIFIERS[j]}" for i, j in grid],
            "content",
            FrequencyMask("low", sigma),
        )
        style_images = diffusion(
            [f"{CONTENT_MODIFIERS[i]} {STYLE_PROMPTS[j]}" for i, j in grid],
            "style",
            FrequencyMask("high", sigma),
        )

    return [
        ContrastPair(
            pair_id=i * n_style + j,
            content_image=content_img,
            style_image=style_img,
            content_prompt=CONTENT_PROMPTS[i],
            style_prompt=STYLE_PROMPTS[j],
            content_modifier=CONTENT_MODIFIERS[i],
            style_modifier=STYLE_MODIFIERS[j],
        )
        for (i, j), content_img, style_img in zip(grid, content_images, style_images)
    ]


MANIFEST_NAME = "manifest.tsv"
IMAGE_DIR = "images"


def save_dataset(out_dir, dataset):
    """Write PGM images plus a tab-separated manifest, one line per pair.

    Columns: pair id, content file, style file, content prompt, style
    prompt, content modifier, style modifier, and the SHA-256 of the
    content and of the style file. All files go through one
    ``checkpoint.write_all_atomic``, the manifest last: a save that fails
    while writing leaves an older dataset in the directory as it was.
    UTF-8, LF line endings; reruns with the same dataset are byte-identical.
    """
    image_dir = os.path.join(out_dir, IMAGE_DIR)
    os.makedirs(image_dir, exist_ok=True)
    writes = []
    lines = []
    for pair in dataset:
        files = []
        digests = []
        for member, img in (("content", pair.content_image), ("style", pair.style_image)):
            rel = f"{IMAGE_DIR}/pair_{pair.pair_id:03d}_{member}.pgm"
            blob = pgm_bytes(img)
            writes.append((os.path.join(out_dir, *rel.split("/")), blob))
            files.append(rel)
            digests.append(hashlib.sha256(blob).hexdigest())
        lines.append(
            "\t".join(
                [
                    str(pair.pair_id),
                    *files,
                    pair.content_prompt,
                    pair.style_prompt,
                    pair.content_modifier,
                    pair.style_modifier,
                    *digests,
                ]
            )
        )
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    write_all_atomic(writes + [(os.path.join(out_dir, MANIFEST_NAME), manifest)])


def load_dataset(in_dir):
    """Read a dataset directory back into ContrastPair records.

    A malformed manifest line, an image that does not match its checksum,
    a pair id listed twice, images of more than one shape or a manifest
    without pairs make the directory corrupt.
    """
    manifest = os.path.join(in_dir, MANIFEST_NAME)
    pairs = []
    ids = set()
    shapes = set()
    with open(manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 9 or not all(fields) or not fields[0].isdecimal():
                raise CorruptCheckpoint(f"{manifest} has a malformed line: {line!r}")
            pair_id, content_rel, style_rel, p_c, p_s, p_cm, p_sm, sha_c, sha_s = fields
            pair = ContrastPair(
                pair_id=int(pair_id),
                content_image=read_pgm(os.path.join(in_dir, *content_rel.split("/")), sha_c),
                style_image=read_pgm(os.path.join(in_dir, *style_rel.split("/")), sha_s),
                content_prompt=p_c,
                style_prompt=p_s,
                content_modifier=p_cm,
                style_modifier=p_sm,
            )
            if pair.pair_id in ids:
                raise CorruptCheckpoint(f"{manifest} lists pair {pair.pair_id} twice")
            ids.add(pair.pair_id)
            shapes.update((pair.content_image.shape, pair.style_image.shape))
            if len(shapes) > 1:
                raise CorruptCheckpoint(
                    f"{in_dir} mixes image shapes {sorted(shapes)} at pair {pair.pair_id}"
                )
            pairs.append(pair)
    if not pairs:
        raise CorruptCheckpoint(f"{manifest} lists no pairs")
    return pairs
