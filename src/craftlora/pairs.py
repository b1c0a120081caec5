"""Contrastive content/style pair construction.

Synthetic mode composes parametric shape layouts (content, low-frequency)
with parametric textures (style, high-frequency) and splits the blend in
the frequency domain: the pair's content member is the low-pass part, its
style member the residual re-centered around mid-gray. Diffusion mode grows
both members with frequency-filtered denoising trajectories of the toy
model. Indices into the fixed ten-entry banks select the prompts.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .denoiser import NoiseSchedule, posterior_from_x0, predict_eps, predict_x0
from .exceptions import ConfigInvalid, CorruptCheckpoint, ModelUntrained
from .frequency import FrequencyMask, freq_mask_filter, gaussian_lowpass, style_residual
from .prompts import encode_semantic
from .utils import make_rng
from .validation import as_image

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


def content_render(index, size=16):
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


def style_render(index, size=16):
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


def synthetic_pair_images(content_index, style_index, sigma, size=16):
    """Frequency-split blend of one shape layout and one texture."""
    blend = _clip01(0.55 * content_render(content_index, size) + 0.45 * style_render(style_index, size))
    content_member = _clip01(gaussian_lowpass(blend, sigma))
    style_member = _clip01(0.5 + style_residual(blend, sigma))
    return content_member, style_member


def filtered_denoise_step(z_t, t, embedding, mask, backbone, schedule, rng=None, counter=None, clip_x0=None):
    """One reverse step whose clean estimate is frequency-filtered first.

    Predict the clean latent, keep only the masked band, then take the
    standard posterior update with the filtered estimate substituted. At
    t == 1 the output is the filtered clean estimate itself. ``clip_x0``
    optionally clamps the filtered estimate, stabilizing long trajectories
    of small models.
    """
    if backbone is None:
        raise ModelUntrained("filtered denoising needs trained weights")
    z_t = as_image(z_t, "z_t")
    if not isinstance(mask, FrequencyMask):
        raise ConfigInvalid("mask must be a FrequencyMask")
    eps = predict_eps(z_t, t, embedding, backbone, counter)
    x0_hat = predict_x0(z_t, t, eps, schedule)
    filtered = freq_mask_filter(x0_hat, mask)
    if clip_x0 is not None:
        filtered = np.clip(filtered, clip_x0[0], clip_x0[1])
    return posterior_from_x0(z_t, t, filtered, schedule, rng)


def _diffusion_member(prompt_text, mask, backbone, schedule, rng, size):
    emb = encode_semantic(prompt_text)
    x = rng.standard_normal((size, size))
    for t in range(schedule.total_steps, 0, -1):
        x = filtered_denoise_step(
            x, t, emb, mask, backbone, schedule, rng, clip_x0=(-0.25, 1.25)
        )
    return _clip01(x)


def generate_pair_dataset(
    n_content=10,
    n_style=10,
    mode="synthetic",
    seed=0,
    sigma=0.35,
    size=16,
    backbone=None,
    schedule=None,
    threads=1,
):
    """Cartesian product of content references and style references.

    Every (i, j) index pair appears exactly once; pair ids are
    ``i * n_style + j``. Deterministic given the seed; per-pair work derives
    its own generator, so the thread count never changes results.
    """
    if not (1 <= n_content <= len(CONTENT_PROMPTS)):
        raise ConfigInvalid(f"n_content must lie in [1, {len(CONTENT_PROMPTS)}]")
    if not (1 <= n_style <= len(STYLE_PROMPTS)):
        raise ConfigInvalid(f"n_style must lie in [1, {len(STYLE_PROMPTS)}]")
    if mode not in ("synthetic", "diffusion"):
        raise ConfigInvalid(f"mode must be 'synthetic' or 'diffusion', got {mode!r}")
    if mode == "diffusion" and backbone is None:
        raise ModelUntrained("diffusion mode needs a trained backbone")
    if mode == "diffusion" and schedule is None:
        schedule = NoiseSchedule.linear()

    def build(indices):
        i, j = indices
        pair_id = i * n_style + j
        if mode == "synthetic":
            content_img, style_img = synthetic_pair_images(i, j, sigma, size)
        else:
            low = FrequencyMask("low", sigma)
            high = FrequencyMask("high", sigma)
            content_img = _diffusion_member(
                f"{CONTENT_PROMPTS[i]} {STYLE_MODIFIERS[j]}",
                low,
                backbone,
                schedule,
                make_rng(seed, "pairgen", pair_id, "content"),
                size,
            )
            style_img = _diffusion_member(
                f"{CONTENT_MODIFIERS[i]} {STYLE_PROMPTS[j]}",
                high,
                backbone,
                schedule,
                make_rng(seed, "pairgen", pair_id, "style"),
                size,
            )
        return ContrastPair(
            pair_id=pair_id,
            content_image=content_img,
            style_image=style_img,
            content_prompt=CONTENT_PROMPTS[i],
            style_prompt=STYLE_PROMPTS[j],
            content_modifier=CONTENT_MODIFIERS[i],
            style_modifier=STYLE_MODIFIERS[j],
        )

    grid = [(i, j) for i in range(n_content) for j in range(n_style)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(build, grid))
    return [build(ij) for ij in grid]


MANIFEST_NAME = "manifest.tsv"
IMAGE_DIR = "images"


def save_dataset(out_dir, dataset):
    """Write PGM images plus a tab-separated manifest, one line per pair.

    Columns: pair id, content file, style file, content prompt, style
    prompt, content modifier, style modifier. UTF-8, LF line endings;
    reruns with the same dataset are byte-identical.
    """
    from .pgm import write_pgm

    image_dir = os.path.join(out_dir, IMAGE_DIR)
    os.makedirs(image_dir, exist_ok=True)
    lines = []
    for pair in dataset:
        content_rel = f"{IMAGE_DIR}/pair_{pair.pair_id:03d}_content.pgm"
        style_rel = f"{IMAGE_DIR}/pair_{pair.pair_id:03d}_style.pgm"
        write_pgm(os.path.join(out_dir, *content_rel.split("/")), pair.content_image)
        write_pgm(os.path.join(out_dir, *style_rel.split("/")), pair.style_image)
        lines.append(
            "\t".join(
                [
                    str(pair.pair_id),
                    content_rel,
                    style_rel,
                    pair.content_prompt,
                    pair.style_prompt,
                    pair.content_modifier,
                    pair.style_modifier,
                ]
            )
        )
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(in_dir):
    """Read a dataset directory back into ContrastPair records.

    A malformed manifest line, a pair id listed twice or images of more
    than one shape make the directory corrupt.
    """
    from .pgm import read_pgm

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
            if len(fields) != 7 or not all(fields) or not fields[0].isdecimal():
                raise CorruptCheckpoint(f"{manifest} has a malformed line: {line!r}")
            pair_id, content_rel, style_rel, p_c, p_s, p_cm, p_sm = fields
            pair = ContrastPair(
                pair_id=int(pair_id),
                content_image=read_pgm(os.path.join(in_dir, *content_rel.split("/"))),
                style_image=read_pgm(os.path.join(in_dir, *style_rel.split("/"))),
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
    return pairs
