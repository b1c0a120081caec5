"""Rank-limited backbone fine-tuning.

Per-layer learnable bases are orthonormalized by QR every step; the weights
seen by the loss are the base weights with the learned subspace projected
out, W_l = W0_l - Q_l Q_l^T W0_l. The content pair member supervises only the
content bases and the style member only the style bases; after training the
two subspaces are merged per layer and projected out once to produce the
frozen host for all adapter work.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .config import TrunkSettings
from .denoiser import NoiseSchedule, backward_pass, forward_pass
from .exceptions import (
    ConfigInvalid,
    EmptyBatch,
    NumericalError,
    OutOfRange,
    ShapeMismatch,
)
from .linalg import DROP_TOL_FACTOR, householder_qr, project_out, qr_backward
from .prompts import encode_semantic
from .utils import check_loss, lr_at, make_rng
from .validation import as_matrix


@dataclass(frozen=True)
class RankSchedule:
    """Per-layer subspace width, linear from r_max at layer 1 to r_min at L."""

    r_max: int
    r_min: int
    n_layers: int

    def __post_init__(self):
        if not (self.r_max >= self.r_min >= 1):
            raise ConfigInvalid(f"need r_max >= r_min >= 1, got {self.r_max}, {self.r_min}")
        if self.n_layers < 2:
            raise ConfigInvalid("rank schedules need at least two layers")

    def rank_at(self, layer_index):
        """Rank of the 1-based layer, rounded to nearest (ties up), >= 1."""
        if not 1 <= layer_index <= self.n_layers:
            raise OutOfRange(
                f"layer index must lie in [1, {self.n_layers}], got {layer_index}"
            )
        value = self.r_max - (layer_index - 1) / (self.n_layers - 1) * (self.r_max - self.r_min)
        return max(1, math.floor(value + 0.5))


@dataclass
class SubspaceBases:
    """Learnable per-layer bases, one content and one style matrix each."""

    content: dict = field(default_factory=dict)
    style: dict = field(default_factory=dict)

    def side(self, kind):
        if kind == "content":
            return self.content
        if kind == "style":
            return self.style
        raise ValueError(f"unknown basis kind {kind!r}")

    def copy(self):
        return SubspaceBases(
            content={k: v.copy() for k, v in self.content.items()},
            style={k: v.copy() for k, v in self.style.items()},
        )


def init_bases(backbone, schedule, seed=0, init_scale=0.02):
    """I.i.d. small-uniform bases per layer at the scheduled rank.

    Only the spanned subspace reaches the projection; the entry scale sets
    the optimization geometry (gradients through QR grow as the scale
    shrinks), and 0.02 trains well at desk scale.
    """
    if schedule.n_layers != backbone.n_layers:
        raise ConfigInvalid(
            f"schedule covers {schedule.n_layers} layers, backbone has {backbone.n_layers}"
        )
    rng = make_rng(seed, "bases-init")
    bases = SubspaceBases()
    for idx, (name, w) in enumerate(backbone.items(), start=1):
        r = schedule.rank_at(idx)
        if r > w.shape[0]:
            raise ConfigInvalid(
                f"rank {r} exceeds the {w.shape[0]} input rows of layer {name!r}"
            )
        bases.content[name] = rng.uniform(-init_scale, init_scale, size=(w.shape[0], r))
        bases.style[name] = rng.uniform(-init_scale, init_scale, size=(w.shape[0], r))
    return bases


def merge_subspaces(q_content, q_style):
    """Orthonormal basis of the union span via concatenation and QR.

    Degenerate (dependent) columns are dropped, so identical operands come
    back at their original width and disjoint ones at the summed width.
    """
    q_content = as_matrix(q_content, "q_content")
    q_style = as_matrix(q_style, "q_style")
    if q_content.shape[1] == 0:
        stacked = q_style
    elif q_style.shape[1] == 0:
        stacked = q_content
    else:
        if q_content.shape[0] != q_style.shape[0]:
            raise ShapeMismatch(
                f"row counts differ: {q_content.shape[0]} vs {q_style.shape[0]}"
            )
        stacked = np.hstack([q_content, q_style])
    if stacked.shape[1] == 0:
        return np.zeros((q_content.shape[0], 0))
    q, _ = householder_qr(stacked)
    return q


def apply_rank_limited_update(backbone, q_map):
    """Project each layer onto the complement of its combined subspace.

    ``q_map`` maps layer names to orthonormal matrices; missing or empty
    entries leave the layer untouched. The result is the frozen host for all
    later adapter training.
    """
    unknown = set(q_map) - set(backbone.names)
    if unknown:
        raise ShapeMismatch(f"q_map names unknown layers {sorted(unknown)}")
    updates = {name: project_out(backbone.weight(name), q) for name, q in q_map.items()}
    return backbone.replace(updates)


class PerceptualProxy:
    """Frozen random 3-layer convolutional feature stack.

    Stands in for a pretrained perceptual network at desk scale: same
    L1-over-features form with per-layer element-count normalization, but
    the kernels are seed-initialized and never trained. Convolutions are
    materialized as fixed sparse matrices (a few percent of entries are
    nonzero), so both passes are sparse-times-dense products over rows.
    """

    def __init__(self, image_size=16, channels=(4, 4, 4), kernel=3, seed=0):
        self.image_size = image_size
        self.channels = tuple(channels)
        self.kernel = kernel
        self.seed = seed
        rng = make_rng(seed, "perceptual-proxy", image_size, kernel, *channels)
        mats = []
        in_ch, in_h, in_w = 1, image_size, image_size
        for out_ch in self.channels:
            out_h, out_w = in_h - kernel + 1, in_w - kernel + 1
            if out_h < 1 or out_w < 1:
                raise ConfigInvalid("image too small for the perceptual stack")
            weights = rng.standard_normal((out_ch, in_ch, kernel, kernel))
            weights /= math.sqrt(kernel * kernel * in_ch)
            mats.append(self._conv_matrix(weights, in_h, in_w, out_h, out_w))
            in_ch, in_h, in_w = out_ch, out_h, out_w
        # (in, out) for the backward pass, (out, in) for the forward pass:
        # CSR times a dense column block is the fast product in both
        self._mats = mats
        self._mats_t = [m.T.tocsr() for m in mats]
        self.layer_sizes = [m.shape[1] for m in mats]

    @staticmethod
    def _conv_matrix(weights, in_h, in_w, out_h, out_w):
        """Valid 2-D convolution as a sparse (in_pixels, out_pixels) matrix."""
        out_ch, in_ch, k, _ = weights.shape
        oc, oy, ox, ic, ky, kx = np.indices((out_ch, out_h, out_w, in_ch, k, k)).reshape(6, -1)
        rows = (ic * in_h + oy + ky) * in_w + ox + kx
        cols = (oc * out_h + oy) * out_w + ox
        return scipy.sparse.csr_array(
            (weights[oc, ic, ky, kx], (rows, cols)),
            shape=(in_ch * in_h * in_w, out_ch * out_h * out_w),
        )

    def features(self, x_flat):
        """Per-layer tanh feature maps plus the cache for ``input_grad``."""
        feats = []
        h = np.asarray(x_flat, dtype=np.float64)
        for mat_t in self._mats_t:
            h = np.tanh((mat_t @ h.T).T)
            feats.append(h)
        return feats

    def input_grad(self, feats, d_feats):
        """Pull per-layer feature gradients back to the input pixels."""
        upstream = np.zeros_like(feats[-1])
        for j in range(len(self._mats) - 1, -1, -1):
            g = (upstream + d_feats[j]) * (1.0 - feats[j] * feats[j])
            upstream = (self._mats[j] @ g.T).T
        return upstream


# Pair members run through the projected model in row blocks of at most
# this many, which bounds the working set when a whole dataset is scored.
BLOCK_ROWS = 16


def _member_weights(backbone, basis_map):
    """Project each layer by its own basis; returns weights and QR caches.

    The QR is LAPACK's with column signs flipped so that diag(R) >= 0, the
    convention of ``householder_qr``. A column whose pivot falls below the
    tolerance at which ``householder_qr`` would drop it means the basis lost
    rank, which training cannot recover from; a zero or non-finite basis
    fails the same check.
    """
    updates = {}
    cache = {}
    for name, w in backbone.items():
        b = basis_map[name]
        tol = DROP_TOL_FACTOR * np.sqrt(np.einsum("ij,ij->j", b, b)).max()
        q, r = np.linalg.qr(b)
        pivots = np.diagonal(r)
        if not np.abs(pivots).min() >= tol > 0.0:
            raise NumericalError(
                f"basis for layer {name!r} lost rank during training"
            )
        signs = np.where(pivots < 0.0, -1.0, 1.0)
        q = q * signs
        updates[name] = w - q @ (q.T @ w)
        cache[name] = (q, r * signs[:, None])
    return backbone.replace(updates), cache


def _basis_grads_from_weight_grads(backbone, cache, weight_grads):
    """Chain dLoss/dW through W = W0 - Q Q^T W0 and the QR map to the basis."""
    out = {}
    for name, g in weight_grads.items():
        w0 = backbone.weight(name)
        q, r = cache[name]
        grad_q = -(g @ (w0.T @ q) + w0 @ (g.T @ q))
        out[name] = qr_backward(q, r, grad_q)
    return out


def member_embedding(pair, member):
    """Prompt embedding for one pair member: base prompt plus its modifier."""
    if member == "content":
        return encode_semantic(f"{pair.content_prompt} {pair.style_modifier}")
    return encode_semantic(f"{pair.content_modifier} {pair.style_prompt}")


def _member_block(weights, pairs, draws, member, schedule, alpha_perc, perceptual):
    """Summed task loss of one member over a row block of pairs, with the
    gradient of that sum w.r.t. the block's output noise estimates."""
    targets = np.stack([
        (p.content_image if member == "content" else p.style_image).reshape(-1)
        for p in pairs
    ])
    noise = np.stack([d[member][1].reshape(-1) for d in draws])
    ts = np.array([d[member][0] for d in draws])
    embs = np.stack([member_embedding(p, member) for p in pairs])

    ab = np.array([schedule.alpha_bar(t) for t in ts])[:, None]
    root_ab = np.sqrt(ab)
    root_1mab = np.sqrt(1.0 - ab)
    z_t = root_ab * targets + root_1mab * noise
    eps, acts = forward_pass(z_t, ts, embs, weights)
    x0_hat = (z_t - root_1mab * eps) / root_ab

    diff = x0_hat - targets
    task = float(np.abs(diff).sum())
    d_x0 = np.sign(diff)
    if perceptual is not None and alpha_perc > 0.0:
        feats_pred = perceptual.features(x0_hat)
        feats_ref = perceptual.features(targets)
        d_feats = []
        for fp, fr, size in zip(feats_pred, feats_ref, perceptual.layer_sizes):
            fdiff = fp - fr
            task += alpha_perc * float(np.abs(fdiff).sum()) / size
            d_feats.append(np.sign(fdiff) / size)
        d_x0 = d_x0 + alpha_perc * perceptual.input_grad(feats_pred, d_feats)
    return task, acts, d_x0 * (-root_1mab / root_ab)


def trunk_loss(
    backbone,
    bases,
    batch,
    lambda_reg,
    alpha_perc,
    schedule,
    draws,
    perceptual=None,
):
    """Trunk objective and its exact gradients w.r.t. every basis entry.

    For each pair, the clean-image prediction of the projected model is
    compared (L1) to the content-target and to the style-target member,
    each under its member prompt; an optional perceptual term adds
    L1-over-features with per-layer element-count normalization. The
    content member's gradient flows only into the content bases and the
    style member's only into the style bases. The basis Frobenius
    regularizer is added once over both sides, so the value is the mean of
    the single-pair values.

    The projected weights depend only on the member, so each member runs
    its pairs as the rows of one batched pass, in blocks of ``BLOCK_ROWS``.
    Both the projection and the QR map are linear in the weight gradient,
    so the gradients are summed over all rows first and chained to the
    bases once per layer per member.

    ``draws`` supplies one (t, noise) per member per pair so the value is a
    pure function of its arguments (finite-difference checkable).
    """
    if lambda_reg < 0.0 or alpha_perc < 0.0:
        raise ConfigInvalid("lambda_reg and alpha_perc must be nonnegative")
    if len(batch) == 0:
        raise EmptyBatch("trunk loss needs at least one pair")
    if len(draws) != len(batch):
        raise ShapeMismatch("need one draw record per pair")

    n = len(batch)
    task = 0.0
    grads = {}
    for member in ("content", "style"):
        weights, cache = _member_weights(backbone, bases.side(member))
        weight_grads = {}
        for start in range(0, n, BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            block_task, acts, d_eps = _member_block(
                weights, batch[start:stop], draws[start:stop], member, schedule,
                alpha_perc, perceptual,
            )
            task += block_task
            for name, g in backward_pass(acts, weights, d_eps / n).items():
                weight_grads[name] = weight_grads.get(name, 0.0) + g
        grads[member] = _basis_grads_from_weight_grads(backbone, cache, weight_grads)

    loss = task / n
    for kind in ("content", "style"):
        for name, b in bases.side(kind).items():
            loss += lambda_reg * float(np.sum(b * b))
            grads[kind][name] += 2.0 * lambda_reg * b
    return loss, grads


def make_trunk_draws(batch, schedule, rng):
    """One (t, noise) record per member per pair, in pair order."""
    draws = []
    for pair in batch:
        record = {}
        for member in ("content", "style"):
            t = int(rng.integers(1, schedule.total_steps + 1))
            noise = rng.standard_normal(pair.content_image.shape)
            record[member] = (t, noise)
        draws.append(record)
    return draws


class TrunkFinetuner:
    """Gradient descent over the per-layer bases with warm-up cosine decay.

    The keywords are the fields of ``TrunkSettings``, validated here, once.
    fit(backbone, pairs) -> self. The frozen host (base weights with the
    merged content/style subspaces projected out) lands in ``backbone_``,
    the trained bases in ``bases_``, the merged per-layer orthonormal
    matrices in ``merged_q_`` and the loss curve in ``loss_history_``.
    Deterministic given ``seed``; zero steps projects the initial bases.
    """

    def __init__(self, schedule=None, seed=0, **settings):
        self.settings = TrunkSettings(**settings)
        self.settings.validate()
        self.schedule = schedule or NoiseSchedule.linear()
        self.seed = seed

    def fit(self, backbone, pairs):
        if len(pairs) < 1:
            raise ConfigInvalid("the pair dataset is empty")
        degenerate = [
            p.pair_id for p in pairs if np.array_equal(p.content_image, p.style_image)
        ]
        if degenerate:
            warnings.warn(
                f"pairs {degenerate[:5]} have identical members; both bases will "
                "receive the same supervision signal",
                RuntimeWarning,
                stacklevel=2,
            )
        cfg = self.settings
        rank_plan = RankSchedule(cfg.r_max, cfg.r_min, backbone.n_layers)
        bases = init_bases(backbone, rank_plan, seed=self.seed)
        image_size = pairs[0].content_image.shape[0]
        perceptual = PerceptualProxy(image_size=image_size) if cfg.alpha_perc > 0.0 else None
        rng = make_rng(self.seed, "trunk-train")
        history = []
        for step in range(cfg.steps):
            lr = lr_at(step, cfg.steps, cfg.peak_lr, cfg.start_lr, cfg.floor_lr, cfg.warmup)
            idx = rng.integers(0, len(pairs), size=min(cfg.batch_size, len(pairs)))
            batch = [pairs[i] for i in idx]
            draws = make_trunk_draws(batch, self.schedule, rng)
            loss, grads = trunk_loss(
                backbone,
                bases,
                batch,
                cfg.lambda_reg,
                cfg.alpha_perc,
                self.schedule,
                draws,
                perceptual=perceptual,
            )
            check_loss(loss, history, "trunk")
            history.append(loss)
            for kind in ("content", "style"):
                side = bases.side(kind)
                for name in side:
                    side[name] = side[name] - lr * grads[kind][name]

        merged = {}
        ranks = {}
        for name in backbone.names:
            q_c, _ = householder_qr(bases.content[name])
            q_s, _ = householder_qr(bases.style[name])
            merged[name] = merge_subspaces(q_c, q_s)
            ranks[name] = merged[name].shape[1]
        self.backbone_ = apply_rank_limited_update(backbone, merged)
        self.bases_ = bases
        self.merged_q_ = merged
        self.merged_ranks_ = ranks
        self.rank_schedule_ = rank_plan
        self.loss_history_ = history
        return self
