"""Rank-limited backbone fine-tuning.

Per-layer learnable bases B_l enter the loss only through the orthogonal
projector onto their span, P_l = B_l K_l B_l^T with K_l = (B_l^T B_l)^-1; the
weights seen by the loss are the base weights with that subspace projected
out, W_l = W0_l - P_l W0_l. No QR runs inside the training loop: K_l comes
from a Cholesky factor of the r x r Gram matrix. The content pair member
supervises only the content bases and the style member only the style
bases; a training step runs both members at once, each layer's two bases
as one stack and both members' pairs as one stacked pass. After training
the union of each layer's two subspaces is orthonormalized by one QR and
projected out once to produce the frozen host for all adapter work.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .adapters import KINDS
from .config import DenoiserSettings, TrunkSettings
from .denoiser import NoiseSchedule, backward_pass, clean_estimate, forward_pass
from .exceptions import (
    ConfigInvalid,
    EmptyBatch,
    NumericalError,
    OutOfRange,
    ShapeMismatch,
)
from .linalg import householder_qr, project_out
from .optim import Adam
from .prompts import encode_semantic
from .utils import make_rng, train_loop
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
    """Learnable per-layer bases: each layer's content and style matrices as
    one (2, m, r) stack, in ``KINDS`` order."""

    stacks: dict

    def side(self, kind):
        """One member's bases by layer, as views into the stacks."""
        if kind not in KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        i = KINDS.index(kind)
        return {name: b[i] for name, b in self.stacks.items()}


# Half-width of the uniform draw of the initial bases. Only the spanned
# subspace reaches the projection; the entry scale sets the optimization
# geometry (the projector's basis gradient carries (B^T B)^-1, so it grows
# as the scale shrinks), and 0.02 trains well at desk scale.
BASIS_INIT_SCALE = 0.02


def init_bases(backbone, schedule, seed=0):
    """I.i.d. uniform bases per layer at the scheduled rank, entries within
    ``BASIS_INIT_SCALE`` of zero."""
    if schedule.n_layers != backbone.n_layers:
        raise ConfigInvalid(
            f"schedule covers {schedule.n_layers} layers, backbone has {backbone.n_layers}"
        )
    rng = make_rng(seed, "bases-init")
    stacks = {}
    for idx, (name, w) in enumerate(backbone.items(), start=1):
        r = schedule.rank_at(idx)
        if r > w.shape[0]:
            raise ConfigInvalid(
                f"rank {r} exceeds the {w.shape[0]} input rows of layer {name!r}"
            )
        stacks[name] = rng.uniform(
            -BASIS_INIT_SCALE, BASIS_INIT_SCALE, size=(len(KINDS), w.shape[0], r)
        )
    return SubspaceBases(stacks)


def merge_subspaces(b_content, b_style):
    """Orthonormal basis of the union span via concatenation and QR.

    The operands need not be orthonormal and may have no columns, but their
    rows must agree. Dependent columns are dropped, so identical operands
    come back at their original width and disjoint ones at the summed width.
    """
    b_content = as_matrix(b_content, "b_content")
    b_style = as_matrix(b_style, "b_style")
    if b_content.shape[0] != b_style.shape[0]:
        raise ShapeMismatch(f"row counts differ: {b_content.shape[0]} vs {b_style.shape[0]}")
    q, _ = householder_qr(np.hstack([b_content, b_style]))
    return q


# Output channels of the perceptual stack's three layers, and their square
# kernel width.
PERCEPTUAL_CHANNELS = (4, 4, 4)
PERCEPTUAL_KERNEL = 3


class PerceptualProxy:
    """Frozen random 3-layer convolutional feature stack.

    Stands in for a pretrained perceptual network at desk scale: same
    L1-over-features form with per-layer element-count normalization, but
    the kernels are seed-initialized and never trained. Every map is held
    as (rows, y, channel, x), and each valid convolution is lowered to a
    matrix product along the image rows only (Chellapilla, Puri and Simard
    2006): a dense banded (k C_in W, C_out W_out) matrix, whose k blocks
    are the kernel rows as Toeplitz matrices over (channel, x), maps the k
    input rows under an output row to that row. A layer is one product of
    its k row-shifted input views, side by side, with that band, so each
    layer's output is the next layer's input as it stands. ``features``
    returns every layer's maps flattened per row in this layout.
    """

    def __init__(self, image_size=DenoiserSettings.image_size, seed=0):
        self.image_size = image_size
        self.seed = seed
        kernel = PERCEPTUAL_KERNEL
        rng = make_rng(seed, "perceptual-proxy", image_size, kernel, *PERCEPTUAL_CHANNELS)
        self._heights = []
        self._bands = []
        self._bands_flipped = []
        self.layer_sizes = []
        in_ch, in_h, in_w = 1, image_size, image_size
        for out_ch in PERCEPTUAL_CHANNELS:
            out_h, out_w = in_h - kernel + 1, in_w - kernel + 1
            if out_h < 1 or out_w < 1:
                raise ConfigInvalid("image too small for the perceptual stack")
            weights = rng.standard_normal((out_ch, in_ch, kernel, kernel))
            weights /= math.sqrt(kernel * kernel * in_ch)
            oc, ox, ic, ky, kx = np.indices((out_ch, out_w, in_ch, kernel, kernel)).reshape(5, -1)
            band = np.zeros((kernel * in_ch * in_w, out_ch * out_w))
            band[(ky * in_ch + ic) * in_w + ox + kx, oc * out_w + ox] = weights[oc, ic, ky, kx]
            # input_grad pads the gradient by k - 1 rows on each side, and its
            # shifted view s then meets kernel row k - 1 - s, so the backward
            # band stacks the transposed kernel-row blocks in reverse order
            blocks = band.reshape(kernel, in_ch * in_w, out_ch * out_w)
            self._heights.append(in_h)
            self._bands.append(band)
            self._bands_flipped.append(blocks[::-1].transpose(0, 2, 1).reshape(-1, in_ch * in_w))
            self.layer_sizes.append(out_h * out_ch * out_w)
            in_ch, in_h, in_w = out_ch, out_h, out_w

    @staticmethod
    def _row_windows(maps, height):
        """Views ``s`` to ``s + height`` of the (rows, y, cols) ``maps`` for
        each kernel row s, side by side as one (rows * height, k cols) block."""
        windows = np.concatenate(
            [maps[:, s: s + height] for s in range(PERCEPTUAL_KERNEL)], axis=2
        )
        return windows.reshape(-1, windows.shape[2])

    def features(self, x_flat):
        """Per-layer tanh feature maps plus the cache for ``input_grad``."""
        h = np.asarray(x_flat, dtype=np.float64)
        rows = h.shape[0]
        h = h.reshape(rows, self.image_size, self.image_size)
        feats = []
        for in_h, band in zip(self._heights, self._bands):
            out_h = in_h - PERCEPTUAL_KERNEL + 1
            h = np.tanh(self._row_windows(h, out_h) @ band).reshape(rows, out_h, -1)
            feats.append(h.reshape(rows, -1))
        return feats

    def input_grad(self, feats, d_feats):
        """Pull per-layer feature gradients back to the input pixels."""
        pad = PERCEPTUAL_KERNEL - 1
        rows = feats[0].shape[0]
        upstream = np.zeros_like(feats[-1])
        for j in range(len(self._bands) - 1, -1, -1):
            in_h, band_flipped = self._heights[j], self._bands_flipped[j]
            g = (upstream + d_feats[j]) * (1.0 - feats[j] * feats[j])
            g = g.reshape(rows, in_h - pad, -1)
            padded = np.zeros((rows, in_h + pad, g.shape[2]))
            padded[:, pad:in_h] = g
            upstream = (self._row_windows(padded, in_h) @ band_flipped).reshape(rows, -1)
        return upstream


# Pairs run through the projected model in blocks of at most this many,
# each block one stacked pass over both members' rows, which bounds the
# working set when a whole dataset is scored.
BLOCK_ROWS = 16


def _member_weights(backbone, basis_map):
    """Project each layer by a stack of bases; returns weights and caches.

    ``basis_map`` maps each layer to a (k, m, r) stack of bases, one per
    member, and each layer's result is the (k, m, n) stack of the base
    weights projected by each basis in turn (``project_out``); each layer
    caches the stacks (B, B K, K). A basis that lost rank, which training
    cannot recover from, raises ``NumericalError`` naming its layer.
    """
    weights = {}
    cache = {}
    for name, w in backbone.items():
        b = basis_map[name]
        try:
            weights[name], (bk, k) = project_out(w, b)
        except NumericalError as exc:
            raise NumericalError(f"basis for layer {name!r} lost rank during training") from exc
        cache[name] = (b, bk, k)
    return weights, cache


def _basis_grads_from_weight_grads(backbone, cache, weight_grads):
    """Chain dLoss/dW through W = W0 - B K B^T W0 to the basis, per member.

    The derivative of the projector B K B^T (variable projection, Golub and
    Pereyra 1973) gives dLoss/dB = B K (B^T M K) - M K with
    M = g (W0^T B) + W0 (g^T B), where g is dLoss/dW; ``weight_grads`` and
    the caches of ``_member_weights`` hold one stack slice per member.
    """
    out = {}
    for name, g in weight_grads.items():
        w0 = backbone.weight(name)
        b, bk, k = cache[name]
        mk = (g @ (w0.T @ b) + w0 @ (g.swapaxes(-1, -2) @ b)) @ k
        out[name] = bk @ (b.swapaxes(-1, -2) @ mk) - mk
    return out


def member_embeddings(pairs):
    """Both members' prompt embeddings, a (2, len(pairs), EMB_DIM) stack;
    each member's prompt is its base prompt plus its modifier."""
    return np.stack([
        np.stack([encode_semantic(f"{p.content_prompt} {p.style_modifier}") for p in pairs]),
        np.stack([encode_semantic(f"{p.content_modifier} {p.style_prompt}") for p in pairs]),
    ])


def member_targets(pairs):
    """Both members' target images as flat rows, a (2, len(pairs), pixels) stack."""
    return np.stack([
        np.stack([p.content_image.reshape(-1) for p in pairs]),
        np.stack([p.style_image.reshape(-1) for p in pairs]),
    ])


def member_target_features(targets, perceptual):
    """Both members' target features, per layer a (2, n, size) stack, from
    one ``features`` call over all the rows of the ``member_targets`` stack."""
    members, n, pixels = targets.shape
    return [
        f.reshape(members, n, -1) for f in perceptual.features(targets.reshape(-1, pixels))
    ]


def _member_block(weights, targets, ts, noise, embs, feats_ref, schedule, alpha_perc, perceptual):
    """Both members' summed task losses over a row block of pairs, with the
    gradient of each sum w.r.t. the block's output noise estimates.

    Everything is stacked by member: ``weights``, ``embs`` and the block's
    (2, rows, pixels) targets, (2, rows) timesteps and (2, rows, pixels)
    noise as given, the returned (2,) losses, the forward cache and the
    (2, rows, pixels) gradient. ``feats_ref`` holds the block's target
    features, or None without the perceptual term.
    """
    ab = schedule.alpha_bar(ts)[..., None]
    root_ab = np.sqrt(ab)
    root_1mab = np.sqrt(1.0 - ab)
    z_t = root_ab * targets + root_1mab * noise
    eps, acts = forward_pass(z_t, ts, embs, weights)
    x0_hat, d_eps = clean_estimate(z_t, eps, root_ab, root_1mab)

    diff = x0_hat - targets
    task = np.abs(diff).sum(axis=(1, 2))
    d_x0 = np.sign(diff)
    if feats_ref is not None:
        # both members' rows go through the perceptual stack as one batch
        feats_pred = perceptual.features(x0_hat.reshape(-1, diff.shape[-1]))
        d_feats = []
        for fp, fr, size in zip(feats_pred, feats_ref, perceptual.layer_sizes):
            fdiff = fp.reshape(fr.shape) - fr
            task += alpha_perc * np.abs(fdiff).sum(axis=(1, 2)) / size
            d_feats.append((np.sign(fdiff) / size).reshape(fp.shape))
        d_x0 = d_x0 + alpha_perc * perceptual.input_grad(feats_pred, d_feats).reshape(diff.shape)
    return task, acts, d_x0 * d_eps


def trunk_loss(
    backbone,
    bases,
    batch,
    lambda_reg,
    alpha_perc,
    schedule,
    draws,
    perceptual=None,
    embeddings=None,
    target_features=None,
    targets=None,
):
    """Trunk objective and its exact gradients w.r.t. every basis entry.

    For each pair, the clean-image prediction of the projected model is
    compared (L1) to the content-target and to the style-target member,
    each under its member prompt; with ``alpha_perc > 0`` a perceptual term
    adds L1-over-features of the ``perceptual`` proxy, which must then be
    given, with per-layer element-count normalization. The
    content member's gradient flows only into the content bases and the
    style member's only into the style bases. The basis Frobenius
    regularizer is added once over both sides, so the value is the mean of
    the single-pair values.

    The projected weights depend only on the member, so each layer's
    (2, m, r) stack of bases runs as it is, and both members' pairs run as
    the two slices of one stacked pass, in row blocks of ``BLOCK_ROWS``
    pairs. The basis gradient is linear in the weight gradient, so the
    gradients are summed over all rows first and chained to the bases once
    per layer; they come back as one (2, m, r) stack per layer.

    ``draws`` is the ``(ts, noise)`` of ``make_trunk_draws``, one timestep
    and noise image per member per pair, so the value is a pure function of
    its arguments (finite-difference checkable).
    ``embeddings``, ``target_features`` and ``targets`` optionally hold the
    batch's ``member_embeddings``, ``member_target_features`` and
    ``member_targets``, which are computed here when omitted; all three
    depend only on the pairs, so a caller that draws many batches from one
    dataset computes them once.
    """
    if lambda_reg < 0.0 or alpha_perc < 0.0:
        raise ConfigInvalid("lambda_reg and alpha_perc must be nonnegative")
    if alpha_perc > 0.0 and perceptual is None:
        raise ConfigInvalid("alpha_perc > 0 needs a perceptual proxy")
    if len(batch) == 0:
        raise EmptyBatch("trunk loss needs at least one pair")
    ts, noise = draws
    n = len(batch)
    if ts.shape != (len(KINDS), n) or noise.shape[:2] != (len(KINDS), n):
        raise ShapeMismatch("need one draw per member per pair")

    if embeddings is None:
        embeddings = member_embeddings(batch)
    if targets is None:
        targets = member_targets(batch)
    if alpha_perc == 0.0:
        target_features = None
    elif target_features is None:
        target_features = member_target_features(targets, perceptual)

    stacks = bases.stacks
    weights, cache = _member_weights(backbone, stacks)
    block_tasks = []
    weight_grads = {}
    for start in range(0, n, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        feats_ref = (
            None if target_features is None else [f[:, start:stop] for f in target_features]
        )
        block_task, acts, d_eps = _member_block(
            weights, targets[:, start:stop], ts[:, start:stop], noise[:, start:stop],
            embeddings[:, start:stop], feats_ref, schedule, alpha_perc, perceptual,
        )
        block_tasks.append(block_task)
        for name, g in backward_pass(acts, weights, d_eps / n).items():
            if name in weight_grads:
                weight_grads[name] += g
            else:
                weight_grads[name] = g
    grads = _basis_grads_from_weight_grads(backbone, cache, weight_grads)

    # Python floats summed member-major: first every content value, then every style one
    task = 0.0
    for value in np.transpose(block_tasks).ravel().tolist():
        task += value
    loss = task / n
    squares = [np.sum(b * b, axis=(1, 2)) for b in stacks.values()]
    for value in np.transpose(squares).ravel().tolist():
        loss += lambda_reg * value
    for name, b in stacks.items():
        grads[name] += 2.0 * lambda_reg * b
    return loss, grads


def make_trunk_draws(batch, schedule, rng):
    """Per member per pair a timestep and a noise image, as the (2, n)
    array ``ts`` and the (2, n, pixels) array ``noise``.

    They are drawn pair by pair, each pair's content member before its
    style member, and each member's timestep before its noise.
    """
    pixels = batch[0].content_image.size if batch else 0
    ts = np.empty((len(KINDS), len(batch)), dtype=np.int64)
    noise = np.empty((len(KINDS), len(batch), pixels))
    for i in range(len(batch)):
        for m in range(len(KINDS)):
            ts[m, i] = rng.integers(1, schedule.total_steps + 1)
            noise[m, i] = rng.standard_normal(pixels)
    return ts, noise


class TrunkFinetuner:
    """Adam over the per-layer bases, views of its buffer, with warm-up cosine decay.

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
        side = math.isqrt(backbone.input_dim)
        shapes = {m.shape for p in pairs for m in (p.content_image, p.style_image)}
        if shapes != {(side, side)} or side * side != backbone.input_dim:
            raise ShapeMismatch(
                f"pair images are {', '.join('x'.join(map(str, s)) for s in sorted(shapes))}; "
                f"the host expects square images of {backbone.input_dim} pixels"
            )
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
        optimizer = Adam(bases.stacks)
        bases.stacks = optimizer.params  # views of the optimizer's buffer, trained in place
        perceptual = PerceptualProxy(image_size=side) if cfg.alpha_perc > 0.0 else None
        rng = make_rng(self.seed, "trunk-train")
        embeddings = member_embeddings(pairs)
        targets = member_targets(pairs)
        target_features = (
            None if perceptual is None else member_target_features(targets, perceptual)
        )

        def step():
            idx = rng.integers(0, len(pairs), size=min(cfg.batch_size, len(pairs)))
            batch = [pairs[i] for i in idx]
            draws = make_trunk_draws(batch, self.schedule, rng)
            return trunk_loss(
                backbone,
                bases,
                batch,
                cfg.lambda_reg,
                cfg.alpha_perc,
                self.schedule,
                draws,
                perceptual=perceptual,
                embeddings=embeddings[:, idx],
                target_features=None if target_features is None else [
                    f[:, idx] for f in target_features
                ],
                targets=targets[:, idx],
            )

        history = train_loop("trunk", cfg, cfg.steps, step, optimizer)

        merged = {name: merge_subspaces(*bases.stacks[name]) for name in backbone.names}
        ranks = {name: q.shape[1] for name, q in merged.items()}
        self.backbone_ = backbone.replace(
            {name: project_out(w, merged[name])[0] for name, w in backbone.items()}
        )
        self.bases_ = bases
        self.merged_q_ = merged
        self.merged_ranks_ = ranks
        self.rank_schedule_ = rank_plan
        self.loss_history_ = history
        return self
