"""Toy conditional diffusion denoiser.

The network is a stack of named fully-connected layers acting on flattened
images. Weights are stored input-major, shape (d_in, d_out), and applied as
``h @ W``; the rank-limited projection and the low-rank adapters both attach
to these named weight matrices. Conditioning is injected additively after
the first layer through a fixed projection, next to a sinusoidal timestep
embedding, so checkpoints of the named layers fully determine sampling.
"""

import math

import numpy as np

from .config import DenoiserSettings, ScheduleSettings
from .exceptions import ConfigInvalid, OutOfRange, ShapeMismatch
from .optim import Adam
from .prompts import EMB_DIM
from .utils import check_loss, lr_at, make_rng
from .validation import as_image, as_matrix, check_same_shape


class NoiseSchedule:
    """Forward-process variances and their cumulative products, 1-based t."""

    def __init__(self, betas):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ConfigInvalid("betas must be a non-empty 1-D sequence")
        if not (betas[0] > 0.0 and betas[-1] < 1.0):
            raise ConfigInvalid("betas must satisfy 0 < beta_1 and beta_T < 1")
        if np.any(np.diff(betas) < 0.0):
            raise ConfigInvalid("betas must be nondecreasing")
        self.betas = betas
        self.alphas = 1.0 - betas
        self.alpha_bars = np.cumprod(self.alphas)

    @classmethod
    def linear(
        cls,
        total_steps=ScheduleSettings.total_steps,
        beta_start=ScheduleSettings.beta_start,
        beta_end=ScheduleSettings.beta_end,
    ):
        """Linear betas; the ``ScheduleSettings`` defaults compress the classic
        thousand-step range onto 50 steps so the terminal state is
        essentially pure noise."""
        return cls(np.linspace(beta_start, beta_end, total_steps))

    @property
    def total_steps(self):
        return int(self.betas.size)

    def _check_t(self, t):
        t = int(t)
        if not 1 <= t <= self.total_steps:
            raise OutOfRange(f"t must lie in [1, {self.total_steps}], got {t}")
        return t

    def beta(self, t):
        return self.betas[self._check_t(t) - 1]

    def alpha(self, t):
        return self.alphas[self._check_t(t) - 1]

    def alpha_bar(self, t):
        return self.alpha_bars[self._check_t(t) - 1]

    def alpha_bar_prev(self, t):
        t = self._check_t(t)
        return 1.0 if t == 1 else self.alpha_bars[t - 2]

    def posterior_variance(self, t):
        t = self._check_t(t)
        return (1.0 - self.alpha_bar_prev(t)) / (1.0 - self.alpha_bar(t)) * self.beta(t)


class Backbone:
    """Ordered, named weight layers forming a valid forward chain."""

    def __init__(self, layers):
        named = []
        seen = set()
        for name, w in layers:
            if name in seen:
                raise ConfigInvalid(f"duplicate layer name {name!r}")
            seen.add(name)
            named.append((str(name), as_matrix(w, f"layer {name}")))
        if len(named) < 2:
            raise ConfigInvalid("a backbone needs at least two layers")
        for (_, a), (nb, b) in zip(named, named[1:]):
            if a.shape[1] != b.shape[0]:
                raise ShapeMismatch(
                    f"layer {nb!r} expects {a.shape[1]} inputs, has {b.shape[0]}"
                )
        self._names = tuple(name for name, _ in named)
        self._weights = {name: w for name, w in named}

    @property
    def names(self):
        return self._names

    @property
    def n_layers(self):
        return len(self._names)

    @property
    def input_dim(self):
        return self._weights[self._names[0]].shape[0]

    def weight(self, name):
        return self._weights[name]

    def items(self):
        return [(name, self._weights[name]) for name in self._names]

    def shape(self, name):
        return self._weights[name].shape

    def replace(self, updates):
        """New backbone with some layers swapped out."""
        unknown = set(updates) - set(self._names)
        if unknown:
            raise ShapeMismatch(f"unknown layers {sorted(unknown)}")
        return Backbone(
            [(name, updates.get(name, self._weights[name])) for name in self._names]
        )


def default_layer_names(n_layers):
    return tuple(f"layer{i}" for i in range(1, n_layers + 1))


def init_backbone(image_size=16, hidden_width=64, n_layers=8, seed=0):
    """Glorot-uniform initialized stack: image -> hidden x (n-2) -> image."""
    if n_layers < 2:
        raise ConfigInvalid("n_layers must be at least 2")
    dims = [image_size * image_size] + [hidden_width] * (n_layers - 1) + [image_size * image_size]
    rng = make_rng(seed, "backbone-init")
    layers = []
    for idx, name in enumerate(default_layer_names(n_layers)):
        d_in, d_out = dims[idx], dims[idx + 1]
        limit = math.sqrt(6.0 / (d_in + d_out))
        layers.append((name, rng.uniform(-limit, limit, size=(d_in, d_out))))
    return Backbone(layers)


def sinusoidal_embedding(t, dim):
    """Classic sin/cos features of integer timesteps; accepts scalars or 1-D t."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = np.exp(-math.log(10000.0) * exponents)
    angles = t[..., None] * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros(emb.shape[:-1] + (1,))], axis=-1)
    return emb


_COND_PROJECTIONS = {}


def conditioning_projection(emb_dim, hidden_width):
    """Fixed projection from the text embedding into the hidden width.

    Deterministic in the architecture alone (not the run seed), so that a
    checkpoint of the named layers is sufficient to reproduce sampling.
    """
    key = (emb_dim, hidden_width)
    proj = _COND_PROJECTIONS.get(key)
    if proj is None:
        rng = make_rng(0, "conditioning-projection", emb_dim, hidden_width)
        proj = rng.standard_normal((emb_dim, hidden_width)) / math.sqrt(emb_dim)
        proj.flags.writeable = False
        _COND_PROJECTIONS[key] = proj
    return proj


def _injection(t, cond, hidden_width):
    emb = sinusoidal_embedding(t, hidden_width)
    if cond is None:
        return emb
    cond = np.asarray(cond, dtype=np.float64)
    return cond @ conditioning_projection(cond.shape[-1], hidden_width) + emb


# Soft, non-saturating pointwise nonlinearity: smooth everywhere (finite
# differences stay clean) and passes near-identity maps without crushing
# magnitudes the way a pure tanh stack does.
_LEAK = 0.2


def activation(a):
    return np.tanh(a) + _LEAK * a


def activation_grad(a):
    th = np.tanh(a)
    return 1.0 - th * th + _LEAK


def _linear(h, w, term):
    out = h @ w
    if term is not None:
        down, up = term
        out = out + (h @ down) @ up
    return out


def forward_pass(x, t, cond, backbone, terms=None):
    """Batched forward through the named layers.

    ``x`` is (batch, d_in); ``t`` scalar or (batch,); ``cond`` is None (the
    null embedding) or (batch, emb_dim). ``terms`` optionally maps layer
    names to unmerged low-rank updates ``(sB, A)``, where ``sB`` is the
    down factor already scaled; such a layer computes
    ``h @ W + (h @ sB) @ A``, equal to ``h @ (W + sB @ A)`` up to rounding.
    Returns the prediction and the cache (inputs and pre-activations) needed
    for the backward pass, which differentiates the bare weights only.
    """
    terms = terms or {}
    (first, w_first), *middle, (last, w_last) = backbone.items()
    a = _linear(x, w_first, terms.get(first)) + _injection(t, cond, w_first.shape[1])
    cache = [x, a]
    h = activation(a)
    for name, w in middle:
        a = _linear(h, w, terms.get(name))
        cache.append(a)
        h = activation(a)
    return _linear(h, w_last, terms.get(last)), cache


def backward_pass(cache, backbone, d_out):
    """Gradients of a scalar loss w.r.t. every layer weight.

    ``d_out`` is the loss gradient at the network output, same shape as the
    forward result. ``cache`` comes from ``forward_pass``. Returns a dict
    keyed by layer name.
    """
    names = backbone.names
    weights = [backbone.weight(n) for n in names]
    grads = {}
    g = d_out
    grads[names[-1]] = activation(cache[-1]).T @ g
    g = g @ weights[-1].T
    for k in range(len(names) - 1, 0, -1):
        a = cache[k]
        g = g * activation_grad(a)
        if k > 1:
            grads[names[k - 1]] = activation(cache[k - 1]).T @ g
            g = g @ weights[k - 1].T
        else:
            grads[names[0]] = cache[0].T @ g
    return grads


def predict_eps(x_t, t, cond_embedding, backbone, counter=None, terms=None):
    """Single-image noise prediction; pure and deterministic.

    ``cond_embedding`` may be None or the all-zero null embedding for the
    unconditional path. ``terms`` are unmerged low-rank layer updates, as
    in ``forward_pass``.
    """
    x_t = as_image(x_t, "x_t")
    if x_t.size != backbone.input_dim:
        raise ShapeMismatch(
            f"image has {x_t.size} pixels but the backbone expects {backbone.input_dim}"
        )
    if counter is not None:
        counter.bump()
    cond = None if cond_embedding is None else np.asarray(cond_embedding, dtype=np.float64)[None, :]
    out, _ = forward_pass(x_t.reshape(1, -1), int(t), cond, backbone, terms)
    return out.reshape(x_t.shape)


def forward_noise(x0, t, noise, schedule):
    """Forward diffusion: sqrt(abar_t) x0 + sqrt(1 - abar_t) noise."""
    x0 = as_image(x0, "x0")
    noise = as_image(noise, "noise")
    check_same_shape(x0, noise, "x0", "noise")
    ab = schedule.alpha_bar(t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * noise


def predict_x0(x_t, t, eps, schedule):
    """Invert the forward process given a noise estimate."""
    x_t = as_image(x_t, "x_t")
    eps = as_image(eps, "eps")
    check_same_shape(x_t, eps, "x_t", "eps")
    ab = schedule.alpha_bar(t)
    return (x_t - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)


def ddpm_step(x_t, t, eps_hat, schedule, rng=None, clip_x0=None):
    """One reverse-process sample; at t == 1 the posterior mean, no noise.

    The generator is only consumed for t > 1, which keeps trajectory replay
    conventions simple. With ``clip_x0=(lo, hi)`` the implied clean estimate
    is clamped before the posterior update, the usual stabilizer for small
    undertrained models; mathematically the two branches agree whenever the
    estimate is inside the range.
    """
    x_t = as_image(x_t, "x_t")
    eps_hat = as_image(eps_hat, "eps_hat")
    check_same_shape(x_t, eps_hat, "x_t", "eps_hat")
    t = int(t)
    if clip_x0 is not None:
        x0_hat = np.clip(predict_x0(x_t, t, eps_hat, schedule), clip_x0[0], clip_x0[1])
        return posterior_from_x0(x_t, t, x0_hat, schedule, rng)
    bt = schedule.beta(t)
    ab = schedule.alpha_bar(t)
    mean = (x_t - bt / math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(schedule.alpha(t))
    if t == 1:
        return mean
    if rng is None:
        raise ValueError("an rng is required for t > 1")
    sigma = math.sqrt(schedule.posterior_variance(t))
    return mean + sigma * rng.standard_normal(x_t.shape)


def posterior_from_x0(x_t, t, x0_hat, schedule, rng=None):
    """Reverse-process sample expressed through a clean estimate.

    Used by the filtered-denoising generation path; at t == 1 returns the
    clean estimate itself.
    """
    x_t = as_image(x_t, "x_t")
    x0_hat = as_image(x0_hat, "x0_hat")
    check_same_shape(x_t, x0_hat, "x_t", "x0_hat")
    t = int(t)
    if t == 1:
        return x0_hat.copy()
    ab = schedule.alpha_bar(t)
    abp = schedule.alpha_bar_prev(t)
    bt = schedule.beta(t)
    mean = (
        math.sqrt(abp) * bt * x0_hat
        + math.sqrt(schedule.alpha(t)) * (1.0 - abp) * x_t
    ) / (1.0 - ab)
    if rng is None:
        raise ValueError("an rng is required for t > 1")
    sigma = math.sqrt(schedule.posterior_variance(t))
    return mean + sigma * rng.standard_normal(x_t.shape)


class DenoiserTrainer:
    """Adam trainer for the epsilon-matching objective.

    The keywords are the fields of ``DenoiserSettings``, with ``steps``
    accepted for ``train_steps``; they are validated here, once.
    fit(images, embeddings) -> self, with the trained weights in
    ``backbone_`` and the per-step loss curve in ``loss_history_``.
    Deterministic given ``seed``.
    """

    def __init__(self, schedule=None, seed=0, **settings):
        if "steps" in settings:
            settings["train_steps"] = settings.pop("steps")
        self.settings = DenoiserSettings(**settings)
        self.settings.validate()
        self.schedule = schedule or NoiseSchedule.linear()
        self.seed = seed

    def fit(self, images, embeddings=None):
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3 or images.shape[0] < 1:
            raise ConfigInvalid("images must be a non-empty (n, H, W) array")
        n = images.shape[0]
        flat = images.reshape(n, -1)
        if embeddings is None:
            embeddings = np.zeros((n, EMB_DIM))
        else:
            embeddings = np.asarray(embeddings, dtype=np.float64)
            if embeddings.shape != (n, EMB_DIM):
                raise ConfigInvalid(
                    f"embeddings must have shape ({n}, {EMB_DIM}), got {embeddings.shape}"
                )
        cfg = self.settings
        schedule = self.schedule
        backbone = init_backbone(cfg.image_size, cfg.hidden_width, cfg.n_layers, self.seed)
        rng = make_rng(self.seed, "denoiser-train")
        optimizer = Adam()
        pixels = flat.shape[1]
        batch = cfg.batch_size
        history = []
        for step in range(cfg.train_steps):
            lr = lr_at(step, cfg.train_steps, cfg.peak_lr, cfg.start_lr, cfg.floor_lr, cfg.warmup)
            idx = rng.integers(0, n, size=batch)
            ts = rng.integers(1, schedule.total_steps + 1, size=batch)
            noise = rng.standard_normal((batch, pixels))
            keep = rng.random(batch) >= cfg.cond_dropout
            x0 = flat[idx]
            ab = schedule.alpha_bars[ts - 1][:, None]
            x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise
            cond = embeddings[idx] * keep[:, None]
            pred, acts = forward_pass(x_t, ts, cond, backbone)
            resid = pred - noise
            loss = float(np.mean(resid * resid))
            check_loss(loss, history, "denoiser")
            history.append(loss)
            d_out = 2.0 * resid / resid.size
            grads = backward_pass(acts, backbone, d_out)
            backbone = backbone.replace(
                optimizer.step(dict(backbone.items()), grads, lr)
            )
        self.backbone_ = backbone
        self.loss_history_ = history
        return self
