"""Toy conditional diffusion denoiser.

The network is a stack of named fully-connected layers acting on flattened
images. Weights are stored input-major, shape (d_in, d_out), and applied as
``h @ W``; the rank-limited projection and the low-rank adapters both attach
to these named weight matrices. Conditioning is injected additively after
the first layer through a fixed projection, next to a sinusoidal timestep
embedding, so checkpoints of the named layers fully determine sampling.
"""

import copy
import functools
import math
from typing import NamedTuple

import numpy as np

from .config import DenoiserSettings, ScheduleSettings
from .exceptions import ConfigInvalid, NumericalError, OutOfRange, ShapeMismatch
from .optim import Adam
from .prompts import EMB_DIM
from .utils import make_rng, train_loop
from .validation import as_matrix, as_timestep, check_same_shape, float_dtype


class StepCoefficients(NamedTuple):
    """The scalars of one reverse step from t to s, the schedule's kept step
    before t (0 for t == 1), with ab = alpha_bar(t), abp = alpha_bar(s) (1.0
    at s == 0), at = ab / abp and bt = 1 - at; for s == t - 1, bt = beta_t."""

    sqrt_ab: float  # sqrt(ab)
    sqrt_one_minus_ab: float  # sqrt(1 - ab)
    x0_coef: float  # sqrt(abp) * bt
    xt_coef: float  # sqrt(at) * (1 - abp)
    one_minus_ab: float  # 1 - ab
    sigma: float  # sqrt((1 - abp) / (1 - ab) * bt)


class NoiseSchedule:
    """Forward-process variances and their cumulative products, 1-based t.

    ``timesteps`` are the steps the reverse process visits, ascending from
    1 to T (every step by default; see ``respaced``). The reverse step's
    scalars are built once per kept step, here, and read with
    ``coefficients(t)``. Everything else (``total_steps``, ``alpha_bar``)
    reads the full schedule.
    """

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
        self._keep(range(1, betas.size + 1))

    def _keep(self, kept):
        """Keep the ascending steps ``kept``, 1 to T, and build their scalars."""
        self.timesteps = tuple(kept)
        # Python floats: the same IEEE arithmetic as NumPy scalars, faster to read
        abars, bts, ats = (v.tolist() for v in (self.alpha_bars, self.betas, self.alphas))
        coefs = {}
        s = 0
        for t in self.timesteps:
            ab = abars[t - 1]
            abp = abars[s - 1] if s else 1.0
            if s == t - 1:
                at, bt = ats[t - 1], bts[t - 1]
            else:
                at = ab / abp
                bt = 1.0 - at
            coefs[t] = StepCoefficients(
                math.sqrt(ab),
                math.sqrt(1.0 - ab),
                math.sqrt(abp) * bt,
                math.sqrt(at) * (1.0 - abp),
                1.0 - ab,
                math.sqrt((1.0 - abp) / (1.0 - ab) * bt),
            )
            s = t
        self._coefs = coefs

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

    def respaced(self, k):
        """The schedule sampled at the k kept steps ``round(linspace(1, T, k))``.

        The kept steps always hold T and 1. Each reverse step jumps from its
        kept t to the kept s before it (Nichol & Dhariwal 2021), with
        at = alpha_bar(t) / alpha_bar(s) in place of alpha_t; consecutive
        steps keep their scalars bit for bit, so ``respaced(T)`` samples
        exactly as the schedule itself. The network, the guidance windows
        and the alpha ramp still read the original t. A k outside [2, T]
        raises ``ConfigInvalid``.
        """
        n = self.total_steps
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 2 <= k <= n:
            raise ConfigInvalid(f"a respaced schedule keeps 2 to {n} steps, got {k!r}")
        spaced = copy.copy(self)
        spaced._keep(np.round(np.linspace(1, n, k)).astype(int).tolist())
        return spaced

    @property
    def total_steps(self):
        return int(self.betas.size)

    def alpha_bar(self, t):
        """The alpha_bar of each timestep in ``t``, an int or an integer
        array, in t's shape; a timestep outside [1, T] raises ``OutOfRange``."""
        t = np.asarray(t)
        if t.dtype.kind not in "iu" or (t.size and not 1 <= t.min() <= t.max() <= self.total_steps):
            raise OutOfRange(f"t must be integers in [1, {self.total_steps}], got {t}")
        return self.alpha_bars[t - 1]

    def coefficients(self, t):
        """The ``StepCoefficients`` of the reverse step at t, one of the kept
        ``timesteps``; any other t, a bool or 2.7 too, raises ``OutOfRange``."""
        c = self._coefs.get(as_timestep(t))
        if c is None:
            raise OutOfRange(
                f"t must be one of the {len(self.timesteps)} kept steps in "
                f"[1, {self.total_steps}], got {t}"
            )
        return c


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
        self._items = tuple(named)

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
        return self._items

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


def init_backbone(
    image_size=DenoiserSettings.image_size,
    hidden_width=DenoiserSettings.hidden_width,
    n_layers=DenoiserSettings.n_layers,
    seed=0,
):
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


def conditioning_projection(hidden_width):
    """Fixed projection from the text embedding into the hidden width.

    Deterministic in the architecture alone (not the run seed), so that a
    checkpoint of the named layers is sufficient to reproduce sampling.
    """
    proj = _COND_PROJECTIONS.get(hidden_width)
    if proj is None:
        rng = make_rng(0, "conditioning-projection", EMB_DIM, hidden_width)
        proj = rng.standard_normal((EMB_DIM, hidden_width)) / math.sqrt(EMB_DIM)
        proj.flags.writeable = False
        _COND_PROJECTIONS[hidden_width] = proj
    return proj


@functools.lru_cache(maxsize=1024)
def _step_embedding(t, dim, dtype):
    """``sinusoidal_embedding`` of one integer timestep in ``dtype``, computed once."""
    emb = sinusoidal_embedding(t, dim).astype(dtype, copy=False)
    emb.flags.writeable = False
    return emb


@functools.lru_cache(maxsize=64)
def _embedding_table(n, dim, dtype):
    """Row t is ``sinusoidal_embedding(t, dim)`` in ``dtype``, for t in [0, n)."""
    table = sinusoidal_embedding(np.arange(n), dim).astype(dtype, copy=False)
    table.flags.writeable = False
    return table


# Timesteps from here on are computed rather than gathered from a table.
_TABLE_ROWS = 4096


def _steps_embedding(t, dim, dtype):
    """``sinusoidal_embedding`` of an array of timesteps in ``dtype``: the
    rows of a cached table for integers in [0, _TABLE_ROWS), bit for bit
    the direct computation, else computed."""
    t = np.asarray(t)
    if t.dtype.kind in "iu" and t.size and t.min() >= 0 and t.max() < _TABLE_ROWS:
        # tables of 2^k rows, so a handful serve every schedule
        return _embedding_table(1 << int(t.max()).bit_length(), dim, dtype)[t]
    return sinusoidal_embedding(t, dim).astype(dtype, copy=False)


class ProjectedConditioning(NamedTuple):
    """Conditioning rows already mapped into the hidden width.

    ``forward_pass`` takes it for ``cond`` and adds the rows as they are,
    so a caller whose conditioning is fixed over many passes projects it
    once (see ``project_conditioning``).
    """

    rows: np.ndarray


def project_conditioning(cond, hidden_width):
    """``cond @ conditioning_projection(...)``, what ``forward_pass`` injects.

    The product is float64; float32 rows get it rounded once to float32,
    as a guidance plan holds its conditioning. ``ShapeMismatch`` unless
    each conditioning row is ``EMB_DIM`` wide.
    """
    cond = np.asarray(cond)
    if cond.shape[-1:] != (EMB_DIM,):
        raise ShapeMismatch(f"conditioning rows must be {EMB_DIM} wide, got shape {cond.shape}")
    rows = cond @ conditioning_projection(hidden_width)
    return ProjectedConditioning(rows.astype(float_dtype(cond), copy=False))


def _injection(t, cond, hidden_width):
    if not isinstance(cond, ProjectedConditioning):
        cond = project_conditioning(cond, hidden_width)
    if isinstance(t, int):
        emb = _step_embedding(t, hidden_width, cond.rows.dtype)
    else:
        emb = _steps_embedding(t, hidden_width, cond.rows.dtype)
    return cond.rows + emb


# Soft, non-saturating pointwise nonlinearity: smooth everywhere (finite
# differences stay clean) and passes near-identity maps without crushing
# magnitudes the way a pure tanh stack does.
_LEAK = 0.2


def activation(a):
    h = np.tanh(a)
    h += _LEAK * a
    return h


def activation_grad(a):
    th = np.tanh(a)
    return 1.0 - th * th + _LEAK


def _linear(h, w, term):
    out = h @ w
    if term is not None:
        scale, down, up = term
        rows = len(scale)
        out[:rows] += ((h[:rows] @ down) * scale) @ up
    return out


def forward_pass(x, t, cond, backbone, terms=None):
    """Batched forward through the named layers.

    ``x`` is (batch, d_in); ``t`` scalar or (batch,); ``cond`` is (batch,
    EMB_DIM), a zero row being the null embedding, or its
    ``ProjectedConditioning``, with the same result; conditioning of any
    other width is ``ShapeMismatch``. ``backbone`` is a
    ``Backbone`` or any ordered mapping of layer names to weights.
    ``terms`` optionally maps layer names to unmerged low-rank updates
    ``(s, B, A)``, where ``s`` is a (k, 1) column holding one scale per row;
    such a layer computes ``h @ W + ((h @ B) * s) @ A``, which for each row
    equals ``h @ (W + s B @ A)`` up to rounding. A column shorter than the
    batch applies its term to the first k rows only; the later rows get
    the bare ``h @ W``. ``backward_pass`` takes only full-batch columns.
    The pass runs in NumPy's promotion of its inputs' dtypes: float32 when
    ``x``, the weights, the terms and ``cond`` (embedding rows or a
    ``ProjectedConditioning``) are all float32, else float64. Float32
    embedding rows project to float32 rows, and the embedding of t, an int
    or an array, is cast to the conditioning's dtype.

    Without terms the weights may carry a leading stack axis, (k, d_in,
    d_out), with ``x`` (k, batch, d_in), ``t`` (k, batch) and ``cond``
    (k, batch, EMB_DIM): k independent networks in one pass, each slice of
    the result bit for bit the 2-D call on that slice.
    Returns the prediction and the cache (inputs and pre-activations) needed
    for the backward pass.
    """
    terms = terms or {}
    (first, w_first), *middle, (last, w_last) = backbone.items()
    a = _linear(x, w_first, terms.get(first)) + _injection(t, cond, w_first.shape[-1])
    cache = [x, a]
    h = activation(a)
    for name, w in middle:
        a = _linear(h, w, terms.get(name))
        cache.append(a)
        h = activation(a)
    return _linear(h, w_last, terms.get(last)), cache


def backward_pass(cache, backbone, d_out, terms=None):
    """Gradients of a scalar loss w.r.t. the trainable parameters.

    ``d_out`` is the loss gradient at the network output, same shape as the
    forward result; ``cache``, ``backbone`` and ``terms`` are those of the
    ``forward_pass`` call. Without terms every layer weight trains and the
    result maps each layer name to its weight gradient, stacked like the
    weight when the call was stacked. With terms the host is frozen: the
    input gradient of a term layer chains through ``W + s B @ A`` and the
    result maps each term's layer to ``(dB, dA, ds)``, computed in factored
    form without forming a dense update; ``ds`` is the (n, 1) column of
    per-row sums, shaped like ``s``. The chain stops at the lowest term
    layer, since nothing below it trains.
    """
    terms = terms or {}
    layers = list(backbone.items())
    lowest = min((k for k, (name, _) in enumerate(layers) if name in terms), default=0)
    grads = {}
    g = d_out
    for k in range(len(layers) - 1, lowest - 1, -1):
        name, w = layers[k]
        term = terms.get(name)
        if term is not None or not terms:
            h = activation(cache[k]) if k else cache[0]
        if term is not None:
            scale, down, up = term
            hb = h @ down
            gu = g @ up.T
            ds = np.sum(hb * gu, axis=1, keepdims=True)
            grads[name] = (h.T @ (gu * scale), (hb * scale).T @ g, ds)
        elif not terms:
            grads[name] = h.swapaxes(-1, -2) @ g
        if k > lowest:
            g_in = g @ w.swapaxes(-1, -2)
            if term is not None:
                g_in = g_in + (gu * scale) @ down.T
            g = g_in * activation_grad(cache[k])
    return grads


def denoising_loss(weights, x0, ts, noise, cond, schedule, terms=None):
    """The noise-matching objective that the base and the adapters train on:
    the clean rows ``x0`` (one row broadcasts to every draw) noised at ``ts``
    with the (rows, pixels) ``noise`` and run through ``forward_pass`` under
    ``cond`` and ``terms``. Returns the mean squared error of the output
    against the noise and its ``backward_pass`` gradients. It runs in the
    dtype of the arrays ``x0`` and ``noise`` (``float_dtype``): with float32
    weights, terms and ``cond`` too, the whole objective runs in float32."""
    ab = schedule.alpha_bar(ts)[:, None].astype(float_dtype(x0, noise), copy=False)
    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise
    pred, cache = forward_pass(x_t, ts, cond, weights, terms)
    resid = pred - noise
    loss = float(np.mean(resid * resid))
    return loss, backward_pass(cache, weights, 2.0 * resid / resid.size, terms)


def clean_estimate(x_t, out, sqrt_ab, sqrt_one_minus_ab):
    """``(x_t - sqrt(1 - ab) out) / sqrt(ab)``, the clean image that the
    network output ``out`` implies, and its derivative in ``out``; Python
    float coefficients keep a float32 state in float32."""
    x0_hat = x_t - sqrt_one_minus_ab * out
    x0_hat /= sqrt_ab
    return x0_hat, -sqrt_one_minus_ab / sqrt_ab


def ddpm_step(x_t, t, eps_hat, schedule, noise=None, x0_map=None):
    """One reverse-process sample; at t == 1 the clean estimate, no noise.

    ``x_t`` holds flattened images as its rows and ``noise`` the step's
    standard-normal draw, one row per state row; it is required for t > 1,
    must have the shape of ``x_t`` and is ignored at t == 1. The caller
    owns the noise streams, so the step is pure arithmetic. It forms the
    clean estimate implied by the noise estimate, passes it through
    ``x0_map`` (a clip, a frequency filter, ...; None is the identity) and
    takes the posterior mean from the mapped estimate, which at t == 1 is
    the output itself. The map receives a fresh array, which it may
    overwrite and return; the step may overwrite ``noise`` likewise. The
    scalars come from ``schedule.coefficients(t)``. The state, the noise
    estimate and the clean estimate, all (rows, pixels), must be finite
    before and after the map, or ``NumericalError`` names t. A float32
    ``x_t`` and ``eps_hat`` step in float32, the noise and the mapped
    estimate cast to it; any other input steps in float64.
    """
    c = schedule.coefficients(t)
    t = int(t)
    x_t = np.asarray(x_t)
    eps_hat = np.asarray(eps_hat)
    dtype = float_dtype(x_t, eps_hat)
    x_t = x_t.astype(dtype, copy=False)
    eps_hat = eps_hat.astype(dtype, copy=False)
    check_same_shape(x_t, eps_hat, "x_t", "eps_hat")
    if x_t.ndim != 2 or x_t.size == 0:
        raise ShapeMismatch(f"x_t must be (rows, pixels), got shape {x_t.shape}")
    if t > 1:
        if noise is None:
            raise ValueError(f"the reverse step at t={t} needs its noise draw")
        noise = np.asarray(noise, dtype=dtype)
        check_same_shape(x_t, noise, "x_t", "noise")
    # a non-finite x_t or eps_hat makes the estimate non-finite too, so one
    # check covers all three; the estimate can also overflow where both
    # are finite, and a clipping map would hide that
    with np.errstate(over="ignore", invalid="ignore"):
        x0_hat, _ = clean_estimate(x_t, eps_hat, c.sqrt_ab, c.sqrt_one_minus_ab)
    _check_finite(x0_hat, "the clean estimate", t, x_t, eps_hat)
    if x0_map is not None:
        x0_hat = np.asarray(x0_map(x0_hat), dtype=dtype)
        _check_finite(x0_hat, "the mapped clean estimate", t)
        check_same_shape(x_t, x0_hat, "x_t", "x0_hat")
    if t == 1:
        return x0_hat
    mean = c.x0_coef * x0_hat
    mean += c.xt_coef * x_t
    mean /= c.one_minus_ab
    noise *= c.sigma
    mean += noise
    return mean


def reverse_process(draw, estimate, schedule, x0_map):
    """Every sampler's one loop: the reverse process over the schedule's
    kept ``timesteps``, from T down to 1.

    ``draw()`` returns the rows' next standard-normal draws: the start
    state, then the noise of each kept step t > 1; none is drawn at t == 1.
    ``estimate(x, t)`` is the noise estimate of state ``x`` at t, and
    ``x0_map`` each ``ddpm_step``'s clean-estimate map. Overflow in the
    loop is silenced, so it reaches the estimate's or the step's finite
    check and raises ``NumericalError`` naming its step. Returns the t == 1
    output, in the dtype the draws and estimates give the step.
    """
    x = draw()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in reversed(schedule.timesteps):
            eps = estimate(x, t)
            x = ddpm_step(x, t, eps, schedule, draw() if t > 1 else None, x0_map=x0_map)
    return x


def _check_finite(arr, name, t, x_t=None, eps_hat=None):
    """``NumericalError`` naming t unless ``arr`` is finite; when ``arr`` was
    computed from ``x_t`` and ``eps_hat``, it names the first of those
    inputs that is itself non-finite."""
    if np.isfinite(arr).all():
        return
    for given, label in ((x_t, "x_t"), (eps_hat, "eps_hat")):
        if given is not None and not np.isfinite(given).all():
            name = label
            break
    raise NumericalError(f"{name} at t={t} contains non-finite entries")


class DenoiserTrainer:
    """Adam trainer for the noise-matching objective, ``denoising_loss``.

    The keywords are the fields of ``DenoiserSettings``, with ``steps``
    accepted for ``train_steps``; they are validated here, once.
    fit(images, embeddings) -> self takes (n, H, W) images and their (n,
    EMB_DIM) embeddings, a zero row being the null embedding; the trained
    weights land in ``backbone_`` and the per-step loss curve in
    ``loss_history_``. Deterministic given ``seed``. The fit runs in
    float32, the precision checkpoints store: the images, the embeddings
    and the initial weights are cast once, and each step's noise is drawn
    in float64 and cast once. ``backbone_`` holds the float32 weights
    widened to float64, as a loaded checkpoint does.
    """

    def __init__(self, schedule=None, seed=0, **settings):
        if "steps" in settings:
            settings["train_steps"] = settings.pop("steps")
        self.settings = DenoiserSettings(**settings)
        self.settings.validate()
        self.schedule = schedule or NoiseSchedule.linear()
        self.seed = seed

    def fit(self, images, embeddings):
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3 or images.shape[0] < 1:
            raise ConfigInvalid("images must be a non-empty (n, H, W) array")
        cfg = self.settings
        if images.shape[1:] != (cfg.image_size, cfg.image_size):
            raise ShapeMismatch(
                f"images are {images.shape[1]}x{images.shape[2]}; the denoiser is "
                f"{cfg.image_size}x{cfg.image_size}"
            )
        n = images.shape[0]
        flat = images.reshape(n, -1).astype(np.float32)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape != (n, EMB_DIM):
            raise ConfigInvalid(f"embeddings must be ({n}, {EMB_DIM}), got {embeddings.shape}")
        embeddings = embeddings.astype(np.float32)
        schedule = self.schedule
        backbone = init_backbone(cfg.image_size, cfg.hidden_width, cfg.n_layers, self.seed)
        optimizer = Adam({name: w.astype(np.float32) for name, w in backbone.items()})
        weights = optimizer.params  # views of the optimizer's buffer, trained in place
        rng = make_rng(self.seed, "denoiser-train")
        pixels = flat.shape[1]
        batch = cfg.batch_size

        def step():
            idx = rng.integers(0, n, size=batch)
            ts = rng.integers(1, schedule.total_steps + 1, size=batch)
            noise = rng.standard_normal((batch, pixels)).astype(np.float32)
            keep = rng.random(batch) >= cfg.cond_dropout
            cond = embeddings[idx] * keep[:, None]
            return denoising_loss(weights, flat[idx], ts, noise, cond, schedule)

        history = train_loop("denoiser", cfg, cfg.train_steps, step, optimizer)
        for name, w in backbone.items():
            w[...] = weights[name]
        self.backbone_ = backbone
        self.loss_history_ = history
        return self
