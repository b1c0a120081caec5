"""Low-rank adapter algebra with disjoint-layer routing.

Content adapters own an early subset of layers and style adapters a late
subset; the two sets never overlap. Each adapter's update on its layer is
``gate(e_sem) * B @ A`` where the gate is a learned scalar sigmoid of the
semantic embedding, so the update stays rank-r. Training computes gradients
for the adapter's own factors and gate only; the host stays frozen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import AdapterSettings
from .denoiser import NoiseSchedule, denoising_loss
from .exceptions import ConfigInvalid, MarkerMissing, RoutingViolation, ShapeMismatch
from .optim import Adam
from .prompts import EMB_DIM, encode_semantic, parse_prompt
from .utils import make_rng, train_loop
from .validation import as_image, float_dtype

KINDS = ("content", "style")

# Half-width of the uniform draw of a fresh adapter's down factors.
INIT_SCALE = 0.02


@dataclass(frozen=True)
class LayerRouting:
    """Disjoint layer-name sets for the content and style adapters."""

    content: tuple
    style: tuple

    def __post_init__(self):
        object.__setattr__(self, "content", tuple(self.content))
        object.__setattr__(self, "style", tuple(self.style))
        overlap = set(self.content) & set(self.style)
        if overlap:
            raise RoutingViolation(f"content and style sets overlap: {sorted(overlap)}")

    def side(self, kind):
        if kind not in KINDS:
            raise ValueError(f"unknown adapter kind {kind!r}")
        return self.content if kind == "content" else self.style


def default_routing(layer_names):
    """Early half hosts content (structure), late half style (rendering)."""
    names = tuple(layer_names)
    split = len(names) // 2
    return LayerRouting(content=names[:split], style=names[split:])


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


@dataclass
class LoraAdapter:
    """Per-layer (B, A) factor pairs plus the learned semantic gate."""

    kind: str
    rank: int
    factors: dict
    gate_w: np.ndarray
    gate_b: float
    routing: LayerRouting
    host_hash: str = ""

    def gate(self, e_rows):
        """One gate per row of an (n, EMB_DIM) batch of embeddings.

        Rows are gated one at a time: a batched matrix-vector product rounds
        a row differently depending on its position in the batch.
        """
        return np.array([_sigmoid(float(self.gate_w @ e) + self.gate_b) for e in e_rows])


def make_adapter(kind, backbone, routing, rank, seed=0, host_hash=""):
    """Fresh adapter: B small uniform, A zero, so the initial update is zero."""
    if kind not in KINDS:
        raise ConfigInvalid(f"adapter kind must be one of {KINDS}, got {kind!r}")
    if rank < 1:
        raise ConfigInvalid("adapter rank must be positive")
    rng = make_rng(seed, "adapter-init", kind)
    factors = {}
    for name in routing.side(kind):
        if name not in backbone.names:
            raise RoutingViolation(f"routing names unknown layer {name!r}")
        m, n = backbone.shape(name)
        if rank > min(m, n):
            raise ConfigInvalid(
                f"rank {rank} exceeds layer {name!r} of shape {(m, n)}"
            )
        factors[name] = (
            rng.uniform(-INIT_SCALE, INIT_SCALE, size=(m, rank)),
            np.zeros((rank, n)),
        )
    return LoraAdapter(
        kind=kind,
        rank=rank,
        factors=factors,
        gate_w=np.zeros(EMB_DIM),
        gate_b=0.0,
        routing=routing,
        host_hash=host_hash,
    )


def _check_adapters(w_init, adapters):
    """Each adapter's factors lie in its routing set, no layer is claimed
    twice, and every factor pair fits its host layer of ``w_init``."""
    claimed = set()
    for adapter in adapters:
        stray = set(adapter.factors) - set(adapter.routing.side(adapter.kind))
        if stray:
            raise RoutingViolation(
                f"{adapter.kind} adapter carries factors outside its set: {sorted(stray)}"
            )
        for name, (b, a) in adapter.factors.items():
            if name in claimed:
                raise RoutingViolation(f"layer {name!r} claimed by both adapters")
            claimed.add(name)
            if (
                name not in w_init.names
                or w_init.shape(name) != (b.shape[0], a.shape[1])
                or b.shape[1] != a.shape[0]
            ):
                raise ShapeMismatch(
                    f"adapter factors for {name!r} do not match the host layer"
                )


def adapter_terms(w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_rows):
    """Scaled adapter updates in unmerged form, ``{layer: (s, B, A)}``.

    ``s`` is ``gamma * gate(e_rows)``, an (n, 1) column holding one scale
    per row of the (n, EMB_DIM) embeddings ``e_rows``; a gain is one per
    row or one for all. Either adapter may be None. An adapter whose gains
    are all zero contributes no entry. The terms feed ``forward_pass``,
    which applies them at two rank-r products per layer without copying the host.
    A gain that is not finite and nonnegative raises ``ConfigInvalid``;
    also checks each adapter's routing, that no layer is claimed twice and
    that the factors fit the host.
    """
    active = []
    for kind, adapter, gamma in (
        ("content", content_adapter, gamma_content), ("style", style_adapter, gamma_style)
    ):
        gamma = np.asarray(gamma, dtype=np.float64)
        if not (np.isfinite(gamma).all() and (gamma >= 0.0).all()):
            raise ConfigInvalid(f"gamma_{kind} must be finite and nonnegative")
        if adapter is not None and np.any(gamma != 0.0):
            active.append((adapter, gamma))
    _check_adapters(w_init, [adapter for adapter, _ in active])
    terms = {}
    for adapter, gamma in active:
        scale = (gamma * adapter.gate(e_rows)).reshape(-1, 1)
        for name, (b, a) in adapter.factors.items():
            terms[name] = (scale, b, a)
    return terms


def aggregate_weights(w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_row):
    """Inject scaled adapter updates into the host backbone.

    Returns ``w_init`` with the ``adapter_terms`` of one (1, EMB_DIM)
    embedding row and scalar gains merged in, ``W + (s * B) @ A`` on each
    adapter's own layers; layers outside both sets are untouched, and a
    zero gamma contributes nothing (bit-exactly).
    """
    if np.shape(e_row) != (1, EMB_DIM):
        raise ShapeMismatch(f"e_row must be one (1, {EMB_DIM}) row, got {np.shape(e_row)}")
    terms = adapter_terms(w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_row)
    if not terms:
        return w_init
    return w_init.replace(
        {name: w_init.weight(name) + (s * down) @ up for name, (s, down, up) in terms.items()}
    )


def adapter_loss(w_init, adapter, reference, e_sem, schedule, draw):
    """``denoising_loss`` of the adapted model on one reference.

    ``w_init`` is the host, a ``Backbone`` or a dict of its layer weights
    in order, and ``adapter`` must fit it: the trainer checks that once
    per fit (``_check_adapters``, the checks of ``adapter_terms``), not on
    every step. ``draw`` is a (ts, noises) pair whose leading axis holds
    one draw per row, so the value is a pure function of its arguments;
    the draws run as the rows of one forward and backward pass, and the
    loss and gradients are the means of the draws'. The adapter enters in
    the sampler's unmerged form, its gate as every term's scale. The loss
    runs in ``float_dtype`` of the (H, W) ``reference``, to which the noise
    and the scale are cast; float32 also needs a float32 host, factors and
    ``e_sem``. Returns the loss, the factor gradients ``{layer: (dB, dA)}``
    of the adapter's own layers (every other parameter is frozen) and the
    gate gradients.
    """
    reference = np.asarray(reference)
    e_sem = np.asarray(e_sem)
    if reference.ndim != 2 or e_sem.shape != (EMB_DIM,):
        raise ShapeMismatch(
            f"reference must be one (H, W) image and e_sem {EMB_DIM} wide, got shapes "
            f"{reference.shape} and {e_sem.shape}"
        )
    dtype = float_dtype(reference)
    ts = np.asarray(draw[0], dtype=np.int64)
    noise = np.asarray(draw[1], dtype=dtype)
    rows = ts.size
    if ts.ndim != 1 or noise.size != rows * reference.size:
        raise ShapeMismatch(
            f"{noise.size} noise values for {rows} draws of {reference.size} pixels"
        )
    gate = float(adapter.gate(e_sem[None, :])[0])
    scale = np.full((rows, 1), gate, dtype=dtype)
    terms = {name: (scale, b, a) for name, (b, a) in adapter.factors.items()}
    loss, term_grads = denoising_loss(
        w_init,
        reference.reshape(1, -1).astype(dtype, copy=False),
        ts,
        noise.reshape(rows, -1),
        e_sem[None, :],
        schedule,
        terms,
    )

    factor_grads = {name: (d_down, d_up) for name, (d_down, d_up, _) in term_grads.items()}
    d_gate_in = sum(float(ds.sum()) for _, _, ds in term_grads.values()) * gate * (1.0 - gate)
    return loss, factor_grads, (d_gate_in * e_sem, d_gate_in)


class LoraTrainer:
    """Trains one adapter kind on a single reference with gradient masking.

    ``kind`` and the ``AdapterSettings`` fields, given as keywords, are
    validated here, once; ``routing`` defaults to ``default_routing`` of
    the host's layers.
    fit(backbone, reference, prompt) -> self; the trained adapter lands in
    ``adapter_`` and the loss curve in ``loss_history_``. The prompt must
    carry the marker matching ``kind``. Only the adapter's factors and
    gate train; the host and the layers outside the kind's set get no
    gradient. The fit runs in float32, the precision checkpoints store:
    the host, the reference, the embedding and the fresh adapter are cast
    once, each step's noise is drawn in float64 and cast once, and
    ``adapter_`` holds float32 factors and ``gate_w``.
    """

    def __init__(self, kind, routing=None, schedule=None, host_hash="", seed=0, **settings):
        if kind not in KINDS:
            raise ConfigInvalid(f"adapter kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.settings = AdapterSettings(**settings)
        self.settings.validate()
        self.routing = routing
        self.schedule = schedule or NoiseSchedule.linear()
        self.host_hash = host_hash
        self.seed = seed

    def fit(self, backbone, reference, prompt):
        spec = parse_prompt(prompt)
        marker_present = (
            spec.has_content_marker if self.kind == "content" else spec.has_style_marker
        )
        if not marker_present:
            raise MarkerMissing(
                f"prompt lacks the {'<c>' if self.kind == 'content' else '<s>'} marker"
            )
        reference = as_image(reference, "reference")
        if reference.size != backbone.input_dim:
            raise ShapeMismatch(
                f"reference has {reference.size} pixels; the host expects {backbone.input_dim}"
            )
        cfg = self.settings
        schedule = self.schedule
        routing = self.routing or default_routing(backbone.names)
        adapter = make_adapter(
            self.kind, backbone, routing, cfg.rank, seed=self.seed, host_hash=self.host_hash
        )
        _check_adapters(backbone, [adapter])  # once here, not on every step
        host = {name: w.astype(np.float32) for name, w in backbone.items()}
        reference = reference.astype(np.float32)
        e_sem = encode_semantic(spec.stripped).astype(np.float32)
        rng = make_rng(self.seed, "adapter-train", self.kind)
        params = {"gate.w": adapter.gate_w, "gate.b": adapter.gate_b}
        for name, (b, a) in adapter.factors.items():
            params[f"{name}.down"] = b
            params[f"{name}.up"] = a
        optimizer = Adam({name: np.asarray(p, dtype=np.float32) for name, p in params.items()})
        views = optimizer.params  # the adapter trains in place
        adapter.gate_w = views["gate.w"]
        adapter.gate_b = views["gate.b"]  # a 0-d view while it trains, a float after
        adapter.factors = {
            name: (views[f"{name}.down"], views[f"{name}.up"]) for name in adapter.factors
        }

        def step():
            ts, noises = [], []
            for _ in range(cfg.batch_size):
                ts.append(int(rng.integers(1, schedule.total_steps + 1)))
                noises.append(rng.standard_normal(reference.shape))
            loss, factor_grads, (g_w, g_b) = adapter_loss(
                host, adapter, reference, e_sem, schedule, (ts, np.stack(noises))
            )
            grads = {"gate.w": g_w, "gate.b": g_b}
            for name, (d_down, d_up) in factor_grads.items():
                grads[f"{name}.down"] = d_down
                grads[f"{name}.up"] = d_up
            return loss, grads

        history = train_loop("adapter", cfg, cfg.steps, step, optimizer)
        adapter.gate_b = float(adapter.gate_b)
        self.adapter_ = adapter
        self.loss_history_ = history
        return self
