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
from .denoiser import NoiseSchedule, backward_pass, forward_pass
from .exceptions import ConfigInvalid, MarkerMissing, RoutingViolation, ShapeMismatch
from .optim import Adam
from .prompts import EMB_DIM, encode_semantic, parse_prompt
from .utils import check_loss, check_trained, lr_at, make_rng
from .validation import as_image, as_vector

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


def _check_adapter(adapter):
    allowed = set(adapter.routing.side(adapter.kind))
    stray = set(adapter.factors) - allowed
    if stray:
        raise RoutingViolation(
            f"{adapter.kind} adapter carries factors outside its set: {sorted(stray)}"
        )


def adapter_terms(w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_rows):
    """Scaled adapter updates in unmerged form, ``{layer: (s, B, A)}``.

    ``s`` is ``gamma * gate(e_rows)``, an (n, 1) column holding one scale
    per row of the (n, EMB_DIM) embeddings ``e_rows``; a gain is one per
    row or one for all. Either adapter may be None. An adapter whose gains
    are all zero contributes no entry. The terms feed ``forward_pass``,
    which applies them at two rank-r products per layer without copying the host.
    Checks the gains, each adapter's routing, that no layer is claimed
    twice and that the factors fit the host.
    """
    terms = {}
    for adapter, gamma in ((content_adapter, gamma_content), (style_adapter, gamma_style)):
        gamma = np.asarray(gamma, dtype=np.float64)
        if np.any(gamma < 0.0):
            raise ConfigInvalid("gamma values must be nonnegative")
        if adapter is None or not np.any(gamma != 0.0):
            continue
        _check_adapter(adapter)
        scale = (gamma * adapter.gate(e_rows)).reshape(-1, 1)
        for name, (b, a) in adapter.factors.items():
            if name in terms:
                raise RoutingViolation(f"layer {name!r} claimed by both adapters")
            if (
                name not in w_init.names
                or w_init.shape(name) != (b.shape[0], a.shape[1])
                or b.shape[1] != a.shape[0]
            ):
                raise ShapeMismatch(
                    f"adapter factors for {name!r} do not match the host layer"
                )
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
    """Epsilon-matching objective of the adapted model on one reference.

    ``draw`` is a (ts, noises) pair whose leading axis holds one draw per
    row, so the value is a pure function of its arguments; the draws run
    as the rows of one forward and backward pass, and the loss and
    gradients are the means of the draws'. The adapter enters through
    ``adapter_terms``, the sampler's unmerged form, with its gate as the
    terms' scale. Returns the loss, the factor gradients ``{layer: (dB,
    dA)}`` of the adapter's own layers (every other parameter is frozen)
    and the gate gradients.
    """
    reference = as_image(reference, "reference")
    e_sem = as_vector(e_sem, EMB_DIM, "e_sem")
    ts = np.asarray(draw[0], dtype=np.int64)
    noise = np.asarray(draw[1], dtype=np.float64)
    rows = ts.size
    if ts.ndim != 1 or noise.size != rows * reference.size:
        raise ShapeMismatch(
            f"{noise.size} noise values for {rows} draws of {reference.size} pixels"
        )
    noise = noise.reshape(rows, -1)
    ab = np.array([schedule.alpha_bar(t) for t in ts])[:, None]
    z_t = np.sqrt(ab) * reference.reshape(1, -1) + np.sqrt(1.0 - ab) * noise
    e_rows = np.repeat(e_sem[None, :], rows, axis=0)
    pair = (adapter, None) if adapter.kind == "content" else (None, adapter)
    terms = adapter_terms(w_init, *pair, 1.0, 1.0, e_rows)
    pred, cache = forward_pass(z_t, ts, e_rows, w_init, terms)
    resid = pred - noise
    loss = float(np.mean(resid * resid))
    term_grads = backward_pass(cache, w_init, 2.0 * resid / resid.size, terms)

    factor_grads = {name: (d_down, d_up) for name, (d_down, d_up, _) in term_grads.items()}
    gate = float(adapter.gate(e_sem[None, :])[0])
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
    gradient. Pass ``on_step`` to observe each step's factor gradients,
    ``{layer: (dB, dA)}`` over the kind's layers.
    """

    def __init__(
        self, kind, routing=None, schedule=None, host_hash="", on_step=None, seed=0, **settings
    ):
        if kind not in KINDS:
            raise ConfigInvalid(f"adapter kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.settings = AdapterSettings(**settings)
        self.settings.validate()
        self.routing = routing
        self.schedule = schedule or NoiseSchedule.linear()
        self.host_hash = host_hash
        self.on_step = on_step
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
        e_sem = encode_semantic(spec.stripped)
        rng = make_rng(self.seed, "adapter-train", self.kind)
        params = {"gate.w": adapter.gate_w, "gate.b": adapter.gate_b}
        for name, (b, a) in adapter.factors.items():
            params[f"{name}.down"] = b
            params[f"{name}.up"] = a
        optimizer = Adam(params)
        views = optimizer.params  # the adapter trains in place
        adapter.gate_w = views["gate.w"]
        adapter.factors = {
            name: (views[f"{name}.down"], views[f"{name}.up"]) for name in adapter.factors
        }
        history = []
        for step in range(cfg.steps):
            lr = lr_at(step, cfg.steps, cfg.peak_lr, cfg.start_lr, cfg.floor_lr, cfg.warmup)
            ts, noises = [], []
            for _ in range(cfg.batch_size):
                ts.append(int(rng.integers(1, schedule.total_steps + 1)))
                noises.append(rng.standard_normal(reference.shape))
            loss, factor_grads, (g_w, g_b) = adapter_loss(
                backbone, adapter, reference, e_sem, schedule, (ts, np.stack(noises))
            )
            check_loss(loss, history, "adapter")
            history.append(loss)
            if self.on_step is not None:
                self.on_step(step, factor_grads, loss)
            grads = {"gate.w": g_w, "gate.b": g_b}
            for name, (d_down, d_up) in factor_grads.items():
                grads[f"{name}.down"] = d_down
                grads[f"{name}.up"] = d_up
            optimizer.step(grads, lr)
            adapter.gate_b = float(views["gate.b"])
        check_trained([optimizer.flat], "adapter")
        self.adapter_ = adapter
        self.loss_history_ = history
        return self
