"""Low-rank adapter algebra with disjoint-layer routing.

Content adapters own an early subset of layers and style adapters a late
subset; the two sets never overlap. Each adapter's update on its layer is
``gate(e_sem) * B @ A`` where the gate is a learned scalar sigmoid of the
semantic embedding, so the update stays rank-r. Training confines gradients
to the adapter's own layer set; everything else receives exactly zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import AdapterSettings
from .denoiser import NoiseSchedule, backward_pass, forward_pass
from .exceptions import ConfigInvalid, MarkerMissing, RoutingViolation, ShapeMismatch
from .optim import Adam
from .prompts import EMB_DIM, encode_semantic, parse_prompt
from .utils import check_loss, lr_at, make_rng
from .validation import as_image, as_vector

KINDS = ("content", "style")


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

    def gate(self, e_sem):
        if e_sem is None:
            return _sigmoid(self.gate_b)
        e = np.asarray(e_sem, dtype=np.float64)
        return _sigmoid(float(self.gate_w @ e) + self.gate_b)


def make_adapter(kind, backbone, routing, rank, seed=0, init_scale=0.02, host_hash=""):
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
            rng.uniform(-init_scale, init_scale, size=(m, rank)),
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


def adapter_terms(
    w_init,
    content_adapter=None,
    style_adapter=None,
    gamma_content=0.0,
    gamma_style=0.0,
    e_sem=None,
):
    """Scaled adapter updates in unmerged form, ``{layer: (scale * B, A)}``.

    ``scale`` is ``gamma * gate(e_sem)``, or ``gamma`` alone when ``e_sem``
    is None; a zero gamma contributes no entry. The terms feed
    ``forward_pass``, which applies them at two rank-r products per layer
    without copying the host. Checks the gains, each adapter's routing,
    that no layer is claimed twice and that the factors fit the host.
    """
    if gamma_content < 0.0 or gamma_style < 0.0:
        raise ConfigInvalid("gamma values must be nonnegative")
    terms = {}
    for adapter, gamma in ((content_adapter, gamma_content), (style_adapter, gamma_style)):
        if adapter is None or gamma == 0.0:
            continue
        _check_adapter(adapter)
        scale = gamma if e_sem is None else gamma * adapter.gate(e_sem)
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
            terms[name] = (scale * b, a)
    return terms


def aggregate_weights(
    w_init,
    content_adapter=None,
    style_adapter=None,
    gamma_content=0.0,
    gamma_style=0.0,
    e_sem=None,
):
    """Inject scaled adapter updates into the host backbone.

    Returns ``w_init`` with the ``adapter_terms`` merged in, ``W + sB @ A``
    on each adapter's own layers; layers outside both sets are untouched,
    and a zero gamma contributes nothing (bit-exactly).
    """
    terms = adapter_terms(w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_sem)
    if not terms:
        return w_init
    return w_init.replace(
        {name: w_init.weight(name) + down @ up for name, (down, up) in terms.items()}
    )


def adapter_loss(w_init, adapter, reference, e_sem, schedule, draw):
    """Epsilon-matching objective of the adapted model on one reference.

    ``draw`` is a (t, noise) pair so the value is a pure function of its
    arguments. Returns the loss, per-layer factor gradients for every host
    layer (exact zeros outside the adapter's set), and the gate gradients.
    """
    reference = as_image(reference, "reference")
    e_sem = as_vector(e_sem, EMB_DIM, "e_sem")
    t, noise = draw
    gate_in = float(adapter.gate_w @ e_sem) + adapter.gate_b
    gate = _sigmoid(gate_in)

    updates = {}
    for name, (b, a) in adapter.factors.items():
        updates[name] = w_init.weight(name) + gate * (b @ a)
    weights = w_init.replace(updates)

    ab = schedule.alpha_bar(t)
    x0 = reference.reshape(1, -1)
    z_t = math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * noise.reshape(1, -1)
    pred, acts = forward_pass(z_t, t, e_sem[None, :], weights)
    resid = pred - noise.reshape(1, -1)
    loss = float(np.mean(resid * resid))

    d_out = 2.0 * resid / resid.size
    weight_grads = backward_pass(acts, weights, d_out)

    factor_grads = {}
    gate_grad = 0.0
    for name in w_init.names:
        if name in adapter.factors:
            b, a = adapter.factors[name]
            g = weight_grads[name]
            factor_grads[name] = (gate * (g @ a.T), gate * (b.T @ g))
            gate_grad += float(np.sum(g * (b @ a)))
        else:
            m, n = w_init.shape(name)
            factor_grads[name] = (
                np.zeros((m, adapter.rank)),
                np.zeros((adapter.rank, n)),
            )
    d_gate_in = gate_grad * gate * (1.0 - gate)
    return loss, factor_grads, (d_gate_in * e_sem, d_gate_in)


class LoraTrainer:
    """Trains one adapter kind on a single reference with gradient masking.

    ``kind`` and the ``AdapterSettings`` fields, given as keywords, are
    validated here, once; ``routing`` defaults to ``default_routing`` of
    the host's layers.
    fit(backbone, reference, prompt) -> self; the trained adapter lands in
    ``adapter_`` and the loss curve in ``loss_history_``. The prompt must
    carry the marker matching ``kind``. Parameters outside the kind's layer
    set receive exactly zero gradient at every step; pass ``on_step`` to
    observe the full per-step gradient buffers.
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
        cfg = self.settings
        schedule = self.schedule
        routing = self.routing or default_routing(backbone.names)
        adapter = make_adapter(
            self.kind, backbone, routing, cfg.rank, seed=self.seed, host_hash=self.host_hash
        )
        e_sem = encode_semantic(spec.stripped)
        rng = make_rng(self.seed, "adapter-train", self.kind)
        optimizer = Adam()
        history = []
        for step in range(cfg.steps):
            lr = lr_at(step, cfg.steps, cfg.peak_lr, cfg.start_lr, cfg.floor_lr, cfg.warmup)
            total_factor = {
                name: (np.zeros_like(b), np.zeros_like(a))
                for name, (b, a) in adapter.factors.items()
            }
            zero_factor = {}
            total_gate_w = np.zeros(EMB_DIM)
            total_gate_b = 0.0
            loss_acc = 0.0
            for _ in range(cfg.batch_size):
                t = int(rng.integers(1, schedule.total_steps + 1))
                noise = rng.standard_normal(reference.shape)
                loss, factor_grads, (g_w, g_b) = adapter_loss(
                    backbone, adapter, reference, e_sem, schedule, (t, noise)
                )
                loss_acc += loss
                for name, (gb, ga) in factor_grads.items():
                    if name in total_factor:
                        tb, ta = total_factor[name]
                        tb += gb
                        ta += ga
                    else:
                        zero_factor[name] = (gb, ga)
                total_gate_w += g_w
                total_gate_b += g_b
            scale = 1.0 / cfg.batch_size
            loss_acc *= scale
            check_loss(loss_acc, history, "adapter")
            history.append(loss_acc)
            if self.on_step is not None:
                self.on_step(step, {**total_factor, **zero_factor}, loss_acc)
            params = {"gate.w": adapter.gate_w, "gate.b": np.array(adapter.gate_b)}
            grads = {"gate.w": scale * total_gate_w, "gate.b": np.array(scale * total_gate_b)}
            for name, (b, a) in adapter.factors.items():
                params[f"{name}.down"] = b
                params[f"{name}.up"] = a
                gb, ga = total_factor[name]
                grads[f"{name}.down"] = scale * gb
                grads[f"{name}.up"] = scale * ga
            new = optimizer.step(params, grads, lr)
            adapter = LoraAdapter(
                kind=adapter.kind,
                rank=adapter.rank,
                factors={
                    name: (new[f"{name}.down"], new[f"{name}.up"])
                    for name in adapter.factors
                },
                gate_w=new["gate.w"],
                gate_b=float(new["gate.b"]),
                routing=adapter.routing,
                host_hash=adapter.host_hash,
            )
        self.adapter_ = adapter
        self.loss_history_ = history
        return self
