"""Timestep-scheduled asymmetric classifier-free guidance.

The conditional prediction runs on the host backbone with gated, windowed
adapter updates applied as unmerged low-rank terms; the unconditional one is
pinned to the bare host with the null embedding, so the guidance gap
isolates the adapters' effect. Both come from one fused forward pass per
step, whose 2N rows are the N conditional and the N unconditional inputs:
two network evaluations per step, like standard CFG, in one call.

The step loop runs in float32, the precision checkpoints store (see
``plan_guidance``); the noise draws and everything outside the loop are float64.
"""

import math
from typing import NamedTuple

import numpy as np

from .adapters import adapter_terms
from .config import GuidanceSettings
from .denoiser import (
    NoiseSchedule,
    ProjectedConditioning,
    forward_pass,
    project_conditioning,
    reverse_process,
)
from .exceptions import ConfigInvalid, NumericalError, OutOfRange, ShapeMismatch
from .prompts import EMB_DIM, encode_semantic, parse_prompt
from .utils import make_rng, standard_normal_rows
from .validation import as_timestep

# Every sampling step clamps its clean estimate to this range.
X0_RANGE = (0.0, 1.0)


def gamma_schedule(t, content_window, style_window):
    """Indicator pair: is each adapter's window active at timestep t (an int)."""
    t = as_timestep(t)
    gc = 1.0 if content_window[0] <= t <= content_window[1] else 0.0
    gs = 1.0 if style_window[0] <= t <= style_window[1] else 0.0
    return gc, gs


def temporal_alpha(t, settings, total_steps):
    """Smooth gain alpha_min -> alpha_max as sampling proceeds from t=T to 1.

    ``settings`` is a ``GuidanceSettings`` and ``total_steps`` the length T
    of the schedule; a t that is not an integer, or is a bool, raises
    ``OutOfRange``, as in ``gamma_schedule`` and ``plan_guidance``.
    """
    t = as_timestep(t)
    if not 1 <= t <= total_steps:
        raise OutOfRange(f"t must lie in [1, {total_steps}], got {t}")
    u = (total_steps - t) / total_steps
    if settings.ramp == "cosine":
        g = 0.5 * (1.0 - math.cos(math.pi * u))
    else:
        g = u
    return settings.alpha_min + (settings.alpha_max - settings.alpha_min) * g


class GuidancePlan(NamedTuple):
    """What the guided steps of one call share: built and checked once, float32."""

    weights: dict  # layer name -> the host's float32 weight, in layer order
    n_rows: int
    cond: ProjectedConditioning  # (2N, width): the rows' embeddings, then N null ones
    steps: dict  # t -> (terms, (eff_c, eff_s, alpha)) of the step at t
    inputs: np.ndarray  # (2N, pixels): each step's [x; x], rewritten in place


def _float32(arr, what):
    """``arr`` cast to float32. Called under ``np.errstate(over="raise")``,
    so a value beyond float32's range raises ``NumericalError`` naming
    ``what`` instead of becoming an infinity."""
    try:
        return arr.astype(np.float32)
    except FloatingPointError:
        raise NumericalError(f"{what} lies outside float32's range") from None


def plan_guidance(
    w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_rows, symmetric,
    settings, total_steps, timesteps,
):
    """The ``GuidancePlan`` of ``guided_eps_parts`` for N rows over ``timesteps``.

    ``e_rows`` holds the rows' (N, EMB_DIM) embeddings and each gain is one
    per row or one for all. Each timestep gets its ``adapter_terms`` at the
    gains times alpha times the window indicator, and its ``(eff_c, eff_s,
    alpha)``, an effective gain being that of the largest row gain. The
    ``[e; 0]`` conditioning is projected once (a zero row adds nothing).
    Everything the steps read is float32, cast once here: the host weights,
    each adapted layer's factors, its scale columns (one cast of all
    timesteps' product) and the projected conditioning. A host weight or
    an adapter factor or scale beyond float32's range raises
    ``NumericalError`` naming its layer.
    """
    e_rows = np.asarray(e_rows, dtype=np.float64)
    if e_rows.ndim != 2 or e_rows.shape[1] != EMB_DIM:
        raise ShapeMismatch(f"e_rows must be (N, {EMB_DIM}) embeddings, got {e_rows.shape}")
    if not np.isfinite(e_rows).all():
        raise ValueError("e_rows contains non-finite entries")
    n_rows = e_rows.shape[0]
    terms = adapter_terms(
        w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_rows
    )
    content_layers = content_adapter.factors if content_adapter is not None else {}
    peaks = tuple(
        float(np.max(gamma)) if adapter is not None else 0.0
        for adapter, gamma in ((content_adapter, gamma_content), (style_adapter, gamma_style))
    )
    timesteps = [as_timestep(t) for t in timesteps]
    alphas = [temporal_alpha(t, settings, total_steps) for t in timesteps]
    # per timestep, alpha times each branch's window indicator
    gains = np.array([
        [alpha * ind for ind in gamma_schedule(t, settings.content_window, settings.style_window)]
        for t, alpha in zip(timesteps, alphas)
    ])
    width = w_init.shape(w_init.names[0])[1]
    cond = project_conditioning(np.concatenate([e_rows, np.zeros_like(e_rows)]), width)
    with np.errstate(over="raise"):
        weights = {name: _float32(w, f"host layer {name!r}") for name, w in w_init.items()}
        layers = []
        for name, (scale, down, up) in terms.items():
            branch = int(name not in content_layers)
            if symmetric:
                scale = np.concatenate([scale, scale])
            # every timestep's scale columns in one product and one cast,
            # split into one (rows, 1) column per timestep
            columns = _float32(gains[:, branch, None, None] * scale, f"adapter scale on {name!r}")
            down = _float32(down, f"adapter factor on {name!r}")
            up = _float32(up, f"adapter factor on {name!r}")
            layers.append((name, branch, list(columns), down, up))
        cond = ProjectedConditioning(_float32(cond.rows, "the projected conditioning"))
    steps = {}
    for i, (t, alpha) in enumerate(zip(timesteps, alphas)):
        step_gains = gains[i].tolist()
        step_terms = {
            name: (columns[i], down, up)
            for name, branch, columns, down, up in layers
            if step_gains[branch] != 0.0
        }
        eff_c, eff_s = (gain * peak for gain, peak in zip(step_gains, peaks))
        steps[t] = (step_terms, (eff_c, eff_s, alpha))
    inputs = np.empty((2 * n_rows, w_init.input_dim), dtype=np.float32)
    return GuidancePlan(weights, n_rows, cond, steps, inputs)


def guided_eps_parts(x_rows, t, plan):
    """Conditional and unconditional noise predictions at one timestep.

    ``x_rows`` holds the (N, pixels) states of the rows that ``plan``, a
    ``plan_guidance`` result over timesteps holding t, was built for. Both
    predictions come from one forward pass over 2N rows, ``[x; x]`` with
    embeddings ``[e; 0]``, split into its (N, pixels) halves. The active
    adapters' gated updates act unmerged on the N conditional rows; the
    unconditional rows see the bare host and the null embedding, except
    under the symmetric ablation, where the same terms act on all 2N rows.
    A non-finite prediction raises ``NumericalError``. The third item is
    the step's ``(eff_c, eff_s, alpha)`` as floats. The pass and the
    predictions are float32, the states cast into the plan's buffer; a t
    that is not an integer, or is a bool, raises ``OutOfRange``.
    """
    t = as_timestep(t)
    weights, n_rows, cond, steps, inputs = plan
    if np.shape(x_rows) != (n_rows, inputs.shape[1]):
        raise ShapeMismatch(
            f"x_rows is {np.shape(x_rows)}; the plan is for {(n_rows, inputs.shape[1])}"
        )
    if t not in steps:
        raise OutOfRange(f"the plan holds no step at t={t}")
    terms, gains = steps[t]
    inputs[:n_rows] = x_rows
    inputs[n_rows:] = x_rows
    eps, _ = forward_pass(inputs, t, cond, weights, terms)
    if not np.isfinite(eps).all():
        raise NumericalError(f"the noise prediction at t={t} is non-finite")
    return eps[:n_rows], eps[n_rows:], gains


def guided_eps(eps_cond, eps_uncond, omega):
    """The guided estimate, evaluated as (1 + omega) * cond - omega * uncond.

    The evaluation order is fixed so tests can reproduce it bit for bit; at
    omega == 0 the result equals the conditional prediction exactly.
    """
    return (1.0 + omega) * eps_cond - omega * eps_uncond


class GuidedSampler:
    """Asymmetric-CFG sampling loop over a host backbone and two adapters.

    The guidance keywords (``omega``, the two windows, ``alpha_min``,
    ``alpha_max``, ``ramp``) are the fields of ``GuidanceSettings``; they
    are validated here, once, against the schedule, so a window outside
    it raises ``ConfigInvalid``. ``sample_batch(prompts, seeds)`` runs N
    prompts and seeds as the rows of one batch and returns the (N, side,
    side) clean images; ``sample(prompt, seed)`` is its batch of one and
    returns one image. A branch gain is its ``gamma_content``/
    ``gamma_style`` override when given, else 1.0 when the prompt carries
    the branch's marker and 0.0 when it does not; an override must be
    finite and nonnegative, and each adapter's kind must match its slot,
    or the constructor raises ``ConfigInvalid``. After a run,
    ``n_network_evals_`` holds the network evaluations (two per step, one
    conditional and one unconditional, whatever the batch size) and
    ``trace_`` the per-step diagnostic records of each row; ``sample``
    leaves its single row's records. The steps are the schedule's kept
    ``timesteps``: every step of ``NoiseSchedule.linear()`` by default, or
    those of a ``respaced`` schedule; a guidance window that holds none of
    them raises ``ConfigInvalid``. Every step clamps its clean estimate
    to ``X0_RANGE`` (the ``x0_map`` of ``ddpm_step``), so the last step
    returns images in that range.
    """

    def __init__(
        self,
        backbone,
        content_adapter=None,
        style_adapter=None,
        gamma_content=None,
        gamma_style=None,
        symmetric_cfg=False,
        schedule=None,
        record_trace=False,
        **guidance,
    ):
        for kind, adapter in (("content", content_adapter), ("style", style_adapter)):
            if adapter is not None and adapter.kind != kind:
                raise ConfigInvalid(f"the {kind} adapter slot holds a {adapter.kind} adapter")
        for name, gamma in (("gamma_content", gamma_content), ("gamma_style", gamma_style)):
            if gamma is not None and not (math.isfinite(gamma) and gamma >= 0.0):
                raise ConfigInvalid(f"{name} must be finite and nonnegative, got {gamma}")
        self.backbone = backbone
        self.content_adapter = content_adapter
        self.style_adapter = style_adapter
        self.gamma_content = gamma_content
        self.gamma_style = gamma_style
        self.symmetric_cfg = symmetric_cfg
        self.schedule = schedule or NoiseSchedule.linear()
        self.settings = GuidanceSettings(**guidance)
        self.settings.validate(self.schedule.total_steps)
        kept = self.schedule.timesteps
        for label in ("content", "style"):
            lo, hi = getattr(self.settings, f"{label}_window")
            if not any(lo <= t <= hi for t in kept):
                raise ConfigInvalid(
                    f"guidance.{label}_window [{lo}, {hi}] holds none of the "
                    f"{len(kept)} sampled steps {list(kept)}"
                )
        self.record_trace = record_trace

    def _resolve_gammas(self, spec):
        gc = self.gamma_content
        if gc is None:
            gc = 1.0 if spec.has_content_marker else 0.0
        gs = self.gamma_style
        if gs is None:
            gs = 1.0 if spec.has_style_marker else 0.0
        return float(gc), float(gs)

    def sample(self, prompt, seed=0):
        image = self.sample_batch([prompt], [seed])[0]
        self.trace_ = self.trace_[0]
        return image

    def sample_batch(self, prompts, seeds):
        """Clean images of N prompts, row i from ``seeds[i]``'s noise stream.

        Returns an (N, side, side) array. Row i starts from, and draws every
        step's noise from, the ``make_rng(seeds[i], "sample")`` stream, in
        the order a single image would. Rows that share a seed share one
        stream, drawn once: one generator per distinct seed, in order of
        first appearance, each drawn once for the start state and once per
        step, with the draws cast to float32 and then gathered to their
        rows. The inputs are checked, and each timestep's terms and gains,
        the projected conditioning and the input buffer built, once per
        call; each step then makes one forward pass over 2N rows and one
        reverse step, both in float32, and the images come back as float64.
        The loop is ``reverse_process``: an overflow anywhere in it reaches the
        finite checks of ``guided_eps_parts`` and ``ddpm_step`` and raises
        ``NumericalError`` naming its step. A row's image equals what ``sample``
        returns for that prompt and seed up to float32 rounding.
        """
        prompts = list(prompts)
        seeds = list(seeds)
        if not prompts or len(prompts) != len(seeds):
            raise ConfigInvalid("sample_batch needs one seed per prompt, and at least one prompt")
        side = int(math.isqrt(self.backbone.input_dim))
        # the float64 images come before the plan and the loop's temporaries:
        # allocated after them, each image a caller keeps splits the heap the
        # next call reuses (a batch-1 caller keeping 4,096 images read 3.2 MB
        # more peak RSS)
        images = np.empty((len(seeds), side, side))
        specs = [parse_prompt(p) for p in prompts]
        e_rows = np.stack([encode_semantic(spec.stripped) for spec in specs])
        # a missing adapter's gains are ignored
        gains = np.array([self._resolve_gammas(spec) for spec in specs]) * (
            self.content_adapter is not None,
            self.style_adapter is not None,
        )
        settings = self.settings
        schedule = self.schedule
        plan = plan_guidance(
            self.backbone, self.content_adapter, self.style_adapter,
            gains[:, 0], gains[:, 1], e_rows, self.symmetric_cfg,
            settings, schedule.total_steps, schedule.timesteps,
        )
        # one stream per distinct seed, in order of first appearance
        streams = {seed: k for k, seed in enumerate(dict.fromkeys(seeds))}
        rngs = [make_rng(seed, "sample") for seed in streams]
        rows = None if len(rngs) == len(seeds) else [streams[seed] for seed in seeds]

        def draw():
            out = standard_normal_rows(rngs, self.backbone.input_dim).astype(np.float32)
            return out if rows is None else out[rows]

        n_evals = 0
        trace = [[] for _ in seeds]

        def estimate(x, t):
            nonlocal n_evals
            eps_cond, eps_uncond, (_, _, alpha) = guided_eps_parts(x, t, plan)
            n_evals += 2  # one conditional and one unconditional evaluation
            if self.record_trace:
                windows = gamma_schedule(t, settings.content_window, settings.style_window)
                gaps = np.linalg.norm(eps_cond - eps_uncond, axis=1)
                for row, ((eff_c, eff_s), gap) in enumerate(zip(alpha * gains * windows, gaps)):
                    trace[row].append(
                        f"t={t} gamma_c={eff_c:.9g} gamma_s={eff_s:.9g} "
                        f"alpha={alpha:.9g} guidance_gap={gap:.9g}"
                    )
            return guided_eps(eps_cond, eps_uncond, settings.omega)

        def x0_map(x0):
            # the method keeps np.clip's signed zeros without its dispatch
            return x0.clip(*X0_RANGE, out=x0)

        x = reverse_process(draw, estimate, schedule, x0_map)
        self.n_network_evals_ = n_evals
        self.trace_ = trace
        images[...] = x.reshape(images.shape)
        return images

