"""Timestep-scheduled asymmetric classifier-free guidance.

The conditional prediction runs on the host backbone with gated, windowed
adapter updates applied as unmerged low-rank terms; the unconditional one is
pinned to the bare host with the null embedding, so the guidance gap
isolates the adapters' effect. Both come from one fused forward pass per
step, whose 2N rows are the N conditional and the N unconditional inputs:
two network evaluations per step, like standard CFG, in one call.
"""

import math
from typing import NamedTuple

import numpy as np

from .adapters import adapter_terms
from .config import GuidanceSettings
from .denoiser import (
    NoiseSchedule,
    ProjectedConditioning,
    ddpm_step,
    forward_pass,
    project_conditioning,
)
from .exceptions import ConfigInvalid, NumericalError, OutOfRange, ShapeMismatch
from .prompts import encode_semantic, parse_prompt
from .utils import make_rng
from .validation import as_image

# Every sampling step clamps its clean estimate to this range.
X0_RANGE = (0.0, 1.0)


def gamma_schedule(t, content_window, style_window):
    """Indicator pair: is each adapter's window active at timestep t."""
    t = int(t)
    gc = 1.0 if content_window[0] <= t <= content_window[1] else 0.0
    gs = 1.0 if style_window[0] <= t <= style_window[1] else 0.0
    return gc, gs


def temporal_alpha(t, settings, total_steps):
    """Smooth gain alpha_min -> alpha_max as sampling proceeds from t=T to 1.

    ``settings`` is a ``GuidanceSettings`` and ``total_steps`` the length T
    of the schedule.
    """
    t = int(t)
    if not 1 <= t <= total_steps:
        raise OutOfRange(f"t must lie in [1, {total_steps}], got {t}")
    u = (total_steps - t) / total_steps
    if settings.ramp == "cosine":
        g = 0.5 * (1.0 - math.cos(math.pi * u))
    else:
        g = u
    return settings.alpha_min + (settings.alpha_max - settings.alpha_min) * g


class _Plan(NamedTuple):
    """What the guided steps of one call share: built and checked once."""

    n_rows: int
    cond: ProjectedConditioning  # (2N, width): the rows' embeddings, then N null ones
    steps: dict  # t -> (terms, (eff_c, eff_s, alpha)) of the step at t
    inputs: np.ndarray  # (2N, pixels): each step's [x; x], rewritten in place


def _plan(
    w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_sem, n_rows, symmetric,
    settings, total_steps, timesteps,
):
    e_rows = np.atleast_2d(np.asarray(e_sem, dtype=np.float64))
    if e_rows.ndim != 2 or e_rows.shape[0] != n_rows:
        raise ShapeMismatch(f"e_sem must hold one embedding per row of x_t, got {e_rows.shape}")
    if not np.isfinite(e_rows).all():
        raise ValueError("e_sem contains non-finite entries")
    terms = adapter_terms(
        w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_rows
    )
    content_layers = content_adapter.factors if content_adapter is not None else {}
    layers = tuple(
        (name, int(name not in content_layers), np.concatenate([s, s]) if symmetric else s, b, a)
        for name, (s, b, a) in terms.items()
    )
    peaks = tuple(
        float(np.max(gamma)) if adapter is not None else 0.0
        for adapter, gamma in ((content_adapter, gamma_content), (style_adapter, gamma_style))
    )
    timesteps = [int(t) for t in timesteps]
    alphas = [temporal_alpha(t, settings, total_steps) for t in timesteps]
    # per timestep, alpha times each branch's window indicator
    gains = np.array([
        [alpha * ind for ind in gamma_schedule(t, settings.content_window, settings.style_window)]
        for t, alpha in zip(timesteps, alphas)
    ])
    # every timestep's scale columns in one product per layer, split into
    # one (rows, 1) column per timestep
    scaled = [list(gains[:, branch, None, None] * scale) for _, branch, scale, _, _ in layers]
    steps = {}
    for i, (t, alpha) in enumerate(zip(timesteps, alphas)):
        step_gains = gains[i].tolist()
        step_terms = {
            name: (columns[i], down, up)
            for (name, branch, _, down, up), columns in zip(layers, scaled)
            if step_gains[branch] != 0.0
        }
        eff_c, eff_s = (gain * peak for gain, peak in zip(step_gains, peaks))
        steps[t] = (step_terms, (eff_c, eff_s, alpha))
    width = w_init.shape(w_init.names[0])[1]
    cond = project_conditioning(np.concatenate([e_rows, np.zeros_like(e_rows)]), width)
    return _Plan(n_rows, cond, steps, np.empty((2 * n_rows, w_init.input_dim)))


def guided_eps_parts(
    x_t,
    t,
    e_sem,
    w_init,
    content_adapter,
    style_adapter,
    gamma_content,
    gamma_style,
    settings,
    total_steps,
    symmetric=False,
    plan=None,
):
    """Conditional and unconditional noise predictions at one timestep.

    ``x_t`` is one (H, W) image with one embedding ``e_sem`` and scalar
    gains, or a batch (N, H, W) with (N, EMB_DIM) embeddings and one gain
    per row. Both predictions come from one forward pass over 2N rows:
    ``[x; x]`` with embeddings ``[e; 0]``, split back into its halves.
    Effective gains compose multiplicatively: temporal alpha times the
    branch gain times the window indicator. Each active adapter's gated
    update acts unmerged, as ``adapter_terms``, on the N conditional rows;
    the unconditional rows see the bare host and the null embedding (a
    zero embedding adds exactly nothing to the injection), except under
    the symmetric ablation, where the same terms act on all 2N rows.
    ``plan`` may carry the checked per-call state that ``_plan`` built for
    these adapters, gains, embeddings and timesteps: each step's terms and
    gains, the projected conditioning and the input buffer, so a sampler
    checks and builds them once per batch rather than once per step. A
    non-finite prediction raises ``NumericalError``.

    The third item is ``(eff_c, eff_s, alpha)`` as floats; with one gain
    per row, an effective gain is the one of the largest row gain.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    n_rows = x_t.shape[0] if x_t.ndim == 3 else 1
    rows = x_t.reshape(n_rows, -1)
    t = int(t)
    if plan is None:
        as_image(rows, "x_t")
        plan = _plan(
            w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_sem, n_rows,
            symmetric, settings, total_steps, (t,),
        )
    if rows.shape != (plan.n_rows, w_init.input_dim):
        raise ShapeMismatch(
            f"x_t has {n_rows} rows of {rows.shape[1]} pixels, but the backbone expects "
            f"{plan.n_rows} rows of {w_init.input_dim}"
        )
    terms, gains = plan.steps[t]
    inputs = plan.inputs
    inputs[:n_rows] = rows
    inputs[n_rows:] = rows
    eps, _ = forward_pass(inputs, t, plan.cond, w_init, terms)
    if not np.isfinite(eps).all():
        raise NumericalError(f"the noise prediction at t={t} is non-finite")
    return eps[:n_rows].reshape(x_t.shape), eps[n_rows:].reshape(x_t.shape), gains


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
    the branch's marker and 0.0 when it does not. After a run,
    ``n_network_evals_`` holds the network evaluations (two per step, one
    conditional and one unconditional, whatever the batch size),
    ``trace_`` the per-step diagnostic records of each row and
    ``trajectory_`` the state sequence when recording is enabled;
    ``sample`` leaves its single row's records and states. Every step
    clamps its clean estimate to ``X0_RANGE`` (the ``x0_map`` of
    ``ddpm_step``), so the last step returns images in that range.
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
        record_trajectory=False,
        record_trace=False,
        **guidance,
    ):
        self.backbone = backbone
        self.content_adapter = content_adapter
        self.style_adapter = style_adapter
        self.gamma_content = gamma_content
        self.gamma_style = gamma_style
        self.symmetric_cfg = symmetric_cfg
        self.schedule = schedule or NoiseSchedule.linear()
        self.settings = GuidanceSettings(**guidance)
        self.settings.validate(self.schedule.total_steps)
        self.record_trajectory = record_trajectory
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
        if self.trajectory_ is not None:
            self.trajectory_ = [state[0] for state in self.trajectory_]
        return image

    def sample_batch(self, prompts, seeds):
        """Clean images of N prompts, row i from ``seeds[i]``'s own noise stream.

        Returns an (N, side, side) array. Row i starts from, and draws every
        step's noise from, its own ``make_rng(seeds[i], "sample")`` stream,
        in the order a single image would. The inputs are checked, and each
        timestep's terms and gains, the projected conditioning and the input
        buffer built, once per call; each step then makes one forward pass
        over 2N rows and one reverse step.
        A row's image equals what ``sample`` returns for that prompt and
        seed up to rounding.
        """
        prompts = list(prompts)
        seeds = list(seeds)
        if not prompts or len(prompts) != len(seeds):
            raise ConfigInvalid("sample_batch needs one seed per prompt, and at least one prompt")
        specs = [parse_prompt(p) for p in prompts]
        e_rows = np.stack([encode_semantic(spec.stripped) for spec in specs])
        # a missing adapter's gains are ignored
        gains = np.array([self._resolve_gammas(spec) for spec in specs]) * (
            self.content_adapter is not None,
            self.style_adapter is not None,
        )
        settings = self.settings
        schedule = self.schedule
        plan = _plan(
            self.backbone, self.content_adapter, self.style_adapter,
            gains[:, 0], gains[:, 1], e_rows, len(seeds), self.symmetric_cfg,
            settings, schedule.total_steps, range(1, schedule.total_steps + 1),
        )
        side = int(math.isqrt(self.backbone.input_dim))
        shape = (len(seeds), side, side)
        rngs = [make_rng(seed, "sample") for seed in seeds]
        x = np.stack([rng.standard_normal(self.backbone.input_dim) for rng in rngs])
        n_evals = 0
        trace = [[] for _ in seeds]
        trajectory = [x.reshape(shape).copy()] if self.record_trajectory else None

        def x0_map(x0):
            # the method keeps np.clip's signed zeros without its dispatch
            return x0.clip(*X0_RANGE, out=x0)

        for t in range(schedule.total_steps, 0, -1):
            eps_cond, eps_uncond, (_, _, alpha) = guided_eps_parts(
                x.reshape(shape),
                t,
                e_rows,
                self.backbone,
                self.content_adapter,
                self.style_adapter,
                gains[:, 0],
                gains[:, 1],
                settings,
                schedule.total_steps,
                symmetric=self.symmetric_cfg,
                plan=plan,
            )
            n_evals += 2  # one conditional and one unconditional evaluation
            eps = guided_eps(eps_cond, eps_uncond, settings.omega).reshape(x.shape)
            if self.record_trace:
                windows = gamma_schedule(t, settings.content_window, settings.style_window)
                gaps = np.linalg.norm((eps_cond - eps_uncond).reshape(x.shape), axis=1)
                for row, ((eff_c, eff_s), gap) in enumerate(zip(alpha * gains * windows, gaps)):
                    trace[row].append(
                        f"t={t} gamma_c={eff_c:.9g} gamma_s={eff_s:.9g} "
                        f"alpha={alpha:.9g} guidance_gap={gap:.9g}"
                    )
            x = ddpm_step(x, t, eps, schedule, rngs, x0_map=x0_map)
            if trajectory is not None:
                trajectory.append(x.reshape(shape).copy())

        self.n_network_evals_ = n_evals
        self.trace_ = trace
        self.trajectory_ = trajectory
        return x.reshape(shape)

