"""Timestep-scheduled asymmetric classifier-free guidance.

The conditional pass runs on the host backbone with gated, windowed adapter
updates applied as unmerged low-rank terms; the unconditional pass is
pinned to the bare host with the null embedding, so the guidance gap
isolates the adapters' effect. The sampler costs exactly two network
evaluations per step, like standard CFG.
"""

import math

import numpy as np

from .adapters import adapter_terms
from .config import GuidanceSettings
from .denoiser import NoiseSchedule, ddpm_step, forward_pass
from .exceptions import ConfigInvalid, OutOfRange, ShapeMismatch
from .prompts import encode_semantic, parse_prompt
from .utils import EvalCounter, make_rng
from .validation import as_image


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
    counter=None,
    terms=None,
):
    """Conditional and unconditional noise predictions at one timestep.

    ``x_t`` is one (H, W) image with one embedding ``e_sem`` and scalar
    gains, or a batch (N, H, W) with (N, EMB_DIM) embeddings and one gain
    per row; either way both passes run once over all rows. Effective gains
    compose multiplicatively: temporal alpha times the branch gain times
    the window indicator. The conditional pass applies each active
    adapter's gated update unmerged, as ``adapter_terms``; the
    unconditional pass always uses the bare host and the null embedding
    (``cond=None`` in ``forward_pass``), shared by every row, except under
    the symmetric ablation which reuses the same terms. ``terms`` may carry
    the ``adapter_terms`` of these adapters, gains and embeddings already
    built, so a sampler checks and gates its adapters once per batch
    rather than once per step.

    The third item is ``(eff_c, eff_s, alpha)`` as floats; with one gain
    per row, an effective gain is the one of the largest row gain.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    n_rows = x_t.shape[0] if x_t.ndim == 3 else 1
    rows = as_image(x_t.reshape(n_rows, -1), "x_t")
    if rows.shape[1] != w_init.input_dim:
        raise ShapeMismatch(
            f"image has {rows.shape[1]} pixels but the backbone expects {w_init.input_dim}"
        )
    e_rows = np.atleast_2d(np.asarray(e_sem, dtype=np.float64))
    if terms is None:
        terms = adapter_terms(
            w_init, content_adapter, style_adapter, gamma_content, gamma_style, e_rows
        )
    ind_c, ind_s = gamma_schedule(t, settings.content_window, settings.style_window)
    alpha = temporal_alpha(t, settings, total_steps)
    step_c, step_s = alpha * ind_c, alpha * ind_s
    content_layers = content_adapter.factors if content_adapter is not None else {}
    windowed = {}
    for name, (scale, down, up) in terms.items():
        step = step_c if name in content_layers else step_s
        if step != 0.0:
            windowed[name] = (step * scale, down, up)

    t = int(t)
    eps_cond, _ = forward_pass(rows, t, e_rows, w_init, windowed)
    eps_uncond, _ = forward_pass(rows, t, None, w_init, windowed if symmetric else None)
    if counter is not None:
        counter.bump()
        counter.bump()
    eff_c = alpha * float(np.max(gamma_content)) * ind_c if content_adapter is not None else 0.0
    eff_s = alpha * float(np.max(gamma_style)) * ind_s if style_adapter is not None else 0.0
    return eps_cond.reshape(x_t.shape), eps_uncond.reshape(x_t.shape), (eff_c, eff_s, alpha)


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
    ``n_network_evals_`` holds the instrumented forward count (always two
    per step, whatever the batch size), ``trace_`` the per-step diagnostic
    records of each row and ``trajectory_`` the state sequence when
    recording is enabled; ``sample`` leaves its single row's records and
    states. ``clip_x0=(lo, hi)`` clamps every step's clean estimate (the
    ``x0_map`` of ``ddpm_step``); None leaves it unclamped.
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
        clip_x0=(0.0, 1.0),
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
        self.clip_x0 = clip_x0
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
        in the order a single image would. The adapters' checks and gates
        run once per call; each step then makes two forward passes over all
        rows. A row's image equals what ``sample`` returns for that prompt
        and seed up to rounding.
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
        terms = adapter_terms(
            self.backbone, self.content_adapter, self.style_adapter,
            gains[:, 0], gains[:, 1], e_rows,
        )
        settings = self.settings
        schedule = self.schedule
        side = int(math.isqrt(self.backbone.input_dim))
        shape = (len(seeds), side, side)
        rngs = [make_rng(seed, "sample") for seed in seeds]
        x = np.stack([rng.standard_normal(self.backbone.input_dim) for rng in rngs])
        counter = EvalCounter()
        trace = [[] for _ in seeds]
        trajectory = [x.reshape(shape).copy()] if self.record_trajectory else None
        x0_map = None if self.clip_x0 is None else (lambda x0: np.clip(x0, *self.clip_x0))

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
                counter=counter,
                terms=terms,
            )
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

        self.n_network_evals_ = counter.count
        self.trace_ = trace
        self.trajectory_ = trajectory
        return x.reshape(shape)


def cfg_sample(
    prompt,
    backbone,
    omega,
    schedule=None,
    seed=0,
    clip_x0=(0.0, 1.0),
    counter=None,
    trajectory=None,
):
    """Standard classifier-free guidance baseline on fixed weights.

    The adapter-free, batch-of-one case of ``GuidedSampler``, so with zero
    adapters the two trajectories agree bit for bit. Without adapters the
    windows do nothing; they span the whole schedule only to be valid.
    """
    schedule = schedule or NoiseSchedule.linear()
    whole = (1, schedule.total_steps)
    sampler = GuidedSampler(
        backbone,
        omega=omega,
        content_window=whole,
        style_window=whole,
        schedule=schedule,
        clip_x0=clip_x0,
        record_trajectory=trajectory is not None,
    )
    image = sampler.sample(prompt, seed)
    if counter is not None:
        counter.count += sampler.n_network_evals_
    if trajectory is not None:
        trajectory.extend(sampler.trajectory_)
    return image
