"""Timestep-scheduled asymmetric classifier-free guidance.

The conditional pass runs on the host backbone with gated, windowed adapter
updates applied as unmerged low-rank terms; the unconditional pass is
pinned to the bare host with the null embedding, so the guidance gap
isolates the adapters' effect. The sampler costs exactly two network
evaluations per step, like standard CFG.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adapters import adapter_terms
from .base import ParamsMixin
from .denoiser import NoiseSchedule, ddpm_step, predict_eps
from .exceptions import ConfigInvalid, OutOfRange
from .prompts import encode_semantic, null_embedding, parse_prompt
from .utils import EvalCounter, make_rng

RAMP_KINDS = ("cosine", "linear")


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance strength, activation windows and temporal scaling."""

    omega: float = 7.5
    total_steps: int = 50
    content_window: tuple = (1, 35)
    style_window: tuple = (15, 50)
    alpha_min: float = 0.5
    alpha_max: float = 1.0
    ramp: str = "cosine"

    def __post_init__(self):
        if self.omega < 0.0:
            raise ConfigInvalid("omega must be nonnegative")
        if self.total_steps < 1:
            raise ConfigInvalid("total_steps must be positive")
        for label, window in (("content", self.content_window), ("style", self.style_window)):
            lo, hi = window
            if not (1 <= lo <= hi <= self.total_steps):
                raise ConfigInvalid(
                    f"{label} window {window} must lie inside [1, {self.total_steps}]"
                )
        if self.alpha_min > self.alpha_max:
            raise ConfigInvalid("alpha_min must not exceed alpha_max")
        if self.ramp not in RAMP_KINDS:
            raise ConfigInvalid(f"ramp must be one of {RAMP_KINDS}")


def gamma_schedule(t, content_window, style_window):
    """Indicator pair: is each adapter's window active at timestep t."""
    t = int(t)
    gc = 1.0 if content_window[0] <= t <= content_window[1] else 0.0
    gs = 1.0 if style_window[0] <= t <= style_window[1] else 0.0
    return gc, gs


def temporal_alpha(t, config):
    """Smooth gain alpha_min -> alpha_max as sampling proceeds from t=T to 1."""
    t = int(t)
    if not 1 <= t <= config.total_steps:
        raise OutOfRange(f"t must lie in [1, {config.total_steps}], got {t}")
    u = (config.total_steps - t) / config.total_steps
    if config.ramp == "cosine":
        g = 0.5 * (1.0 - math.cos(math.pi * u))
    else:
        g = u
    return config.alpha_min + (config.alpha_max - config.alpha_min) * g


def guided_eps_parts(
    x_t,
    t,
    e_sem,
    w_init,
    content_adapter,
    style_adapter,
    gamma_content,
    gamma_style,
    config,
    symmetric=False,
    counter=None,
):
    """Conditional and unconditional noise predictions at one timestep.

    Effective gains compose multiplicatively: temporal alpha times the
    branch gain times the window indicator. The conditional pass applies
    each active adapter's gated update unmerged, as ``adapter_terms``; the
    unconditional pass always uses the bare host and the null embedding,
    except under the symmetric ablation which reuses the same terms.
    """
    ind_c, ind_s = gamma_schedule(t, config.content_window, config.style_window)
    alpha = temporal_alpha(t, config)
    eff_c = alpha * gamma_content * ind_c if content_adapter is not None else 0.0
    eff_s = alpha * gamma_style * ind_s if style_adapter is not None else 0.0
    terms = adapter_terms(w_init, content_adapter, style_adapter, eff_c, eff_s, e_sem)
    eps_cond = predict_eps(x_t, t, e_sem, w_init, counter, terms)
    eps_uncond = predict_eps(
        x_t, t, null_embedding(), w_init, counter, terms if symmetric else None
    )
    return eps_cond, eps_uncond, (eff_c, eff_s, alpha)


def guided_eps(eps_cond, eps_uncond, omega):
    """The guided estimate, evaluated as (1 + omega) * cond - omega * uncond.

    The evaluation order is fixed so tests can reproduce it bit for bit; at
    omega == 0 the result equals the conditional prediction exactly.
    """
    return (1.0 + omega) * eps_cond - omega * eps_uncond


class GuidedSampler(ParamsMixin):
    """Asymmetric-CFG sampling loop over a host backbone and two adapters.

    ``sample(prompt, seed)`` returns the final clean image. A branch gain is
    its ``gamma_content``/``gamma_style`` override when given, else 1.0 when
    the prompt carries the branch's marker and 0.0 when it does not. After
    a run, ``n_network_evals_`` holds the instrumented forward count (always
    two per step), ``trace_`` the per-step diagnostic records and
    ``trajectory_`` the state sequence when recording is enabled.
    """

    def __init__(
        self,
        backbone,
        content_adapter=None,
        style_adapter=None,
        omega=7.5,
        content_window=(1, 35),
        style_window=(15, 50),
        alpha_min=0.5,
        alpha_max=1.0,
        ramp="cosine",
        gamma_content=None,
        gamma_style=None,
        symmetric_cfg=False,
        schedule=None,
        clip_x0=(0.0, 1.0),
        record_trajectory=False,
        record_trace=False,
    ):
        self.backbone = backbone
        self.content_adapter = content_adapter
        self.style_adapter = style_adapter
        self.omega = omega
        self.content_window = content_window
        self.style_window = style_window
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.ramp = ramp
        self.gamma_content = gamma_content
        self.gamma_style = gamma_style
        self.symmetric_cfg = symmetric_cfg
        self.schedule = schedule
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

    @staticmethod
    def _clamp_window(window, total):
        lo = max(1, min(int(window[0]), total))
        hi = max(lo, min(int(window[1]), total))
        return lo, hi

    def sample(self, prompt, seed=0):
        schedule = self.schedule or NoiseSchedule.linear()
        total = schedule.total_steps
        config = GuidanceConfig(
            omega=self.omega,
            total_steps=total,
            content_window=self._clamp_window(self.content_window, total),
            style_window=self._clamp_window(self.style_window, total),
            alpha_min=self.alpha_min,
            alpha_max=self.alpha_max,
            ramp=self.ramp,
        )
        spec = parse_prompt(prompt)
        e_sem = encode_semantic(spec.stripped)
        gamma_content, gamma_style = self._resolve_gammas(spec)

        side = int(math.isqrt(self.backbone.input_dim))
        rng = make_rng(seed, "sample")
        x = rng.standard_normal((side, side))
        counter = EvalCounter()
        trace = []
        trajectory = [x.copy()] if self.record_trajectory else None

        for t in range(schedule.total_steps, 0, -1):
            eps_cond, eps_uncond, (eff_c, eff_s, alpha) = guided_eps_parts(
                x,
                t,
                e_sem,
                self.backbone,
                self.content_adapter,
                self.style_adapter,
                gamma_content,
                gamma_style,
                config,
                symmetric=self.symmetric_cfg,
                counter=counter,
            )
            eps = guided_eps(eps_cond, eps_uncond, self.omega)
            if self.record_trace:
                gap = float(np.linalg.norm(eps_cond - eps_uncond))
                trace.append(
                    f"t={t} gamma_c={eff_c:.9g} gamma_s={eff_s:.9g} "
                    f"alpha={alpha:.9g} guidance_gap={gap:.9g}"
                )
            x = ddpm_step(x, t, eps, schedule, rng, clip_x0=self.clip_x0)
            if trajectory is not None:
                trajectory.append(x.copy())

        self.n_network_evals_ = counter.count
        self.trace_ = trace
        self.trajectory_ = trajectory
        return x


def cfg_sample(
    prompt,
    backbone,
    omega=7.5,
    schedule=None,
    seed=0,
    clip_x0=(0.0, 1.0),
    counter=None,
    trajectory=None,
):
    """Standard classifier-free guidance baseline on fixed weights.

    Shares the seeding and draw conventions with the guided sampler, so with
    zero adapters the two trajectories agree bit for bit.
    """
    schedule = schedule or NoiseSchedule.linear()
    spec = parse_prompt(prompt)
    e_sem = encode_semantic(spec.stripped)
    side = int(math.isqrt(backbone.input_dim))
    rng = make_rng(seed, "sample")
    x = rng.standard_normal((side, side))
    if trajectory is not None:
        trajectory.append(x.copy())
    for t in range(schedule.total_steps, 0, -1):
        eps_cond = predict_eps(x, t, e_sem, backbone, counter)
        eps_uncond = predict_eps(x, t, null_embedding(), backbone, counter)
        eps = guided_eps(eps_cond, eps_uncond, omega)
        x = ddpm_step(x, t, eps, schedule, rng, clip_x0=clip_x0)
        if trajectory is not None:
            trajectory.append(x.copy())
    return x
