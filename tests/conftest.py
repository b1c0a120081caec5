import math

import numpy as np
import pytest

from craftlora import denoiser
from craftlora.cli import _base_rows
from craftlora.denoiser import (
    DenoiserTrainer,
    NoiseSchedule,
    ProjectedConditioning,
    ddpm_step,
    forward_pass,
    project_conditioning,
)
from craftlora.guidance import guided_eps, guided_eps_parts, plan_guidance
from craftlora.pairs import generate_pair_dataset
from craftlora.prompts import encode_semantic, parse_prompt
from craftlora.subspace import SubspaceBases
from craftlora.utils import make_rng


def copy_bases(bases):
    """A deep copy of ``bases``: every layer's stack copied."""
    return SubspaceBases({name: b.copy() for name, b in bases.stacks.items()})


def eps_of_image(x, t, embedding, backbone):
    """Noise prediction for one image as a one-row forward pass.

    The single-image reference that the batched paths are compared with;
    a zero ``embedding`` is the null embedding. The prediction has the
    shape of ``x``.
    """
    cond = np.asarray(embedding, dtype=np.float64)[None, :]
    out, _ = forward_pass(np.reshape(x, (1, -1)), int(t), cond, backbone)
    return out.reshape(np.shape(x))


def float32_host(backbone):
    """The host's weights as a guidance plan holds them: each layer cast
    once to float32, in layer order."""
    return {name: w.astype(np.float32) for name, w in backbone.items()}


def float32_conditioning(e_rows, backbone):
    """Embedding rows projected into the host's hidden width in float64 and
    cast once to float32, as a guidance plan holds its conditioning."""
    width = backbone.shape(backbone.names[0])[1]
    return ProjectedConditioning(project_conditioning(e_rows, width).rows.astype(np.float32))


def parts_of_image(x, t, e_sem, backbone, content, style, gamma_c, gamma_s, settings,
                   symmetric=False):
    """``guided_eps_parts`` of one image and embedding at one timestep of a
    50-step schedule, through a plan of that step alone; the predictions
    have the shape of ``x``."""
    plan = plan_guidance(
        backbone, content, style, gamma_c, gamma_s, np.reshape(e_sem, (1, -1)), symmetric,
        settings, 50, (t,),
    )
    eps_cond, eps_uncond, gains = guided_eps_parts(np.reshape(x, (1, -1)), t, plan)
    return eps_cond.reshape(np.shape(x)), eps_uncond.reshape(np.shape(x)), gains


def standard_cfg_states(prompt, backbone, omega, schedule, seed):
    """Every state of standard classifier-free guidance on a fixed host.

    The baseline of Ho & Salimans (2022), written out from the public
    pieces and independent of ``GuidedSampler``: each step is one forward
    pass over ``[x; x]`` with embeddings ``[e; 0]``, the guided estimate
    of its two halves and a reverse step whose clean estimate is clipped
    to [0, 1]. It runs in float32, as the sampler does: the host and the
    projected conditioning are cast once, and each draw of the sampler's
    ``make_rng(seed, "sample")`` stream is made in float64 and cast.
    Returns the float32 (H, W) states from the initial noise to the image.
    """
    e_sem = encode_semantic(parse_prompt(prompt).stripped)
    cond = float32_conditioning(np.stack([e_sem, np.zeros_like(e_sem)]), backbone)
    weights = float32_host(backbone)
    rng = make_rng(seed, "sample")
    x = rng.standard_normal((1, backbone.input_dim)).astype(np.float32)
    states = [x]
    for t in range(schedule.total_steps, 0, -1):
        eps, _ = forward_pass(np.concatenate([x, x]), t, cond, weights)
        eps = guided_eps(eps[:1], eps[1:], omega)
        noise = rng.standard_normal(x.shape).astype(np.float32)
        x = ddpm_step(x, t, eps, schedule, noise, x0_map=lambda x0: np.clip(x0, 0.0, 1.0))
        states.append(x)
    side = math.isqrt(backbone.input_dim)
    return [state.reshape(side, side) for state in states]


@pytest.fixture(scope="session")
def one_row_eps():
    return eps_of_image


@pytest.fixture(scope="session")
def one_image_parts():
    return parts_of_image


@pytest.fixture(scope="session")
def standard_cfg():
    return standard_cfg_states


@pytest.fixture(scope="session")
def bases_copy():
    return copy_bases


@pytest.fixture(scope="session")
def host32():
    return float32_host


@pytest.fixture(scope="session")
def cond32():
    return float32_conditioning


@pytest.fixture
def sampler_states(monkeypatch):
    """The states of each ``reverse_process`` run, seen through ``ddpm_step``.

    Wraps ``denoiser.ddpm_step``, the binding every sampler steps through,
    and returns a list that gets one list per run: its (rows, pixels) start
    state, then a copy of each step's output. A run starts at the call whose
    t is the schedule's last step.
    """
    runs = []
    real = denoiser.ddpm_step

    def recording(x_t, t, eps_hat, schedule, *args, **kwargs):
        if t == schedule.total_steps:
            runs.append([np.array(x_t)])
        out = real(x_t, t, eps_hat, schedule, *args, **kwargs)
        runs[-1].append(out.copy())
        return out

    monkeypatch.setattr(denoiser, "ddpm_step", recording)
    return runs


@pytest.fixture(scope="session")
def schedule():
    return NoiseSchedule.linear()


@pytest.fixture(scope="session")
def pair_dataset():
    return generate_pair_dataset(10, 10, seed=0)


@pytest.fixture(scope="session")
def trained_base(pair_dataset):
    """One modestly trained 16x16 base model shared across the suite."""
    trainer = DenoiserTrainer(steps=600, seed=0)
    trainer.fit(*_base_rows(pair_dataset))
    return trainer.backbone_


@pytest.fixture(scope="session")
def null64():
    return np.zeros(64)


@pytest.fixture(scope="session")
def semantic():
    return encode_semantic
