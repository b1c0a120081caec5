import math

import numpy as np
import pytest

from craftlora.denoiser import DenoiserTrainer, NoiseSchedule, ddpm_step, forward_pass
from craftlora.guidance import guided_eps, guided_eps_parts, plan_guidance
from craftlora.pairs import generate_pair_dataset
from craftlora.prompts import encode_semantic, parse_prompt
from craftlora.subspace import member_embedding
from craftlora.utils import make_rng


def dataset_arrays(pairs):
    """Stack pair members with their member-prompt embeddings."""
    images, embeddings = [], []
    for pair in pairs:
        images.append(pair.content_image)
        embeddings.append(member_embedding(pair, "content"))
        images.append(pair.style_image)
        embeddings.append(member_embedding(pair, "style"))
    return np.stack(images), np.stack(embeddings)


def eps_of_image(x, t, embedding, backbone):
    """Noise prediction for one image as a one-row forward pass.

    The single-image reference that the batched paths are compared with;
    a zero ``embedding`` is the null embedding. The prediction has the
    shape of ``x``.
    """
    cond = np.asarray(embedding, dtype=np.float64)[None, :]
    out, _ = forward_pass(np.reshape(x, (1, -1)), int(t), cond, backbone)
    return out.reshape(np.shape(x))


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
    to [0, 1]. The noise comes from the sampler's ``make_rng(seed,
    "sample")`` stream. Returns the (H, W) states from the initial noise to
    the image.
    """
    e_sem = encode_semantic(parse_prompt(prompt).stripped)
    cond = np.stack([e_sem, np.zeros_like(e_sem)])
    rng = make_rng(seed, "sample")
    x = rng.standard_normal((1, backbone.input_dim))
    states = [x]
    for t in range(schedule.total_steps, 0, -1):
        eps, _ = forward_pass(np.concatenate([x, x]), t, cond, backbone)
        eps = guided_eps(eps[:1], eps[1:], omega)
        x = ddpm_step(x, t, eps, schedule, [rng], x0_map=lambda x0: np.clip(x0, 0.0, 1.0))
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
def schedule():
    return NoiseSchedule.linear()


@pytest.fixture(scope="session")
def pair_dataset():
    return generate_pair_dataset(10, 10, seed=0)


@pytest.fixture(scope="session")
def trained_base(pair_dataset):
    """One modestly trained 16x16 base model shared across the suite."""
    images, embeddings = dataset_arrays(pair_dataset)
    trainer = DenoiserTrainer(steps=600, seed=0)
    trainer.fit(images, embeddings)
    return trainer.backbone_


@pytest.fixture(scope="session")
def null64():
    return np.zeros(64)


@pytest.fixture(scope="session")
def semantic():
    return encode_semantic
