"""Training-run oracles: the slow, seed-replicated behavioral checks."""

import numpy as np
import pytest

from craftlora.adapters import LoraTrainer, default_routing, make_adapter
from craftlora.denoiser import DenoiserTrainer, NoiseSchedule
from craftlora.pairs import ContrastPair, generate_pair_dataset, style_render
from craftlora.prompts import encode_semantic, parse_prompt
from craftlora.subspace import (
    PerceptualProxy,
    RankSchedule,
    TrunkFinetuner,
    init_bases,
    make_trunk_draws,
    trunk_loss,
)
from craftlora.utils import make_rng


@pytest.fixture(scope="module")
def toy_images_8x8():
    pairs = generate_pair_dataset(8, 8, seed=0, size=8)[:32]
    return np.stack([img for p in pairs for img in (p.content_image, p.style_image)])


def test_denoiser_training_halves_loss_across_seeds(toy_images_8x8):
    # 2000 steps on 64 toy images; start/end measured as 50-step means
    for seed in (0, 1, 2):
        trainer = DenoiserTrainer(image_size=8, steps=2000, seed=seed)
        trainer.fit(toy_images_8x8)
        history = np.array(trainer.loss_history_)
        start = history[:50].mean()
        end = history[-50:].mean()
        assert end < 0.5 * start, f"seed {seed}: {end:.3f} vs start {start:.3f}"


def test_denoiser_loss_windows_decrease_across_seeds(toy_images_8x8):
    # 100-step window means decay with a 1.5%-of-start noise allowance for
    # the converged tail; doubling the window restores strict monotonicity
    for seed in (0, 1, 2):
        trainer = DenoiserTrainer(image_size=8, steps=2000, seed=seed)
        trainer.fit(toy_images_8x8)
        history = np.array(trainer.loss_history_)
        w100 = history.reshape(-1, 100).mean(axis=1)
        slack = 0.015 * w100[0]
        assert np.all(np.diff(w100) <= slack)
        w200 = history.reshape(-1, 200).mean(axis=1)
        assert np.all(np.diff(w200) <= 0.0)


def test_near_one_alpha_bar_limit():
    # the no-noise limit: a single nearly-zero beta keeps x0 intact
    schedule = NoiseSchedule([1e-12])
    x0 = make_rng(0).random((8, 8))
    noise = make_rng(1).standard_normal((8, 8))
    ab = schedule.alpha_bar(1)
    out = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise
    assert np.abs(out - x0).max() < 1e-5


@pytest.mark.slow
def test_trunk_training_lowers_loss_across_seeds(trained_base, pair_dataset, schedule):
    # the 500-step run, evaluated on a fixed probe (same pairs and draws)
    # with the initial versus the trained bases
    probe = pair_dataset[::12]
    probe_draws = make_trunk_draws(probe, schedule, make_rng(777, "probe"))
    perceptual = PerceptualProxy(image_size=16, seed=0)

    def probe_loss(bases):
        value, _ = trunk_loss(
            trained_base, bases, probe, 1e-4, 0.1, schedule, probe_draws, perceptual=perceptual
        )
        return value

    for seed in (0, 1, 2):
        tuner = TrunkFinetuner(steps=500, seed=seed)
        tuner.fit(trained_base, pair_dataset)
        initial = init_bases(
            trained_base,
            RankSchedule(tuner.settings.r_max, tuner.settings.r_min, trained_base.n_layers),
            seed=seed,
        )
        before = probe_loss(initial)
        after = probe_loss(tuner.bases_)
        assert after < before, f"seed {seed}: {after:.3f} !< {before:.3f}"


def test_adapter_thousand_steps_beats_zero_adapter(trained_base, schedule):
    from craftlora.adapters import adapter_loss

    routing = default_routing(trained_base.names)
    reference = style_render(0)
    prompt = "in fine stripe style <s>"
    trainer = LoraTrainer("style", rank=8, steps=1000, routing=routing, seed=3)
    trainer.fit(trained_base, reference, prompt)
    zero = make_adapter("style", trained_base, routing, rank=8, seed=3)
    e_sem = encode_semantic(parse_prompt(prompt).stripped)
    rng = make_rng(99, "probe")
    trained_total = 0.0
    zero_total = 0.0
    for _ in range(60):
        t = int(rng.integers(1, schedule.total_steps + 1))
        noise = rng.standard_normal(reference.shape)
        lt, _, _ = adapter_loss(trained_base, trainer.adapter_, reference, e_sem, schedule, (t, noise))
        lz, _, _ = adapter_loss(trained_base, zero, reference, e_sem, schedule, (t, noise))
        trained_total += lt
        zero_total += lz
    assert trained_total < zero_total


def test_degenerate_pair_warns(trained_base):
    img = generate_pair_dataset(1, 1, seed=0)[0].content_image
    degenerate = ContrastPair(
        pair_id=0,
        content_image=img,
        style_image=img.copy(),
        content_prompt="a filled disc",
        style_prompt="in fine stripe style",
        content_modifier="showing a filled disc",
        style_modifier="with fine stripe texture",
    )
    with pytest.warns(RuntimeWarning, match="identical members"):
        TrunkFinetuner(steps=1).fit(trained_base, [degenerate])
