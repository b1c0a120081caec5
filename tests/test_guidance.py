import numpy as np
import pytest

from craftlora.adapters import LoraTrainer, aggregate_weights, default_routing
from craftlora.config import GuidanceSettings
from craftlora.denoiser import Backbone, NoiseSchedule, ddpm_step, predict_eps
from craftlora.exceptions import ConfigInvalid, OutOfRange
from craftlora.guidance import (
    GuidedSampler,
    cfg_sample,
    gamma_schedule,
    guided_eps,
    guided_eps_parts,
    temporal_alpha,
)
from craftlora.pairs import content_render, style_render
from craftlora.prompts import encode_semantic, null_embedding, parse_prompt
from craftlora.utils import make_rng

BOTH_MARKERS = "a filled disc <c> in fine stripe style <s>"


def assert_close_relative(got, ref, rtol=1e-12):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def merged_reference_sample(backbone, content, style, prompt, seed, schedule, symmetric):
    """The sampler loop with the adapters merged into the host every step.

    Mirrors ``GuidedSampler.sample`` at its default guidance settings with
    clipping off, so no clip boundary can amplify rounding differences.
    """
    config = GuidanceSettings()
    e_sem = encode_semantic(parse_prompt(prompt).stripped)
    rng = make_rng(seed, "sample")
    x = rng.standard_normal((16, 16))
    for t in range(schedule.total_steps, 0, -1):
        ind_c, ind_s = gamma_schedule(t, config.content_window, config.style_window)
        alpha = temporal_alpha(t, config, schedule.total_steps)
        merged = aggregate_weights(backbone, content, style, alpha * ind_c, alpha * ind_s, e_sem)
        eps_cond = predict_eps(x, t, e_sem, merged)
        eps_uncond = predict_eps(x, t, null_embedding(), merged if symmetric else backbone)
        x = ddpm_step(x, t, guided_eps(eps_cond, eps_uncond, config.omega), schedule, rng)
    return x


@pytest.fixture(scope="module")
def adapters(trained_base):
    routing = default_routing(trained_base.names)
    content = (
        LoraTrainer("content", rank=4, steps=120, routing=routing, seed=21)
        .fit(trained_base, content_render(0), "a filled disc <c>")
        .adapter_
    )
    style = (
        LoraTrainer("style", rank=4, steps=120, routing=routing, seed=22)
        .fit(trained_base, style_render(0), "in fine stripe style <s>")
        .adapter_
    )
    return content, style


class TestGammaSchedule:
    def test_paper_windows(self):
        assert gamma_schedule(10, (1, 35), (15, 50)) == (1.0, 0.0)
        assert gamma_schedule(40, (1, 35), (15, 50)) == (0.0, 1.0)
        assert gamma_schedule(20, (1, 35), (15, 50)) == (1.0, 1.0)

    def test_window_bounds_inclusive(self):
        assert gamma_schedule(1, (1, 35), (15, 50)) == (1.0, 0.0)
        assert gamma_schedule(35, (1, 35), (15, 50)) == (1.0, 1.0)
        assert gamma_schedule(50, (1, 35), (15, 50)) == (0.0, 1.0)


class TestTemporalAlpha:
    def test_endpoints(self):
        config = GuidanceSettings(alpha_min=0.5, alpha_max=1.0)
        assert temporal_alpha(50, config, 50) == 0.5
        # late sampling (t=1) approaches alpha_max
        assert temporal_alpha(1, config, 50) > 0.99 * (1.0 - 0.5) + 0.5 - 0.05

    def test_midpoint_cosine(self):
        config = GuidanceSettings(alpha_min=0.2, alpha_max=0.8)
        assert abs(temporal_alpha(25, config, 50) - 0.5) < 1e-12

    def test_monotone_nonincreasing_in_t(self):
        config = GuidanceSettings()
        values = [temporal_alpha(t, config, 50) for t in range(1, 51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bounds(self):
        config = GuidanceSettings(alpha_min=0.3, alpha_max=0.9)
        for t in range(1, 51):
            assert 0.3 - 1e-15 <= temporal_alpha(t, config, 50) <= 0.9 + 1e-15

    def test_linear_ramp(self):
        config = GuidanceSettings(alpha_min=0.0, alpha_max=1.0, ramp="linear")
        assert abs(temporal_alpha(25, config, 50) - 0.5) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            temporal_alpha(0, GuidanceSettings(), 50)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            GuidanceSettings(omega=-1.0).validate(50)
        with pytest.raises(ConfigInvalid):
            GuidanceSettings(content_window=(0, 35)).validate(50)
        with pytest.raises(ConfigInvalid):
            GuidanceSettings(alpha_min=1.5, alpha_max=1.0).validate(50)


class TestGuidedEps:
    def test_omega_zero_returns_conditional(self):
        rng = make_rng(5)
        cond = rng.standard_normal((8, 8))
        uncond = rng.standard_normal((8, 8))
        assert np.array_equal(guided_eps(cond, uncond, 0.0), cond)

    def test_fixed_evaluation_order(self):
        rng = make_rng(6)
        cond = rng.standard_normal((8, 8))
        uncond = rng.standard_normal((8, 8))
        omega = 7.5
        out = guided_eps(cond, uncond, omega)
        assert np.array_equal(out, (1.0 + omega) * cond - omega * uncond)


class TestGuidedParts:
    def test_unconditional_path_purity(self, trained_base, adapters, schedule):
        content, style = adapters
        x = make_rng(7).standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        rng = np.random.default_rng(8)
        baseline = None
        for _ in range(20):
            config = GuidanceSettings(
                omega=float(rng.random() * 10),
                content_window=tuple(sorted(rng.integers(1, 51, 2).tolist())),
                style_window=tuple(sorted(rng.integers(1, 51, 2).tolist())),
                alpha_min=float(rng.random() * 0.5),
                alpha_max=0.5 + float(rng.random() * 0.5),
            )
            use_content = rng.random() < 0.5
            use_style = rng.random() < 0.5
            _, eps_uncond, _ = guided_eps_parts(
                x,
                17,
                e_sem,
                trained_base,
                content if use_content else None,
                style if use_style else None,
                float(rng.random()),
                float(rng.random()),
                config,
                50,
            )
            blob = eps_uncond.tobytes()
            if baseline is None:
                baseline = blob
            assert blob == baseline

    @pytest.mark.parametrize(
        "t, symmetric, active",
        [(10, False, "c"), (40, False, "s"), (20, False, "cs"), (20, True, "cs")],
        ids=["content-window", "style-window", "both-windows", "symmetric"],
    )
    def test_unmerged_terms_match_merged_host(self, trained_base, adapters, t, symmetric, active):
        content, style = adapters
        x = make_rng(11).standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        eps_cond, eps_uncond, (eff_c, eff_s, _) = guided_eps_parts(
            x, t, e_sem, trained_base, content, style, 1.0, 1.0, GuidanceSettings(), 50,
            symmetric=symmetric,
        )
        assert (eff_c > 0.0, eff_s > 0.0) == ("c" in active, "s" in active)
        merged = aggregate_weights(trained_base, content, style, eff_c, eff_s, e_sem)
        assert_close_relative(eps_cond, predict_eps(x, t, e_sem, merged))
        uncond_host = merged if symmetric else trained_base
        assert_close_relative(eps_uncond, predict_eps(x, t, null_embedding(), uncond_host))

    def test_schedule_gates_adapters(self, trained_base, adapters):
        content, style = adapters
        x = make_rng(9).standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        config = GuidanceSettings(content_window=(1, 20), style_window=(30, 50))
        # t in neither window: conditional equals the bare-host prediction
        eps_cond, eps_uncond, (eff_c, eff_s, _) = guided_eps_parts(
            x, 25, e_sem, trained_base, content, style, 1.0, 1.0, config, 50
        )
        assert eff_c == 0.0 and eff_s == 0.0
        assert np.array_equal(eps_cond, predict_eps(x, 25, e_sem, trained_base))
        # t in the content window only
        _, _, (eff_c, eff_s, alpha) = guided_eps_parts(
            x, 10, e_sem, trained_base, content, style, 1.0, 1.0, config, 50
        )
        assert eff_c == alpha and eff_s == 0.0

    def test_inactive_schedules_with_null_embedding_collapse_to_uncond(
        self, trained_base, adapters
    ):
        from craftlora.guidance import guided_eps

        content, style = adapters
        x = make_rng(10).standard_normal((16, 16))
        config = GuidanceSettings(content_window=(1, 5), style_window=(1, 5))
        for omega in (0.0, 1.0, 7.5):
            eps_cond, eps_uncond, (eff_c, eff_s, _) = guided_eps_parts(
                x, 30, null_embedding(), trained_base, content, style, 1.0, 1.0, config, 50
            )
            assert eff_c == 0.0 and eff_s == 0.0
            assert np.array_equal(eps_cond, eps_uncond)
            out = guided_eps(eps_cond, eps_uncond, omega)
            assert np.abs(out - eps_uncond).max() < 1e-12


class TestGuidedSampler:
    def test_matches_plain_cfg_with_no_adapters(self, trained_base, schedule):
        prompt = "a filled disc <c> in fine stripe style <s>"
        for seed in (0, 1, 2):
            sampler = GuidedSampler(
                trained_base, omega=3.0, schedule=schedule, record_trajectory=True
            )
            image = sampler.sample(prompt, seed=seed)
            trajectory = []
            ref = cfg_sample(
                prompt,
                trained_base,
                omega=3.0,
                schedule=schedule,
                seed=seed,
                trajectory=trajectory,
            )
            assert np.array_equal(image, ref)
            assert len(sampler.trajectory_) == len(trajectory)
            for a, b in zip(sampler.trajectory_, trajectory):
                assert np.array_equal(a, b)

    def test_zero_factor_adapters_match_plain_cfg(self, trained_base, schedule):
        # adapters whose A factors are still zero contribute nothing: the
        # whole trajectory agrees with standard CFG on the host
        from craftlora.adapters import make_adapter

        routing = default_routing(trained_base.names)
        content = make_adapter("content", trained_base, routing, rank=3, seed=31)
        style = make_adapter("style", trained_base, routing, rank=3, seed=32)
        prompt = "a filled disc <c> in fine stripe style <s>"
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            omega=2.0,
            schedule=schedule,
            record_trajectory=True,
        )
        image = sampler.sample(prompt, seed=12)
        trajectory = []
        ref = cfg_sample(
            prompt, trained_base, omega=2.0, schedule=schedule, seed=12, trajectory=trajectory
        )
        assert np.abs(image - ref).max() < 1e-12
        for a, b in zip(sampler.trajectory_, trajectory):
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("symmetric", [False, True], ids=["asymmetric", "symmetric"])
    def test_matches_merged_reference_without_clipping(
        self, trained_base, adapters, schedule, symmetric
    ):
        content, style = adapters
        image = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            symmetric_cfg=symmetric,
            schedule=schedule,
            clip_x0=None,
        ).sample(BOTH_MARKERS, seed=13)
        ref = merged_reference_sample(
            trained_base, content, style, BOTH_MARKERS, 13, schedule, symmetric
        )
        assert_close_relative(image, ref)

    def test_sample_never_merges_or_builds_a_backbone(
        self, trained_base, adapters, schedule, monkeypatch
    ):
        import craftlora
        from craftlora import adapters as adapters_module
        from craftlora import guidance

        content, style = adapters
        sampler = GuidedSampler(
            trained_base, content_adapter=content, style_adapter=style, schedule=schedule
        )
        calls = {"aggregate_weights": 0, "Backbone": 0}

        def counting_aggregate(*args, **kwargs):
            calls["aggregate_weights"] += 1
            return aggregate_weights(*args, **kwargs)

        real_init = Backbone.__init__

        def counting_init(self, layers):
            calls["Backbone"] += 1
            real_init(self, layers)

        for module in (adapters_module, guidance, craftlora):
            monkeypatch.setattr(module, "aggregate_weights", counting_aggregate, raising=False)
        monkeypatch.setattr(Backbone, "__init__", counting_init)
        sampler.sample(BOTH_MARKERS, seed=14)
        assert calls == {"aggregate_weights": 0, "Backbone": 0}
        # the counters do see a merge
        adapters_module.aggregate_weights(trained_base, content, style, 1.0, 1.0)
        assert calls == {"aggregate_weights": 1, "Backbone": 1}

    def test_two_evaluations_per_step(self, trained_base, adapters, schedule):
        content, style = adapters
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            schedule=schedule,
        )
        sampler.sample("a filled disc <c> in fine stripe style <s>", seed=3)
        assert sampler.n_network_evals_ == 2 * schedule.total_steps

    def test_same_seed_bit_identical(self, trained_base, adapters, schedule):
        content, style = adapters
        images = []
        for _ in range(2):
            sampler = GuidedSampler(
                trained_base,
                content_adapter=content,
                style_adapter=style,
                schedule=schedule,
            )
            images.append(sampler.sample("a filled disc <c> in fine stripe style <s>", seed=4))
        assert np.array_equal(images[0], images[1])

    def test_symmetric_ablation_differs_with_adapters(self, trained_base, adapters, schedule):
        content, style = adapters
        kwargs = dict(
            content_adapter=content,
            style_adapter=style,
            omega=2.0,
            schedule=schedule,
        )
        asym = GuidedSampler(trained_base, **kwargs).sample(
            "a filled disc <c> in fine stripe style <s>", seed=5
        )
        sym = GuidedSampler(trained_base, symmetric_cfg=True, **kwargs).sample(
            "a filled disc <c> in fine stripe style <s>", seed=5
        )
        assert not np.array_equal(asym, sym)

    def test_gamma_overrides_disable_adapters(self, trained_base, adapters, schedule):
        content, style = adapters
        off = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            gamma_content=0.0,
            gamma_style=0.0,
            schedule=schedule,
        ).sample("a filled disc <c> in fine stripe style <s>", seed=6)
        bare = GuidedSampler(trained_base, schedule=schedule).sample(
            "a filled disc <c> in fine stripe style <s>", seed=6
        )
        assert np.array_equal(off, bare)

    def test_marker_presence_sets_gammas(self, trained_base, adapters, schedule):
        content, style = adapters
        # no style marker: the style adapter must never contribute
        with_style = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            schedule=schedule,
        ).sample("a filled disc <c>", seed=7)
        without_style = GuidedSampler(
            trained_base, content_adapter=content, schedule=schedule
        ).sample("a filled disc <c>", seed=7)
        assert np.array_equal(with_style, without_style)

    def test_trace_records(self, trained_base, adapters, schedule):
        content, style = adapters
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            schedule=schedule,
            record_trace=True,
        )
        sampler.sample("a filled disc <c> in fine stripe style <s>", seed=8)
        assert len(sampler.trace_) == schedule.total_steps
        first = sampler.trace_[0]
        for key in ("t=", "gamma_c=", "gamma_s=", "alpha=", "guidance_gap="):
            assert key in first

    def test_single_step_schedule(self, trained_base):
        one = NoiseSchedule([0.2])
        sampler = GuidedSampler(
            trained_base, omega=1.0, content_window=(1, 1), style_window=(1, 1), schedule=one
        )
        out = sampler.sample("a filled disc <c>", seed=9)
        assert out.shape == (16, 16)
        assert sampler.n_network_evals_ == 2

    def test_window_outside_schedule_rejected(self, trained_base):
        # the default windows (1, 35) and (15, 50) end past a 30-step schedule
        with pytest.raises(ConfigInvalid, match="window must lie inside"):
            GuidedSampler(trained_base, schedule=NoiseSchedule.linear(30))
