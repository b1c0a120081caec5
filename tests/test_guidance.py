import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craftlora.adapters import (
    LoraTrainer,
    adapter_terms,
    aggregate_weights,
    default_routing,
    make_adapter,
)
from craftlora.config import GuidanceSettings
from craftlora.denoiser import Backbone, NoiseSchedule, ddpm_step, forward_pass, init_backbone
from craftlora.exceptions import ConfigInvalid, NumericalError, OutOfRange, ShapeMismatch
from craftlora.guidance import (
    GuidedSampler,
    gamma_schedule,
    guided_eps,
    guided_eps_parts,
    plan_guidance,
    temporal_alpha,
)
from craftlora.pairs import CONTENT_PROMPTS, STYLE_PROMPTS, content_render, style_render
from craftlora.prompts import EMB_DIM, encode_semantic, parse_prompt
from craftlora.utils import make_rng

BOTH_MARKERS = "a filled disc <c> in fine stripe style <s>"


def assert_close_relative(got, ref, rtol):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def merged_reference_sample(backbone, content, style, prompt, seed, schedule, symmetric, eps_of):
    """The sampler loop with the adapters merged into the host every step.

    Mirrors ``GuidedSampler.sample`` at its default guidance settings,
    clean estimates clipped to [0, 1] like the sampler's. ``eps_of`` is the
    single-image forward (the ``one_row_eps`` fixture).
    """
    config = GuidanceSettings()
    e_sem = encode_semantic(parse_prompt(prompt).stripped)
    rng = make_rng(seed, "sample")
    x = rng.standard_normal((1, 256))
    for t in range(schedule.total_steps, 0, -1):
        ind_c, ind_s = gamma_schedule(t, config.content_window, config.style_window)
        alpha = temporal_alpha(t, config, schedule.total_steps)
        merged = aggregate_weights(
            backbone, content, style, alpha * ind_c, alpha * ind_s, e_sem[None, :]
        )
        eps_cond = eps_of(x, t, e_sem, merged)
        eps_uncond = eps_of(x, t, np.zeros(EMB_DIM), merged if symmetric else backbone)
        x = ddpm_step(
            x, t, guided_eps(eps_cond, eps_uncond, config.omega), schedule,
            rng.standard_normal(x.shape), x0_map=lambda x0: np.clip(x0, 0.0, 1.0),
        )
    return x.reshape(16, 16)


def float64_replay(backbone, content, style, prompts, seeds, schedule):
    """Marker-gained ``sample_batch`` images replayed in float64.

    The loop from the public pieces at the default guidance settings, with
    no float32 cast: each step builds its ``adapter_terms`` at alpha times
    the window indicators times each row's marker gains, makes one float64
    forward pass over ``[x; x]`` with embeddings ``[e; 0]`` (the terms on
    the first N rows only) and one float64 reverse step clipped to [0, 1].
    Row i draws from its own ``make_rng(seeds[i], "sample")`` stream, so
    the seeds must be distinct.
    """
    config = GuidanceSettings()
    specs = [parse_prompt(p) for p in prompts]
    e_rows = np.stack([encode_semantic(spec.stripped) for spec in specs])
    gains = np.array(
        [(spec.has_content_marker, spec.has_style_marker) for spec in specs], dtype=float
    )
    cond = np.concatenate([e_rows, np.zeros_like(e_rows)])
    rngs = [make_rng(seed, "sample") for seed in seeds]
    x = np.stack([rng.standard_normal(backbone.input_dim) for rng in rngs])
    n_rows = len(prompts)
    for t in range(schedule.total_steps, 0, -1):
        ind_c, ind_s = gamma_schedule(t, config.content_window, config.style_window)
        alpha = temporal_alpha(t, config, schedule.total_steps)
        terms = adapter_terms(
            backbone, content, style, alpha * ind_c * gains[:, 0], alpha * ind_s * gains[:, 1],
            e_rows,
        )
        eps, _ = forward_pass(np.concatenate([x, x]), t, cond, backbone, terms)
        eps = guided_eps(eps[:n_rows], eps[n_rows:], config.omega)
        noise = np.stack([rng.standard_normal(backbone.input_dim) for rng in rngs])
        x = ddpm_step(x, t, eps, schedule, noise, x0_map=lambda x0: np.clip(x0, 0.0, 1.0))
    return x.reshape(n_rows, 16, 16)


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
    def test_unconditional_path_purity(self, trained_base, adapters, one_image_parts):
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
            _, eps_uncond, _ = one_image_parts(
                x,
                17,
                e_sem,
                trained_base,
                content if use_content else None,
                style if use_style else None,
                float(rng.random()),
                float(rng.random()),
                config,
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
    def test_unmerged_terms_match_merged_host(
        self, trained_base, adapters, one_row_eps, one_image_parts, t, symmetric, active
    ):
        content, style = adapters
        x = make_rng(11).standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        eps_cond, eps_uncond, (eff_c, eff_s, _) = one_image_parts(
            x, t, e_sem, trained_base, content, style, 1.0, 1.0, GuidanceSettings(), symmetric
        )
        assert (eff_c > 0.0, eff_s > 0.0) == ("c" in active, "s" in active)
        merged = aggregate_weights(trained_base, content, style, eff_c, eff_s, e_sem[None, :])
        # the float32 plan against the float64 merged host: 3.3e-7 to 5.3e-7 measured
        assert_close_relative(eps_cond, one_row_eps(x, t, e_sem, merged), rtol=2e-6)
        uncond_host = merged if symmetric else trained_base
        assert_close_relative(
            eps_uncond, one_row_eps(x, t, np.zeros(EMB_DIM), uncond_host), rtol=2e-6
        )

    def test_schedule_gates_adapters(
        self, trained_base, adapters, one_image_parts, host32, cond32
    ):
        content, style = adapters
        x = make_rng(9).standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        config = GuidanceSettings(content_window=(1, 20), style_window=(30, 50))
        # t in neither window: conditional equals the bare-host prediction,
        # row 0 of the same float32 two-row pass [x; x] with embeddings [e; 0]
        eps_cond, eps_uncond, (eff_c, eff_s, _) = one_image_parts(
            x, 25, e_sem, trained_base, content, style, 1.0, 1.0, config
        )
        assert eff_c == 0.0 and eff_s == 0.0
        bare, _ = forward_pass(
            np.stack([x.ravel(), x.ravel()]).astype(np.float32),
            25,
            cond32(np.stack([e_sem, np.zeros(EMB_DIM)]), trained_base),
            host32(trained_base),
        )
        assert np.array_equal(eps_cond, bare[0].reshape(x.shape))
        # t in the content window only
        _, _, (eff_c, eff_s, alpha) = one_image_parts(
            x, 10, e_sem, trained_base, content, style, 1.0, 1.0, config
        )
        assert eff_c == alpha and eff_s == 0.0

    def test_inactive_schedules_with_null_embedding_collapse_to_uncond(
        self, trained_base, adapters, null64, one_image_parts
    ):
        from craftlora.guidance import guided_eps

        content, style = adapters
        x = make_rng(10).standard_normal((16, 16))
        config = GuidanceSettings(content_window=(1, 5), style_window=(1, 5))
        for omega in (0.0, 1.0, 7.5):
            eps_cond, eps_uncond, (eff_c, eff_s, _) = one_image_parts(
                x, 30, null64, trained_base, content, style, 1.0, 1.0, config
            )
            assert eff_c == 0.0 and eff_s == 0.0
            assert np.array_equal(eps_cond, eps_uncond)
            out = guided_eps(eps_cond, eps_uncond, omega)
            # (1 + omega) * u - omega * u rounds in float32: 0, 0 and 5.5e-7
            # of max |u| measured at omega 0, 1 and 7.5
            assert np.abs(out - eps_uncond).max() <= 2e-6 * np.abs(eps_uncond).max()

    def test_plan_refuses_other_rows_and_unplanned_steps(self, trained_base, null64):
        plan = plan_guidance(
            trained_base, None, None, 0.0, 0.0, np.stack([null64, null64]), False,
            GuidanceSettings(), 50, (7,),
        )
        x = make_rng(12).standard_normal((2, 256))
        with pytest.raises(ShapeMismatch, match=r"is \(1, 256\); the plan is for \(2, 256\)"):
            guided_eps_parts(x[:1], 7, plan)
        with pytest.raises(ShapeMismatch):
            guided_eps_parts(x.reshape(2, 16, 16), 7, plan)
        with pytest.raises(OutOfRange, match="no step at t=8"):
            guided_eps_parts(x, 8, plan)

    def test_non_integer_t_refused(self, trained_base, null64):
        # int(7.2) and int(True) would run the planned steps 7 and 1, and
        # would read the windows and the alpha ramp at those steps; a NumPy
        # integer is its int
        settings = GuidanceSettings()
        plan = plan_guidance(
            trained_base, None, None, 0.0, 0.0, null64[None, :], False, settings, 50,
            (1, np.int64(7)),
        )
        x = make_rng(13).standard_normal((1, 256))
        for t in (7.2, 7.0, True):
            with pytest.raises(OutOfRange, match="integer timestep"):
                guided_eps_parts(x, t, plan)
            with pytest.raises(OutOfRange, match="integer timestep"):
                gamma_schedule(t, settings.content_window, settings.style_window)
            with pytest.raises(OutOfRange, match="integer timestep"):
                temporal_alpha(t, settings, 50)
            with pytest.raises(OutOfRange, match="integer timestep"):
                plan_guidance(
                    trained_base, None, None, 0.0, 0.0, null64[None, :], False, settings, 50,
                    (1, t),
                )
        assert gamma_schedule(np.int64(2), (1, 35), (15, 50)) == gamma_schedule(2, (1, 35), (15, 50))
        assert temporal_alpha(np.int64(2), settings, 50) == temporal_alpha(2, settings, 50)
        cond, uncond, gains = guided_eps_parts(x, np.int64(7), plan)
        ref_cond, ref_uncond, ref_gains = guided_eps_parts(x, 7, plan)
        assert cond.tobytes() == ref_cond.tobytes() and uncond.tobytes() == ref_uncond.tobytes()
        assert gains == ref_gains

    def test_plan_is_float32(self, trained_base, adapters):
        content, style = adapters
        e_rows = encode_semantic("a filled disc")[None, :]
        plan = plan_guidance(
            trained_base, content, style, 1.0, 1.0, e_rows, False, GuidanceSettings(), 50,
            range(1, 51),
        )
        assert all(w.dtype == np.float32 for w in plan.weights.values())
        assert plan.cond.rows.dtype == np.float32 and plan.inputs.dtype == np.float32
        for terms, _ in plan.steps.values():
            assert all(a.dtype == np.float32 for term in terms.values() for a in term)
        x = make_rng(14).standard_normal((1, 256))
        assert all(part.dtype == np.float32 for part in guided_eps_parts(x, 20, plan)[:2])

    @pytest.mark.parametrize("slot", ["content", "style"])
    def test_adapter_factor_beyond_float32_is_a_numerical_error(self, trained_base, slot):
        routing = default_routing(trained_base.names)
        adapter = make_adapter(slot, trained_base, routing, rank=2, seed=33)
        layer = routing.side(slot)[0]
        down, up = adapter.factors[layer]
        adapter.factors[layer] = (down, np.full_like(up, 1e306))
        content, style = (adapter, None) if slot == "content" else (None, adapter)
        with pytest.raises(NumericalError, match=rf"^adapter factor on '{layer}' lies outside"):
            plan_guidance(
                trained_base, content, style, 1.0, 1.0, encode_semantic("a filled disc")[None, :],
                False, GuidanceSettings(), 50, (10,),
            )


class TestGuidedSampler:
    def test_matches_plain_cfg_with_no_adapters(
        self, trained_base, schedule, standard_cfg, sampler_states
    ):
        prompt = "a filled disc <c> in fine stripe style <s>"
        for seed in (0, 1, 2):
            sampler = GuidedSampler(trained_base, omega=3.0, schedule=schedule)
            image = sampler.sample(prompt, seed=seed)
            trajectory = standard_cfg(prompt, trained_base, 3.0, schedule, seed)
            assert image.tobytes() == trajectory[-1].astype(np.float64).tobytes()
            assert len(sampler_states) == seed + 1
            assert len(sampler_states[-1]) == len(trajectory)
            for a, b in zip(sampler_states[-1], trajectory):
                assert a.tobytes() == b.tobytes()

    def test_zero_factor_adapters_match_plain_cfg(
        self, trained_base, schedule, standard_cfg, sampler_states
    ):
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
        )
        image = sampler.sample(prompt, seed=12)
        trajectory = standard_cfg(prompt, trained_base, 2.0, schedule, 12)
        assert np.abs(image - trajectory[-1]).max() < 1e-12
        (states,) = sampler_states
        assert len(states) == len(trajectory)
        for a, b in zip(states, trajectory):
            assert np.abs(a.reshape(b.shape) - b).max() < 1e-12

    @pytest.mark.parametrize("symmetric", [False, True], ids=["asymmetric", "symmetric"])
    def test_matches_merged_reference(
        self, trained_base, adapters, schedule, one_row_eps, symmetric
    ):
        content, style = adapters
        image = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            symmetric_cfg=symmetric,
            schedule=schedule,
        ).sample(BOTH_MARKERS, seed=13)
        ref = merged_reference_sample(
            trained_base, content, style, BOTH_MARKERS, 13, schedule, symmetric, one_row_eps
        )
        # the float32 sampler against the float64 merged loop: 1.1e-6
        # (asymmetric) and 7.6e-7 (symmetric) measured
        assert_close_relative(image, ref, rtol=5e-6)

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
        adapters_module.aggregate_weights(
            trained_base, content, style, 1.0, 1.0, encode_semantic("a filled disc")[None, :]
        )
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

    @pytest.mark.parametrize(
        "factor, message",
        [
            (1e37, r"^the clean estimate at t=50 "),
            (1e38, r"^eps_hat at t=50 "),
            (1e306, r"^host layer 'layer8' lies outside float32's range"),
        ],
        ids=["estimate-overflows", "guided-estimate-overflows", "host-beyond-float32"],
    )
    def test_overflowing_clean_estimate_is_a_numerical_error(self, factor, message):
        # the host is finite, but its huge last layer makes the first step
        # overflow; the clip would map the infinities into [0, 1] and hide
        # it. At 1e37 the host fits float32 and the clean estimate
        # overflows; at 1e38 the guided estimate (1 + omega) * cond already
        # does; at 1e306 the host does not fit float32 and the plan refuses
        # its cast. None of them may return an image or warn
        host = init_backbone(seed=0)
        host = host.replace({"layer8": host.weight("layer8") * factor})
        with pytest.raises(NumericalError, match=message):
            GuidedSampler(host, omega=7.5).sample("a cat", seed=0)

    def test_window_outside_schedule_rejected(self, trained_base):
        # the default windows (1, 35) and (15, 50) end past a 30-step schedule
        with pytest.raises(ConfigInvalid, match="window must lie inside"):
            GuidedSampler(trained_base, schedule=NoiseSchedule.linear(30))

    @pytest.mark.parametrize(
        "slots",
        [("style", None), (None, "content"), ("style", "content")],
        ids=["style-as-content", "content-as-style", "both-swapped"],
    )
    def test_adapter_in_the_other_slot_rejected(self, trained_base, adapters, slots):
        by_kind = dict(zip(("content", "style"), adapters))
        content, style = (by_kind.get(kind) for kind in slots)
        with pytest.raises(ConfigInvalid, match="adapter slot holds a"):
            GuidedSampler(trained_base, content_adapter=content, style_adapter=style)

    @pytest.mark.parametrize("gain", [np.nan, np.inf, -np.inf, -0.5])
    @pytest.mark.parametrize("name", ["gamma_content", "gamma_style"])
    def test_gain_override_must_be_finite_and_nonnegative(
        self, trained_base, adapters, name, gain
    ):
        content, style = adapters
        with pytest.raises(ConfigInvalid, match=f"{name} must be finite and nonnegative"):
            GuidedSampler(
                trained_base, content_adapter=content, style_adapter=style, **{name: gain}
            )


def marked_prompt(pattern, i, j):
    content = CONTENT_PROMPTS[i] + (" <c>" if pattern in ("both", "content") else "")
    style = STYLE_PROMPTS[j] + (" <s>" if pattern in ("both", "style") else "")
    return f"{content} {style}"


def grid_rows(min_size, seeds=st.integers(0, 2**32 - 1)):
    """Lists of (marker pattern, content index, style index, seed) rows."""
    return st.lists(
        st.tuples(
            st.sampled_from(("both", "content", "style", "none")),
            st.integers(0, len(CONTENT_PROMPTS) - 1),
            st.integers(0, len(STYLE_PROMPTS) - 1),
            seeds,
        ),
        min_size=min_size,
        max_size=6,
    )


class TestSampleBatch:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        rows=grid_rows(1),
        gains=st.sampled_from([(None, None), (0.5, None), (None, 1.5), (0.0, 2.0)]),
        symmetric=st.booleans(),
    )
    def test_rows_match_single_samples(self, trained_base, adapters, schedule, rows, gains, symmetric):
        content, style = adapters
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            gamma_content=gains[0],
            gamma_style=gains[1],
            symmetric_cfg=symmetric,
            schedule=schedule,
        )
        prompts = [marked_prompt(pattern, i, j) for pattern, i, j, _ in rows]
        seeds = [seed for *_, seed in rows]
        batch = sampler.sample_batch(prompts, seeds)
        assert batch.shape == (len(rows), 16, 16)
        for image, prompt, seed in zip(batch, prompts, seeds):
            # a float32 batch of one rounds unlike a batch of two or more:
            # 1.4e-6 measured
            assert_close_relative(image, sampler.sample(prompt, seed=seed), rtol=1e-5)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rows=grid_rows(1, seeds=st.integers(0, 2)))
    def test_rows_that_share_a_seed_share_its_stream(self, trained_base, adapters, schedule, rows):
        # seeds repeat across rows, and the first row is repeated at the end
        content, style = adapters
        sampler = GuidedSampler(
            trained_base, content_adapter=content, style_adapter=style, schedule=schedule
        )
        rows = rows + rows[:1]
        prompts = [marked_prompt(pattern, i, j) for pattern, i, j, _ in rows]
        seeds = [seed for *_, seed in rows]
        batch = sampler.sample_batch(prompts, seeds)
        first = {}
        for image, prompt, seed in zip(batch, prompts, seeds):
            # 1.6e-6 measured, as in test_rows_match_single_samples
            assert_close_relative(image, sampler.sample(prompt, seed=seed), rtol=1e-5)
            assert image.tobytes() == first.setdefault((prompt, seed), image).tobytes()

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_matches_a_loop_over_the_public_pieces(
        self, trained_base, adapters, schedule, n_rows, symmetric
    ):
        # the oracle shares nothing across steps: each step plans its own
        # timestep alone, checking its inputs and building its own terms,
        # projection and input rows, and the clip goes through np.clip on a
        # copy. Like the sampler it steps in float32, each float64 draw cast
        # once (the start state here, each step's noise in ddpm_step)
        content, style = adapters
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            symmetric_cfg=symmetric,
            schedule=schedule,
        )
        prompts = [marked_prompt(("both", "content", "style")[k], k, 2 * k) for k in range(n_rows)]
        seeds = [5 + k for k in range(n_rows)]
        specs = [parse_prompt(p) for p in prompts]
        e_rows = np.stack([encode_semantic(spec.stripped) for spec in specs])
        gains = np.array(
            [(spec.has_content_marker, spec.has_style_marker) for spec in specs], dtype=float
        )
        rngs = [make_rng(seed, "sample") for seed in seeds]
        x = np.stack([rng.standard_normal(trained_base.input_dim) for rng in rngs])
        x = x.astype(np.float32)
        config = sampler.settings
        for t in range(schedule.total_steps, 0, -1):
            plan = plan_guidance(
                trained_base, content, style, gains[:, 0], gains[:, 1], e_rows, symmetric,
                config, schedule.total_steps, (t,),
            )
            eps_cond, eps_uncond, _ = guided_eps_parts(x, t, plan)
            eps = guided_eps(eps_cond, eps_uncond, config.omega)
            noise = np.stack([rng.standard_normal(trained_base.input_dim) for rng in rngs])
            x = ddpm_step(x, t, eps, schedule, noise, x0_map=lambda x0: np.clip(x0, 0.0, 1.0))
        images = sampler.sample_batch(prompts, seeds)
        assert x.dtype == np.float32 and images.dtype == np.float64
        assert images.tobytes() == x.astype(np.float64).reshape(n_rows, 16, 16).tobytes()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rows=grid_rows(2), data=st.data())
    def test_permuting_rows_permutes_images(self, trained_base, adapters, schedule, rows, data):
        content, style = adapters
        sampler = GuidedSampler(
            trained_base, content_adapter=content, style_adapter=style, schedule=schedule
        )
        prompts = [marked_prompt(pattern, i, j) for pattern, i, j, _ in rows]
        seeds = [seed for *_, seed in rows]
        order = data.draw(st.permutations(list(range(len(rows)))))
        batch = sampler.sample_batch(prompts, seeds)
        permuted = sampler.sample_batch([prompts[k] for k in order], [seeds[k] for k in order])
        assert permuted.tobytes() == batch[list(order)].tobytes()

    @pytest.mark.parametrize("n_rows", [1, 3, 7])
    def test_two_evaluations_per_step_for_any_batch(
        self, trained_base, adapters, schedule, monkeypatch, sampler_states, n_rows
    ):
        # both evaluations are one forward pass of 2N rows per step, with
        # one guided_eps_parts and one ddpm_step call around it
        from craftlora import denoiser, guidance

        content, style = adapters
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            schedule=schedule,
            record_trace=True,
        )
        calls = {"forward_pass": [], "guided_eps_parts": 0, "ddpm_step": 0}
        real = {
            "forward_pass": guidance.forward_pass,
            "guided_eps_parts": guidance.guided_eps_parts,
            "ddpm_step": denoiser.ddpm_step,
        }

        def forward(x, *args, **kwargs):
            calls["forward_pass"].append(x.shape[0])
            return real["forward_pass"](x, *args, **kwargs)

        def counted(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real[name](*args, **kwargs)

            return wrapper

        monkeypatch.setattr(guidance, "forward_pass", forward)
        monkeypatch.setattr(guidance, "guided_eps_parts", counted("guided_eps_parts"))
        monkeypatch.setattr(denoiser, "ddpm_step", counted("ddpm_step"))
        images = sampler.sample_batch([BOTH_MARKERS] * n_rows, list(range(n_rows)))
        steps = schedule.total_steps
        assert calls == {
            "forward_pass": [2 * n_rows] * steps,
            "guided_eps_parts": steps,
            "ddpm_step": steps,
        }
        assert images.shape == (n_rows, 16, 16)
        assert sampler.n_network_evals_ == 2 * steps
        assert [len(rows) for rows in sampler.trace_] == [schedule.total_steps] * n_rows
        (states,) = sampler_states
        assert len(states) == schedule.total_steps + 1
        assert np.array_equal(states[-1].reshape(images.shape), images)

    def test_non_finite_prediction_is_numerical_error(
        self, trained_base, adapters, schedule, monkeypatch
    ):
        from craftlora import guidance

        content, style = adapters
        sampler = GuidedSampler(
            trained_base, content_adapter=content, style_adapter=style, schedule=schedule
        )
        real_forward = guidance.forward_pass
        seen = []

        def poisoned(x, t, *args, **kwargs):
            out, cache = real_forward(x, t, *args, **kwargs)
            seen.append(t)
            if t == 25:
                out[-1, 0] = np.nan
            return out, cache

        monkeypatch.setattr(guidance, "forward_pass", poisoned)
        with pytest.raises(NumericalError, match="t=25"):
            sampler.sample_batch([BOTH_MARKERS] * 2, [0, 1])
        assert seen == list(range(schedule.total_steps, 24, -1))

    def test_matches_a_float64_replay(self, trained_base, adapters, schedule):
        content, style = adapters
        sampler = GuidedSampler(
            trained_base, content_adapter=content, style_adapter=style, schedule=schedule
        )
        patterns = ("both", "content", "style", "none", "both", "content")
        prompts = [marked_prompt(pattern, k, 9 - k) for k, pattern in enumerate(patterns)]
        seeds = [40 + k for k in range(len(prompts))]
        images = sampler.sample_batch(prompts, seeds)
        assert images.dtype == np.float64
        replay = float64_replay(trained_base, content, style, prompts, seeds, schedule)
        # float32 steps against float64 steps: 1.3e-6 measured; the 16-bit
        # PGM step is 1.5e-5
        assert np.abs(images - replay).max() <= 1e-5

    def test_one_seed_per_prompt_required(self, trained_base, schedule):
        sampler = GuidedSampler(trained_base, schedule=schedule)
        with pytest.raises(ConfigInvalid):
            sampler.sample_batch([BOTH_MARKERS, BOTH_MARKERS], [1])
        with pytest.raises(ConfigInvalid):
            sampler.sample_batch([], [])


class TestRespacedSampling:
    def test_every_step_kept_samples_as_the_plain_schedule(self, trained_base, adapters, schedule):
        content, style = adapters
        patterns = ("both", "content", "style", "none")
        prompts = [marked_prompt(pattern, k, 2 * k) for k, pattern in enumerate(patterns)]
        seeds = [3, 4, 3, 5]
        runs = []
        for plan in (schedule, schedule.respaced(schedule.total_steps)):
            sampler = GuidedSampler(
                trained_base, content_adapter=content, style_adapter=style, schedule=plan,
                record_trace=True,
            )
            images = sampler.sample_batch(prompts, seeds)
            runs.append((images.tobytes(), sampler.trace_, sampler.n_network_evals_))
        assert runs[0] == runs[1]

    def test_runs_only_the_kept_steps(self, trained_base, adapters, schedule, monkeypatch):
        from craftlora import denoiser, guidance

        content, style = adapters
        respaced = schedule.respaced(25)
        kept = list(reversed(respaced.timesteps))
        sampler = GuidedSampler(
            trained_base, content_adapter=content, style_adapter=style, schedule=respaced,
            record_trace=True,
        )
        forward_ts, steps, draws = [], [], []
        real_forward = guidance.forward_pass
        real_step = denoiser.ddpm_step
        real_draw = guidance.standard_normal_rows

        def forward(x, t, *args, **kwargs):
            forward_ts.append(t)
            return real_forward(x, t, *args, **kwargs)

        def step(x_t, t, eps_hat, spaced, noise, **kwargs):
            steps.append((t, noise is None))
            return real_step(x_t, t, eps_hat, spaced, noise, **kwargs)

        def draw(rngs, width):
            draws.append(len(rngs))
            return real_draw(rngs, width)

        monkeypatch.setattr(guidance, "forward_pass", forward)
        monkeypatch.setattr(denoiser, "ddpm_step", step)
        monkeypatch.setattr(guidance, "standard_normal_rows", draw)
        images = sampler.sample_batch([BOTH_MARKERS] * 3, [0, 1, 0])
        assert forward_ts == kept
        assert steps == [(t, t == 1) for t in kept]
        # the start state and one draw per kept step t > 1, none at t = 1,
        # each over the two distinct seeds
        assert draws == [2] * 25
        assert sampler.n_network_evals_ == 2 * 25
        assert [len(rows) for rows in sampler.trace_] == [25] * 3
        # the windows and the alpha ramp read the original t of a 50-step schedule
        for line, t in zip(sampler.trace_[0], kept):
            alpha = temporal_alpha(t, sampler.settings, 50)
            assert line.startswith(f"t={t} ") and f" alpha={alpha:.9g} " in line
        assert np.isfinite(images).all() and images.min() >= 0.0 and images.max() <= 1.0

    def test_window_must_hold_a_kept_step(self, trained_base, schedule):
        GuidedSampler(trained_base, schedule=schedule, style_window=(24, 25))
        with pytest.raises(ConfigInvalid, match=r"^guidance.style_window \[24, 25\] holds none"):
            GuidedSampler(trained_base, schedule=schedule.respaced(25), style_window=(24, 25))
        with pytest.raises(ConfigInvalid, match=r"^guidance.content_window \[2, 49\] holds none"):
            GuidedSampler(trained_base, schedule=schedule.respaced(2), content_window=(2, 49))
