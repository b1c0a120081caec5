import numpy as np
import pytest

from craftlora.denoiser import ddpm_step
from craftlora.exceptions import ConfigInvalid, CorruptCheckpoint, ModelUntrained, NumericalError
from craftlora.frequency import FrequencyMask, freq_mask_filter, style_residual
from craftlora.pairs import (
    CONTENT_MODIFIERS,
    CONTENT_PROMPTS,
    DIFFUSION_X0_RANGE,
    STYLE_MODIFIERS,
    ContrastPair,
    STYLE_PROMPTS,
    content_render,
    generate_pair_dataset,
    load_dataset,
    save_dataset,
    style_render,
)
from craftlora.prompts import encode_semantic
from craftlora.utils import make_rng


class TestRenders:
    def test_banks_have_ten_entries(self):
        assert len(CONTENT_PROMPTS) == 10 and len(STYLE_PROMPTS) == 10

    def test_renders_in_unit_range(self):
        for i in range(10):
            c = content_render(i)
            s = style_render(i)
            assert c.min() >= 0.0 and c.max() <= 1.0
            assert s.min() >= 0.0 and s.max() <= 1.0

    def test_content_is_low_frequency_style_is_high(self):
        # shapes keep most energy under the low-pass cut, textures lose most
        for i in range(10):
            c = content_render(i)
            res = style_residual(c, 0.35)
            centered = c - c.mean()
            assert np.sum(res**2) < 0.35 * np.sum(centered**2)
        high_fraction = []
        for j in range(10):
            s = style_render(j)
            res = style_residual(s, 0.35)
            centered = s - s.mean()
            high_fraction.append(np.sum(res**2) / np.sum(centered**2))
        assert np.mean(high_fraction) > 0.6


class TestGeneratePairDataset:
    def test_full_cartesian_product(self):
        dataset = generate_pair_dataset(10, 10, seed=0)
        assert len(dataset) == 100
        assert sorted(p.pair_id for p in dataset) == list(range(100))

    def test_fixed_content_varies_only_style(self):
        dataset = generate_pair_dataset(10, 10, seed=0)
        row = [p for p in dataset if p.content_prompt == CONTENT_PROMPTS[1]]
        assert len(row) == 10
        assert len({p.style_prompt for p in row}) == 10
        assert len({p.content_modifier for p in row}) == 1

    def test_deterministic(self):
        a = generate_pair_dataset(3, 3, seed=5)
        b = generate_pair_dataset(3, 3, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.content_image, pb.content_image)
            assert np.array_equal(pa.style_image, pb.style_image)

    def test_thread_count_does_not_change_results(self):
        a = generate_pair_dataset(4, 4, seed=3, threads=1)
        b = generate_pair_dataset(4, 4, seed=3, threads=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.content_image, pb.content_image)
            assert np.array_equal(pa.style_image, pb.style_image)
            assert pa.content_prompt == pb.content_prompt

    def test_images_stored_in_unit_range(self):
        for pair in generate_pair_dataset(2, 2, seed=1):
            for img in (pair.content_image, pair.style_image):
                assert img.min() >= 0.0 and img.max() <= 1.0

    def test_members_split_frequency_content(self):
        # the content member concentrates below the cut, the style member
        # carries more high-band energy than its counterpart
        for pair in generate_pair_dataset(3, 3, seed=2):
            c_high = float(np.sum(style_residual(pair.content_image, 0.35) ** 2))
            s_high = float(np.sum(style_residual(pair.style_image, 0.35) ** 2))
            assert s_high > c_high

    def test_diffusion_mode_requires_model(self):
        with pytest.raises(ModelUntrained):
            generate_pair_dataset(1, 1, mode="diffusion", seed=0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigInvalid):
            generate_pair_dataset(0, 5)
        with pytest.raises(ConfigInvalid):
            generate_pair_dataset(5, 11)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ConfigInvalid):
            ContrastPair(
                pair_id=0,
                content_image=np.zeros((4, 4)),
                style_image=np.zeros((4, 4)),
                content_prompt="",
                style_prompt="s",
                content_modifier="cm",
                style_modifier="sm",
            )


def filtered(mask):
    """The mask's filter on a one-row state of a 16x16 image."""
    return lambda x0: freq_mask_filter(x0.reshape(16, 16), mask).reshape(x0.shape)


def filter_and_clip(mask):
    """The x0 map of a one-row diffusion-mode trajectory."""
    return lambda x0: np.clip(filtered(mask)(x0), *DIFFUSION_X0_RANGE)


def per_member_dataset(n_content, n_style, seed, sigma, backbone, schedule, eps_of_image):
    """Diffusion-mode members sampled one image at a time.

    Each member runs its own trajectory of one-row forward passes and
    one-row reverse steps, from its own ``pairgen`` stream.
    """
    members = []
    for i in range(n_content):
        for j in range(n_style):
            pair_id = i * n_style + j
            images = []
            for member, prompt, kind in (
                ("content", f"{CONTENT_PROMPTS[i]} {STYLE_MODIFIERS[j]}", "low"),
                ("style", f"{CONTENT_MODIFIERS[i]} {STYLE_PROMPTS[j]}", "high"),
            ):
                rng = make_rng(seed, "pairgen", pair_id, member)
                emb = encode_semantic(prompt)
                x0_map = filter_and_clip(FrequencyMask(kind, sigma))
                x = rng.standard_normal((1, 256))
                for t in range(schedule.total_steps, 0, -1):
                    eps = eps_of_image(x, t, emb, backbone)
                    x = ddpm_step(x, t, eps, schedule, [rng], x0_map=x0_map)
                images.append(np.clip(x.reshape(16, 16), 0.0, 1.0))
            members.append(images)
    return members


class TestDiffusionMode:
    def test_filtered_step_all_ones_equivalent_mask(self, trained_base, schedule, one_row_eps):
        # a low mask that keeps the whole spectrum matches an unfiltered step
        x = make_rng(1).standard_normal((1, 256))
        emb = encode_semantic("a filled disc")
        mask = FrequencyMask("low", 0.99)
        eps = one_row_eps(x, 9, emb, trained_base)
        out_filtered = ddpm_step(x, 9, eps, schedule, [make_rng(2, "step")], x0_map=filtered(mask))
        out_plain = ddpm_step(x, 9, eps, schedule, [make_rng(2, "step")])
        assert np.abs(out_filtered - out_plain).max() < 1e-9

    def test_final_step_returns_filtered_estimate(self, trained_base, schedule, one_row_eps):
        x = make_rng(3).standard_normal((1, 256))
        emb = encode_semantic("a filled disc")
        mask = FrequencyMask("low", 0.3)
        eps = one_row_eps(x, 1, emb, trained_base)
        out = ddpm_step(x, 1, eps, schedule, x0_map=filtered(mask))
        ab = schedule.alpha_bar(1)
        expected = filtered(mask)((x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab))
        assert np.array_equal(out, expected)

    def test_low_mask_trajectory_sheds_high_band_vs_unfiltered(
        self, trained_base, schedule, one_row_eps
    ):
        # paired runs from one seed: the unfiltered trajectory retains at
        # least twice the high-band energy of the low-mask trajectory
        emb = encode_semantic("a filled disc with fine stripe texture")
        low_band = filter_and_clip(FrequencyMask("low", 0.35))

        def clipped(x0):
            return np.clip(x0, *DIFFUSION_X0_RANGE)

        ratios = []
        for seed in (0, 1, 2):
            ends = []
            for x0_map in (low_band, clipped):
                rng = make_rng(seed, "paired")
                x = rng.standard_normal((1, 256))
                for t in range(schedule.total_steps, 0, -1):
                    eps = one_row_eps(x, t, emb, trained_base)
                    x = ddpm_step(x, t, eps, schedule, [rng], x0_map=x0_map)
                ends.append(float(np.sum(style_residual(x.reshape(16, 16), 0.35) ** 2)))
            e_filtered, e_plain = ends
            ratios.append(e_plain / max(e_filtered, 1e-12))
        assert min(ratios) >= 2.0

    def test_batched_rows_match_per_member_reference(self, trained_base, schedule, one_row_eps):
        # the batch rounds differently from one-row passes; the bound is
        # relative to the largest pixel
        dataset = generate_pair_dataset(
            3, 3, mode="diffusion", seed=8, backbone=trained_base, schedule=schedule
        )
        reference = per_member_dataset(3, 3, 8, 0.35, trained_base, schedule, one_row_eps)
        for pair, (content_ref, style_ref) in zip(dataset, reference):
            for got, ref in ((pair.content_image, content_ref), (pair.style_image, style_ref)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_thread_count_never_changes_bytes(self, trained_base, schedule):
        # nine rows per member: one block at one thread, three at three
        runs = [
            generate_pair_dataset(
                3, 3, mode="diffusion", seed=9, backbone=trained_base, schedule=schedule,
                threads=threads,
            )
            for threads in (1, 3)
        ]
        for pa, pb in zip(*runs):
            assert pa.content_image.tobytes() == pb.content_image.tobytes()
            assert pa.style_image.tobytes() == pb.style_image.tobytes()

    def test_low_vs_high_band_split_between_members(self, trained_base, schedule):
        # low-mask trajectories end with less high-band energy than
        # high-mask trajectories started from the same seed
        dataset = generate_pair_dataset(
            2, 2, mode="diffusion", seed=4, backbone=trained_base, schedule=schedule
        )
        ratios = []
        for pair in dataset:
            c_high = float(np.sum(style_residual(pair.content_image, 0.35) ** 2))
            s_high = float(np.sum(style_residual(pair.style_image, 0.35) ** 2))
            ratios.append(s_high / max(c_high, 1e-12))
        assert np.median(ratios) >= 2.0

    def test_overflowing_estimate_is_a_numerical_error(self, trained_base, schedule):
        # a finite host whose noise predictions are near the float64 limit:
        # the first step's clean estimate cannot be represented
        host = trained_base.replace({n: trained_base.weight(n) * 1e39 for n in trained_base.names})
        t = schedule.total_steps
        with pytest.raises(NumericalError, match=rf"^the clean estimate at t={t} "):
            generate_pair_dataset(2, 2, mode="diffusion", backbone=host, schedule=schedule)

    def test_diffusion_mode_deterministic(self, trained_base, schedule):
        a = generate_pair_dataset(1, 2, mode="diffusion", seed=6, backbone=trained_base, schedule=schedule)
        b = generate_pair_dataset(1, 2, mode="diffusion", seed=6, backbone=trained_base, schedule=schedule)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.content_image, pb.content_image)
            assert np.array_equal(pa.style_image, pb.style_image)


class TestDatasetIo:
    def test_roundtrip_and_layout(self, tmp_path):
        dataset = generate_pair_dataset(2, 3, seed=7)
        out = tmp_path / "pairs"
        save_dataset(out, dataset)
        files = sorted(p.name for p in (out / "images").iterdir())
        assert len(files) == 12  # two PGM files per pair
        manifest = (out / "manifest.tsv").read_text(encoding="utf-8")
        assert len(manifest.splitlines()) == 6
        assert "\t" in manifest
        loaded = load_dataset(out)
        assert len(loaded) == 6
        for orig, back in zip(dataset, loaded):
            assert back.pair_id == orig.pair_id
            assert back.content_prompt == orig.content_prompt
            assert back.style_modifier == orig.style_modifier
            # 16-bit quantization bound
            assert np.abs(back.content_image - orig.content_image).max() <= 0.5 / 65535 + 1e-12

    def test_save_is_byte_deterministic(self, tmp_path):
        dataset = generate_pair_dataset(2, 2, seed=8)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        save_dataset(out_a, dataset)
        save_dataset(out_b, dataset)
        for rel in ["manifest.tsv"] + [
            f"images/pair_{i:03d}_{kind}.pgm" for i in range(4) for kind in ("content", "style")
        ]:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_image_not_matching_its_checksum_is_corrupt(self, tmp_path):
        save_dataset(tmp_path, generate_pair_dataset(1, 2, seed=8))
        image = tmp_path / "images" / "pair_001_style.pgm"
        blob = bytearray(image.read_bytes())
        blob[-1] ^= 1
        image.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint, match="pair_001_style.pgm does not match"):
            load_dataset(tmp_path)
