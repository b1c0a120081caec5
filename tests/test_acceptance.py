"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line and enforces its runtime budget. Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion report.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from craftlora import adapters
from craftlora.adapters import KINDS, LoraTrainer, adapter_loss, default_routing, make_adapter
from craftlora.cli import SAMPLING_STEPS, main as cli_main
from craftlora.config import GuidanceSettings
from craftlora.denoiser import DenoiserTrainer, NoiseSchedule, init_backbone
from craftlora.frequency import gaussian_lowpass, style_residual
from craftlora.guidance import GuidedSampler
from craftlora.linalg import householder_qr, project_out
from craftlora.metrics import ImageFeatureExtractor, cross_influence
from craftlora.pairs import (
    CONTENT_PROMPTS,
    STYLE_PROMPTS,
    content_render,
    generate_pair_dataset,
    style_render,
)
from craftlora.prompts import encode_semantic
from craftlora.subspace import (
    PerceptualProxy,
    RankSchedule,
    TrunkFinetuner,
    init_bases,
    make_trunk_draws,
    merge_subspaces,
    trunk_loss,
)
from craftlora.utils import derive_seed, make_rng

PAPER_SIGMAS = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


@contextlib.contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its runtime budget"


def svd_rank(mat, threshold=1e-8):
    if mat.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > threshold))


def random_orthonormal(m, r, rng):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q[:, :r]


def test_linear_algebra_suite():
    with criterion("linear-algebra-suite", 10):
        rng = make_rng(1000, "linalg")
        for _ in range(1000):
            m = int(rng.integers(1, 65))
            r = int(rng.integers(1, min(m, 16) + 1))
            b = rng.standard_normal((m, r))
            q, rr = householder_qr(b)
            assert np.abs(q.T @ q - np.eye(q.shape[1])).max() < 1e-10
            assert np.abs(q @ rr - b).max() < 1e-9
            n = int(rng.integers(1, 33))
            w = rng.standard_normal((m, n))
            projected, _ = project_out(w, q)
            assert np.abs(q.T @ projected).max() < 1e-8
            assert np.abs(project_out(projected, q)[0] - projected).max() < 1e-12


def test_rank_schedule_exactness():
    with criterion("rank-schedule-exactness", 1):
        for n_layers in (2, 3, 8, 12, 40):
            plan = RankSchedule(128, 4, n_layers)
            assert plan.rank_at(1) == 128
            assert plan.rank_at(n_layers) == 4
        rng = make_rng(1001, "ranks")
        for _ in range(100):
            r_min = int(rng.integers(1, 64))
            r_max = int(rng.integers(r_min, 256))
            n_layers = int(rng.integers(2, 48))
            plan = RankSchedule(r_max, r_min, n_layers)
            ranks = [plan.rank_at(layer) for layer in range(1, n_layers + 1)]
            assert ranks[0] == r_max and ranks[-1] == r_min
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_subspace_merge_oracle():
    with criterion("subspace-merge-oracle", 10):
        rng = make_rng(1002, "merge")
        for case in range(200):
            m = int(rng.integers(4, 40))
            mode = case % 4
            if mode == 0:  # identical spans
                q_c = random_orthonormal(m, int(rng.integers(1, m // 2 + 1)), rng)
                q_s = q_c.copy()
            elif mode == 1:  # orthogonal coordinate spans
                width = max(m // 4, 1)
                q_c = np.eye(m)[:, :width]
                q_s = np.eye(m)[:, width: min(2 * width, m)]
            elif mode == 2:  # partial overlap
                shared = random_orthonormal(m, max(m // 8, 1), rng)
                q_c = merge_subspaces(shared, random_orthonormal(m, max(m // 8, 1), rng))
                q_s = merge_subspaces(shared, random_orthonormal(m, max(m // 8, 1), rng))
            else:  # generic random
                q_c = random_orthonormal(m, int(rng.integers(1, m // 2 + 1)), rng)
                q_s = random_orthonormal(m, int(rng.integers(1, m // 2 + 1)), rng)
            merged = merge_subspaces(q_c, q_s)
            stacked = np.hstack([q_c, q_s])
            assert merged.shape[1] == svd_rank(stacked, 1e-8)


def test_frequency_partition():
    with criterion("frequency-partition", 5):
        rng = make_rng(1003, "freq")
        for _ in range(100):
            img = rng.random((16, 16))
            for sigma in PAPER_SIGMAS:
                low = gaussian_lowpass(img, sigma)
                res = style_residual(img, sigma)
                assert np.abs(low + res - img).max() < 1e-9
        constant = np.full((16, 16), 0.625)
        for sigma in PAPER_SIGMAS:
            res = style_residual(constant, sigma)
            assert float(np.sum(res * res)) == 0.0


def test_acfg_equivalence(
    trained_base, schedule, standard_cfg, one_image_parts, sampler_states
):
    with criterion("acfg-equivalence", 30):
        prompt = "a filled disc <c> in fine stripe style <s>"
        for seed in range(10):
            sampler = GuidedSampler(trained_base, omega=4.0, schedule=schedule)
            image = sampler.sample(prompt, seed=seed)
            reference_path = standard_cfg(prompt, trained_base, 4.0, schedule, seed)
            # the sampler returns its float32 image widened to float64
            assert image.tobytes() == reference_path[-1].astype(np.float64).tobytes()
            assert len(sampler_states) == seed + 1
            states = sampler_states[-1]
            assert len(states) == len(reference_path)
            for a, b in zip(states, reference_path):
                assert a.tobytes() == b.tobytes()
        # omega == 0 collapses the guided estimate onto the conditional pass
        x = make_rng(77, "w0").standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        config = GuidanceSettings(omega=0.0)
        eps_cond, eps_uncond, _ = one_image_parts(
            x, 25, e_sem, trained_base, None, None, 1.0, 1.0, config
        )
        from craftlora.guidance import guided_eps

        assert np.array_equal(guided_eps(eps_cond, eps_uncond, 0.0), eps_cond)


@pytest.fixture(scope="module")
def acceptance_adapters(trained_base):
    routing = default_routing(trained_base.names)
    content = (
        LoraTrainer("content", rank=4, steps=150, routing=routing, seed=41)
        .fit(trained_base, content_render(0), "a filled disc <c>")
        .adapter_
    )
    style = (
        LoraTrainer("style", rank=4, steps=150, routing=routing, seed=42)
        .fit(trained_base, style_render(0), "in fine stripe style <s>")
        .adapter_
    )
    return content, style


def test_unconditional_path_purity(trained_base, acceptance_adapters, one_image_parts):
    with criterion("unconditional-path-purity", 10):
        content, style = acceptance_adapters
        x = make_rng(78, "purity").standard_normal((16, 16))
        e_sem = encode_semantic("a filled disc in fine stripe style")
        rng = np.random.default_rng(2024)
        baseline = None
        for _ in range(20):
            lo_c, hi_c = sorted(rng.integers(1, 51, 2).tolist())
            lo_s, hi_s = sorted(rng.integers(1, 51, 2).tolist())
            config = GuidanceSettings(
                omega=float(rng.random() * 12.0),
                content_window=(int(lo_c), int(hi_c)),
                style_window=(int(lo_s), int(hi_s)),
                alpha_min=float(rng.random() * 0.5),
                alpha_max=0.5 + float(rng.random() * 0.5),
                ramp="cosine" if rng.random() < 0.5 else "linear",
            )
            _, eps_uncond, _ = one_image_parts(
                x,
                int(rng.integers(1, 51)) if baseline is None else 17,
                e_sem,
                trained_base,
                content if rng.random() < 0.5 else None,
                style if rng.random() < 0.5 else None,
                float(rng.random() * 2.0),
                float(rng.random() * 2.0),
                config,
            )
            if baseline is None:
                # pin t for comparability across configurations
                _, eps_uncond, _ = one_image_parts(
                    x, 17, e_sem, trained_base, content, style, 1.0, 1.0, config
                )
                baseline = eps_uncond.tobytes()
            assert eps_uncond.tobytes() == baseline


def test_two_pass_cost(trained_base, acceptance_adapters, schedule):
    with criterion("two-pass-cost", 10):
        content, style = acceptance_adapters
        assert schedule.total_steps == 50
        sampler = GuidedSampler(
            trained_base,
            content_adapter=content,
            style_adapter=style,
            schedule=schedule,
        )
        sampler.sample("a filled disc <c> in fine stripe style <s>", seed=5)
        assert sampler.n_network_evals_ == 2 * 50


def test_gradient_checks():
    with criterion("gradient-checks", 60):
        step = 1e-5
        rel_tol = 1e-4
        backbone = init_backbone(image_size=16, hidden_width=16, n_layers=3, seed=7)
        schedule = NoiseSchedule.linear()
        pairs = generate_pair_dataset(2, 2, seed=0)[:3]
        plan = RankSchedule(4, 2, 3)
        bases = init_bases(backbone, plan, seed=3)
        draws = make_trunk_draws(pairs, schedule, make_rng(11, "draws"))
        perceptual = PerceptualProxy(image_size=16, seed=5)

        loss0, grads = trunk_loss(
            backbone, bases, pairs, 1e-4, 0.1, schedule, draws, perceptual=perceptual
        )

        def trunk_value(bs):
            value, _ = trunk_loss(
                backbone, bs, pairs, 1e-4, 0.1, schedule, draws, perceptual=perceptual
            )
            return value

        rng = np.random.default_rng(90)
        for _ in range(50):
            kind = "content" if rng.random() < 0.5 else "style"
            name = list(bases.side(kind))[rng.integers(0, 3)]
            mat = bases.side(kind)[name]
            i, j = rng.integers(0, mat.shape[0]), rng.integers(0, mat.shape[1])
            plus = bases.copy()
            plus.side(kind)[name][i, j] += step
            minus = bases.copy()
            minus.side(kind)[name][i, j] -= step
            fd = (trunk_value(plus) - trunk_value(minus)) / (2 * step)
            an = grads[name][KINDS.index(kind), i, j]
            assert abs(fd - an) <= rel_tol * max(abs(fd), abs(an), 1e-8)

        # adapter-training loss at a generic (nonzero) parameter point
        routing = default_routing(backbone.names)
        seeded = make_adapter("style", backbone, routing, rank=3, seed=8)
        gen = np.random.default_rng(17)
        from craftlora.adapters import LoraAdapter

        adapter = LoraAdapter(
            seeded.kind,
            seeded.rank,
            {
                name: (b, 0.05 * gen.standard_normal(a.shape))
                for name, (b, a) in seeded.factors.items()
            },
            0.1 * gen.standard_normal(64),
            0.3,
            seeded.routing,
        )
        reference = pairs[0].style_image
        e_sem = encode_semantic("in fine stripe style")
        draw = ([7], make_rng(6, "noise").standard_normal((1, 16, 16)))
        _, fgrads, (gw, gb) = adapter_loss(
            backbone, adapter, reference, e_sem, schedule, draw
        )

        def adapter_value(adp):
            value, _, _ = adapter_loss(backbone, adp, reference, e_sem, schedule, draw)
            return value

        names = list(adapter.factors)
        for _ in range(50):
            name = names[rng.integers(0, len(names))]
            which = int(rng.integers(0, 2))
            mat = adapter.factors[name][which]
            i, j = rng.integers(0, mat.shape[0]), rng.integers(0, mat.shape[1])
            fp = {k: (b.copy(), a.copy()) for k, (b, a) in adapter.factors.items()}
            fm = {k: (b.copy(), a.copy()) for k, (b, a) in adapter.factors.items()}
            fp[name][which][i, j] += step
            fm[name][which][i, j] -= step
            plus = LoraAdapter(
                adapter.kind, adapter.rank, fp, adapter.gate_w, adapter.gate_b, adapter.routing
            )
            minus = LoraAdapter(
                adapter.kind, adapter.rank, fm, adapter.gate_w, adapter.gate_b, adapter.routing
            )
            fd = (adapter_value(plus) - adapter_value(minus)) / (2 * step)
            an = fgrads[name][which][i, j]
            assert abs(fd - an) <= rel_tol * max(abs(fd), abs(an), 1e-8)


def test_gradient_masking(trained_base, monkeypatch):
    with criterion("gradient-masking", 60):
        routing = default_routing(trained_base.names)
        host_bytes = [w.tobytes() for _, w in trained_base.items()]
        for kind in ("style", "content"):
            seen = []

            def recording_loss(*args, bucket=seen):
                loss, factor_grads, gate_grads = adapter_loss(*args)
                bucket.append(set(factor_grads))
                return loss, factor_grads, gate_grads

            monkeypatch.setattr(adapters, "adapter_loss", recording_loss)
            reference = style_render(0) if kind == "style" else content_render(0)
            prompt = (
                "in fine stripe style <s>" if kind == "style" else "a filled disc <c>"
            )
            trainer = LoraTrainer(kind, rank=4, steps=200, routing=routing, seed=55)
            trainer.fit(trained_base, reference, prompt)
            # every step computes gradients for the routed layers and no others
            assert seen == [set(routing.side(kind))] * 200
            assert set(trainer.adapter_.factors) == set(routing.side(kind))
            assert [w.tobytes() for _, w in trained_base.items()] == host_bytes


def test_directional_disentanglement():
    with criterion("directional-disentanglement", 600):
        results = []
        results_respaced = []
        for seed in (0, 1, 2):
            pairs = generate_pair_dataset(10, 10, seed=seed)
            images, embeddings = [], []
            for pair in pairs:
                images.append(pair.content_image)
                embeddings.append(
                    encode_semantic(f"{pair.content_prompt} {pair.style_modifier}")
                )
                images.append(pair.style_image)
                embeddings.append(
                    encode_semantic(f"{pair.content_modifier} {pair.style_prompt}")
                )
            base_trainer = DenoiserTrainer(steps=1200, seed=derive_seed(seed, "base"))
            base_trainer.fit(np.stack(images), np.stack(embeddings))
            base = base_trainer.backbone_
            schedule = NoiseSchedule.linear()
            # the schedule that `craftlora sample` and `eval` run at the defaults
            respaced = schedule.respaced(SAMPLING_STEPS)

            tuner = TrunkFinetuner(steps=500, seed=derive_seed(seed, "trunk"))
            tuner.fit(base, pairs)

            def measure_sx(host):
                routing = default_routing(host.names)
                content = (
                    LoraTrainer(
                        "content", steps=1000, routing=routing, seed=derive_seed(seed, "lc")
                    )
                    .fit(host, content_render(0), f"{CONTENT_PROMPTS[0]} <c>")
                    .adapter_
                )
                style = (
                    LoraTrainer(
                        "style", steps=1000, routing=routing, seed=derive_seed(seed, "ls")
                    )
                    .fit(host, style_render(0), f"{STYLE_PROMPTS[0]} <s>")
                    .adapter_
                )
                scores = []
                # every step of the schedule, then its respaced steps
                for steps in (schedule, respaced):
                    grid = []
                    for i in range(4):
                        row = []
                        for j in range(4):
                            sampler = GuidedSampler(
                                host,
                                content_adapter=content,
                                style_adapter=style,
                                omega=2.0,
                                schedule=steps,
                            )
                            row.append(
                                sampler.sample(
                                    f"{CONTENT_PROMPTS[i]} <c> {STYLE_PROMPTS[j]} <s>",
                                    seed=derive_seed(seed, "grid", i),
                                )
                            )
                        grid.append(row)
                    scores.append(cross_influence(ImageFeatureExtractor(seed=0), grid, sigma=0.35))
                return scores

            sx_rank, sx_rank_respaced = measure_sx(tuner.backbone_)
            sx_plain, sx_plain_respaced = measure_sx(base)
            # the control projects the untrained initial bases out (reported, not asserted)
            untrained = TrunkFinetuner(steps=0, seed=derive_seed(seed, "trunk")).fit(base, pairs)
            sx_control, _ = measure_sx(untrained.backbone_)
            results.append((seed, sx_rank, sx_plain))
            results_respaced.append((seed, sx_rank_respaced, sx_plain_respaced))
            print(
                f"  seed {seed}: S_x rank-limited {sx_rank:.4f}, plain {sx_plain:.4f}, "
                f"relative reduction {(sx_plain - sx_rank) / sx_plain * 100:+.1f}%; "
                f"untrained bases {sx_control:.4f}, "
                f"relative reduction {(sx_plain - sx_control) / sx_plain * 100:+.1f}%"
            )
            print(
                f"  seed {seed}, {len(respaced.timesteps)} of {schedule.total_steps} steps: "
                f"S_x rank-limited {sx_rank_respaced:.4f}, plain {sx_plain_respaced:.4f}, "
                f"relative reduction "
                f"{(sx_plain_respaced - sx_rank_respaced) / sx_plain_respaced * 100:+.1f}%"
            )
        for seed, sx_rank, sx_plain in results:
            assert sx_rank <= 0.9 * sx_plain, (
                f"seed {seed}: rank-limited S_x {sx_rank:.4f} not 10% below plain {sx_plain:.4f}"
            )
        for seed, sx_rank, sx_plain in results_respaced:
            assert sx_rank <= 0.9 * sx_plain, (
                f"seed {seed}, respaced: rank-limited S_x {sx_rank:.4f} not 10% below "
                f"plain {sx_plain:.4f}"
            )


def run_cli(args):
    try:
        result = cli_main([str(a) for a in args])
    except SystemExit as exc:
        return int(exc.code or 0)
    return result or 0


E2E_CONFIG = {
    "seed": 77,
    "denoiser": {"train_steps": 200, "batch_size": 4},
    "trunk": {"steps": 30, "r_max": 8, "r_min": 2, "batch_size": 2},
    "adapter": {"rank": 4, "steps": 80},
    "dataset": {"n_content": 3, "n_style": 3},
    "guidance": {"omega": 2.0},
}


def _run_pipeline(root, config_path):
    root.mkdir(parents=True, exist_ok=True)
    assert run_cli(["gen-pairs", "--config", config_path, "--out", root / "pairs"]) == 0
    assert run_cli([
        "train-trunk", "--config", config_path,
        "--dataset", root / "pairs", "--out", root / "trunk.crft",
    ]) == 0
    assert run_cli([
        "train-lora", "--config", config_path, "--kind", "content",
        "--reference", root / "pairs" / "images" / "pair_000_content.pgm",
        "--prompt", f"{CONTENT_PROMPTS[0]} <c>",
        "--backbone", root / "trunk.crft", "--out", root / "content.crft",
    ]) == 0
    assert run_cli([
        "train-lora", "--config", config_path, "--kind", "style",
        "--reference", root / "pairs" / "images" / "pair_000_style.pgm",
        "--prompt", f"{STYLE_PROMPTS[0]} <s>",
        "--backbone", root / "trunk.crft", "--out", root / "style.crft",
    ]) == 0
    assert run_cli([
        "sample", "--config", config_path,
        "--prompt", f"{CONTENT_PROMPTS[1]} <c> {STYLE_PROMPTS[1]} <s>",
        "--backbone", root / "trunk.crft",
        "--content-adapter", root / "content.crft",
        "--style-adapter", root / "style.crft",
        "--out", root / "sample.pgm", "--trace", root / "trace.txt",
    ]) == 0
    assert run_cli([
        "eval", "--config", config_path,
        "--backbone", root / "trunk.crft",
        "--content-adapter", root / "content.crft",
        "--style-adapter", root / "style.crft",
        "--out", root / "report.json", "--n-content", 2, "--n-style", 2,
    ]) == 0


def test_end_to_end_determinism(tmp_path):
    with criterion("end-to-end-determinism", 600):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(E2E_CONFIG))
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        _run_pipeline(first, config_path)
        _run_pipeline(second, config_path)
        artifacts = sorted(
            str(p.relative_to(first)) for p in first.rglob("*") if p.is_file()
        )
        assert artifacts, "the pipeline produced no artifacts"
        assert artifacts == sorted(
            str(p.relative_to(second)) for p in second.rglob("*") if p.is_file()
        )
        for rel in artifacts:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), (
                f"artifact {rel} differs between identical runs"
            )


def test_checkpoint_roundtrip(tmp_path, trained_base, acceptance_adapters):
    with criterion("checkpoint-roundtrip", 60):
        from craftlora.checkpoint import load_adapter, load_backbone, save_adapter, save_backbone

        def f32(arr):
            return arr.astype(np.float32).astype(np.float64)

        backbone_path = tmp_path / "bb.crft"
        save_backbone(backbone_path, trained_base)
        loaded = load_backbone(backbone_path)
        for name in trained_base.names:
            assert np.array_equal(loaded.weight(name), f32(trained_base.weight(name)))

        adapter_path = tmp_path / "ad.crft"
        content, _ = acceptance_adapters
        save_adapter(adapter_path, content)
        loaded_adapter = load_adapter(adapter_path)
        for name in content.factors:
            assert np.array_equal(loaded_adapter.factors[name][0], f32(content.factors[name][0]))
            assert np.array_equal(loaded_adapter.factors[name][1], f32(content.factors[name][1]))
        assert np.array_equal(loaded_adapter.gate_w, f32(content.gate_w))

        # corrupted CRC must exit with the data-error code through the CLI
        corrupt = tmp_path / "corrupt.crft"
        blob = bytearray(backbone_path.read_bytes())
        blob[30] ^= 0xA5
        corrupt.write_bytes(bytes(blob))
        assert run_cli(["inspect", corrupt]) == 2
