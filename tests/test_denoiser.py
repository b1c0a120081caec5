import numpy as np
import pytest

from craftlora.adapters import aggregate_weights, make_adapter
from craftlora.adapters import default_routing
from craftlora.denoiser import (
    Backbone,
    DenoiserTrainer,
    NoiseSchedule,
    backward_pass,
    ddpm_step,
    forward_noise,
    forward_pass,
    init_backbone,
    predict_eps,
    predict_x0,
)
from craftlora.exceptions import ConfigInvalid, NumericalError, OutOfRange, ShapeMismatch
from craftlora.utils import EvalCounter, make_rng


@pytest.fixture(scope="module")
def schedule():
    return NoiseSchedule.linear()


@pytest.fixture(scope="module")
def small_backbone():
    return init_backbone(image_size=8, hidden_width=16, n_layers=3, seed=5)


class TestNoiseSchedule:
    def test_invariants(self, schedule):
        assert schedule.betas[0] > 0 and schedule.betas[-1] < 1
        assert np.all(np.diff(schedule.betas) >= 0)
        assert np.all(np.diff(schedule.alpha_bars) < 0)

    def test_bad_schedules_rejected(self):
        with pytest.raises(ConfigInvalid):
            NoiseSchedule([0.2, 0.1])
        with pytest.raises(ConfigInvalid):
            NoiseSchedule([0.0, 0.1])

    def test_t_range(self, schedule):
        with pytest.raises(OutOfRange):
            schedule.alpha_bar(0)
        with pytest.raises(OutOfRange):
            schedule.beta(51)

    def test_posterior_variance_zero_at_first_step(self, schedule):
        assert schedule.posterior_variance(1) == 0.0


class TestBackbone:
    def test_requires_two_layers(self):
        with pytest.raises(ConfigInvalid):
            Backbone([("only", np.eye(4))])

    def test_chain_validation(self):
        with pytest.raises(ShapeMismatch):
            Backbone([("a", np.zeros((4, 8))), ("b", np.zeros((9, 4)))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigInvalid):
            Backbone([("a", np.zeros((4, 4))), ("a", np.zeros((4, 4)))])

    def test_default_architecture_shapes(self):
        bb = init_backbone(16, 64, 8, seed=0)
        assert bb.names == tuple(f"layer{i}" for i in range(1, 9))
        assert bb.shape("layer1") == (256, 64)
        assert bb.shape("layer8") == (64, 256)
        assert all(bb.shape(f"layer{i}") == (64, 64) for i in range(2, 8))


class TestForwardNoise:
    def test_zero_noise_scales_signal(self, schedule):
        x0 = np.full((8, 8), 0.5)
        out = forward_noise(x0, 10, np.zeros((8, 8)), schedule)
        assert np.allclose(out, np.sqrt(schedule.alpha_bar(10)) * x0)

    def test_terminal_step_is_mostly_noise(self, schedule):
        # Monte-Carlo oracle vs the closed-form correlation:
        # rho = sqrt(ab) * s / sqrt(ab s^2 + 1 - ab) for pixel std s.
        rng = make_rng(0, "mc")
        x0 = rng.random((16, 16))
        sig = x0.std()
        ab = schedule.alpha_bar(schedule.total_steps)
        expected = np.sqrt(ab) * sig / np.sqrt(ab * sig**2 + 1.0 - ab)
        corrs = []
        for _ in range(1000):
            noise = rng.standard_normal((16, 16))
            x_t = forward_noise(x0, schedule.total_steps, noise, schedule)
            corrs.append(np.corrcoef(x_t.ravel(), x0.ravel())[0, 1])
        mc = float(np.mean(corrs))
        assert abs(mc - expected) < 0.05
        assert mc < 0.2

    def test_shape_mismatch(self, schedule):
        with pytest.raises(ShapeMismatch):
            forward_noise(np.zeros((4, 4)), 1, np.zeros((5, 5)), schedule)


class TestPredictX0:
    def test_inverts_forward_noise(self, schedule):
        rng = make_rng(1, "roundtrip")
        worst = 0.0
        for _ in range(100):
            x0 = rng.random((8, 8))
            t = int(rng.integers(1, schedule.total_steps + 1))
            noise = rng.standard_normal((8, 8))
            x_t = forward_noise(x0, t, noise, schedule)
            back = predict_x0(x_t, t, noise, schedule)
            worst = max(worst, float(np.abs(back - x0).max()))
        assert worst < 1e-9

    def test_zero_eps(self, schedule):
        x_t = np.linspace(0, 1, 16).reshape(4, 4)
        out = predict_x0(x_t, 5, np.zeros((4, 4)), schedule)
        assert np.allclose(out, x_t / np.sqrt(schedule.alpha_bar(5)))


class TestPredictEps:
    def test_pure_and_deterministic(self, schedule, small_backbone):
        x = make_rng(2).standard_normal((8, 8))
        a = predict_eps(x, 3, None, small_backbone)
        b = predict_eps(x, 3, None, small_backbone)
        assert np.array_equal(a, b)

    def test_zero_adapters_do_not_change_output(self, small_backbone):
        routing = default_routing(small_backbone.names)
        adapter = make_adapter("content", small_backbone, routing, rank=2, seed=0)
        merged = aggregate_weights(
            small_backbone, content_adapter=adapter, gamma_content=1.0
        )
        x = make_rng(3).standard_normal((8, 8))
        emb = make_rng(4).standard_normal(64)
        assert (
            np.abs(
                predict_eps(x, 2, emb, merged) - predict_eps(x, 2, emb, small_backbone)
            ).max()
            < 1e-12
        )

    def test_jacobian_probe_matches_finite_difference(self, small_backbone):
        x = make_rng(5).standard_normal((8, 8))
        emb = make_rng(6).standard_normal(64)
        probe = make_rng(7).standard_normal((1, 64))

        def scalar(bb):
            out, _ = forward_pass(x.reshape(1, -1), 4, emb[None, :], bb)
            return float(np.sum(probe * out))

        _, cache = forward_pass(x.reshape(1, -1), 4, emb[None, :], small_backbone)
        grads = backward_pass(cache, small_backbone, probe)
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            name = small_backbone.names[rng.integers(0, 3)]
            w = small_backbone.weight(name)
            i, j = rng.integers(0, w.shape[0]), rng.integers(0, w.shape[1])
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd = (
                scalar(small_backbone.replace({name: wp}))
                - scalar(small_backbone.replace({name: wm}))
            ) / (2 * h)
            an = grads[name][i, j]
            assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an), 1e-8)

    def test_counter_increments(self, small_backbone):
        counter = EvalCounter()
        x = np.zeros((8, 8))
        predict_eps(x, 1, None, small_backbone, counter)
        predict_eps(x, 1, None, small_backbone, counter)
        assert counter.count == 2


class TestDdpmStep:
    def test_final_step_deterministic(self, schedule):
        x = make_rng(9).standard_normal((8, 8))
        eps = make_rng(10).standard_normal((8, 8))
        a = ddpm_step(x, 1, eps, schedule)
        b = ddpm_step(x, 1, eps, schedule)
        assert np.array_equal(a, b)

    def test_needs_rng_above_final_step(self, schedule):
        x = np.zeros((4, 4))
        with pytest.raises(ValueError):
            ddpm_step(x, 2, x, schedule)

    def test_posterior_variance_vanishes_at_t1(self, schedule):
        # the zero-variance limit: the t == 1 update adds no noise by
        # construction, matching the vanishing posterior variance
        assert schedule.posterior_variance(1) == 0.0

    def test_clipped_branch_matches_plain_when_inside_range(self, schedule):
        rng = make_rng(11)
        x = 0.3 * rng.standard_normal((8, 8))
        eps = 0.1 * rng.standard_normal((8, 8))
        plain = ddpm_step(x, 1, eps, schedule)
        clipped = ddpm_step(x, 1, eps, schedule, clip_x0=(-100.0, 100.0))
        assert np.abs(plain - clipped).max() < 1e-9

    def test_golden_trajectory_replays(self, schedule):
        # archived digest of a network-free trajectory (elementwise ops and
        # Philox only, so it is stable across platforms)
        rng = make_rng(123, "golden")
        x = rng.standard_normal((8, 8))
        for t in range(schedule.total_steps, 0, -1):
            eps = np.tanh(x) * 0.5
            x = ddpm_step(x, t, eps, schedule, rng if t > 1 else None)
        digest = float(np.sum(x * np.arange(64).reshape(8, 8)))
        rng = make_rng(123, "golden")
        y = rng.standard_normal((8, 8))
        for t in range(schedule.total_steps, 0, -1):
            eps = np.tanh(y) * 0.5
            y = ddpm_step(y, t, eps, schedule, rng if t > 1 else None)
        assert np.array_equal(x, y)
        assert digest == float(np.sum(y * np.arange(64).reshape(8, 8)))


class TestDenoiserTrainer:
    def test_zero_steps_returns_initialization(self):
        images = make_rng(12).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=0, seed=3)
        tr.fit(images)
        ref = init_backbone(8, 64, 8, seed=3)
        for name in ref.names:
            assert np.array_equal(tr.backbone_.weight(name), ref.weight(name))

    def test_same_seed_bit_identical(self):
        images = make_rng(13).random((6, 8, 8))
        runs = []
        for _ in range(2):
            tr = DenoiserTrainer(image_size=8, steps=40, seed=7)
            tr.fit(images)
            runs.append(tr.backbone_)
        for name in runs[0].names:
            assert np.array_equal(runs[0].weight(name), runs[1].weight(name))

    def test_settings_checked_at_construction(self):
        assert DenoiserTrainer(steps=7).settings.train_steps == 7
        with pytest.raises(ConfigInvalid):
            DenoiserTrainer(steps=-1)
        with pytest.raises(ConfigInvalid):
            DenoiserTrainer(cond_dropout=1.0)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigInvalid):
            DenoiserTrainer(steps=1).fit(np.zeros((0, 16, 16)))

    def test_finite_runaway_loss_raises(self):
        # at peak_lr 1e4 the loss stays finite but runs far past its first value
        images = make_rng(14).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=5, peak_lr=1e4, seed=2)
        with pytest.raises(NumericalError, match="diverged at step 2"):
            tr.fit(images)

    def test_divergence_raises(self):
        images = make_rng(14).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=20, peak_lr=1e30, warmup=1, seed=2)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="diverged"):
            tr.fit(images)
