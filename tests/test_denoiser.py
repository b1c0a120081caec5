import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craftlora.adapters import aggregate_weights, make_adapter
from craftlora.adapters import default_routing
from craftlora.denoiser import (
    Backbone,
    DenoiserTrainer,
    NoiseSchedule,
    ProjectedConditioning,
    activation,
    backward_pass,
    ddpm_step,
    forward_pass,
    init_backbone,
    project_conditioning,
)
from craftlora.exceptions import ConfigInvalid, NumericalError, OutOfRange, ShapeMismatch
from craftlora.prompts import EMB_DIM
from craftlora.utils import make_rng


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
            schedule.alpha_bar(51)

    def test_step_coefficients_are_the_scalar_formulas(self, schedule):
        # the reverse step's formulas, one timestep at a time, as scalars
        for t in range(1, schedule.total_steps + 1):
            ab = schedule.alpha_bars[t - 1]
            bt = schedule.betas[t - 1]
            at = schedule.alphas[t - 1]
            abp = schedule.alpha_bars[t - 2] if t > 1 else 1.0
            assert tuple(schedule.coefficients(t)) == (
                math.sqrt(ab),
                math.sqrt(1.0 - ab),
                math.sqrt(abp) * bt,
                math.sqrt(at) * (1.0 - abp),
                1.0 - ab,
                math.sqrt((1.0 - abp) / (1.0 - ab) * bt),
            )
        with pytest.raises(OutOfRange):
            schedule.coefficients(schedule.total_steps + 1)


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


def noised(x0, t, noise, schedule):
    """The forward process: sqrt(abar_t) x0 + sqrt(1 - abar_t) noise."""
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


class TestForwardNoise:
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
            x_t = noised(x0, schedule.total_steps, noise, schedule)
            corrs.append(np.corrcoef(x_t.ravel(), x0.ravel())[0, 1])
        mc = float(np.mean(corrs))
        assert abs(mc - expected) < 0.05
        assert mc < 0.2


def clean_estimate(x_t, t, eps, schedule):
    """The clean estimate that ``ddpm_step`` hands its ``x0_map``."""
    seen = []

    def record(x0):
        seen.append(x0)
        return x0

    ddpm_step(x_t.reshape(1, -1), t, eps.reshape(1, -1), schedule, [make_rng(0, "unused")],
              x0_map=record)
    return seen[0].reshape(x_t.shape)


class TestPredictX0:
    def test_inverts_forward_noise(self, schedule):
        rng = make_rng(1, "roundtrip")
        worst = 0.0
        for _ in range(100):
            x0 = rng.random((8, 8))
            t = int(rng.integers(1, schedule.total_steps + 1))
            noise = rng.standard_normal((8, 8))
            back = clean_estimate(noised(x0, t, noise, schedule), t, noise, schedule)
            worst = max(worst, float(np.abs(back - x0).max()))
        # at t == 1 an identity map makes the step return the estimate
        back = ddpm_step(
            noised(x0, 1, noise, schedule).reshape(1, -1), 1, noise.reshape(1, -1), schedule,
            x0_map=lambda e: e,
        ).reshape(x0.shape)
        worst = max(worst, float(np.abs(back - x0).max()))
        assert worst < 1e-9

    def test_zero_eps(self, schedule):
        x_t = np.linspace(0, 1, 16).reshape(4, 4)
        out = clean_estimate(x_t, 5, np.zeros((4, 4)), schedule)
        assert np.allclose(out, x_t / np.sqrt(schedule.alpha_bar(5)))


class TestPredictEps:
    def test_pure_and_deterministic(self, small_backbone, one_row_eps, null64):
        x = make_rng(2).standard_normal((8, 8))
        a = one_row_eps(x, 3, null64, small_backbone)
        b = one_row_eps(x, 3, null64, small_backbone)
        assert np.array_equal(a, b)

    def test_zero_adapters_do_not_change_output(self, small_backbone, one_row_eps):
        routing = default_routing(small_backbone.names)
        adapter = make_adapter("content", small_backbone, routing, rank=2, seed=0)
        x = make_rng(3).standard_normal((8, 8))
        emb = make_rng(4).standard_normal(64)
        merged = aggregate_weights(small_backbone, adapter, None, 1.0, 0.0, emb[None, :])
        assert (
            np.abs(
                one_row_eps(x, 2, emb, merged) - one_row_eps(x, 2, emb, small_backbone)
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


class TestActivation:
    def test_in_place_form_is_bit_identical(self):
        a = make_rng(31).standard_normal((5, 7)) * 3.0
        assert activation(a).tobytes() == (np.tanh(a) + 0.2 * a).tobytes()


class TestProjectedConditioning:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_projected_rows_give_the_same_pass(self, small_backbone, stacked):
        rng = make_rng(32)
        x = rng.standard_normal((3, 64))
        cond = rng.standard_normal((3, 16))
        backbone = small_backbone
        t = 7
        if stacked:
            x, cond, t = np.stack([x, x[::-1]]), np.stack([cond, -cond]), np.full((2, 3), 7)
            backbone = {name: np.stack([w, 2.0 * w]) for name, w in small_backbone.items()}
        projected = project_conditioning(cond, 16)
        assert isinstance(projected, ProjectedConditioning)
        plain, _ = forward_pass(x, t, cond, backbone)
        again, _ = forward_pass(x, t, projected, backbone)
        assert again.tobytes() == plain.tobytes()


class TestBackwardTerms:
    def test_term_gradients_match_finite_differences(self):
        # terms on the first, a middle and the last layer, with a bare layer
        # between them, so the input gradient chains through both kinds
        backbone = init_backbone(image_size=4, hidden_width=6, n_layers=4, seed=5)
        rng = make_rng(30, "terms")
        rows = 3
        x = rng.standard_normal((rows, 16))
        ts = np.array([2, 9, 31])
        cond = rng.standard_normal((rows, 64))
        probe = rng.standard_normal((rows, 16))
        terms = {}
        for name in ("layer1", "layer2", "layer4"):
            m, n = backbone.shape(name)
            scale = rng.uniform(0.5, 1.5, size=(rows, 1))
            terms[name] = (
                scale,
                0.5 * rng.standard_normal((m, 2)),
                0.5 * rng.standard_normal((2, n)),
            )

        def value(perturbed):
            out, _ = forward_pass(x, ts, cond, backbone, perturbed)
            return float(np.sum(probe * out))

        _, cache = forward_pass(x, ts, cond, backbone, terms)
        grads = backward_pass(cache, backbone, probe, terms)
        assert set(grads) == set(terms)
        h = 1e-6
        for name, term in terms.items():
            d_down, d_up, d_scale = grads[name]
            assert d_scale.shape == term[0].shape
            for which, grad in enumerate((d_scale, d_down, d_up)):
                base = term[which]
                for idx in np.ndindex(base.shape):
                    shifted = []
                    for step in (h, -h):
                        arr = base.copy()
                        arr[idx] += step
                        part = list(term)
                        part[which] = arr
                        shifted.append(value({**terms, name: tuple(part)}))
                    fd = (shifted[0] - shifted[1]) / (2 * h)
                    an = grad[idx]
                    assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-3)


class TestPartialRowTerms:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_short_scale_column_acts_on_the_first_rows(self, k):
        # terms on the first, a middle and the last layer; rows past k see
        # the bare host, rows up to k the same terms as a full-batch column
        backbone = init_backbone(image_size=4, hidden_width=6, n_layers=4, seed=6)
        rng = make_rng(31, "partial-terms")
        rows = 5
        x = rng.standard_normal((rows, 16))
        cond = rng.standard_normal((rows, 64))
        short, full = {}, {}
        for name in ("layer1", "layer2", "layer4"):
            m, n = backbone.shape(name)
            scale = rng.uniform(0.5, 1.5, size=(rows, 1))
            down = 0.5 * rng.standard_normal((m, 3))
            up = 0.5 * rng.standard_normal((3, n))
            short[name] = (scale[:k], down, up)
            full[name] = (scale, down, up)
        out, _ = forward_pass(x, 7, cond, backbone, short)
        bare, _ = forward_pass(x, 7, cond, backbone)
        with_terms, _ = forward_pass(x, 7, cond, backbone, full)
        assert out[k:].tobytes() == bare[k:].tobytes()
        assert np.abs(out[:k] - with_terms[:k]).max() <= 1e-12 * np.abs(with_terms[:k]).max()


class TestStackedPasses:
    """A leading stack axis on the input and on every weight runs k
    networks in one pass; each slice must be the 2-D call bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 3),
        rows=st.integers(1, 5),
        width=st.integers(1, 9),
        n_layers=st.integers(2, 4),
        conditioned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_slice_matches_the_2d_call(self, k, rows, width, n_layers, conditioned, seed):
        rng = np.random.default_rng(seed)
        d_in = 2 * width + 1
        dims = [d_in] + [width] * (n_layers - 1) + [d_in]
        names = [f"layer{i}" for i in range(1, n_layers + 1)]
        weights = {
            name: rng.standard_normal((k, a, b)) for name, a, b in zip(names, dims, dims[1:])
        }
        x = rng.standard_normal((k, rows, d_in))
        ts = rng.integers(1, 51, size=(k, rows))
        cond = rng.standard_normal((k, rows, 64)) if conditioned else np.zeros((k, rows, 64))
        d_out = rng.standard_normal((k, rows, d_in))

        out, cache = forward_pass(x, ts, cond, weights)
        grads = backward_pass(cache, weights, d_out)
        assert out.shape == (k, rows, d_in)
        assert set(grads) == set(names)
        for i in range(k):
            sliced = Backbone([(name, w[i]) for name, w in weights.items()])
            ref_out, ref_cache = forward_pass(x[i], ts[i], cond[i], sliced)
            assert np.array_equal(out[i], ref_out)
            assert all(np.array_equal(a[i], b) for a, b in zip(cache, ref_cache))
            ref_grads = backward_pass(ref_cache, sliced, d_out[i])
            for name in names:
                assert grads[name].shape == weights[name].shape
                assert np.array_equal(grads[name][i], ref_grads[name])


class TestDdpmStep:
    def test_final_step_deterministic(self, schedule):
        x = make_rng(9).standard_normal((1, 64))
        eps = make_rng(10).standard_normal((1, 64))
        a = ddpm_step(x, 1, eps, schedule)
        b = ddpm_step(x, 1, eps, schedule)
        assert np.array_equal(a, b)

    def test_needs_rng_above_final_step(self, schedule):
        x = np.zeros((1, 16))
        with pytest.raises(ValueError):
            ddpm_step(x, 2, x, schedule)

    def test_clipped_branch_matches_plain_when_inside_range(self, schedule):
        # oracle: the posterior mean written with the noise estimate,
        # (x_t - beta_t / sqrt(1 - ab_t) * eps) / sqrt(alpha_t), plus sigma_t
        # times the step's noise; the step goes through the clean estimate,
        # unmapped or through a clip whose range it never reaches
        rng = make_rng(11)
        for t in (1, 2, 10, 25, 50):
            x = 0.3 * rng.standard_normal((1, 64))
            eps = 0.1 * rng.standard_normal((1, 64))
            beta = schedule.betas[t - 1]
            ab = schedule.alpha_bar(t)
            plain = (x - beta / np.sqrt(1.0 - ab) * eps) / np.sqrt(1.0 - beta)
            if t > 1:
                ab_prev = schedule.alpha_bar(t - 1)
                sigma = np.sqrt((1.0 - ab_prev) / (1.0 - ab) * beta)
                plain = plain + sigma * make_rng(t, "noise").standard_normal((1, 64))
            for x0_map in (None, lambda x0: np.clip(x0, -100.0, 100.0)):
                out = ddpm_step(x, t, eps, schedule, [make_rng(t, "noise")], x0_map=x0_map)
                assert np.abs(out - plain).max() <= 1e-12 * np.abs(plain).max()

    def test_final_step_returns_mapped_estimate(self, schedule):
        rng = make_rng(15)
        x = rng.standard_normal((1, 64))
        eps = rng.standard_normal((1, 64))
        ab = schedule.alpha_bar(1)
        estimate = (x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)

        def squash(x0):
            return np.tanh(3.0 * x0) - 0.25

        assert np.array_equal(ddpm_step(x, 1, eps, schedule, x0_map=squash), squash(estimate))

    @pytest.mark.parametrize("mapped", [False, True])
    def test_non_finite_inputs_are_numerical_errors_naming_t(self, schedule, mapped):
        x0_map = (lambda x0: np.clip(x0, 0.0, 1.0)) if mapped else None
        x = make_rng(16).standard_normal((1, 16))
        bad = x.copy()
        bad[0, 6] = np.nan
        rng = [make_rng(17)]
        with pytest.raises(NumericalError, match=r"^x_t at t=9 "):
            ddpm_step(bad, 9, x, schedule, rng, x0_map=x0_map)
        with pytest.raises(NumericalError, match=r"^eps_hat at t=9 "):
            ddpm_step(x, 9, bad, schedule, rng, x0_map=x0_map)

    def test_overflowing_estimate_is_a_numerical_error_before_the_clip(self, schedule):
        # x_t and the noise estimate are finite, but the clean estimate
        # divides by sqrt(alpha_bar) < 1 and overflows; a clip would map the
        # infinities into range, so the step must refuse them first
        t = schedule.total_steps
        x = np.zeros((1, 16))
        eps = np.full((1, 16), -1e308)
        with np.errstate(all="raise"), pytest.raises(
            NumericalError, match=rf"^the clean estimate at t={t} "
        ):
            ddpm_step(x, t, eps, schedule, [make_rng(18)], x0_map=lambda x0: np.clip(x0, 0.0, 1.0))

    def test_non_finite_mapped_estimate_is_a_numerical_error(self, schedule):
        x = make_rng(19).standard_normal((1, 16))
        with pytest.raises(NumericalError, match=r"^the mapped clean estimate at t=3 "):
            ddpm_step(x, 3, x, schedule, [make_rng(20)], x0_map=lambda x0: x0 * np.nan)

    def test_golden_trajectory_replays(self, schedule):
        # archived digest of a network-free trajectory (elementwise ops and
        # Philox only, so it is stable across platforms)
        rng = make_rng(123, "golden")
        x = rng.standard_normal((1, 64))
        for t in range(schedule.total_steps, 0, -1):
            eps = np.tanh(x) * 0.5
            x = ddpm_step(x, t, eps, schedule, [rng] if t > 1 else None)
        digest = float(np.sum(x * np.arange(64)))
        rng = make_rng(123, "golden")
        y = rng.standard_normal((1, 64))
        for t in range(schedule.total_steps, 0, -1):
            eps = np.tanh(y) * 0.5
            y = ddpm_step(y, t, eps, schedule, [rng] if t > 1 else None)
        assert np.array_equal(x, y)
        assert digest == float(np.sum(y * np.arange(64)))


def unconditioned(images):
    """Each image with the null embedding."""
    return np.zeros((len(images), EMB_DIM))


class TestDenoiserTrainer:
    def test_zero_steps_returns_initialization(self):
        images = make_rng(12).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=0, seed=3)
        tr.fit(images, unconditioned(images))
        ref = init_backbone(8, 64, 8, seed=3)
        for name in ref.names:
            assert np.array_equal(tr.backbone_.weight(name), ref.weight(name))

    def test_same_seed_bit_identical(self):
        images = make_rng(13).random((6, 8, 8))
        runs = []
        for _ in range(2):
            tr = DenoiserTrainer(image_size=8, steps=40, seed=7)
            tr.fit(images, unconditioned(images))
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
            DenoiserTrainer(steps=1).fit(np.zeros((0, 16, 16)), np.zeros((0, EMB_DIM)))

    def test_finite_runaway_loss_raises(self):
        # at peak_lr 1e4 the loss stays finite but runs far past its first value
        images = make_rng(14).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=5, peak_lr=1e4, seed=2)
        with pytest.raises(NumericalError, match="diverged at step 2"):
            tr.fit(images, unconditioned(images))

    def test_fit_builds_one_backbone(self, monkeypatch):
        built = []
        real_init = Backbone.__init__

        def counting_init(self, layers):
            built.append(1)
            real_init(self, layers)

        monkeypatch.setattr(Backbone, "__init__", counting_init)
        images = make_rng(15).random((4, 8, 8))
        DenoiserTrainer(image_size=8, steps=6, seed=4).fit(images, unconditioned(images))
        # the initialization, which receives the trained weights at the end
        assert len(built) == 1

    def test_non_finite_last_update_is_numerical_error(self, monkeypatch):
        # the last step's loss is finite, so only the check after the loop
        # can see the update it makes; a bare ValueError would exit 1
        import craftlora.denoiser

        calls = []

        def last_gradient_inf(cache, backbone, d_out, terms=None):
            grads = backward_pass(cache, backbone, d_out, terms)
            calls.append(1)
            if len(calls) == 4:
                grads["layer3"][1, 2] = np.inf
            return grads

        monkeypatch.setattr(craftlora.denoiser, "backward_pass", last_gradient_inf)
        tr = DenoiserTrainer(image_size=8, steps=4, seed=2)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="denoiser parameters are non-finite"
        ):
            images = make_rng(14).random((4, 8, 8))
            tr.fit(images, unconditioned(images))
        assert len(calls) == 4

    def test_divergence_raises(self):
        images = make_rng(14).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=20, peak_lr=1e30, warmup=1, seed=2)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="diverged"):
            tr.fit(images, unconditioned(images))
