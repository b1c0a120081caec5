import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craftlora.adapters import aggregate_weights, make_adapter
from craftlora.adapters import default_routing
from craftlora.denoiser import (
    _TABLE_ROWS,
    Backbone,
    DenoiserTrainer,
    NoiseSchedule,
    ProjectedConditioning,
    _steps_embedding,
    activation,
    backward_pass,
    ddpm_step,
    denoising_loss,
    forward_pass,
    init_backbone,
    project_conditioning,
    sinusoidal_embedding,
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

    @pytest.mark.parametrize(
        "t",
        [2.7, 2.0, True, np.float64(2.0), np.bool_(True)],
        ids=["2.7", "2.0", "True", "float64-2.0", "bool_-True"],
    )
    def test_non_integer_t_refused(self, schedule, t):
        with pytest.raises(OutOfRange, match="integer timestep"):
            schedule.coefficients(t)

    def test_numpy_integer_t_accepted(self, schedule):
        assert schedule.coefficients(np.int64(2)) == schedule.coefficients(2)


class TestRespacedSchedule:
    def test_every_step_kept_is_the_plain_schedule_bit_for_bit(self, schedule):
        full = schedule.respaced(schedule.total_steps)
        assert full.timesteps == schedule.timesteps == tuple(range(1, 51))
        for t in schedule.timesteps:
            assert full.coefficients(t) == schedule.coefficients(t)

    def test_kept_steps_are_evenly_spaced_and_hold_both_ends(self, schedule):
        respaced = schedule.respaced(25)
        assert respaced.timesteps == (
            1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 26,
            28, 30, 32, 34, 36, 38, 40, 42, 44, 46, 48, 50,
        )
        assert schedule.respaced(2).timesteps == (1, 50)
        # everything but the reverse step reads the full schedule
        assert respaced.total_steps == 50
        assert np.array_equal(respaced.alpha_bar(np.arange(1, 51)), schedule.alpha_bars)
        # the last step, from t = 1 to the clean image, is consecutive
        assert respaced.coefficients(1) == schedule.coefficients(1)
        with pytest.raises(OutOfRange, match="one of the 25 kept steps"):
            respaced.coefficients(2)

    def test_non_consecutive_steps_are_the_closed_form(self, schedule):
        # the ancestral posterior of a jump from t to s, written in float64
        # with a = alpha_bar(t) / alpha_bar(s) and beta' = 1 - a
        jumps = schedule.respaced(25)
        for t, s in ((50, 48), (26, 23), (3, 1)):
            ab_t, ab_s = schedule.alpha_bars[t - 1], schedule.alpha_bars[s - 1]
            a = ab_t / ab_s
            beta = 1.0 - a
            expected = (
                np.sqrt(ab_t),
                np.sqrt(1.0 - ab_t),
                np.sqrt(ab_s) * beta,
                np.sqrt(a) * (1.0 - ab_s),
                1.0 - ab_t,
                np.sqrt((1.0 - ab_s) * beta / (1.0 - ab_t)),
            )
            np.testing.assert_allclose(jumps.coefficients(t), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k", [2, 13, 25, 49])
    def test_a_jump_maps_a_clean_state_to_its_clean_state(self, schedule, k):
        # with no noise, x_t = sqrt(ab_t) x0 steps to the posterior mean
        # sqrt(ab_s) x0, whatever the jump
        respaced = schedule.respaced(k)
        x0 = make_rng(3).random((2, 16))
        kept = respaced.timesteps
        for s, t in zip(kept, kept[1:]):
            x_t = np.sqrt(schedule.alpha_bar(t)) * x0
            c = respaced.coefficients(t)
            mean = (c.x0_coef * x0 + c.xt_coef * x_t) / c.one_minus_ab
            np.testing.assert_allclose(mean, np.sqrt(schedule.alpha_bar(s)) * x0, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 51, 2.5, True], ids=["0", "1", "51", "2.5", "True"])
    def test_step_count_outside_two_to_t_refused(self, schedule, k):
        with pytest.raises(ConfigInvalid, match="keeps 2 to 50 steps"):
            schedule.respaced(k)


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


def estimate_given_to_map(x_t, t, eps, schedule):
    """The clean estimate that ``ddpm_step`` hands its ``x0_map``."""
    seen = []

    def record(x0):
        seen.append(x0)
        return x0

    ddpm_step(x_t.reshape(1, -1), t, eps.reshape(1, -1), schedule, np.zeros((1, x_t.size)),
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
            back = estimate_given_to_map(noised(x0, t, noise, schedule), t, noise, schedule)
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
        out = estimate_given_to_map(x_t, 5, np.zeros((4, 4)), schedule)
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
        assert all(g.dtype == np.float64 for g in grads.values())  # float64 in, float64 check
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


class TestFloat32Pass:
    def test_float32_inputs_stay_float32(self, small_backbone):
        # x, the weights and the projected rows all float32: so is every
        # layer, the step embedding following the conditioning
        rng = make_rng(33)
        x = rng.standard_normal((3, 64))
        cond = project_conditioning(rng.standard_normal((3, EMB_DIM)), 16)
        weights32 = {name: w.astype(np.float32) for name, w in small_backbone.items()}
        cond32 = ProjectedConditioning(cond.rows.astype(np.float32))
        out32, cache = forward_pass(x.astype(np.float32), 7, cond32, weights32)
        assert out32.dtype == np.float32
        assert all(a.dtype == np.float32 for a in cache)
        out64, _ = forward_pass(x, 7, cond, small_backbone)
        assert out64.dtype == np.float64
        # float32 rounding of the same pass: 2.1e-7 of max |out| measured
        assert np.abs(out32 - out64).max() <= 1e-6 * np.abs(out64).max()

    def test_float32_rows_and_timestep_arrays_stay_float32(self, small_backbone):
        # what a training step passes: float32 embedding rows, whose
        # projection comes back float32, and an array of timesteps, its
        # embedding cast to match
        rng = make_rng(35)
        x = rng.standard_normal((3, 64)).astype(np.float32)
        rows = rng.standard_normal((3, EMB_DIM)).astype(np.float32)
        projected = project_conditioning(rows, 16).rows
        assert projected.dtype == np.float32
        # the float64 product rounded once, as a guidance plan holds it
        wide = project_conditioning(rows.astype(np.float64), 16).rows
        assert projected.tobytes() == wide.astype(np.float32).tobytes()
        weights32 = {name: w.astype(np.float32) for name, w in small_backbone.items()}
        out, cache = forward_pass(x, np.array([1, 25, 50]), rows, weights32)
        assert out.dtype == np.float32
        assert all(a.dtype == np.float32 for a in cache)
        grads = backward_pass(cache, weights32, np.ones_like(out))
        assert all(g.dtype == np.float32 for g in grads.values())

    def test_any_float64_input_computes_in_float64(self, small_backbone):
        x = make_rng(34).standard_normal((3, 64)).astype(np.float32)
        cond = np.zeros((3, EMB_DIM))
        out, _ = forward_pass(x, 7, cond, small_backbone)
        assert out.dtype == np.float64
        wide, _ = forward_pass(x.astype(np.float64), 7, cond, small_backbone)
        assert out.tobytes() == wide.tobytes()


class TestTimestepEmbedding:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [64, 16, 7])
    def test_array_rows_are_the_scalar_embedding_bit_for_bit(self, schedule, dim, dtype):
        # an array of timesteps gathers rows of a cached table; each row is
        # the scalar embedding of its t, for every t of the schedule
        ts = np.arange(1, schedule.total_steps + 1)
        rows = _steps_embedding(ts, dim, dtype)
        assert rows.dtype == dtype and rows.shape == (ts.size, dim)
        for t, row in zip(ts.tolist(), rows):
            assert row.tobytes() == sinusoidal_embedding(t, dim).astype(dtype).tobytes(), t

    @pytest.mark.parametrize("shape", [(1,), (8,), (2, 4)])
    def test_gathered_rows_match_the_direct_computation(self, shape):
        # one draw, a training batch and the trunk's stacked members
        ts = make_rng(36).integers(1, 51, size=shape)
        assert _steps_embedding(ts, 64, np.float64).tobytes() == (
            sinusoidal_embedding(ts, 64).tobytes()
        )
        assert _steps_embedding(ts, 64, np.float32).tobytes() == (
            sinusoidal_embedding(ts, 64).astype(np.float32).tobytes()
        )

    def test_timesteps_past_the_table_or_negative_are_computed(self):
        ts = np.array([3, _TABLE_ROWS, -4])
        assert _steps_embedding(ts, 16, np.float64).tobytes() == (
            sinusoidal_embedding(ts, 16).tobytes()
        )
        assert _steps_embedding(ts[:2], 16, np.float64).tobytes() == (
            sinusoidal_embedding(ts[:2], 16).tobytes()
        )


class TestProjectedConditioning:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_projected_rows_give_the_same_pass(self, small_backbone, stacked):
        rng = make_rng(32)
        x = rng.standard_normal((3, 64))
        cond = rng.standard_normal((3, EMB_DIM))
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

    def test_conditioning_of_another_width_is_refused(self):
        with pytest.raises(ShapeMismatch):
            forward_pass(np.zeros((2, 256)), 5, np.ones((2, 32)), init_backbone(seed=0))


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
        assert all(g.dtype == np.float64 for grad in grads.values() for g in grad)
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

    def test_needs_noise_above_final_step(self, schedule):
        x = np.zeros((1, 16))
        with pytest.raises(ValueError, match="t=2 needs its noise draw"):
            ddpm_step(x, 2, x, schedule)

    @pytest.mark.parametrize("shape", [(1, 15), (2, 16), (16,)])
    def test_noise_must_have_the_state_shape(self, schedule, shape):
        x = np.zeros((1, 16))
        with pytest.raises(ShapeMismatch):
            ddpm_step(x, 2, x, schedule, np.zeros(shape))

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
                noise = make_rng(t, "noise").standard_normal(x.shape)
                out = ddpm_step(x, t, eps, schedule, noise, x0_map=x0_map)
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
        noise = make_rng(17).standard_normal(x.shape)
        with pytest.raises(NumericalError, match=r"^x_t at t=9 "):
            ddpm_step(bad, 9, x, schedule, noise, x0_map=x0_map)
        with pytest.raises(NumericalError, match=r"^eps_hat at t=9 "):
            ddpm_step(x, 9, bad, schedule, noise, x0_map=x0_map)

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
            ddpm_step(
                x, t, eps, schedule, make_rng(18).standard_normal(x.shape),
                x0_map=lambda x0: np.clip(x0, 0.0, 1.0),
            )

    def test_non_finite_mapped_estimate_is_a_numerical_error(self, schedule):
        x = make_rng(19).standard_normal((1, 16))
        with pytest.raises(NumericalError, match=r"^the mapped clean estimate at t=3 "):
            ddpm_step(
                x, 3, x, schedule, make_rng(20).standard_normal(x.shape),
                x0_map=lambda x0: x0 * np.nan,
            )

    @pytest.mark.parametrize("t", [2.7, True])
    def test_non_integer_t_refused(self, schedule, t):
        # int(2.7) and int(True) would run the t = 2 and t = 1 steps
        x = make_rng(21).standard_normal((1, 16))
        with pytest.raises(OutOfRange, match="integer timestep"):
            ddpm_step(x, t, x, schedule, make_rng(22).standard_normal(x.shape))

    def test_numpy_integer_t_is_its_int(self, schedule):
        x = make_rng(23).standard_normal((1, 16))
        noise = make_rng(24).standard_normal(x.shape)
        got = ddpm_step(x, np.int64(2), x, schedule, noise.copy())
        assert got.tobytes() == ddpm_step(x, 2, x, schedule, noise.copy()).tobytes()

    def test_float32_step_stays_float32(self, schedule):
        # float32 state and estimate: the float64 draw is cast once and the
        # whole step, map included, is float32
        rng = make_rng(25)
        x, eps, noise = (rng.standard_normal((2, 16)) for _ in range(3))
        x32, eps32 = x.astype(np.float32), eps.astype(np.float32)
        for t in (1, 10, 50):
            out = ddpm_step(x32, t, eps32, schedule, noise.copy(), x0_map=lambda x0: x0.clip(0, 1))
            assert out.dtype == np.float32
            cast_first = ddpm_step(
                x32, t, eps32, schedule, noise.astype(np.float32), x0_map=lambda x0: x0.clip(0, 1)
            )
            assert cast_first.tobytes() == out.tobytes()
            wide = ddpm_step(
                x32.astype(np.float64), t, eps32.astype(np.float64), schedule, noise.copy(),
                x0_map=lambda x0: x0.clip(0, 1),
            )
            assert wide.dtype == np.float64
            # the same step in float64 from the same float32 inputs: up to
            # 1.1e-7 of max |out| measured (t = 50)
            assert np.abs(out - wide).max() <= 1e-6 * np.abs(wide).max()
        # a float32 state with a float64 estimate steps in float64
        assert ddpm_step(x32, 1, eps, schedule).dtype == np.float64

    def test_golden_trajectory_replays(self, schedule):
        # archived digest of a network-free trajectory (elementwise ops and
        # Philox only, so it is stable across platforms)
        rng = make_rng(123, "golden")
        x = rng.standard_normal((1, 64))
        for t in range(schedule.total_steps, 0, -1):
            eps = np.tanh(x) * 0.5
            x = ddpm_step(x, t, eps, schedule, rng.standard_normal(x.shape) if t > 1 else None)
        digest = float(np.sum(x * np.arange(64)))
        rng = make_rng(123, "golden")
        y = rng.standard_normal((1, 64))
        for t in range(schedule.total_steps, 0, -1):
            eps = np.tanh(y) * 0.5
            y = ddpm_step(y, t, eps, schedule, rng.standard_normal(y.shape) if t > 1 else None)
        assert np.array_equal(x, y)
        assert digest == float(np.sum(y * np.arange(64)))


def unconditioned(images):
    """Each image with the null embedding."""
    return np.zeros((len(images), EMB_DIM))


class TestDenoisingLoss:
    def make_setup(self):
        backbone = init_backbone(image_size=4, hidden_width=6, n_layers=4, seed=5)
        rng = make_rng(31, "denoising-loss")
        rows = 3
        cond = rng.standard_normal((rows, EMB_DIM))
        cond[1] = 0.0  # the null embedding
        return (
            backbone, rng.random((rows, 16)), np.array([1, 17, 50]),
            rng.standard_normal((rows, 16)), cond,
        )

    def test_weight_gradients_match_finite_differences(self, schedule):
        # every entry of every layer, the base denoiser's whole gradient
        backbone, x0, ts, noise, cond = self.make_setup()
        _, grads = denoising_loss(backbone, x0, ts, noise, cond, schedule)
        assert set(grads) == set(backbone.names)
        assert all(g.dtype == np.float64 for g in grads.values())  # float64 in, float64 check
        h = 1e-6
        for name, w in backbone.items():
            assert grads[name].shape == w.shape
            for idx in np.ndindex(w.shape):
                shifted = []
                for step in (h, -h):
                    arr = w.copy()
                    arr[idx] += step
                    moved = backbone.replace({name: arr})
                    shifted.append(denoising_loss(moved, x0, ts, noise, cond, schedule)[0])
                fd = (shifted[0] - shifted[1]) / (2 * h)
                an = grads[name][idx]
                assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-3)

    def test_one_clean_row_broadcasts_to_every_draw(self, schedule):
        backbone, x0, ts, noise, cond = self.make_setup()
        one = denoising_loss(backbone, x0[:1], ts, noise, cond, schedule)
        each = denoising_loss(backbone, np.repeat(x0[:1], 3, axis=0), ts, noise, cond, schedule)
        assert one[0] == each[0]
        assert all(np.array_equal(one[1][name], each[1][name]) for name in backbone.names)


class TestDenoiserTrainer:
    def test_zero_steps_returns_initialization(self):
        # the fit trains float32 weights and widens them back to float64
        images = make_rng(12).random((4, 8, 8))
        tr = DenoiserTrainer(image_size=8, steps=0, seed=3)
        tr.fit(images, unconditioned(images))
        ref = init_backbone(8, 64, 8, seed=3)
        for name in ref.names:
            assert tr.backbone_.weight(name).dtype == np.float64
            expected = ref.weight(name).astype(np.float32).astype(np.float64)
            assert np.array_equal(tr.backbone_.weight(name), expected)

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

    def test_images_of_another_size_rejected(self):
        images = make_rng(16).random((4, 16, 16))
        with pytest.raises(ShapeMismatch, match="images are 16x16; the denoiser is 8x8"):
            DenoiserTrainer(image_size=8, steps=1).fit(images, unconditioned(images))

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
