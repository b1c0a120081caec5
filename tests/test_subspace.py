import math

import numpy as np
import pytest

from craftlora.adapters import KINDS
from craftlora.denoiser import NoiseSchedule, init_backbone
from craftlora.exceptions import (
    ConfigInvalid,
    EmptyBatch,
    NumericalError,
    OutOfRange,
    ShapeMismatch,
)
from craftlora.linalg import householder_qr, qr_backward
from craftlora.subspace import (
    BASIS_INIT_SCALE,
    BLOCK_ROWS,
    PERCEPTUAL_CHANNELS,
    PERCEPTUAL_KERNEL,
    PerceptualProxy,
    RankSchedule,
    SubspaceBases,
    TrunkFinetuner,
    init_bases,
    make_trunk_draws,
    member_embeddings,
    member_target_features,
    member_targets,
    merge_subspaces,
    _basis_grads_from_weight_grads,
    _member_weights,
    trunk_loss,
)
from craftlora.utils import lr_at, make_rng


def svd_rank(mat, threshold=1e-8):
    if mat.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > threshold))


def random_orthonormal(m, r, rng):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q[:, :r]


class TestRankSchedule:
    def test_paper_endpoints(self):
        for n_layers in (2, 5, 8, 30):
            plan = RankSchedule(128, 4, n_layers)
            assert plan.rank_at(1) == 128
            assert plan.rank_at(n_layers) == 4

    def test_direct_evaluation(self):
        assert RankSchedule(128, 4, 5).rank_at(3) == 66

    def test_monotone_nonincreasing_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r_min = int(rng.integers(1, 32))
            r_max = int(rng.integers(r_min, 256))
            n_layers = int(rng.integers(2, 40))
            plan = RankSchedule(r_max, r_min, n_layers)
            ranks = [plan.rank_at(l) for l in range(1, n_layers + 1)]
            assert ranks[0] == r_max and ranks[-1] == r_min
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            assert all(r >= 1 for r in ranks)

    def test_ties_round_up(self):
        # layer 2 of 3 with ranks 4..1 evaluates to 2.5
        assert RankSchedule(4, 1, 3).rank_at(2) == 3

    def test_out_of_range(self):
        plan = RankSchedule(8, 2, 4)
        with pytest.raises(OutOfRange):
            plan.rank_at(0)
        with pytest.raises(OutOfRange):
            plan.rank_at(5)

    def test_invalid_config(self):
        with pytest.raises(ConfigInvalid):
            RankSchedule(2, 4, 8)


class TestSubspaceBases:
    def test_init_draws_the_two_per_side_draws(self):
        # one (2, m, r) draw per layer is the content draw, then the style one
        bb = init_backbone(16, 16, 3, seed=7)
        bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
        rng = make_rng(3, "bases-init")
        for idx, name in enumerate(bb.names, start=1):
            shape = (bb.shape(name)[0], RankSchedule(4, 2, 3).rank_at(idx))
            for kind in KINDS:
                expected = rng.uniform(-BASIS_INIT_SCALE, BASIS_INIT_SCALE, size=shape)
                assert np.array_equal(bases.side(kind)[name], expected)

    def test_side_views_write_through(self):
        bases = SubspaceBases({"layer1": np.zeros((2, 5, 3))})
        bases.side("style")["layer1"][4, 2] = 7.0
        bases.side("content")["layer1"][:, 0] += 1.0
        assert bases.stacks["layer1"][1, 4, 2] == 7.0
        assert np.array_equal(bases.stacks["layer1"][0, :, 0], np.ones(5))
        assert np.count_nonzero(bases.stacks["layer1"]) == 6
        with pytest.raises(ValueError):
            bases.side("texture")

    def test_copy_is_deep(self):
        bases = SubspaceBases({"layer1": np.zeros((2, 5, 3))})
        copied = bases.copy()
        copied.side("content")["layer1"][0, 0] = 1.0
        assert not bases.stacks["layer1"].any()


class TestTrunkDraws:
    def test_pair_by_pair_member_by_member(self):
        from craftlora.pairs import generate_pair_dataset

        schedule = NoiseSchedule.linear()
        pairs = generate_pair_dataset(2, 2, seed=0)
        ts, noise = make_trunk_draws(pairs, schedule, make_rng(11, "draws"))
        assert ts.shape == (2, len(pairs))
        assert noise.shape == (2, len(pairs), pairs[0].content_image.size)
        rng = make_rng(11, "draws")
        for i, pair in enumerate(pairs):
            for m in range(len(KINDS)):
                assert ts[m, i] == rng.integers(1, schedule.total_steps + 1)
                expected = rng.standard_normal(pair.content_image.shape).reshape(-1)
                assert np.array_equal(noise[m, i], expected)


class TestMergeSubspaces:
    def test_empty_style_operand(self):
        rng = np.random.default_rng(1)
        q_c = random_orthonormal(10, 3, rng)
        merged = merge_subspaces(q_c, np.zeros((10, 0)))
        assert merged.shape[1] == 3
        assert svd_rank(np.hstack([merged, q_c])) == 3  # same span

    def test_identical_operands_do_not_grow(self):
        rng = np.random.default_rng(2)
        q = random_orthonormal(12, 4, rng)
        merged = merge_subspaces(q, q)
        assert merged.shape[1] == svd_rank(np.hstack([q, q]))
        assert merged.shape[1] == 4

    def test_disjoint_axes_add_up(self):
        q_c = np.eye(8)[:, :3]
        q_s = np.eye(8)[:, 4:6]
        merged = merge_subspaces(q_c, q_s)
        assert merged.shape[1] == 5

    def test_partial_overlap_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(6, 20))
            shared = random_orthonormal(m, 2, rng)
            q_c = merge_subspaces(shared, random_orthonormal(m, 2, rng))
            q_s = merge_subspaces(shared, random_orthonormal(m, 1, rng))
            merged = merge_subspaces(q_c, q_s)
            assert merged.shape[1] == svd_rank(np.hstack([q_c, q_s]))

    def test_row_mismatch(self):
        with pytest.raises(ShapeMismatch):
            merge_subspaces(np.eye(4, 2), np.eye(5, 2))

    def test_raw_bases_merge_to_the_orthonormalized_span(self):
        # the trunk merges its bases as trained; a column of the style basis
        # that repeats a content direction is dropped, as after a QR of each
        rng = np.random.default_rng(4)
        b_c = rng.uniform(-0.02, 0.02, (16, 4))
        b_s = np.hstack([3.0 * b_c[:, :1], rng.uniform(-0.02, 0.02, (16, 2))])
        merged = merge_subspaces(b_c, b_s)
        reference = merge_subspaces(householder_qr(b_c)[0], householder_qr(b_s)[0])
        assert merged.shape == reference.shape == (16, 6)
        assert np.abs(merged @ merged.T - reference @ reference.T).max() < 1e-12


class TestLearningRateSchedule:
    def test_endpoints_and_monotone_decay(self):
        total, peak, start, floor, warm = 400, 1e-3, 1e-4, 1e-5, 100
        assert lr_at(0, total, peak, start, floor, warm) == start
        assert lr_at(warm, total, peak, start, floor, warm) == peak
        assert abs(lr_at(total, total, peak, start, floor, warm) - floor) < 1e-18
        values = [lr_at(s, total, peak, start, floor, warm) for s in range(warm, total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestTrunkLoss:
    def make_setup(self, alpha_perc=0.1):
        from craftlora.pairs import generate_pair_dataset

        bb = init_backbone(16, 16, 3, seed=7)
        schedule = NoiseSchedule.linear()
        plan = RankSchedule(4, 2, 3)
        bases = init_bases(bb, plan, seed=3)
        pairs = generate_pair_dataset(2, 2, seed=0)[:3]
        draws = make_trunk_draws(pairs, schedule, make_rng(11, "draws"))
        perc = PerceptualProxy(image_size=16, seed=5) if alpha_perc > 0 else None
        return bb, schedule, bases, pairs, draws, perc

    def test_zero_bases_regularizer(self):
        bb, schedule, bases, pairs, draws, perc = self.make_setup()
        loss_reg, _ = trunk_loss(bb, bases, pairs, 1e-2, 0.1, schedule, draws, perceptual=perc)
        loss_noreg, _ = trunk_loss(bb, bases, pairs, 0.0, 0.1, schedule, draws, perceptual=perc)
        frob = sum(float(np.sum(b * b)) for b in bases.stacks.values())
        assert abs((loss_reg - loss_noreg) - 1e-2 * frob) < 1e-9

    @pytest.mark.parametrize("t", [0, -3, 51])
    def test_timestep_outside_schedule_rejected(self, t):
        # an index t - 1 below zero would wrap to the schedule's end
        bb, schedule, bases, pairs, (ts, noise), _ = self.make_setup()
        ts[1, 0] = t
        with pytest.raises(OutOfRange, match=r"in \[1, 50\]"):
            trunk_loss(bb, bases, pairs, 1e-4, 0.0, schedule, (ts, noise))

    def test_empty_batch_rejected(self):
        bb, schedule, bases, _, _, _ = self.make_setup()
        with pytest.raises(EmptyBatch):
            trunk_loss(bb, bases, [], 0.0, 0.0, schedule, [])

    def test_perceptual_weight_without_a_proxy_rejected(self):
        # the perceptual term must not drop out silently
        bb, schedule, bases, pairs, draws, _ = self.make_setup()
        with pytest.raises(ConfigInvalid, match="needs a perceptual proxy"):
            trunk_loss(bb, bases, pairs, 1e-4, 0.1, schedule, draws)
        loss, _ = trunk_loss(bb, bases, pairs, 1e-4, 0.0, schedule, draws)
        assert np.isfinite(loss)

    def test_gradients_match_finite_differences(self):
        bb, schedule, bases, pairs, draws, perc = self.make_setup()
        loss0, grads = trunk_loss(bb, bases, pairs, 1e-4, 0.1, schedule, draws, perceptual=perc)

        def value(bs):
            loss, _ = trunk_loss(bb, bs, pairs, 1e-4, 0.1, schedule, draws, perceptual=perc)
            return loss

        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(30):
            kind = "content" if rng.random() < 0.5 else "style"
            name = list(bases.side(kind))[rng.integers(0, 3)]
            mat = bases.side(kind)[name]
            i, j = rng.integers(0, mat.shape[0]), rng.integers(0, mat.shape[1])
            plus = bases.copy()
            plus.side(kind)[name][i, j] += h
            minus = bases.copy()
            minus.side(kind)[name][i, j] -= h
            fd = (value(plus) - value(minus)) / (2 * h)
            an = grads[name][KINDS.index(kind), i, j]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    # batching and summing gradients before the QR chain reorder the
    # floating-point sums; this is the agreement held against per-pair calls
    BATCH_RTOL = 1e-10

    def assert_batch_is_mean_of_singles(self, bb, schedule, bases, pairs, draws, perc):
        loss, grads = trunk_loss(bb, bases, pairs, 1e-2, 0.1, schedule, draws, perceptual=perc)
        ts, noise = draws
        singles = [
            trunk_loss(
                bb, bases, [p], 1e-2, 0.1, schedule, (ts[:, i:i + 1], noise[:, i:i + 1]),
                perceptual=perc,
            )
            for i, p in enumerate(pairs)
        ]
        # each single value carries the regularizer once, so their mean does
        mean_loss = np.mean([value for value, _ in singles])
        assert abs(loss - mean_loss) <= self.BATCH_RTOL * abs(mean_loss)
        for name, g in grads.items():
            assert g.shape == bases.stacks[name].shape
            for m in range(len(KINDS)):
                mean_g = np.mean([single[name][m] for _, single in singles], axis=0)
                assert np.abs(g[m] - mean_g).max() <= self.BATCH_RTOL * np.abs(mean_g).max()

    def test_batch_is_mean_of_single_pairs(self):
        bb, schedule, bases, pairs, draws, perc = self.make_setup()
        self.assert_batch_is_mean_of_singles(bb, schedule, bases, pairs, draws, perc)

    def test_batch_across_row_blocks_is_mean_of_single_pairs(self):
        from craftlora.pairs import generate_pair_dataset

        bb, schedule, bases, _, _, perc = self.make_setup()
        pairs = generate_pair_dataset(5, 4, seed=1)
        assert len(pairs) > BLOCK_ROWS
        draws = make_trunk_draws(pairs, schedule, make_rng(12, "draws"))
        self.assert_batch_is_mean_of_singles(bb, schedule, bases, pairs, draws, perc)

    def test_precomputed_pair_inputs_change_nothing(self):
        # what a fit computes once per dataset and indexes per step
        bb, schedule, bases, pairs, draws, perc = self.make_setup()
        loss, grads = trunk_loss(bb, bases, pairs, 1e-2, 0.1, schedule, draws, perceptual=perc)
        targets = member_targets(pairs)
        again, grads_again = trunk_loss(
            bb, bases, pairs, 1e-2, 0.1, schedule, draws, perceptual=perc,
            embeddings=member_embeddings(pairs),
            target_features=member_target_features(targets, perc),
            targets=targets,
        )
        assert again == loss
        for name, g in grads.items():
            assert grads_again[name].tobytes() == g.tobytes()

    def test_matches_dense_chain_proxy(self):
        # the trunk objective and its basis gradients with the banded proxy
        # against the dense chain in the (c, y, x) feature layout
        bb, schedule, bases, pairs, draws, perc = self.make_setup()
        loss, grads = trunk_loss(bb, bases, pairs, 1e-2, 0.1, schedule, draws, perceptual=perc)
        ref_loss, ref_grads = trunk_loss(
            bb, bases, pairs, 1e-2, 0.1, schedule, draws,
            perceptual=DenseChainProxy(perc.image_size, perc.seed),
        )
        assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
        for name, g in grads.items():
            assert np.abs(g - ref_grads[name]).max() <= 1e-13 * np.abs(ref_grads[name]).max()

    def test_draws_must_cover_every_pair(self):
        bb, schedule, bases, pairs, (ts, noise), _ = self.make_setup(alpha_perc=0.0)
        with pytest.raises(ShapeMismatch):
            trunk_loss(bb, bases, pairs, 0.0, 0.0, schedule, (ts[:, 1:], noise[:, 1:]))


class TestMemberWeights:
    def test_qr_matches_householder(self):
        bb = init_backbone(16, 16, 3, seed=7)
        bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
        stacks = bases.stacks
        weights, cache = _member_weights(bb, stacks)
        for name, (b, bk, k) in cache.items():
            assert b is stacks[name]
            assert weights[name].shape == (2,) + bb.shape(name)
            w0 = bb.weight(name)
            for i, member in enumerate(KINDS):
                assert np.abs(bk[i] - b[i] @ k[i]).max() < 1e-12 * np.abs(bk[i]).max()
                q_ref, _ = householder_qr(bases.side(member)[name])
                expected = w0 - q_ref @ (q_ref.T @ w0)
                assert np.abs(weights[name][i] - expected).max() < 1e-12
                assert np.abs(b[i].T @ weights[name][i]).max() < 1e-12 * np.abs(b[i].T @ w0).max()

    def test_rank_deficient_basis_raises(self):
        # either member's basis losing rank fails the whole stack
        bb = init_backbone(16, 16, 3, seed=7)
        for member in KINDS:
            bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
            b = bases.side(member)["layer2"]
            b[:, 1] = 3.0 * b[:, 0]
            message = "^basis for layer 'layer2' lost rank during training$"
            with pytest.raises(NumericalError, match=message):
                _member_weights(bb, bases.stacks)
            b[...] = 0.0
            with pytest.raises(NumericalError, match=message):
                _member_weights(bb, bases.stacks)

    def test_nearly_dependent_column_raises(self):
        bb = init_backbone(16, 16, 3, seed=7)
        for member in KINDS:
            bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
            b = bases.side(member)["layer2"]
            noise = np.random.default_rng(8).standard_normal(b.shape[0])
            b[:, 1] = 3.0 * b[:, 0] + 1e-9 * np.linalg.norm(b[:, 0]) * noise
            with pytest.raises(NumericalError):
                _member_weights(bb, bases.stacks)

    def test_small_but_independent_pivot_is_kept(self):
        bb = init_backbone(16, 16, 3, seed=7)
        bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
        b = bases.side("content")["layer2"]
        q = random_orthonormal(16, b.shape[1], np.random.default_rng(9))
        scales = np.ones(q.shape[1])
        scales[-1] = 1e-3
        b[...] = q * scales
        _, r = householder_qr(b)
        assert abs(np.diagonal(r).min() - 1e-3) < 1e-12
        weights, _ = _member_weights(bb, bases.stacks)
        w0 = bb.weight("layer2")
        assert np.abs(weights["layer2"][0] - (w0 - q @ (q.T @ w0))).max() < 1e-9


class TestBasisGradient:
    """The projector-form basis gradient against the QR chain it replaces:
    dLoss/dQ of W = W0 - Q Q^T W0 pulled back through ``qr_backward``, for
    each member of a stacked pair of bases."""

    @staticmethod
    def qr_chain(w0, b, g):
        q, r = householder_qr(b)
        grad_q = -(g @ (w0.T @ q) + w0 @ (g.T @ q))
        return qr_backward(q, r, grad_q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_qr_chain_at_desk_shapes(self, seed):
        # a 256 x 16 first layer, then 64-row layers at ranks 14 down to 4
        bb = init_backbone(16, 64, 8, seed=seed)
        bases = init_bases(bb, RankSchedule(16, 4, 8), seed=seed)
        rng = np.random.default_rng(seed)
        weight_grads = {
            name: rng.standard_normal((2,) + bb.shape(name)) for name in bb.names
        }
        _, cache = _member_weights(bb, bases.stacks)
        grads = _basis_grads_from_weight_grads(bb, cache, weight_grads)
        for name in bb.names:
            for i, member in enumerate(KINDS):
                expected = self.qr_chain(
                    bb.weight(name), bases.side(member)[name], weight_grads[name][i]
                )
                assert np.abs(grads[name][i] - expected).max() <= 1e-12 * np.abs(expected).max()


def loop_conv_matrix(weights, in_h, in_w, out_h, out_w):
    """Dense reference: one column per output pixel, filled kernel row by row."""
    out_ch, in_ch, k, _ = weights.shape
    mat = np.zeros((in_ch * in_h * in_w, out_ch * out_h * out_w))
    for oc in range(out_ch):
        for oy in range(out_h):
            for ox in range(out_w):
                col = (oc * out_h + oy) * out_w + ox
                for ic in range(in_ch):
                    for ky in range(k):
                        row = (ic * in_h + oy + ky) * in_w + ox
                        mat[row: row + k, col] = weights[oc, ic, ky]
    return mat


def proxy_kernels(image_size, seed):
    """The proxy's kernels, drawn here from its key in its order, so that a
    change to the draws fails the band check below."""
    k = PERCEPTUAL_KERNEL
    rng = make_rng(seed, "perceptual-proxy", image_size, k, *PERCEPTUAL_CHANNELS)
    kernels, in_ch = [], 1
    for out_ch in PERCEPTUAL_CHANNELS:
        kernels.append(rng.standard_normal((out_ch, in_ch, k, k)) / math.sqrt(k * k * in_ch))
        in_ch = out_ch
    return kernels


class DenseChainProxy:
    """The perceptual stack as dense (c, y, x)-ordered convolution matrices
    from ``loop_conv_matrix``, one product per layer and pass: the
    arithmetic of a sparse-matrix convolution, in its layout."""

    def __init__(self, image_size, seed):
        self.mats = []
        self.shapes = []  # (channels, side) of each layer's output maps
        side = image_size
        for weights in proxy_kernels(image_size, seed):
            out = side - PERCEPTUAL_KERNEL + 1
            self.mats.append(loop_conv_matrix(weights, side, side, out, out))
            self.shapes.append((weights.shape[0], out))
            side = out
        self.layer_sizes = [m.shape[1] for m in self.mats]

    def features(self, x):
        feats, h = [], x
        for mat in self.mats:
            h = np.tanh(h @ mat)
            feats.append(h)
        return feats

    def input_grad(self, feats, d_feats):
        upstream = np.zeros_like(feats[-1])
        for j in range(len(self.mats) - 1, -1, -1):
            upstream = ((upstream + d_feats[j]) * (1.0 - feats[j] ** 2)) @ self.mats[j].T
        return upstream


def row_major(maps, channels, side):
    """(rows, c * y * x) maps reordered to the proxy's (rows, y * c * x)."""
    return maps.reshape(-1, channels, side, side).transpose(0, 2, 1, 3).reshape(maps.shape)


class TestPerceptualProxy:
    # tolerances against the dense chain, whose sums run in another order:
    # features are tanh values in (-1, 1); the input gradient is checked
    # at the scale of standard normal feature gradients (about 1-10)
    FEATURES_ATOL = 1e-14
    INPUT_GRAD_ATOL = 1e-13

    @pytest.mark.parametrize("image_size, seed", [(16, 5), (9, 2)])
    def test_bands_are_the_loop_convolutions(self, image_size, seed):
        # laid along the output rows, each layer's band is its dense
        # convolution matrix reordered to (y, c, x) on both sides
        perc = PerceptualProxy(image_size=image_size, seed=seed)
        dense = DenseChainProxy(image_size, seed)
        k = PERCEPTUAL_KERNEL
        in_ch, side = 1, image_size
        for band, mat, (out_ch, out) in zip(perc._bands, dense.mats, dense.shapes):
            full = np.zeros(mat.shape)
            step_in, step_out = in_ch * side, out_ch * out
            for oy in range(out):
                full[oy * step_in:(oy + k) * step_in, oy * step_out:(oy + 1) * step_out] = band
            expected = (
                mat.reshape(in_ch, side, side, out_ch, out, out)
                .transpose(1, 0, 2, 4, 3, 5)
                .reshape(mat.shape)
            )
            assert np.array_equal(full, expected)
            in_ch, side = out_ch, out

    def test_passes_match_dense_chain(self):
        perc = PerceptualProxy(image_size=16, seed=5)
        dense = DenseChainProxy(16, 5)
        rng = np.random.default_rng(7)
        x = rng.random((5, 256))
        feats, ref = perc.features(x), dense.features(x)
        for f, r, (channels, side) in zip(feats, ref, dense.shapes):
            assert np.abs(f - row_major(r, channels, side)).max() <= self.FEATURES_ATOL
        d_ref = [rng.standard_normal(r.shape) for r in ref]
        d_feats = [row_major(d, *shape) for d, shape in zip(d_ref, dense.shapes)]
        expected = dense.input_grad(ref, d_ref)
        assert np.abs(expected).max() > 1.0
        assert np.abs(perc.input_grad(feats, d_feats) - expected).max() <= self.INPUT_GRAD_ATOL

    def test_a_row_does_not_depend_on_its_batch(self):
        perc = PerceptualProxy(image_size=16, seed=5)
        rng = np.random.default_rng(8)
        x = rng.random((8, 256))
        feats = perc.features(x)
        d_feats = [rng.standard_normal(f.shape) for f in feats]
        grads = perc.input_grad(feats, d_feats)
        for i in range(len(x)):
            alone = perc.features(x[i: i + 1])
            for a, f in zip(alone, feats):
                assert np.abs(a[0] - f[i]).max() <= self.FEATURES_ATOL
            grad = perc.input_grad(alone, [d[i: i + 1] for d in d_feats])
            assert np.abs(grad[0] - grads[i]).max() <= self.INPUT_GRAD_ATOL


class TestTrunkFinetuner:
    def test_zero_steps_projects_initial_bases(self, trained_base, pair_dataset):
        tuner = TrunkFinetuner(steps=0, seed=4)
        tuner.fit(trained_base, pair_dataset[:4])
        plan = RankSchedule(tuner.settings.r_max, tuner.settings.r_min, trained_base.n_layers)
        bases = init_bases(trained_base, plan, seed=4)
        for name in trained_base.names:
            q_c, _ = householder_qr(bases.side("content")[name])
            q_s, _ = householder_qr(bases.side("style")[name])
            merged = merge_subspaces(q_c, q_s)
            expected = trained_base.weight(name) - merged @ (
                merged.T @ trained_base.weight(name)
            )
            assert np.abs(tuner.backbone_.weight(name) - expected).max() < 1e-12

    def test_one_step_is_adams_normalized_first_step(self, trained_base, pair_dataset):
        # Adam's first step moves each entry by lr * |g| / (|g| + eps), so by
        # at most the start rate whatever the gradient scale; gradient
        # descent would move each by lr * |g|
        tuner = TrunkFinetuner(steps=1, seed=3).fit(trained_base, pair_dataset[:4])
        initial = init_bases(trained_base, tuner.rank_schedule_, seed=3)
        moves = np.concatenate([
            np.abs(tuner.bases_.stacks[name] - initial.stacks[name]).ravel()
            for name in trained_base.names
        ])
        start_lr = tuner.settings.start_lr
        assert moves.max() <= start_lr
        assert moves.max() >= 0.99 * start_lr
        # the trained stacks are views of one optimizer buffer, in layer order
        stacks = list(tuner.bases_.stacks.values())
        buffer = stacks[0].base
        assert buffer.size == sum(b.size for b in stacks)
        assert all(b.base is buffer for b in stacks)
        assert np.array_equal(buffer, np.concatenate([b.ravel() for b in stacks]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_host_is_w0_minus_the_merged_projection(self, trained_base, pair_dataset, seed):
        # the host comes from the Cholesky projector of the merged basis,
        # which is orthonormal, so it is W0 - Q Q^T W0 to rounding
        tuner = TrunkFinetuner(steps=3, seed=seed).fit(trained_base, pair_dataset[:4])
        for name in trained_base.names:
            w0 = trained_base.weight(name)
            q = tuner.merged_q_[name]
            expected = w0 - q @ (q.T @ w0)
            assert np.abs(tuner.backbone_.weight(name) - expected).max() < 1e-12

    def test_projection_invariant_after_fit(self, trained_base, pair_dataset):
        tuner = TrunkFinetuner(steps=8, seed=5)
        tuner.fit(trained_base, pair_dataset[:6])
        for name in trained_base.names:
            q = tuner.merged_q_[name]
            assert np.abs(q.T @ tuner.backbone_.weight(name)).max() < 1e-8

    def test_merged_width_bounded(self, trained_base, pair_dataset):
        tuner = TrunkFinetuner(steps=4, seed=6)
        tuner.fit(trained_base, pair_dataset[:4])
        plan = tuner.rank_schedule_
        for idx, name in enumerate(trained_base.names, start=1):
            assert tuner.merged_q_[name].shape[1] <= 2 * plan.rank_at(idx)

    def test_determinism(self, trained_base, pair_dataset):
        runs = []
        for _ in range(2):
            tuner = TrunkFinetuner(steps=6, seed=9)
            tuner.fit(trained_base, pair_dataset[:4])
            runs.append(tuner.backbone_)
        for name in runs[0].names:
            assert np.array_equal(runs[0].weight(name), runs[1].weight(name))

    def test_fit_runs_no_qr_and_one_target_feature_pass(
        self, trained_base, pair_dataset, monkeypatch
    ):
        import craftlora.linalg
        import craftlora.subspace

        calls = {"qr": 0, "qr_backward": 0, "cholesky": 0}
        real_qr = np.linalg.qr
        real_cholesky = np.linalg.cholesky

        def counting_qr(*args, **kwargs):
            calls["qr"] += 1
            return real_qr(*args, **kwargs)

        def counting_qr_backward(*args, **kwargs):
            calls["qr_backward"] += 1
            return qr_backward(*args, **kwargs)

        def counting_cholesky(*args, **kwargs):
            calls["cholesky"] += 1
            return real_cholesky(*args, **kwargs)

        feature_inputs = []
        real_features = PerceptualProxy.features

        def recording_features(self, x_flat):
            feature_inputs.append(np.array(x_flat))
            return real_features(self, x_flat)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(craftlora.linalg, "qr_backward", counting_qr_backward)
        monkeypatch.setattr(craftlora.subspace, "qr_backward", counting_qr_backward, raising=False)
        target_stacks = []

        def recording_targets(pairs):
            target_stacks.append(len(pairs))
            return member_targets(pairs)

        monkeypatch.setattr(PerceptualProxy, "features", recording_features)
        monkeypatch.setattr(craftlora.subspace, "member_targets", recording_targets)
        pairs = pair_dataset[:6]
        TrunkFinetuner(steps=5, batch_size=3, seed=7).fit(trained_base, pairs)
        # the targets are stacked once per fit, and each step indexes them
        assert target_stacks == [len(pairs)]
        # both members' bases factor as one stack: one Cholesky per layer per
        # step, and one per layer for the merged host
        assert calls == {"qr": 0, "qr_backward": 0, "cholesky": trained_base.n_layers * (5 + 1)}
        # one pass over both members' targets, then one over each step's predictions
        assert len(feature_inputs) == 1 + 5
        targets = np.concatenate([
            np.stack([p.content_image.reshape(-1) for p in pairs]),
            np.stack([p.style_image.reshape(-1) for p in pairs]),
        ])
        target_calls = [
            x for x in feature_inputs if all((targets == row).all(axis=1).any() for row in x)
        ]
        assert len(target_calls) == 1
        assert np.array_equal(target_calls[0], targets)
        # the counters do see a QR chain
        q, r = householder_qr(np.eye(4, 2))
        craftlora.linalg.qr_backward(q, r, np.zeros((4, 2)))
        np.linalg.qr(np.eye(3))
        assert calls["qr"] == 1 and calls["qr_backward"] == 1

    def test_non_finite_last_update_is_numerical_error(
        self, trained_base, pair_dataset, monkeypatch
    ):
        # the last step's loss is finite, so only the check after the loop
        # can see the update it makes
        import craftlora.subspace

        steps = []

        def last_gradient_nan(*args, **kwargs):
            loss, grads = trunk_loss(*args, **kwargs)
            steps.append(loss)
            if len(steps) == 3:
                grads["layer4"][1, 0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(craftlora.subspace, "trunk_loss", last_gradient_nan)
        with pytest.raises(NumericalError, match="trunk parameters are non-finite"):
            TrunkFinetuner(steps=3, seed=8).fit(trained_base, pair_dataset[:4])
        assert len(steps) == 3

    def test_empty_dataset_rejected(self, trained_base):
        with pytest.raises(ConfigInvalid):
            TrunkFinetuner(steps=1).fit(trained_base, [])

    def test_pairs_of_another_size_rejected(self, trained_base, pair_dataset):
        import dataclasses

        from craftlora.pairs import generate_pair_dataset

        # 8x8 pairs for the 16x16 host, and one 8x8 member among 16x16 pairs
        small = generate_pair_dataset(2, 2, seed=0, size=8)
        with pytest.raises(ShapeMismatch, match="are 8x8; the host expects square images of 256"):
            TrunkFinetuner(steps=1).fit(trained_base, small)
        mixed = list(pair_dataset[:3])
        mixed[1] = dataclasses.replace(mixed[1], style_image=small[0].style_image)
        with pytest.raises(ShapeMismatch, match="are 8x8, 16x16; the host expects"):
            TrunkFinetuner(steps=1).fit(trained_base, mixed)

    def test_settings_checked_at_construction(self):
        with pytest.raises(ConfigInvalid):
            TrunkFinetuner(batch_size=0)
        with pytest.raises(ConfigInvalid):
            TrunkFinetuner(r_max=2, r_min=3)
