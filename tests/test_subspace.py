import numpy as np
import pytest

from craftlora.denoiser import init_backbone
from craftlora.exceptions import (
    ConfigInvalid,
    EmptyBatch,
    NotOrthonormal,
    NumericalError,
    OutOfRange,
    ShapeMismatch,
)
from craftlora.linalg import householder_qr
from craftlora.subspace import (
    BLOCK_ROWS,
    PerceptualProxy,
    RankSchedule,
    TrunkFinetuner,
    apply_rank_limited_update,
    init_bases,
    make_trunk_draws,
    merge_subspaces,
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


class TestApplyRankLimitedUpdate:
    def test_empty_map_leaves_backbone(self):
        bb = init_backbone(8, 16, 3, seed=0)
        out = apply_rank_limited_update(bb, {})
        for name in bb.names:
            assert np.array_equal(out.weight(name), bb.weight(name))

    def test_square_orthonormal_zeroes_layer(self):
        bb = init_backbone(8, 16, 3, seed=1)
        rng = np.random.default_rng(4)
        q = random_orthonormal(16, 16, rng)
        out = apply_rank_limited_update(bb, {"layer2": q})
        assert np.abs(out.weight("layer2")).max() < 1e-12
        assert np.array_equal(out.weight("layer1"), bb.weight("layer1"))

    def test_projected_component_removed_per_layer(self):
        bb = init_backbone(8, 16, 3, seed=2)
        rng = np.random.default_rng(5)
        q_map = {
            name: random_orthonormal(bb.shape(name)[0], 2, rng) for name in bb.names
        }
        out = apply_rank_limited_update(bb, q_map)
        for name in bb.names:
            assert np.abs(q_map[name].T @ out.weight(name)).max() < 1e-8

    def test_non_orthonormal_rejected(self):
        bb = init_backbone(8, 16, 3, seed=3)
        with pytest.raises(NotOrthonormal):
            apply_rank_limited_update(bb, {"layer1": np.full((64, 2), 0.4)})


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
        from craftlora.denoiser import NoiseSchedule
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
        frob = sum(float(np.sum(b * b)) for b in bases.content.values())
        frob += sum(float(np.sum(b * b)) for b in bases.style.values())
        assert abs((loss_reg - loss_noreg) - 1e-2 * frob) < 1e-9

    def test_empty_batch_rejected(self):
        bb, schedule, bases, _, _, _ = self.make_setup()
        with pytest.raises(EmptyBatch):
            trunk_loss(bb, bases, [], 0.0, 0.0, schedule, [])

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
            an = grads[kind][name][i, j]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    # batching and summing gradients before the QR chain reorder the
    # floating-point sums; this is the agreement held against per-pair calls
    BATCH_RTOL = 1e-10

    def assert_batch_is_mean_of_singles(self, bb, schedule, bases, pairs, draws, perc):
        loss, grads = trunk_loss(bb, bases, pairs, 1e-2, 0.1, schedule, draws, perceptual=perc)
        singles = [
            trunk_loss(bb, bases, [p], 1e-2, 0.1, schedule, [d], perceptual=perc)
            for p, d in zip(pairs, draws)
        ]
        # each single value carries the regularizer once, so their mean does
        mean_loss = np.mean([value for value, _ in singles])
        assert abs(loss - mean_loss) <= self.BATCH_RTOL * abs(mean_loss)
        for kind in ("content", "style"):
            for name, g in grads[kind].items():
                mean_g = np.mean([single[kind][name] for _, single in singles], axis=0)
                assert np.abs(g - mean_g).max() <= self.BATCH_RTOL * np.abs(mean_g).max()

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


class TestMemberWeights:
    def test_qr_matches_householder(self):
        bb = init_backbone(16, 16, 3, seed=7)
        bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
        weights, cache = _member_weights(bb, bases.content)
        for name, (q, r) in cache.items():
            q_ref, r_ref = householder_qr(bases.content[name])
            assert np.abs(q - q_ref).max() < 1e-12
            assert np.abs(r - r_ref).max() < 1e-12 * np.abs(r_ref).max()
            assert np.abs(q.T @ weights.weight(name)).max() < 1e-12

    def test_rank_deficient_basis_raises(self):
        bb = init_backbone(16, 16, 3, seed=7)
        bases = init_bases(bb, RankSchedule(4, 2, 3), seed=3)
        b = bases.content["layer2"]
        b[:, 1] = 3.0 * b[:, 0]
        with pytest.raises(NumericalError):
            _member_weights(bb, bases.content)
        bases.content["layer2"] = np.zeros_like(b)
        with pytest.raises(NumericalError):
            _member_weights(bb, bases.content)


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


class TestPerceptualProxy:
    def test_sparse_conv_matrix_matches_loop_reference(self):
        weights = np.random.default_rng(6).standard_normal((3, 2, 3, 3))
        sparse = PerceptualProxy._conv_matrix(weights, 7, 6, 5, 4)
        assert np.array_equal(sparse.toarray(), loop_conv_matrix(weights, 7, 6, 5, 4))

    def test_passes_match_dense_reference(self):
        perc = PerceptualProxy(image_size=16, seed=5)
        dense = [m.toarray() for m in perc._mats]
        rng = np.random.default_rng(7)
        x = rng.random((5, 256))
        feats = perc.features(x)
        h = x
        for mat, f in zip(dense, feats):
            h = np.tanh(h @ mat)
            assert np.abs(f - h).max() < 1e-12
        d_feats = [rng.standard_normal(f.shape) for f in feats]
        upstream = np.zeros_like(feats[-1])
        for j in range(len(dense) - 1, -1, -1):
            upstream = ((upstream + d_feats[j]) * (1.0 - feats[j] ** 2)) @ dense[j].T
        assert np.abs(perc.input_grad(feats, d_feats) - upstream).max() < 1e-12


class TestTrunkFinetuner:
    def test_zero_steps_projects_initial_bases(self, trained_base, pair_dataset):
        tuner = TrunkFinetuner(steps=0, seed=4)
        tuner.fit(trained_base, pair_dataset[:4])
        plan = RankSchedule(tuner.settings.r_max, tuner.settings.r_min, trained_base.n_layers)
        bases = init_bases(trained_base, plan, seed=4)
        for name in trained_base.names:
            q_c, _ = householder_qr(bases.content[name])
            q_s, _ = householder_qr(bases.style[name])
            merged = merge_subspaces(q_c, q_s)
            expected = trained_base.weight(name) - merged @ (
                merged.T @ trained_base.weight(name)
            )
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

    def test_empty_dataset_rejected(self, trained_base):
        with pytest.raises(ConfigInvalid):
            TrunkFinetuner(steps=1).fit(trained_base, [])

    def test_settings_checked_at_construction(self):
        with pytest.raises(ConfigInvalid):
            TrunkFinetuner(batch_size=0)
        with pytest.raises(ConfigInvalid):
            TrunkFinetuner(r_max=2, r_min=3)
