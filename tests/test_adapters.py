import numpy as np
import pytest

from craftlora.adapters import (
    LayerRouting,
    LoraAdapter,
    LoraTrainer,
    adapter_loss,
    aggregate_weights,
    default_routing,
    make_adapter,
)
from craftlora.denoiser import Backbone, backward_pass, forward_pass, init_backbone
from craftlora.exceptions import (
    ConfigInvalid,
    MarkerMissing,
    NumericalError,
    RoutingViolation,
)
from craftlora.pairs import content_render, style_render
from craftlora.utils import make_rng


def svd_rank(mat, threshold=1e-8):
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > threshold))


# the embedding row the merged updates are gated on
E_ROW = make_rng(3, "e").standard_normal((1, 64))


@pytest.fixture()
def backbone():
    return init_backbone(image_size=8, hidden_width=16, n_layers=4, seed=2)


@pytest.fixture()
def routing(backbone):
    return default_routing(backbone.names)


def generic_adapter(backbone, routing, kind, seed):
    """An adapter at a nonzero point: random up factors and gate."""
    seeded = make_adapter(kind, backbone, routing, rank=3, seed=seed)
    gen = np.random.default_rng(seed)
    return LoraAdapter(
        kind,
        seeded.rank,
        {
            name: (b, 0.05 * gen.standard_normal(a.shape))
            for name, (b, a) in seeded.factors.items()
        },
        0.1 * gen.standard_normal(64),
        0.3,
        routing,
    )


def merged_adapter_loss(w_init, adapter, reference, e_sem, schedule, draw):
    """``adapter_loss`` of one (t, noise) draw through a merged host.

    The adapter is merged with ``aggregate_weights``, the host's dense
    weight gradients come from ``backward_pass`` and are turned into factor
    and gate gradients by the chain rule through ``W + gate * B @ A``.
    """
    t, noise = draw
    pair = (adapter, None) if adapter.kind == "content" else (None, adapter)
    merged = aggregate_weights(w_init, *pair, 1.0, 1.0, e_sem[None, :])
    gate = adapter.gate(e_sem[None, :])[0]
    ab = schedule.alpha_bar(t)
    z_t = np.sqrt(ab) * reference.reshape(1, -1) + np.sqrt(1.0 - ab) * noise.reshape(1, -1)
    pred, cache = forward_pass(z_t, t, e_sem[None, :], merged)
    resid = pred - noise.reshape(1, -1)
    weight_grads = backward_pass(cache, merged, 2.0 * resid / resid.size)
    factor_grads = {}
    gate_grad = 0.0
    for name, (b, a) in adapter.factors.items():
        g = weight_grads[name]
        factor_grads[name] = (gate * (g @ a.T), gate * (b.T @ g))
        gate_grad += float(np.sum(g * (b @ a)))
    d_gate_in = gate_grad * gate * (1.0 - gate)
    return float(np.mean(resid * resid)), factor_grads, (d_gate_in * e_sem, d_gate_in)


def assert_close_relative(actual, expected, rel=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert float(np.abs(actual - expected).max()) <= rel * float(np.abs(expected).max())


class TestLayerRouting:
    def test_overlap_rejected(self):
        with pytest.raises(RoutingViolation):
            LayerRouting(content=("a", "b"), style=("b", "c"))

    def test_default_split_halves(self, backbone):
        routing = default_routing(backbone.names)
        assert routing.content == ("layer1", "layer2")
        assert routing.style == ("layer3", "layer4")
        assert not set(routing.content) & set(routing.style)

    def test_eight_layer_default(self):
        bb = init_backbone(16, 64, 8, seed=0)
        routing = default_routing(bb.names)
        assert routing.content == ("layer1", "layer2", "layer3", "layer4")
        assert routing.style == ("layer5", "layer6", "layer7", "layer8")


class TestAggregateWeights:
    def test_zero_gammas_identity(self, backbone, routing):
        ca = make_adapter("content", backbone, routing, rank=2, seed=1)
        sa = make_adapter("style", backbone, routing, rank=2, seed=2)
        out = aggregate_weights(backbone, ca, sa, 0.0, 0.0, E_ROW)
        for name in backbone.names:
            assert np.array_equal(out.weight(name), backbone.weight(name))

    def test_content_only_leaves_style_layers(self, backbone, routing):
        ca = make_adapter("content", backbone, routing, rank=2, seed=3)
        ca.factors = {
            name: (b, make_rng(0, name).standard_normal(a.shape))
            for name, (b, a) in ca.factors.items()
        }
        out = aggregate_weights(backbone, ca, None, 1.0, 0.0, E_ROW)
        for name in routing.style:
            assert np.array_equal(out.weight(name), backbone.weight(name))
        assert any(
            not np.array_equal(out.weight(name), backbone.weight(name))
            for name in routing.content
        )

    def test_gamma_linearity(self, backbone, routing):
        ca = make_adapter("content", backbone, routing, rank=2, seed=4)
        ca.factors = {
            name: (b, make_rng(1, name).standard_normal(a.shape))
            for name, (b, a) in ca.factors.items()
        }
        deltas = {}
        for gamma in (0.25, 0.5, 1.0):
            out = aggregate_weights(backbone, ca, None, gamma, 0.0, E_ROW)
            deltas[gamma] = {
                name: out.weight(name) - backbone.weight(name)
                for name in routing.content
            }
        for name in routing.content:
            assert np.abs(deltas[0.5][name] - 2.0 * deltas[0.25][name]).max() < 1e-12
            assert np.abs(deltas[1.0][name] - 4.0 * deltas[0.25][name]).max() < 1e-12

    def test_update_rank_bounded(self, backbone, routing):
        ca = make_adapter("content", backbone, routing, rank=2, seed=5)
        ca.factors = {
            name: (b, make_rng(2, name).standard_normal(a.shape))
            for name, (b, a) in ca.factors.items()
        }
        out = aggregate_weights(backbone, ca, None, 0.7, 0.0, E_ROW)
        for name in routing.content:
            assert svd_rank(out.weight(name) - backbone.weight(name)) <= 2

    def test_stray_layer_rejected(self, backbone, routing):
        ca = make_adapter("content", backbone, routing, rank=2, seed=6)
        ca.factors["layer4"] = ca.factors["layer1"]  # style-side layer
        with pytest.raises(RoutingViolation):
            aggregate_weights(backbone, ca, None, 1.0, 0.0, E_ROW)

    def test_negative_gamma_rejected(self, backbone, routing):
        ca = make_adapter("content", backbone, routing, rank=2, seed=7)
        with pytest.raises(ConfigInvalid):
            aggregate_weights(backbone, ca, None, -0.5, 0.0, E_ROW)


class TestAdapterLoss:
    def test_gradients_match_finite_differences(self, backbone, routing, schedule):
        adapter = make_adapter("style", backbone, routing, rank=3, seed=8)
        gen = np.random.default_rng(17)
        adapter = LoraAdapter(
            adapter.kind,
            adapter.rank,
            {
                name: (b, 0.05 * gen.standard_normal(a.shape))
                for name, (b, a) in adapter.factors.items()
            },
            0.1 * gen.standard_normal(64),
            0.3,
            adapter.routing,
        )
        reference = style_render(1, 8)
        e_sem = make_rng(5, "e").standard_normal(64)
        draw = ([7], make_rng(6, "n").standard_normal((1, 8, 8)))
        _, fgrads, (gw, gb) = adapter_loss(backbone, adapter, reference, e_sem, schedule, draw)

        def value(adp):
            loss, _, _ = adapter_loss(backbone, adp, reference, e_sem, schedule, draw)
            return loss

        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(25):
            name = list(adapter.factors)[rng.integers(0, len(adapter.factors))]
            which = int(rng.integers(0, 2))
            mat = adapter.factors[name][which]
            i, j = rng.integers(0, mat.shape[0]), rng.integers(0, mat.shape[1])
            fp = {k: (b.copy(), a.copy()) for k, (b, a) in adapter.factors.items()}
            fm = {k: (b.copy(), a.copy()) for k, (b, a) in adapter.factors.items()}
            fp[name][which][i, j] += h
            fm[name][which][i, j] -= h
            plus = LoraAdapter(
                adapter.kind, adapter.rank, fp, adapter.gate_w, adapter.gate_b, adapter.routing
            )
            minus = LoraAdapter(
                adapter.kind, adapter.rank, fm, adapter.gate_w, adapter.gate_b, adapter.routing
            )
            fd = (value(plus) - value(minus)) / (2 * h)
            an = fgrads[name][which][i, j]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

        bp = LoraAdapter(
            adapter.kind, adapter.rank, adapter.factors, adapter.gate_w, adapter.gate_b + h, adapter.routing
        )
        bm = LoraAdapter(
            adapter.kind, adapter.rank, adapter.factors, adapter.gate_w, adapter.gate_b - h, adapter.routing
        )
        fd = (value(bp) - value(bm)) / (2 * h)
        assert abs(fd - gb) <= 1e-4 * max(abs(fd), abs(gb), 1e-8)

    def test_out_of_set_gradients_exactly_zero(self, backbone, routing, schedule):
        adapter = make_adapter("style", backbone, routing, rank=2, seed=10)
        reference = style_render(0, 8)
        e_sem = make_rng(7, "e").standard_normal(64)
        draw = ([3], make_rng(8, "n").standard_normal((1, 8, 8)))
        _, fgrads, _ = adapter_loss(backbone, adapter, reference, e_sem, schedule, draw)
        # layers outside the set are frozen: they carry no gradient at all
        assert set(fgrads) == set(routing.style)

    @pytest.mark.parametrize("kind", ["content", "style"])
    def test_batch_of_draws_is_the_mean_of_single_draws(self, backbone, routing, schedule, kind):
        adapter = generic_adapter(backbone, routing, kind, seed=18)
        reference = style_render(1, 8)
        e_sem = make_rng(9, "e").standard_normal(64)
        ts = [3, 17, 17, 50]
        noises = make_rng(10, "n").standard_normal((4, 8, 8))
        loss, fgrads, (gw, gb) = adapter_loss(
            backbone, adapter, reference, e_sem, schedule, (ts, noises)
        )
        singles = [
            adapter_loss(backbone, adapter, reference, e_sem, schedule, ([t], noise[None]))
            for t, noise in zip(ts, noises)
        ]
        assert_close_relative(loss, np.mean([s[0] for s in singles]))
        for name, (d_down, d_up) in fgrads.items():
            assert_close_relative(d_down, np.mean([s[1][name][0] for s in singles], axis=0))
            assert_close_relative(d_up, np.mean([s[1][name][1] for s in singles], axis=0))
        assert_close_relative(gw, np.mean([s[2][0] for s in singles], axis=0))
        assert_close_relative(gb, np.mean([s[2][1] for s in singles]))

    @pytest.mark.parametrize("kind", ["content", "style"])
    def test_matches_the_merged_reference(self, backbone, routing, schedule, kind):
        adapter = generic_adapter(backbone, routing, kind, seed=19)
        reference = content_render(2, 8)
        e_sem = make_rng(11, "e").standard_normal(64)
        t, noise = 23, make_rng(12, "n").standard_normal((8, 8))
        loss, fgrads, (gw, gb) = adapter_loss(
            backbone, adapter, reference, e_sem, schedule, ([t], noise[None])
        )
        ref_loss, ref_grads, (ref_gw, ref_gb) = merged_adapter_loss(
            backbone, adapter, reference, e_sem, schedule, (t, noise)
        )
        assert_close_relative(loss, ref_loss)
        assert set(fgrads) == set(ref_grads)
        for name, (d_down, d_up) in fgrads.items():
            assert_close_relative(d_down, ref_grads[name][0])
            assert_close_relative(d_up, ref_grads[name][1])
        assert_close_relative(gw, ref_gw)
        assert_close_relative(gb, ref_gb)


class TestLoraTrainer:
    def test_marker_required(self, backbone):
        with pytest.raises(MarkerMissing):
            LoraTrainer("content", steps=1).fit(backbone, content_render(0, 8), "no markers here")
        with pytest.raises(MarkerMissing):
            LoraTrainer("style", steps=1).fit(backbone, style_render(0, 8), "only content <c>")

    def test_settings_checked_at_construction(self):
        with pytest.raises(ConfigInvalid):
            LoraTrainer("content", steps=-1)
        with pytest.raises(ConfigInvalid):
            LoraTrainer("texture")

    def test_zero_steps_keeps_initialization(self, backbone, routing):
        trainer = LoraTrainer("content", rank=2, steps=0, routing=routing, seed=11)
        trainer.fit(backbone, content_render(0, 8), "a filled disc <c>")
        ref = make_adapter("content", backbone, routing, rank=2, seed=11)
        for name in ref.factors:
            assert np.array_equal(trainer.adapter_.factors[name][0], ref.factors[name][0])
            assert np.array_equal(trainer.adapter_.factors[name][1], ref.factors[name][1])

    def test_masking_holds_every_step(self, backbone, routing):
        records = []
        host_bytes = [w.tobytes() for _, w in backbone.items()]

        def on_step(step, grads, loss):
            records.append(set(grads))

        trainer = LoraTrainer(
            "style", rank=2, steps=25, routing=routing, seed=12, on_step=on_step
        )
        trainer.fit(backbone, style_render(2, 8), "in checker style <s>")
        # every step computes gradients for the style layers and no others,
        # and the host is never written
        assert records == [set(routing.style)] * 25
        assert [w.tobytes() for _, w in backbone.items()] == host_bytes

    def test_fit_builds_no_backbone(self, backbone, routing, monkeypatch):
        built = []
        real_init = Backbone.__init__

        def counting_init(self, layers):
            built.append(1)
            real_init(self, layers)

        monkeypatch.setattr(Backbone, "__init__", counting_init)
        LoraTrainer("style", rank=2, steps=5, batch_size=3, routing=routing, seed=15).fit(
            backbone, style_render(2, 8), "in checker style <s>"
        )
        assert built == []
        # the counter does see a merge
        aggregate_weights(
            backbone, None, make_adapter("style", backbone, routing, 2), 0.0, 1.0, E_ROW
        )
        assert built == [1]

    def test_non_finite_last_update_is_numerical_error(self, backbone, routing, monkeypatch):
        # the last step's loss is finite, so only the check after the loop
        # can see the update it makes; the adapter must not be returned
        import craftlora.adapters

        calls = []

        def last_gradient_nan(*args):
            loss, factor_grads, gate_grads = adapter_loss(*args)
            calls.append(1)
            if len(calls) == 6:
                factor_grads["layer1"][1][0, 0] = np.nan
            return loss, factor_grads, gate_grads

        monkeypatch.setattr(craftlora.adapters, "adapter_loss", last_gradient_nan)
        trainer = LoraTrainer("content", rank=2, steps=6, routing=routing, seed=16)
        with pytest.raises(NumericalError, match="adapter parameters are non-finite"):
            trainer.fit(backbone, content_render(1, 8), "a hollow ring <c>")
        assert len(calls) == 6
        assert not hasattr(trainer, "adapter_")

    def test_determinism(self, backbone, routing):
        runs = []
        for _ in range(2):
            trainer = LoraTrainer("content", rank=2, steps=20, routing=routing, seed=14)
            trainer.fit(backbone, content_render(1, 8), "a hollow ring <c>")
            runs.append(trainer.adapter_)
        for name in runs[0].factors:
            assert np.array_equal(runs[0].factors[name][0], runs[1].factors[name][0])
            assert np.array_equal(runs[0].factors[name][1], runs[1].factors[name][1])
        assert np.array_equal(runs[0].gate_w, runs[1].gate_w)
        assert runs[0].gate_b == runs[1].gate_b
