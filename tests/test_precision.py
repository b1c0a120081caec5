"""Each trainer's working precision: the base denoiser and the adapters
train in float32, the precision checkpoints store; the trunk, whose
Cholesky projector needs the headroom, stays float64."""

import numpy as np
import pytest

from craftlora import denoiser, subspace
from craftlora.adapters import LoraTrainer, default_routing
from craftlora.denoiser import DenoiserTrainer, init_backbone
from craftlora.pairs import generate_pair_dataset, style_render
from craftlora.prompts import EMB_DIM
from craftlora.subspace import TrunkFinetuner
from craftlora.utils import make_rng

STEPS = 3


@pytest.fixture()
def pass_dtypes(monkeypatch):
    """One set per ``forward_pass`` or ``backward_pass`` call: the dtypes of
    every array it takes and returns, weights, cache and gradients included.
    Both bindings are wrapped, the one the noise-matching objective calls
    and the one the trunk imports."""
    seen = []
    real_forward, real_backward = denoiser.forward_pass, denoiser.backward_pass

    def forward(x, t, cond, backbone, terms=None):
        pred, cache = real_forward(x, t, cond, backbone, terms)
        arrays = [x, pred, *cache, *(w for _, w in backbone.items())]
        for term in (terms or {}).values():
            arrays.extend(term)
        seen.append({a.dtype for a in arrays})
        return pred, cache

    def backward(cache, backbone, d_out, terms=None):
        grads = real_backward(cache, backbone, d_out, terms)
        arrays = [d_out]
        for grad in grads.values():
            arrays.extend(grad if isinstance(grad, tuple) else (grad,))
        seen.append({a.dtype for a in arrays})
        return grads

    for module in (denoiser, subspace):
        monkeypatch.setattr(module, "forward_pass", forward)
        monkeypatch.setattr(module, "backward_pass", backward)
    return seen


def test_base_denoiser_trains_in_float32(pass_dtypes):
    rng = make_rng(40)
    images = rng.random((4, 8, 8))
    embeddings = rng.standard_normal((4, EMB_DIM))  # float64, cast once by the fit
    trainer = DenoiserTrainer(image_size=8, hidden_width=16, n_layers=3, steps=STEPS, seed=1)
    trainer.fit(images, embeddings)
    assert pass_dtypes == [{np.dtype(np.float32)}] * (2 * STEPS)
    assert all(w.dtype == np.float64 for _, w in trainer.backbone_.items())


@pytest.mark.parametrize("kind", ["content", "style"])
def test_adapter_trains_in_float32(pass_dtypes, kind):
    host = init_backbone(image_size=8, hidden_width=16, n_layers=4, seed=2)
    trainer = LoraTrainer(kind, rank=2, steps=STEPS, routing=default_routing(host.names), seed=3)
    marker = "<c>" if kind == "content" else "<s>"
    trainer.fit(host, style_render(1, 8), f"in checker style {marker}")
    assert pass_dtypes == [{np.dtype(np.float32)}] * (2 * STEPS)
    adapter = trainer.adapter_
    assert adapter.gate_w.dtype == np.float32 and isinstance(adapter.gate_b, float)
    assert all(w.dtype == np.float64 for _, w in host.items())


def test_trunk_trains_in_float64(pass_dtypes):
    host = init_backbone(image_size=8, hidden_width=16, n_layers=3, seed=4)
    tuner = TrunkFinetuner(steps=STEPS, r_max=4, r_min=2, batch_size=2, seed=5)
    tuner.fit(host, generate_pair_dataset(2, 2, seed=0, size=8))
    assert pass_dtypes == [{np.dtype(np.float64)}] * (2 * STEPS)
    assert all(s.dtype == np.float64 for s in tuner.bases_.stacks.values())
