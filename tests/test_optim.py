import numpy as np
import pytest

from craftlora.optim import Adam


class PerArrayAdam:
    """The textbook per-array Adam that the flat buffer must reproduce:
    fresh arrays every step, state keyed by parameter name."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params, grads, lr):
        # Python-float constants keep a float32 array's arithmetic in float32
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        out = {}
        for name, value in params.items():
            g = np.asarray(grads[name], dtype=value.dtype)  # as the optimizer copies it in
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(value)
                self._v[name] = np.zeros_like(value)
            v = self._v[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            out[name] = value - lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        return out


# mixed shapes, including the adapter gate's 0-d bias
SHAPES = {
    "layer.down": (7, 3), "layer.up": (3, 5), "gate.w": (11,), "gate.b": (), "cube": (2, 3, 4),
}


@pytest.mark.parametrize(
    "seed, dtype",
    [(seed, dtype) for dtype in (np.float64, np.float32) for seed in (0, 1, 2)],
    # the float64 cases keep the ids they had before float32 joined them
    ids=[f"{seed}{suffix}" for suffix in ("", "-float32") for seed in (0, 1, 2)],
)
def test_flat_in_place_adam_matches_the_per_array_update_bit_for_bit(seed, dtype):
    # the oracle runs in the params' dtype too: same bytes, no tolerance
    rng = np.random.default_rng(seed)
    params = {
        name: np.asarray(rng.standard_normal(shape), dtype=dtype) for name, shape in SHAPES.items()
    }
    reference = PerArrayAdam()
    flat = Adam(params)
    views = flat.params
    assert flat.flat.dtype == dtype
    for name, value in params.items():
        assert views[name].shape == value.shape
        assert views[name].dtype == dtype
        assert np.array_equal(views[name], value)
    expected = params
    for step in range(60):
        # gradient scales spanning several decades, and a learning rate
        # that changes every step
        grads = {
            name: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
            for name, shape in SHAPES.items()
        }
        grads["gate.b"] = float(grads["gate.b"])  # a trainer's scalar gradient
        lr = float(10.0 ** rng.uniform(-5, -1))
        expected = reference.step(expected, grads, lr)
        flat.step(grads, lr)
        for name in SHAPES:
            assert np.asarray(expected[name]).dtype == dtype
            assert views[name].tobytes() == np.asarray(expected[name]).tobytes(), (step, name)


def test_views_share_one_buffer_and_inputs_are_copied():
    params = {"a": np.ones((2, 2)), "b": np.zeros(3)}
    opt = Adam(params)
    assert opt.flat.size == 7
    assert all(np.shares_memory(view, opt.flat) for view in opt.params.values())
    opt.step({"a": np.ones((2, 2)), "b": np.ones(3)}, 0.1)
    assert np.array_equal(params["a"], np.ones((2, 2)))
    assert np.all(opt.params["a"] < 1.0) and np.all(opt.params["b"] < 0.0)


@pytest.mark.parametrize(
    "params, dtype",
    [
        ({"a": np.ones(2, np.float32), "b": np.zeros((2, 2), np.float32)}, np.float32),
        ({"a": np.ones(2, np.float32), "b": np.zeros((2, 2))}, np.float64),
        ({"a": np.ones(2, np.float32), "b": 0.5}, np.float64),  # a Python float is float64
        ({"a": np.ones(2, np.float32), "b": np.float32(0.5)}, np.float32),
        ({"a": np.arange(3)}, np.float64),
    ],
    ids=["all-float32", "one-float64-array", "python-float", "float32-scalar", "integers"],
)
def test_buffer_is_float32_only_when_every_param_is(params, dtype):
    opt = Adam(params)
    for buf in (opt.flat, opt._grad, opt._m, opt._v, opt._scratch):
        assert buf.dtype == dtype
    for name, value in params.items():
        assert opt.params[name].dtype == dtype
        assert np.array_equal(opt.params[name], np.asarray(value, dtype=dtype))
    # float64 gradients are cast as they are copied in, and the step stays in dtype
    opt.step({name: np.ones(np.shape(value)) for name, value in params.items()}, 0.1)
    assert opt.flat.dtype == dtype
