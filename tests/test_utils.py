import math

import numpy as np
import pytest

from craftlora.config import AdapterSettings
from craftlora.exceptions import NumericalError
from craftlora.utils import DIVERGENCE_FACTOR, lr_at, train_loop

RATES = AdapterSettings(peak_lr=1e-2, start_lr=1e-4, floor_lr=1e-5, warmup=3)


class RecordingOptimizer:
    """The optimizer interface of ``train_loop``: ``step(grads, lr)`` and a
    ``flat`` buffer; ``on_step`` may change the buffer."""

    def __init__(self, size=2, on_step=None):
        self.flat = np.zeros(size)
        self.steps = []
        self.on_step = on_step

    def step(self, grads, lr):
        self.steps.append((grads, lr))
        if self.on_step is not None:
            self.on_step(self)


class TestTrainLoop:
    def test_each_update_gets_its_steps_rate_in_order(self):
        losses = [4.0, 3.0, 2.5, 2.0, 1.0, 0.5, 0.25, 0.125]
        events = []
        counter = iter(range(len(losses)))

        def step():
            i = next(counter)
            events.append(("step", i))
            return losses[i], f"grads{i}"

        optimizer = RecordingOptimizer(
            on_step=lambda opt: events.append(("update",) + opt.steps[-1])
        )
        history = train_loop("toy", RATES, len(losses), step, optimizer)
        assert history == losses
        expected = []
        for i in range(len(losses)):
            lr = lr_at(i, len(losses), RATES.peak_lr, RATES.start_lr, RATES.floor_lr, RATES.warmup)
            expected += [("step", i), ("update", f"grads{i}", lr)]
        assert events == expected

    def test_zero_steps_return_an_empty_history(self):
        def never(*args):
            raise AssertionError("no step should run")

        optimizer = RecordingOptimizer()
        optimizer.step = never
        assert train_loop("toy", RATES, 0, never, optimizer) == []

    @pytest.mark.parametrize(
        "losses, bad_step",
        [
            ([math.nan], 0),
            ([math.inf], 0),
            ([1.0, 2.0, -math.inf], 2),
            ([1.0, 0.5, math.nan], 2),
            ([2.0, 1.0, DIVERGENCE_FACTOR * 2.0 * 1.001], 2),
        ],
        ids=["nan-first", "inf-first", "minus-inf", "nan-later", "runaway"],
    )
    def test_bad_loss_raises_before_its_update(self, losses, bad_step):
        loss_iter = iter(losses)
        optimizer = RecordingOptimizer()
        with pytest.raises(NumericalError, match=f"^toy loss diverged at step {bad_step}$"):
            train_loop("toy", RATES, 10, lambda: (next(loss_iter), None), optimizer)
        assert len(optimizer.steps) == bad_step

    def test_loss_at_the_divergence_bound_is_kept(self):
        losses = iter([2.0, DIVERGENCE_FACTOR * 2.0])
        history = train_loop(
            "toy", RATES, 2, lambda: (next(losses), None), RecordingOptimizer()
        )
        assert history == [2.0, DIVERGENCE_FACTOR * 2.0]

    def test_non_finite_parameter_after_the_last_update_raises(self):
        def poison_fourth(opt):
            if len(opt.steps) == 4:
                opt.flat[5] = np.inf

        optimizer = RecordingOptimizer(size=7, on_step=poison_fourth)
        with pytest.raises(
            NumericalError, match="^toy parameters are non-finite after the last update$"
        ):
            train_loop("toy", RATES, 4, lambda: (1.0, None), optimizer)
        assert len(optimizer.steps) == 4
