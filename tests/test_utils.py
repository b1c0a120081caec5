import math

import numpy as np
import pytest

from craftlora.config import AdapterSettings
from craftlora.exceptions import NumericalError
from craftlora.utils import DIVERGENCE_FACTOR, lr_at, train_loop

RATES = AdapterSettings(peak_lr=1e-2, start_lr=1e-4, floor_lr=1e-5, warmup=3)


class TestTrainLoop:
    def test_each_update_gets_its_steps_rate_in_order(self):
        losses = [4.0, 3.0, 2.5, 2.0, 1.0, 0.5, 0.25, 0.125]
        events = []
        counter = iter(range(len(losses)))

        def step():
            i = next(counter)
            events.append(("step", i))
            return losses[i], f"grads{i}"

        def update(grads, lr):
            events.append(("update", grads, lr))

        history = train_loop("toy", RATES, len(losses), step, update, [np.zeros(3)])
        assert history == losses
        expected = []
        for i in range(len(losses)):
            lr = lr_at(i, len(losses), RATES.peak_lr, RATES.start_lr, RATES.floor_lr, RATES.warmup)
            expected += [("step", i), ("update", f"grads{i}", lr)]
        assert events == expected

    def test_zero_steps_return_an_empty_history(self):
        def never(*args):
            raise AssertionError("no step should run")

        assert train_loop("toy", RATES, 0, never, never, [np.zeros(2)]) == []

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
        updates = []
        with pytest.raises(NumericalError, match=f"^toy loss diverged at step {bad_step}$"):
            train_loop(
                "toy", RATES, 10, lambda: (next(loss_iter), None),
                lambda grads, lr: updates.append(lr), [np.zeros(2)],
            )
        assert len(updates) == bad_step

    def test_loss_at_the_divergence_bound_is_kept(self):
        losses = iter([2.0, DIVERGENCE_FACTOR * 2.0])
        history = train_loop(
            "toy", RATES, 2, lambda: (next(losses), None), lambda grads, lr: None, [np.zeros(2)]
        )
        assert history == [2.0, DIVERGENCE_FACTOR * 2.0]

    def test_non_finite_parameter_after_the_last_update_raises(self):
        params = [np.zeros(3), np.zeros((2, 2))]
        updates = []

        def update(grads, lr):
            updates.append(lr)
            if len(updates) == 4:
                params[1][1, 0] = np.inf

        with pytest.raises(
            NumericalError, match="^toy parameters are non-finite after the last update$"
        ):
            train_loop("toy", RATES, 4, lambda: (1.0, None), update, params)
        assert len(updates) == 4
