"""Small deterministic optimizers for the training loops."""

import numpy as np

from .validation import float_dtype

# Adam's decay rates of the first and second moment and its denominator floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam over named arrays held in one flat buffer.

    The constructor copies ``params`` (name -> array of any shape, 0-d
    included) into the buffer, and ``params`` then maps each name to a view
    of it with the array's shape. A trainer builds its model from these
    views once; ``step`` copies a step's gradients in and updates the
    buffer in place, so the model sees every update without a rebuild.
    The buffer, the moments and the scratch take the params' dtype: float32
    when every param is a float32 array, else float64 (a Python float or
    one float64 array among float32 ones makes the whole buffer float64).
    Gradients are cast to it as they are copied in.
    """

    def __init__(self, params):
        arrays = {name: np.asarray(value) for name, value in params.items()}
        dtype = float_dtype(*arrays.values())
        size = sum(a.size for a in arrays.values())
        self.flat = np.empty(size, dtype)
        self._grad = np.empty(size, dtype)
        self._m = np.zeros(size, dtype)
        self._v = np.zeros(size, dtype)
        self._scratch = np.empty(size, dtype)
        self.params = {}
        self._grads = {}
        offset = 0
        for name, a in arrays.items():
            span = slice(offset, offset + a.size)
            self.params[name] = self.flat[span].reshape(a.shape)
            self.params[name][...] = a
            self._grads[name] = self._grad[span].reshape(a.shape)
            offset += a.size
        self._t = 0

    def step(self, grads, lr):
        """Copy in ``grads`` (name -> array shaped like the parameter) and
        update every parameter in place.

        The arithmetic is the textbook per-array update, term by term:
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        p - lr (m / bias1) / (sqrt(v / bias2) + eps).
        """
        for name, buf in self._grads.items():
            buf[...] = grads[name]
        self._t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        g, m, v, tmp = self._grad, self._m, self._v, self._scratch
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        upd = np.divide(m, bias1, out=g)  # the gradient is spent: reuse its buffer
        upd *= lr
        upd /= tmp
        self.flat -= upd
