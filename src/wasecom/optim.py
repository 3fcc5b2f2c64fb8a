"""Plain SGD and Adam over lists of parameter tensors.

An optimizer owns its group's storage: at construction it copies the
parameter values into one flat float64 buffer and the gradients into a
second, and rebinds each parameter's `data` and `grad` to reshaped views of
them.  A step is then a handful of whole-buffer numpy calls, whatever the
number of parameters.  The updates are elementwise, so the numbers are those
of one update per parameter.  Everything else writes parameters in place and
keeps working on the views; a parameter belongs to one optimizer at a time
(building a second one over it rebinds it to the new buffers).
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _flatten(params: list[Tensor]):
    """Move the group's values and gradients into two flat buffers; rebind views."""
    if len({id(p) for p in params}) != len(params):
        raise ValueError("optimizer: a parameter is listed more than once")
    for p in params:
        if p.grad is None:
            raise ValueError("optimizer: parameter has no gradient buffer (requires_grad is False?)")
    sizes = [p.data.size for p in params]
    data, grad = np.empty(sum(sizes)), np.empty(sum(sizes))
    start = 0
    for p, n in zip(params, sizes):
        shape = p.data.shape
        for flat, name in ((data, "data"), (grad, "grad")):
            view = flat[start:start + n].reshape(shape)
            view[...] = getattr(p, name)
            setattr(p, name, view)
        start += n
    return data, grad


class Sgd:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.data, self.grad = _flatten(self.params)
        self.lr = float(lr)

    def step(self):
        self.data -= self.lr * self.grad

    def zero_grad(self):
        self.grad.fill(0.0)


class Adam:
    def __init__(self, params: list[Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.data, self.grad = _flatten(self.params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._scratch = (np.empty_like(self.data), np.empty_like(self.data))

    def step(self):
        """m, v and the update as in data -= lr * (m / b1t) / (sqrt(v / b2t) + eps),
        each operation in that order, with the temporaries in two scratch buffers."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g, m, v = self.grad, self.m, self.v
        s, r = self._scratch
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        np.divide(m, b1t, out=s)
        s *= self.lr
        np.divide(v, b2t, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        s /= r
        self.data -= s

    def zero_grad(self):
        self.grad.fill(0.0)
