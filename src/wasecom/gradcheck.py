"""Finite-difference verification of reverse-mode gradients.

Every graph is expressed as a forward() closure over a list of leaf arrays.
Autodiff gradients come from one backward pass; the reference comes from
central differences evaluated with pure forward passes, so the two routes
share no gradient code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .objectives import lse_combine
from .tensor import Tensor


@dataclass
class GradCheckResult:
    name: str
    n_params: int
    max_abs_err: float
    max_rel_err: float
    ok: bool


def numeric_gradients(forward, leaves: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of a scalar forward map, one leaf at a time.

    The forward passes share one Tensor per leaf over a working copy, bumped
    in place and restored by assignment after each element.
    """
    params = [Tensor(a.copy()) for a in leaves]
    grads = []
    for leaf, param in zip(leaves, params):
        g = np.zeros_like(leaf)
        flat, work, orig = g.reshape(-1), param.data.reshape(-1), leaf.reshape(-1)
        for i in range(leaf.size):
            work[i] += h
            hi = float(forward(params).data)
            work[i] -= 2 * h
            lo = float(forward(params).data)
            work[i] = orig[i]
            flat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def check_case(name, forward, leaves, rel_tol=1e-4, abs_tol=1e-6, h=1e-5) -> GradCheckResult:
    params = [Tensor(a.copy(), requires_grad=True) for a in leaves]
    out = forward(params)
    out.backward()
    auto = [p.grad.copy() for p in params]
    ref = numeric_gradients(forward, leaves, h=h)
    max_abs = 0.0
    max_rel = 0.0
    ok = True
    for ga, gn in zip(auto, ref):
        diff = np.abs(ga - gn)
        scale = np.maximum(np.abs(ga), np.abs(gn))
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(scale > 0, diff / scale, 0.0)
        max_rel = max(max_rel, float(rel.max(initial=0.0)))
        if not np.all(diff <= abs_tol + rel_tol * scale):
            ok = False
    n_params = sum(a.size for a in leaves)
    return GradCheckResult(name, n_params, max_abs, max_rel, ok)


# --------------------------------------------------------------- graph pool
# Each case builds its constant Tensors once; every probe's forward pass reuses them.
def _mlp_case(rng):
    b, din, dh, dout = rng.integers(2, 5), rng.integers(2, 6), rng.integers(2, 7), rng.integers(2, 5)
    x = Tensor(rng.normal(size=(b, din)))
    tgt = Tensor(rng.normal(size=(b, dout)))
    act = rng.choice(["tanh", "relu"])
    leaves = [
        rng.normal(size=(din, dh)) * 0.6,
        rng.normal(size=(dh,)) * 0.1,
        rng.normal(size=(dh, dout)) * 0.6,
        rng.normal(size=(dout,)) * 0.1,
    ]

    def forward(p):
        # first layer fused, second as the matmul + add chain: both forms stay checked
        h = T.dense(x, p[0], p[1], act)
        y = T.matmul(h, p[2]) + p[3]
        err = (y - tgt).square().mean(axis=1)
        return err.mean()

    return f"mlp-{act}", forward, leaves


def _elementwise_case(rng):
    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    c = rng.normal(size=shape[1])  # broadcast along rows
    k = float(rng.uniform(0.5, 2.0))
    leaves = [a, b, c]
    ones = Tensor(np.ones(shape))

    def forward(p):
        u = p[0] * p[1] + T.scale(p[2], k)
        v = u.tanh().square() + T.exp(T.scale(u, -0.5))
        w = T.log(v.square() + ones)
        return w.sum(axis=0).mean()

    return "elementwise", forward, leaves


def _channel_case(rng):
    # power-normalized signal through h*u + w with a fixed channel draw
    b, din, dsig = int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(3, 6))
    x = Tensor(rng.normal(size=(b, din)))
    hch = np.repeat(rng.rayleigh(scale=1 / np.sqrt(2), size=(b, 1)), dsig, axis=1)
    wch = rng.normal(scale=0.3, size=(b, dsig))
    leaves = [rng.normal(size=(din, dsig)) * 0.7, rng.normal(size=(dsig, din)) * 0.7]

    def forward(p):
        # the fused power normalization, channel and row loss; their chain forms
        # stay checked by the mlp, elementwise and reduction cases
        u = T.rms_normalize(T.matmul(x, p[0]), 1e-12)
        z = T.scale_shift(u, hch, wch)
        xhat = T.matmul(z, p[1])
        return T.row_mse(xhat, x).mean()

    return "channel-layer", forward, leaves


def _lse_case(rng):
    # smoothed worst case over K perturbed copies, the LSE training objective:
    # the K copies are scored in one stacked pass and combined by lse_combine
    b, din, k = int(rng.integers(2, 4)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
    eps = float(rng.choice([1.0, 0.1]))
    lam = float(rng.uniform(0.2, 2.0))
    x = rng.normal(size=(b, din))
    deltas = rng.normal(scale=0.3, size=(k, b, din))   # the same draws as k (b, din) calls
    leaves = [rng.normal(size=(din, din)) * 0.7, rng.normal(size=(din,)) * 0.1]
    xt = Tensor((x + deltas).reshape(k * b, din))
    cost = Tensor(np.sum(deltas**2, axis=2))

    def forward(p):
        y = T.matmul(xt, p[0]) + p[1]
        ls = (y - xt).square().mean(axis=1).reshape(k, b)
        return lse_combine(ls - T.scale(cost, lam), eps).mean()

    return "lse-objective", forward, leaves


def _embedding_case(rng):
    vocab, emb, n, classes = int(rng.integers(4, 9)), int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(3, 6))
    ids = rng.integers(0, vocab, size=n)
    targets = rng.integers(0, classes, size=n)
    leaves = [rng.normal(size=(vocab, emb)) * 0.5, rng.normal(size=(emb, classes)) * 0.7]

    def forward(p):
        e = T.gather_rows(p[0], ids)
        logits = T.matmul(e, p[1])
        nll = T.logsumexp(logits) - T.select_columns(logits, targets)
        return nll.mean()

    return "embedding-ce", forward, leaves


def _reduction_case(rng):
    b, t, d = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    leaves = [rng.normal(size=(b * t, d))]
    axis = int(rng.integers(0, 2))
    ones, one = Tensor(np.ones((b, t * d))), Tensor(1.0)

    def forward(p):
        y = p[0].reshape(b, t * d)
        y = (y + ones).square()
        z = y.sum(axis=axis)
        return T.power(z.mean() + one, 0.5) + T.scale((-p[0]).relu().sum(), 0.25)

    return "reshape-reduce", forward, leaves


_CASES = [_mlp_case, _elementwise_case, _channel_case, _lse_case, _embedding_case, _reduction_case]


def random_graph_suite(n_graphs=50, seed=0, rel_tol=1e-4, abs_tol=1e-6) -> list[GradCheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    for g in range(n_graphs):
        make = _CASES[g % len(_CASES)]
        name, forward, leaves = make(rng)
        results.append(check_case(f"{g:02d}-{name}", forward, leaves, rel_tol, abs_tol))
    return results
