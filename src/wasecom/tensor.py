"""Reverse-mode automatic differentiation on float64 numpy arrays.

Graphs are built define-by-run: every op computes its value and builds its
result through `_node`, which puts it on the tape only when a parent needs a
graph.  A node remembers its parents and a closure `_bw(g)` that takes the
node's gradient and routes it to them; the closure never refers to the result
itself, so a graph holds no reference cycle and is freed by refcount as soon
as it is dropped.  backward() walks the interior nodes (those with parents)
once in reverse topological order; leaves have no backward and are not on
that list.  A closure holds only the arrays its backward reads: an op that
needs a temporary to compute its value lets it go once the value is built, so
a tape keeps no more memory alive than its gradients need.

The hot chains are fused into single nodes whose values and gradients are
those of the op chain bit for bit: `dense` (matmul, bias, activation),
`rms_normalize`, `scale_shift`, `row_mse`, `token_nll` (the text loss,
log-sum-exp minus the target logit, averaged per sequence) and `row_sq_dist`
(a per-row squared distance to a constant).  A graph holds fewer nodes, and
on tiny arrays each node's Python dispatch costs more than its arithmetic.

An interior node keeps the first gradient written to it as is, so interior
gradients may share arrays with each other (an `add` hands its own gradient
to its operands) and may be read-only broadcast views.  None of them is ever
written in place: a later write builds a new array.  Only a leaf's own
gradient buffer, which may be a view of an optimizer's flat buffer, is
accumulated in place.
"""
from __future__ import annotations

import ctypes
import sys

import numpy as np

# glibc's mallopt parameter number for M_TOP_PAD (malloc.h), and the pad: the
# free memory kept mapped at the top of the heap when it is trimmed.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 16 << 20


def _keep_freed_heap_mapped() -> None:
    """Ask glibc to keep 16 MiB of freed heap mapped instead of trimming it.

    A training step builds and drops tapes of (B, H) arrays; with the default
    pad glibc returns the freed top of the heap to the kernel when a tape is
    dropped, and the next tape faults every page back in.  A no-op where the
    C library is not glibc or cannot be loaded.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_freed_heap_mapped()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None
        self._backward_ran = False

    # ------------------------------------------------------------------ misc
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        if self._parents:
            self.grad = None  # may be another node's array: drop it, never write it
        elif self.grad is not None:
            self.grad[...] = 0.0
        self._backward_ran = False

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g
        elif self._parents:
            self.grad = self.grad + g
        else:
            self.grad += g

    # ------------------------------------------------------------ structural
    def backward(self):
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if self._backward_ran:
            raise RuntimeError("backward already ran for this graph; zero grads and rebuild the forward pass")
        order = _topological_order(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            node._backward(node.grad)
        self._backward_ran = True

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # convenience method forms
    def relu(self):
        return relu(self)

    def tanh(self):
        return tanh(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def square(self):
        return square(self)

    def pow(self, exponent: float):
        return power(self, exponent)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)

    def reshape(self, *shape):
        return reshape(self, shape)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _topological_order(root: Tensor):
    """The interior nodes reachable from root, each after all of its parents."""
    # Iterative DFS so very deep graphs cannot hit the recursion limit.
    if not root._parents:
        return []
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._parents and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _needs_graph(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


_FLOAT64 = np.dtype(np.float64)


def _node(data, parents: tuple, backward) -> Tensor:
    """The op result: on the tape with `backward` if any parent needs a graph.

    A float64 ndarray is the array Tensor() would hold, so the result takes it
    as is, without the constructor's asarray.
    """
    if data.__class__ is np.ndarray and data.dtype is _FLOAT64:
        out = object.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._backward_ran = False
    else:
        out = Tensor(data)
    for p in parents:
        if p.requires_grad or p._parents:
            out._parents = parents
            out._backward = backward
            return out
    out._parents = ()
    out._backward = None
    return out


def _keepdims_shape(shape: tuple, axis: int) -> tuple:
    """`shape` with the reduced axis kept as 1, for reshaping a reduction's gradient."""
    kept = list(shape)
    kept[axis] = 1
    return tuple(kept)


def _reduce_grad_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's original shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = np.add.reduce(g, keep, keepdims=True)
    return g.reshape(shape)


def _incompatible(op: str, a: Tensor, b: Tensor) -> ValueError:
    return ValueError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")


# ---------------------------------------------------------------------- ops
def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise _incompatible("add", a, b) from None

    def _bw(g):
        if _needs_graph(a):
            a._accumulate(_reduce_grad_to(g, a.data.shape))
        if _needs_graph(b):
            b._accumulate(_reduce_grad_to(g, b.data.shape))

    return _node(data, (a, b), _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise _incompatible("sub", a, b) from None

    def _bw(g):
        if _needs_graph(a):
            a._accumulate(_reduce_grad_to(g, a.data.shape))
        if _needs_graph(b):
            b._accumulate(_reduce_grad_to(-g, b.data.shape))

    return _node(data, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise _incompatible("mul", a, b) from None

    def _bw(g):
        if _needs_graph(a):
            a._accumulate(_reduce_grad_to(g * b.data, a.data.shape))
        if _needs_graph(b):
            b._accumulate(_reduce_grad_to(g * a.data, b.data.shape))

    return _node(data, (a, b), _bw)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    data = a.data * k

    def _bw(g):
        a._accumulate(g * k)

    return _node(data, (a,), _bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _incompatible("matmul", a, b)
    data = a.data @ b.data

    def _bw(g):
        if _needs_graph(a):
            a._accumulate(g @ b.data.T)
        if _needs_graph(b):
            b._accumulate(a.data.T @ g)

    return _node(data, (a, b), _bw)


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str | None = None) -> Tensor:
    """activation(x @ w + b) as one node: "tanh", "relu" or None (linear).

    The float operations are those of the matmul -> add -> activation chain,
    in the same order, so values and gradients match the chain bit for bit.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise _incompatible("matmul", x, w)
    if activation not in (None, "tanh", "relu"):
        raise ValueError(f"dense: unknown activation {activation!r}")
    # one array, written in place: the closure keeps the output and nothing else
    y = x.data @ w.data
    try:
        np.add(y, b.data, out=y)
    except ValueError:
        raise ValueError(f"add: incompatible shapes {y.shape} and {b.data.shape}") from None
    if activation == "tanh":
        np.tanh(y, out=y)
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)

    def _bw(g):
        if activation == "tanh":
            dy = y * y
            np.subtract(1.0, dy, out=dy)
            g = np.multiply(g, dy, out=dy)  # g may be a read-only view: never written
        elif activation == "relu":
            g = g * (y > 0)  # y > 0 exactly where the pre-activation is (NaN and -0.0 too)
        if _needs_graph(b):
            b._accumulate(_reduce_grad_to(g, b.data.shape))
        if _needs_graph(x):
            x._accumulate(g @ w.data.T)
        if _needs_graph(w):
            w._accumulate(x.data.T @ g)

    return _node(y, (x, w, b), _bw)


def rms_normalize(a: Tensor, eps: float) -> Tensor:
    """a / sqrt(mean_row(a^2) + eps), each row to unit mean power, as one node.

    The float operations are those of the chain
    a * (a.square().mean(axis=1) + eps).pow(-0.5).reshape(B, 1), in order;
    a's two gradient terms are added once, as the chain adds them.
    """
    if a.data.ndim != 2:
        raise ValueError(f"rms_normalize: expected a (batch, dim) array, got shape {a.data.shape}")
    b, d = a.data.shape
    power = np.add.reduce(a.data * a.data, 1) / d + float(eps)
    exponent = -0.5
    scale_col = (power ** exponent).reshape(b, 1)
    data = a.data * scale_col

    def _bw(g):
        g_scale = _reduce_grad_to(g * a.data, scale_col.shape).reshape(b)
        g_power = g_scale * exponent * power ** (exponent - 1.0)
        a._accumulate(g * scale_col + (g_power / d)[:, None] * (2.0 * a.data))

    return _node(data, (a,), _bw)


def scale_shift(a: Tensor, h: np.ndarray, w: np.ndarray) -> Tensor:
    """h * a + w with constant arrays h and w, as one node; differentiable in a.

    The float operations are those of Tensor(h) * a + Tensor(w), in order.
    """
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    try:
        prod = h * a.data
    except ValueError:
        raise ValueError(f"mul: incompatible shapes {h.shape} and {a.data.shape}") from None
    try:
        data = prod + w
    except ValueError:
        raise ValueError(f"add: incompatible shapes {prod.shape} and {w.shape}") from None
    prod_shape = prod.shape

    def _bw(g):
        a._accumulate(_reduce_grad_to(_reduce_grad_to(g, prod_shape) * h, a.data.shape))

    return _node(data, (a,), _bw)


def row_mse(a: Tensor, b: Tensor) -> Tensor:
    """Per-row mean squared difference (a - b)^2 over axis 1, as one node.

    The float operations are those of (a - b).square().mean(axis=1), in order.
    """
    try:
        diff = a.data - b.data
    except ValueError:
        raise _incompatible("sub", a, b) from None
    n = diff.shape[1]
    data = np.add.reduce(diff * diff, 1) / n

    def _bw(g):
        g = (g / n)[:, None] * (2.0 * diff)
        if _needs_graph(a):
            a._accumulate(_reduce_grad_to(g, a.data.shape))
        if _needs_graph(b):
            b._accumulate(_reduce_grad_to(-g, b.data.shape))

    return _node(data, (a, b), _bw)


def row_sq_dist(a: Tensor, x: np.ndarray) -> Tensor:
    """Per-row squared distance sum((a - x)^2, axis=1) to a constant array x, as one node.

    The float operations are those of (a - Tensor(x)).square().sum(axis=1), in order.
    """
    x = np.asarray(x, dtype=np.float64)
    try:
        diff = a.data - x
    except ValueError:
        raise _incompatible("sub", a, Tensor(x)) from None
    if diff.ndim != 2:
        raise ValueError(f"row_sq_dist: expected a (batch, dim) array, got shape {diff.shape}")
    data = np.add.reduce(diff * diff, 1)

    def _bw(g):
        a._accumulate(_reduce_grad_to(g[:, None] * (2.0 * diff), a.data.shape))

    return _node(data, (a,), _bw)


def token_nll(logits: Tensor, ids: np.ndarray, seq_len: int) -> Tensor:
    """Per-sequence mean token NLL, as one node: (N, V) logits and the N target
    ids of B sequences of seq_len tokens (N = B * seq_len) give a (B,) result.

    The float operations are those of the chain
    (logsumexp(logits) - select_columns(logits, ids)).reshape(B, seq_len).mean(axis=1),
    in order; the logits' two gradient terms are added once, the log-sum-exp
    term first, as the chain adds them.
    """
    ids = np.asarray(ids).reshape(-1)
    a = logits.data
    if a.ndim != 2 or seq_len < 1 or len(a) != len(ids) or len(a) % seq_len:
        raise ValueError(f"token_nll: {a.shape} logits do not hold {len(ids)} ids "
                         f"in sequences of {seq_len}")
    n = len(a)
    rows = np.arange(n)
    m = np.maximum.reduce(a, -1, keepdims=True)
    e = np.exp(a - m)
    s = np.add.reduce(e, -1)
    nll = m.squeeze(-1) + np.log(s)
    nll -= a[rows, ids]
    data = np.add.reduce(nll.reshape(n // seq_len, seq_len), 1) / seq_len

    def _bw(g):
        g = np.repeat(g / seq_len, seq_len)     # each token's share of its sequence's mean
        g_a = g[:, None] * (e / s[:, None])     # the log-sum-exp term: g times the softmax
        picked = g_a[rows, ids] - g             # plus the select term, -g at each target
        np.add(g_a, 0.0, out=g_a)               # plus its zeros elsewhere: -0.0 becomes 0.0
        g_a[rows, ids] = picked
        logits._accumulate(g_a)

    return _node(data, (logits,), _bw)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def _bw(g):
        a._accumulate(g * (a.data > 0))

    return _node(data, (a,), _bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def _bw(g):
        a._accumulate(g * (1.0 - y * y))

    return _node(y, (a,), _bw)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def _bw(g):
        a._accumulate(g * y)

    return _node(y, (a,), _bw)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def _bw(g):
        a._accumulate(g / a.data)

    return _node(data, (a,), _bw)


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def _bw(g):
        a._accumulate(g * (2.0 * a.data))

    return _node(data, (a,), _bw)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    data = a.data ** exponent

    def _bw(g):
        a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return _node(data, (a,), _bw)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape
    data = np.add.reduce(a.data, axis)

    def _bw(g):
        if axis is not None:
            g = g.reshape(_keepdims_shape(shape, axis))
        a._accumulate(np.broadcast_to(g, shape))

    return _node(data, (a,), _bw)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    """Mean over `axis` (None: all elements), the float operations of ndarray.mean."""
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]
    data = np.add.reduce(a.data, axis) / count

    def _bw(g):
        g = g / count
        if axis is not None:
            g = g.reshape(_keepdims_shape(shape, axis))
        a._accumulate(np.broadcast_to(g, shape))

    return _node(data, (a,), _bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def _bw(g):
        a._accumulate(g.reshape(a.data.shape))

    return _node(data, (a,), _bw)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Pick rows of a (V, E) table by integer index; the embedding lookup."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"gather_rows: ids must be 1-D, got shape {ids.shape}")
    data = table.data[ids]

    def _bw(g):
        g_table = np.zeros_like(table.data)
        np.add.at(g_table, ids, g)
        table._accumulate(g_table)

    return _node(data, (table,), _bw)


def select_columns(a: Tensor, ids: np.ndarray) -> Tensor:
    """Per-row element pick: (N, V) with index vector (N,) -> (N,)."""
    ids = np.asarray(ids)
    n = a.data.shape[0]
    rows = np.arange(n)
    data = a.data[rows, ids]

    def _bw(g):
        g_a = np.zeros_like(a.data)
        g_a[rows, ids] = g
        a._accumulate(g_a)

    return _node(data, (a,), _bw)


def logsumexp(a: Tensor) -> Tensor:
    """Stable log-sum-exp over the last axis."""
    m = np.maximum.reduce(a.data, -1, keepdims=True)
    e = np.exp(a.data - m)
    s = np.add.reduce(e, -1)
    data = m.squeeze(-1) + np.log(s)

    def _bw(g):
        soft = e / s[..., None]
        a._accumulate(g[..., None] * soft)

    return _node(data, (a,), _bw)
