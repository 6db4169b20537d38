"""Dense float64 tensors on a dynamically built reverse-mode graph.

Every operation returns a new Tensor; when gradients are enabled and at
least one operand requires them, the result records its parents and a
closure mapping the output adjoint to per-parent adjoints.  `backward`
walks the graph once in reverse topological order, so each node's closure
runs exactly once per call no matter how often the node is reused.
"""

import threading
from contextlib import contextmanager

import numpy as np

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording in this thread for the duration of the block."""
    prev = grad_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


class Tensor:
    """n-dimensional float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; floats and arrays are lifted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise TypeError("tensor division is only supported by a scalar constant")
        return mul(self, 1.0 / other)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap `data`; record the graph edge only when it can carry gradient."""
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to `shape` after numpy broadcasting expanded it."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor):
    """Populate `grad` with d(loss)/d(tensor) for every tensor reachable from `loss`.

    `loss` must hold a single element.  Gradients of repeated calls
    accumulate; the root itself always reads exactly 1.0.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))

    adjoint = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node is not loss:
            node.grad = g if node.grad is None else node.grad + g
        else:
            node.grad = np.ones_like(loss.data)
        if node._backward is None:
            continue
        for parent, pg in zip(node._prev, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in adjoint:
                adjoint[pid] = adjoint[pid] + pg
            else:
                adjoint[pid] = pg


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def neg(a) -> Tensor:
    a = _lift(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def log(a) -> Tensor:
    a = _lift(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a) -> Tensor:
    a = _lift(a)
    keep = a.data > 0
    return _make(np.where(keep, a.data, 0.0), (a,), lambda g: (g * keep,))


def tsum(a) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _lift(a)
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.data.shape),))


def clip_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient is blocked at or below the floor."""
    a = _lift(a)
    above = a.data > floor
    # np.maximum (not np.where) so NaN propagates instead of being floored
    return _make(np.maximum(a.data, floor), (a,), lambda g: (g * above,))


def maximum(a, b) -> Tensor:
    """Elementwise maximum; on exact ties the gradient goes to the first operand."""
    a, b = _lift(a), _lift(b)
    take_a = a.data >= b.data
    return _make(
        np.where(take_a, a.data, b.data),
        (a, b),
        lambda g: (
            _unbroadcast(g * take_a, a.data.shape),
            _unbroadcast(g * ~take_a, b.data.shape),
        ),
    )


def row_softmax(x, mask=None) -> Tensor:
    """Softmax along the last axis of a 1-D or 2-D tensor.

    Entries where `mask` is False come out exactly 0 and receive no
    gradient.  Each row is shifted by its own max before exponentiation,
    so any finite logits are safe.  A fully masked row is rejected.
    """
    x = _lift(x)
    if x.data.ndim not in (1, 2):
        raise ValueError(f"row_softmax expects a 1-D or 2-D tensor, got shape {x.data.shape}")
    logits = np.atleast_2d(x.data)
    if mask is None:
        keep = np.ones(logits.shape, dtype=bool)
    else:
        keep = np.atleast_2d(np.asarray(mask, dtype=bool))
        if keep.shape != logits.shape:
            raise ValueError(f"mask shape {keep.shape} does not match logits shape {logits.shape}")
        if not keep.any(axis=1).all():
            raise ValueError("row_softmax: at least one row is fully masked")
    shifted = np.where(keep, logits, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    expd = np.where(keep, np.exp(shifted), 0.0)
    probs = expd / expd.sum(axis=1, keepdims=True)
    probs = probs.reshape(x.data.shape)

    def back(g):
        g2 = np.atleast_2d(g)
        p2 = np.atleast_2d(probs)
        inner = (g2 * p2).sum(axis=1, keepdims=True)
        return ((p2 * (g2 - inner)).reshape(x.data.shape),)

    return _make(probs, (x,), back)


def transpose(a) -> Tensor:
    a = _lift(a)
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-D tensor, got shape {a.data.shape}")
    return _make(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat_cols(parts) -> Tensor:
    """Concatenate tensors along the last (feature) axis."""
    parts = [_lift(p) for p in parts]
    widths = [p.data.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back)


def stack_scalars(parts) -> Tensor:
    """Stack scalar tensors into a 1-D vector."""
    parts = [_lift(p) for p in parts]
    for p in parts:
        if p.data.size != 1:
            raise ValueError(f"stack_scalars expects scalars, got shape {p.data.shape}")

    def back(g):
        return tuple(g[i].reshape(p.data.shape) for i, p in enumerate(parts))

    return _make(np.array([p.data.reshape(()) for p in parts]), tuple(parts), back)


def gather_rows(a, indices) -> Tensor:
    """Select rows by index; repeated indices accumulate gradient."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat index array")
    if a.data.ndim != 2:
        raise ValueError(f"gather_rows expects a 2-D tensor, got shape {a.data.shape}")

    def back(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _make(a.data[idx], (a,), back)


def group_max_rows(a, group_sizes) -> Tensor:
    """Per-column max over consecutive row groups of the given sizes; the
    gradient goes to each group's first maximal row (its first NaN, if any)."""
    a = _lift(a)
    sizes = list(group_sizes)
    if sum(sizes) != a.data.shape[0]:
        raise ValueError(f"group sizes sum to {sum(sizes)}, tensor has {a.data.shape[0]} rows")
    if any(s < 1 for s in sizes):
        raise ValueError("group sizes must be positive")
    starts = np.cumsum([0] + sizes[:-1])
    out = np.maximum.reduceat(a.data, starts, axis=0)
    # the first row of each group that holds its max, as argmax picks it
    hits = (a.data == np.repeat(out, sizes, axis=0)) | np.isnan(a.data)
    rows = np.where(hits, np.arange(a.data.shape[0])[:, None], a.data.shape[0])
    argmax_rows = np.minimum.reduceat(rows, starts, axis=0)
    cols = np.arange(a.data.shape[1])

    def back(g):
        full = np.zeros_like(a.data)
        full[argmax_rows, cols] = g  # the groups are disjoint, so no row is hit twice
        return (full,)

    return _make(out, (a,), back)


def max_axis1(a) -> Tensor:
    """Per-row max of a 2-D tensor; ties route gradient to the lowest column."""
    a = _lift(a)
    if a.data.ndim != 2:
        raise ValueError(f"max_axis1 expects a 2-D tensor, got shape {a.data.shape}")
    cols = a.data.argmax(axis=1)
    rows = np.arange(a.data.shape[0])

    def back(g):
        out = np.zeros_like(a.data)
        out[rows, cols] = g
        return (out,)

    return _make(a.data[rows, cols], (a,), back)


def tile_rows(a, n: int) -> Tensor:
    """Repeat a single-row tensor n times."""
    a = _lift(a)
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise ValueError(f"tile_rows expects shape (1, k), got {a.data.shape}")
    return _make(np.repeat(a.data, n, axis=0), (a,), lambda g: (g.sum(axis=0, keepdims=True),))


def pad_stack(parts) -> Tensor:
    """Pack 2-D tensors (n_b, k) time-first into a zero-padded (max n_b, B, k)
    tensor whose column b holds parts[b]."""
    parts = [_lift(p) for p in parts]
    lengths = [p.data.shape[0] for p in parts]
    out = np.zeros((max(lengths), len(parts), parts[0].data.shape[1]))
    for b, p in enumerate(parts):
        out[: lengths[b], b] = p.data
    return _make(out, tuple(parts), lambda g: tuple(g[:n, b] for b, n in enumerate(lengths)))


def unstack(a, lengths) -> list:
    """Inverse of pad_stack: the first lengths[b] steps of each column b of a
    (T, B, k) tensor, as a list of (lengths[b], k) tensors."""
    a = _lift(a)

    def column(b, n):
        def back(g):
            out = np.zeros_like(a.data)
            out[:n, b] = g
            return (out,)

        return _make(a.data[:n, b], (a,), back)

    return [column(b, n) for b, n in enumerate(lengths)]


def pick(a, index: int) -> Tensor:
    """Scalar entry of a 1-D tensor."""
    a = _lift(a)
    if a.data.ndim != 1:
        raise ValueError(f"pick expects a 1-D tensor, got shape {a.data.shape}")
    if not 0 <= index < a.data.shape[0]:
        raise ValueError(f"pick index {index} out of range for length {a.data.shape[0]}")

    def back(g):
        out = np.zeros_like(a.data)
        out[index] = g
        return (out,)

    return _make(np.asarray(a.data[index]), (a,), back)


def dropout(x, keep_prob: float, rng, training: bool = True) -> Tensor:
    """Inverted dropout: keep entries with probability `keep_prob`, scaled by 1/keep_prob.

    Identity when evaluating or when keep_prob == 1; neither consumes
    randomness, so seeded streams stay aligned.
    """
    x = _lift(x)
    if keep_prob <= 0 or keep_prob > 1:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return _make(x.data.copy(), (x,), lambda g: (g,))
    scale = (rng.random(x.data.shape) < keep_prob) / keep_prob
    return _make(x.data * scale, (x,), lambda g: (g * scale,))
