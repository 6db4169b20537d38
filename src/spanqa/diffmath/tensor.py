"""Dense float64 tensors on a dynamically built reverse-mode graph.

Every operation returns a new Tensor; when gradients are enabled and at
least one operand requires them, the result gets a graph node.  A node is
a plain list [closure, edges, shape, fortran]: the closure maps the output
adjoint to per-parent adjoints and keeps only the arrays and shapes it
reads; edge i is parent i's node, the parent itself when it is a leaf, or
None when it needs no gradient; and shape and fortran describe the output,
so that the walk can lay out a zero adjoint for it.  No node holds its
output, so an op output that no closure reads is freed as soon as the
caller drops its Tensor.

`backward` walks a graph once in reverse topological order, so each node's
closure runs exactly once however often the node is reused, and it
releases each node's closure and edges as it passes the node.  A recorded
graph therefore supports one walk: a second walk that reaches a released
node raises RuntimeError, and the forward pass has to be run again.
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

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None  # the graph node, for an op output that carries gradient

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

    # arithmetic sugar; floats and arrays are lifted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap `data`; give it a graph node only when it can carry gradient.
    `backward_fn` must not hold a parent Tensor: the edges reach the
    parents without their data."""
    out = Tensor(data)
    if grad_enabled():
        edges = [(p._node or p) if p.requires_grad else None for p in parents]
        if any(edges):
            out.requires_grad = True
            data = out.data
            out._node = [backward_fn, edges, data.shape, data.flags.fnc]
    return out


def _zeros(shape, fortran) -> np.ndarray:
    """np.zeros_like of a contiguous array of this shape and layout."""
    return np.zeros(shape, order="F" if fortran else "C")


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
    """Add d(loss)/d(leaf) to the `grad` of every leaf reachable from `loss`.

    `loss` must hold a single element.  A leaf is a tensor without a graph
    node (every parameter); only leaves and the root get `grad`, so
    intermediate adjoints are freed as soon as the walk has passed them.
    Leaves' gradients accumulate over calls, each on a graph of its own;
    the root itself always reads exactly 1.0.

    The walk releases each node's closure and edges once it has passed the
    node, so the arrays a closure kept are freed during the walk, and a
    graph supports one walk.  A walk that would reach a node an earlier
    walk released raises RuntimeError before any `grad` changes; to walk
    again, run the forward pass again.

    A closure returns one adjoint per parent: a dense array, None (no
    gradient), or an `(index, value)` pair that stands for an array that is
    zero except `value` at `parent.data[index]`.  The walk adds each pair
    into one zero-initialised accumulator per parent, so a parent read
    through many disjoint slices or single entries costs one array, not one
    per read.  An index must not name an entry twice (`gather_rows`, whose
    indices repeat, returns a dense adjoint).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._node or loss
    # a handle is a node (a list) or a leaf Tensor.  `topo` holds every
    # handle until the walk returns, and a closure computes on arrays alone,
    # creating no handle, so no id() below is reused by another object
    # during the walk, though the walk releases nodes as it goes
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        handle, expanded = stack.pop()
        if expanded:
            topo.append(handle)
            continue
        if id(handle) in visited:
            continue
        visited.add(id(handle))
        stack.append((handle, True))
        if type(handle) is list:
            if handle[0] is None:
                raise RuntimeError(
                    "backward reached a graph node that an earlier backward call released; "
                    "a recorded graph supports one walk, so run the forward pass again"
                )
            for parent in handle[1]:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

    adjoint = {id(root): np.ones_like(loss.data)}
    owned = set()  # ids whose adjoint is an accumulator this walk allocated
    loss.grad = np.ones_like(loss.data)
    for handle in reversed(topo):
        g = adjoint.pop(id(handle), None)
        if type(handle) is not list:
            if g is not None and handle is not loss:
                handle.grad = g if handle.grad is None else handle.grad + g
            continue
        backward_fn, edges = handle[0], handle[1]
        handle[0] = handle[1] = None
        if g is None:
            continue
        for parent, pg in zip(edges, backward_fn(g)):
            if pg is None or parent is None:
                continue
            pid = id(parent)
            if isinstance(pg, tuple):
                index, value = pg
                if pid not in owned:
                    dense = adjoint.get(pid)
                    if dense is not None:
                        adjoint[pid] = dense.copy()
                    elif type(parent) is list:
                        adjoint[pid] = _zeros(parent[2], parent[3])
                    else:
                        adjoint[pid] = np.zeros_like(parent.data)
                    owned.add(pid)
                adjoint[pid][index] += value
            elif pid in adjoint:
                adjoint[pid] = adjoint[pid] + pg
            else:
                adjoint[pid] = pg


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    x, y = a.data, b.data
    return _make(
        x * y,
        (a, b),
        lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    x, y = a.data, b.data
    return _make(x @ y, (a, b), lambda g: (g @ y.T, x.T @ g))


def log(a) -> Tensor:
    a = _lift(a)
    x = a.data
    return _make(np.log(x), (a,), lambda g: (g / x,))


def relu(a) -> Tensor:
    a = _lift(a)
    keep = a.data > 0
    return _make(np.where(keep, a.data, 0.0), (a,), lambda g: (g * keep,))


def clip_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient is blocked at or below the floor."""
    a = _lift(a)
    above = a.data > floor
    # np.maximum (not np.where) so NaN propagates instead of being floored
    return _make(np.maximum(a.data, floor), (a,), lambda g: (g * above,))


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
    shape = x.data.shape
    probs = probs.reshape(shape)

    def back(g):
        g2 = np.atleast_2d(g)
        p2 = np.atleast_2d(probs)
        inner = (g2 * p2).sum(axis=1, keepdims=True)
        return ((p2 * (g2 - inner)).reshape(shape),)

    return _make(probs, (x,), back)


def transpose(a) -> Tensor:
    a = _lift(a)
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-D tensor, got shape {a.data.shape}")
    return _make(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    before = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(before),))


def concat_cols(parts) -> Tensor:
    """Concatenate tensors along the last (feature) axis."""
    parts = [_lift(p) for p in parts]
    widths = [p.data.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(widths)))

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back)


def gather_rows(a, indices) -> Tensor:
    """Select rows by index; repeated indices accumulate gradient."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat index array")
    if a.data.ndim != 2:
        raise ValueError(f"gather_rows expects a 2-D tensor, got shape {a.data.shape}")

    shape, fortran = a.data.shape, a.data.flags.fnc

    def back(g):
        out = _zeros(shape, fortran)
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
    # the groups are disjoint, so no entry is hit twice
    index = (argmax_rows, np.arange(a.data.shape[1]))
    return _make(out, (a,), lambda g: ((index, g),))


def concat_rows(parts) -> Tensor:
    """Stack 2-D tensors along the first (row) axis."""
    parts = [_lift(p) for p in parts]
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def back(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1))

    return _make(np.concatenate([p.data for p in parts]), tuple(parts), back)


def unstack(a, lengths) -> list:
    """The first lengths[b] steps of each column b of a packed (T, B, k)
    tensor, as a list of (lengths[b], k) tensors."""
    a = _lift(a)

    def column(b, n):
        return _make(a.data[:n, b], (a,), lambda g: (((slice(None, n), b), g),))

    return [column(b, n) for b, n in enumerate(lengths)]


def pick(a, index: int) -> Tensor:
    """Scalar entry of a 1-D tensor."""
    a = _lift(a)
    if a.data.ndim != 1:
        raise ValueError(f"pick expects a 1-D tensor, got shape {a.data.shape}")
    if not 0 <= index < a.data.shape[0]:
        raise ValueError(f"pick index {index} out of range for length {a.data.shape[0]}")
    return _make(np.asarray(a.data[index]), (a,), lambda g: ((index, g),))


def dropout(x, keep_prob: float, rng) -> Tensor:
    """Inverted dropout: keep entries with probability `keep_prob`, scaled by 1/keep_prob.

    Masks are drawn from `rng`, so dropout runs only where a stream is given
    (training); with rng None or keep_prob == 1 it returns `x` itself and
    consumes no randomness, so seeded streams stay aligned.
    """
    x = _lift(x)
    if keep_prob <= 0 or keep_prob > 1:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if rng is None or keep_prob == 1.0:
        return x
    scale = (rng.random(x.data.shape) < keep_prob) / keep_prob
    return _make(x.data * scale, (x,), lambda g: (g * scale,))
