"""Gated recurrent sequence kernels.

The cell is h' = (1 - z) * h + z * c with
    z = sigmoid(x W_z + h U_z + b_z)
    r = sigmoid(x W_r + h U_r + b_r)
    c = tanh(x W_h + (r * h) U_h + b_h)
and a zero initial state.  A whole layer pass is a single graph node: the
forward loop caches gate activations and the closure runs
backpropagation-through-time in one sweep, which keeps graphs small and
fast.  Several sequences of different lengths can share that one loop,
packed time-first and zero-padded (`pad_stack`); a single sequence is
the batch of one.  The G directions of a layer (one, or forward and
backward for `bigru`) share it too: each step makes one stacked (G, B, d)
recurrent product per gate group, and a backward direction reads its
input reversed within each column's length.  Gate weights are packed
[z | r | h] along the output axis."""

from dataclasses import dataclass

import numpy as np

from .optim import glorot_uniform
from .tensor import Tensor, _make, pad_stack, unstack


@dataclass
class GruParams:
    """One direction: w (in, 3d), u_zr (d, 2d), u_h (d, d), b (3d,)."""

    w: Tensor
    u_zr: Tensor
    u_h: Tensor
    b: Tensor

    @property
    def hidden(self) -> int:
        return self.u_h.data.shape[0]

    def tensors(self):
        yield "w", self.w
        yield "u_zr", self.u_zr
        yield "u_h", self.u_h
        yield "b", self.b


@dataclass
class BiGruParams:
    fwd: GruParams
    bwd: GruParams

    @property
    def hidden(self) -> int:
        return self.fwd.hidden

    def tensors(self):
        for name, t in self.fwd.tensors():
            yield "fwd/" + name, t
        for name, t in self.bwd.tensors():
            yield "bwd/" + name, t


def init_gru_params(in_dim: int, hidden: int, rng) -> GruParams:
    return GruParams(
        w=Tensor(glorot_uniform((in_dim, 3 * hidden), rng), requires_grad=True),
        u_zr=Tensor(glorot_uniform((hidden, 2 * hidden), rng), requires_grad=True),
        u_h=Tensor(glorot_uniform((hidden, hidden), rng), requires_grad=True),
        b=Tensor(np.zeros(3 * hidden), requires_grad=True),
    )


def init_bigru_params(in_dim: int, hidden: int, rng) -> BiGruParams:
    return BiGruParams(
        fwd=init_gru_params(in_dim, hidden, rng),
        bwd=init_gru_params(in_dim, hidden, rng),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf below x ~ -709.8, which gives the exact limit 0;
    # callers hold np.errstate(over="ignore") around their whole loop
    return 1.0 / (1.0 + np.exp(-x))


def _reversal(n: int, lengths) -> tuple:
    """Index pair that reverses each column of a (n, B, ...) array within its
    first lengths[b] steps and leaves its padded steps in place.  It is its
    own inverse."""
    steps = np.arange(n)[:, None]
    ends = np.asarray(lengths)[None, :]
    return np.where(steps < ends, ends - 1 - steps, steps), np.arange(ends.shape[1])[None, :]


def _gru_pass(inputs: Tensor, cells: tuple, reverse: tuple, lengths) -> Tensor:
    """Run len(cells) directions over axis 0 of a (T, in) or (T, B, in) input
    in one time loop; direction g reads each column backwards within its
    length when reverse[g].  Returns the directions' states side by side."""
    x = inputs.data
    n = x.shape[0]
    x3 = x.reshape(n, -1, x.shape[-1])
    batch, dirs, d = x3.shape[1], len(cells), cells[0].hidden
    order = _reversal(n, [n] * batch if lengths is None else lengths) if any(reverse) else None
    ws, u_zrs, u_hs = [c.w.data for c in cells], [c.u_zr.data for c in cells], [c.u_h.data for c in cells]

    def flat_input(rev):
        # the input in one direction's time order, flattened for the GEMMs;
        # `back` gathers it again rather than keep the reversed copy alive
        return (x3[order] if rev else x3).reshape(n * batch, -1)

    xw = np.empty((n, dirs, batch, 3 * d))
    for g, (c, rev) in enumerate(zip(cells, reverse)):
        np.add((flat_input(rev) @ ws[g]).reshape(n, batch, 3 * d), c.b.data, out=xw[:, g])
    u_zr, u_h = np.stack(u_zrs), np.stack(u_hs)
    # hs[t] is the state before step t (row 0 the zero state), hs[t + 1] after it
    hs = np.zeros((n + 1, dirs, batch, d))
    zs = np.empty((n, dirs, batch, d))
    rs = np.empty((n, dirs, batch, d))
    cs = np.empty((n, dirs, batch, d))
    with np.errstate(over="ignore"):
        for t in range(n):
            h = hs[t]
            zr = _sigmoid(xw[t, :, :, : 2 * d] + h @ u_zr)
            z, r = zr[..., :d], zr[..., d:]
            c = np.tanh(xw[t, :, :, 2 * d :] + (r * h) @ u_h)
            hs[t + 1] = (1.0 - z) * h + z * c
            zs[t], rs[t], cs[t] = z, r, c

    def back(grad):
        grad = grad.reshape(n, batch, dirs, d)
        gs = np.empty((n, dirs, batch, d))
        for g, rev in enumerate(reverse):
            gs[:, g] = grad[:, :, g][order] if rev else grad[:, :, g]
        # built here, not captured, so no stacked weight copy stays alive in the graph
        u_zr_t = np.stack([u.T for u in u_zrs])
        u_h_t = np.stack([u.T for u in u_hs])
        # gate pre-activation adjoints [dz | dr | dc], direction-major so that
        # each direction's (T * B, 3d) block is contiguous for the epilogue
        dxws = np.empty((dirs, n, batch, 3 * d))
        dh = np.zeros((dirs, batch, d))
        for t in range(n - 1, -1, -1):
            dht = gs[t] + dh
            z, r, c, hp = zs[t], rs[t], cs[t], hs[t]
            da = (dht * z) * (1.0 - c * c)
            dxws[:, t, :, 2 * d :] = da
            drh = da @ u_h_t
            dxws[:, t, :, :d] = (dht * (c - hp)) * z * (1.0 - z)
            dxws[:, t, :, d : 2 * d] = (drh * hp) * r * (1.0 - r)
            dh = dht * (1.0 - z) + drh * r + dxws[:, t, :, : 2 * d] @ u_zr_t
        dx, dparams = None, []
        for g, rev in enumerate(reverse):
            dxw = dxws[g].reshape(n * batch, 3 * d)
            hp = hs[:-1, g].reshape(n * batch, d)
            dxg = (dxw @ ws[g].T).reshape(x3.shape)
            dxg = dxg[order] if rev else dxg
            dx = dxg if dx is None else dx + dxg
            dparams += [
                flat_input(rev).T @ dxw,
                hp.T @ dxw[:, : 2 * d],
                (rs[:, g].reshape(n * batch, d) * hp).T @ dxw[:, 2 * d :],
                dxw.sum(axis=0),
            ]
        return (dx.reshape(x.shape), *dparams)

    out = np.empty((n, batch, dirs, d))
    for g, rev in enumerate(reverse):
        out[:, :, g] = hs[1:, g][order] if rev else hs[1:, g]
    parents = (inputs,) + tuple(t for c in cells for t in (c.w, c.u_zr, c.u_h, c.b))
    return _make(out.reshape(x.shape[:-1] + (dirs * d,)), parents, back)


_REVERSE = {"forward": (False,), "backward": (True,), "both": (False, True)}


def gru_sequence(inputs: Tensor, params, direction: str = "forward", lengths=None) -> Tensor:
    """Run the recurrence along axis 0 of `inputs`, returning one state per step.

    `inputs` is one (T, in) sequence or a batch of B sequences packed
    time-first as (T, B, in), where column b holds `lengths[b]` steps
    followed by padding (default: every column is T steps long).  All
    columns share one time loop.  Each column's states match a separate
    call on its own steps, and states at padded steps are meaningless.

    direction="backward" reads each column in reverse within its own
    length, so step t still describes token t and padded steps stay after
    the valid ones.  direction="both" takes `BiGruParams` and runs the
    forward and backward directions in the same loop, giving their states
    side by side: (T, 2d) or (T, B, 2d).
    """
    if direction not in _REVERSE:
        raise ValueError(f"unknown direction: {direction!r}")
    cells = (params.fwd, params.bwd) if direction == "both" else (params,)
    shape = inputs.data.shape
    if inputs.data.ndim not in (2, 3) or shape[0] < 1 or 0 in shape[1:-1]:
        raise ValueError(f"gru_sequence needs a nonempty (T, in) or (T, B, in) input, got shape {shape}")
    if shape[-1] != cells[0].w.data.shape[0]:
        raise ValueError(f"gru_sequence input width {shape[-1]} does not match weight shape {cells[0].w.data.shape}")
    if lengths is not None:
        lengths = np.asarray(lengths)
        if len(shape) != 3 or lengths.shape != shape[1:2] or lengths.min() < 1 or lengths.max() > shape[0]:
            raise ValueError(f"gru_sequence lengths {lengths.tolist()} do not fit input shape {shape}")
    return _gru_pass(inputs, cells, _REVERSE[direction], lengths)


def bigru(inputs: Tensor, params: BiGruParams, lengths=None) -> Tensor:
    """Forward and backward passes side by side along the feature axis:
    (T, 2d), or (T, B, 2d) for a packed batch with per-column `lengths`.
    Both directions step together in one loop."""
    return gru_sequence(inputs, params, "both", lengths=lengths)


def bigru_each(sequences, params: BiGruParams) -> list:
    """`bigru` of every (n_i, in) tensor in `sequences`, as a list of
    (n_i, 2d) tensors: one packed batch, so one time loop for both
    directions of all of them."""
    lengths = [s.data.shape[0] for s in sequences]
    return unstack(bigru(pad_stack(sequences), params, lengths), lengths)
