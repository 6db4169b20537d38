"""Gated recurrent sequence kernels.

The cell is h' = (1 - z) * h + z * c with
    z = sigmoid(x W_z + h U_z + b_z)
    r = sigmoid(x W_r + h U_r + b_r)
    c = tanh(x W_h + (r * h) U_h + b_h)
and a zero initial state.  A whole sequence pass is a single graph node:
the forward loop caches gate activations and the closure runs
backpropagation-through-time in one sweep, which keeps graphs small and
fast.  Several sequences of different lengths can share that one loop,
packed time-first and zero-padded (`pad_stack`); a single sequence is
the batch of one.  Gate weights are packed [z | r | h] along the output
axis.
"""

from dataclasses import dataclass

import numpy as np

from .optim import glorot_uniform
from .tensor import Tensor, _make, concat_cols, flip_rows, pad_stack, unstack


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
    # exp(-x) overflows to inf below x ~ -709.8, which gives the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _gru_forward_pass(inputs: Tensor, params: GruParams) -> Tensor:
    """Forward recurrence over axis 0 of a (T, in) or (T, B, in) input; the B
    sequences of a batch share each step's matrix products."""
    x = inputs.data
    n = x.shape[0]
    d = params.hidden
    w, u_zr, u_h, b = params.w.data, params.u_zr.data, params.u_h.data, params.b.data

    flat_x = x.reshape(-1, x.shape[-1])
    batch = flat_x.shape[0] // n
    xw = (flat_x @ w + b).reshape(n, batch, 3 * d)
    # hs[t] is the state before step t (row 0 the zero state), hs[t + 1] after it
    hs = np.zeros((n + 1, batch, d))
    zs = np.empty((n, batch, d))
    rs = np.empty((n, batch, d))
    cs = np.empty((n, batch, d))
    for t in range(n):
        h = hs[t]
        zr = _sigmoid(xw[t, :, : 2 * d] + h @ u_zr)
        z, r = zr[:, :d], zr[:, d:]
        c = np.tanh(xw[t, :, 2 * d :] + (r * h) @ u_h)
        hs[t + 1] = (1.0 - z) * h + z * c
        zs[t], rs[t], cs[t] = z, r, c
    hprev = hs[:-1]

    def back(g):
        g = g.reshape(n, batch, d)
        dzr = np.empty((n, batch, 2 * d))
        dah = np.empty((n, batch, d))
        dh = np.zeros((batch, d))
        u_zr_t, u_h_t = u_zr.T, u_h.T
        for t in range(n - 1, -1, -1):
            dht = g[t] + dh
            z, r, c, hp = zs[t], rs[t], cs[t], hprev[t]
            da = (dht * z) * (1.0 - c * c)
            dah[t] = da
            drh = da @ u_h_t
            dzr[t, :, :d] = (dht * (c - hp)) * z * (1.0 - z)
            dzr[t, :, d:] = (drh * hp) * r * (1.0 - r)
            dh = dht * (1.0 - z) + drh * r + dzr[t] @ u_zr_t
        dxw = np.concatenate([dzr, dah], axis=2).reshape(n * batch, 3 * d)
        hp_flat = hprev.reshape(n * batch, d)
        return (
            (dxw @ w.T).reshape(x.shape),
            flat_x.T @ dxw,
            hp_flat.T @ dzr.reshape(n * batch, 2 * d),
            (rs.reshape(n * batch, d) * hp_flat).T @ dah.reshape(n * batch, d),
            dxw.sum(axis=0),
        )

    out = hs[1:].reshape(x.shape[:-1] + (d,))
    return _make(out, (inputs, params.w, params.u_zr, params.u_h, params.b), back)


def gru_sequence(inputs: Tensor, params: GruParams, direction: str = "forward", lengths=None) -> Tensor:
    """Run the recurrence along axis 0 of `inputs`, returning one state per step.

    `inputs` is one (T, in) sequence or a batch of B sequences packed
    time-first as (T, B, in), where column b holds `lengths[b]` steps
    followed by padding (default: every column is T steps long).  All
    columns share one time loop.  Each column's states match a separate
    call on its own steps, and states at padded steps are meaningless.

    direction="backward" reverses each column within its own length,
    runs forward and reverses back, so step t still describes token t and
    padded steps stay after the valid ones.
    """
    shape = inputs.data.shape
    if inputs.data.ndim not in (2, 3) or shape[0] < 1 or 0 in shape[1:-1]:
        raise ValueError(f"gru_sequence needs a nonempty (T, in) or (T, B, in) input, got shape {shape}")
    if shape[-1] != params.w.data.shape[0]:
        raise ValueError(f"gru_sequence input width {shape[-1]} does not match weight shape {params.w.data.shape}")
    if lengths is not None:
        lengths = np.asarray(lengths)
        if len(shape) != 3 or lengths.shape != shape[1:2] or lengths.min() < 1 or lengths.max() > shape[0]:
            raise ValueError(f"gru_sequence lengths {lengths.tolist()} do not fit input shape {shape}")
    if direction == "forward":
        return _gru_forward_pass(inputs, params)
    if direction == "backward":
        return flip_rows(_gru_forward_pass(flip_rows(inputs, lengths), params), lengths)
    raise ValueError(f"unknown direction: {direction!r}")


def bigru(inputs: Tensor, params: BiGruParams, lengths=None) -> Tensor:
    """Concatenate forward and backward passes along the feature axis:
    (T, 2d), or (T, B, 2d) for a packed batch with per-column `lengths`."""
    return concat_cols(
        [
            gru_sequence(inputs, params.fwd, "forward", lengths=lengths),
            gru_sequence(inputs, params.bwd, "backward", lengths=lengths),
        ]
    )


def bigru_each(sequences, params: BiGruParams) -> list:
    """`bigru` of every (n_i, in) tensor in `sequences`, as a list of
    (n_i, 2d) tensors: one packed batch, so one time loop per direction
    for all of them."""
    lengths = [s.data.shape[0] for s in sequences]
    return unstack(bigru(pad_stack(sequences), params, lengths), lengths)
