"""Gated recurrent sequence kernels.

The cell is h' = (1 - z) * h + z * c with
    z = sigmoid(x W_z + h U_z + b_z)
    r = sigmoid(x W_r + h U_r + b_r)
    c = tanh(x W_h + (r * h) U_h + b_h)
and a zero initial state.  A whole layer pass is a single graph node: when
the pass is recorded, the forward loop caches gate activations and the
closure runs backpropagation-through-time in one sweep, which keeps graphs
small and fast; under `no_grad`, or when nothing needs a gradient, the
loop keeps no caches and returns a plain tensor.  Each step works in place
in buffers allocated once per call.  Several sequences of different
lengths can share that one loop, packed time-first and zero-padded
(`pad_stack`); a single sequence is the batch of one, and a column's
states do not depend, to the last bit, on what else shares its batch.
The forward and backward directions of a bidirectional layer share the
loop too, as do several layers that read the same input: each step makes
one stacked (G, B, d) recurrent product per gate group over all G
directions, and a backward direction reads its input reversed within
each column's length.  Gate weights are packed [z | r | h] along the
output axis."""

from dataclasses import dataclass

import numpy as np

from .optim import glorot_uniform
from .tensor import Tensor, _make, grad_enabled, pad_stack, reshape, unstack


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


@dataclass
class BiGruParams:
    fwd: GruParams
    bwd: GruParams


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


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    # exp(-x) overflows to inf below x ~ -709.8, which gives the exact limit 0;
    # callers hold np.errstate(over="ignore") around their whole loop
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.matmul(a, b, out=out), always as a matrix-matrix product.  numpy
    sends a one-row product to BLAS gemv, which may round differently from
    gemm, so without this a sequence's states would depend on whether other
    sequences share its batch; a single row goes through gemm beside a zero
    row instead."""
    if a.shape[-2] != 1:
        return np.matmul(a, b, out=out)
    pair = np.zeros(a.shape[:-2] + (2, a.shape[-1]))
    pair[..., :1, :] = a
    out[...] = np.matmul(pair, b)[..., :1, :]
    return out


def _reversal(n: int, lengths) -> tuple:
    """Index pair that reverses each column of a (n, B, ...) array within its
    first lengths[b] steps and leaves its padded steps in place.  It is its
    own inverse."""
    steps = np.arange(n)[:, None]
    ends = np.asarray(lengths)[None, :]
    return np.where(steps < ends, ends - 1 - steps, steps), np.arange(ends.shape[1])[None, :]


def _gru_pass(inputs: Tensor, cells: tuple, reverse: tuple, lengths) -> Tensor:
    """Run len(cells) directions over axis 0 of a (T, B, in) input in one
    time loop; direction g reads each column backwards within its length
    when reverse[g].  Returns the directions' states side by side, with the
    gate caches and the BPTT closure only when recording."""
    x = inputs.data
    n, batch, _ = x.shape
    dirs, d = len(cells), cells[0].hidden
    order = _reversal(n, lengths) if any(reverse) else None
    ws, u_zrs, u_hs = [c.w.data for c in cells], [c.u_zr.data for c in cells], [c.u_h.data for c in cells]
    parents = (inputs,) + tuple(t for c in cells for t in (c.w, c.u_zr, c.u_h, c.b))
    recording = grad_enabled() and any(p.requires_grad for p in parents)

    # hs[t] is the state before step t (row 0 the zero state), hs[t + 1] after it;
    # a_zr and a_c take each step's recurrent products, and the gates go to
    # the caches zrs ([z | r]) and cs when recording, else over a_zr and a_c
    hs = np.zeros((n + 1, dirs, batch, d))
    zrs = np.empty((n, dirs, batch, 2 * d)) if recording else None
    cs = np.empty((n, dirs, batch, d)) if recording else None
    a_zr = np.empty((dirs, batch, 2 * d))
    a_c = np.empty((dirs, batch, d))
    rh = np.empty((dirs, batch, d))

    def flat_input(rev):
        # the input in one direction's time order, flattened for the GEMMs;
        # `back` gathers it again rather than keep the reversed copy alive
        return (x[order] if rev else x).reshape(n * batch, -1)

    # direction-major, so that each direction's GEMM writes its own block in
    # place and no (T * B, 3d) product is held beside it
    xw = np.empty((dirs, n, batch, 3 * d))
    for g, (c, rev) in enumerate(zip(cells, reverse)):
        _gemm(flat_input(rev), ws[g], out=xw[g].reshape(n * batch, 3 * d))
        xw[g] += c.b.data
    u_zr, u_h = np.stack(u_zrs), np.stack(u_hs)
    with np.errstate(over="ignore"):
        for t in range(n):
            h = hs[t]
            zr = zrs[t] if recording else a_zr
            c = cs[t] if recording else a_c
            _gemm(h, u_zr, out=a_zr)
            _sigmoid(np.add(xw[:, t, :, : 2 * d], a_zr, out=zr), out=zr)
            z, r = zr[..., :d], zr[..., d:]
            _gemm(np.multiply(r, h, out=rh), u_h, out=a_c)
            np.tanh(np.add(xw[:, t, :, 2 * d :], a_c, out=c), out=c)
            # h' = (1 - z) * h + z * c, with rh free again as scratch
            np.multiply(np.subtract(1.0, z, out=rh), h, out=rh)
            np.add(rh, np.multiply(z, c, out=hs[t + 1]), out=hs[t + 1])

    del xw  # dead once the loop ends; freed before the output is gathered
    out = np.empty((n, batch, dirs, d))
    for g, rev in enumerate(reverse):
        out[:, :, g] = hs[1:, g][order] if rev else hs[1:, g]
    out = out.reshape(n, batch, dirs * d)
    if not recording:
        return Tensor(out)

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
            z, r, c, hp = zrs[t, ..., :d], zrs[t, ..., d:], cs[t], hs[t]
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
            dxg = (dxw @ ws[g].T).reshape(x.shape)
            dxg = dxg[order] if rev else dxg
            dx = dxg if dx is None else dx + dxg
            dparams += [
                flat_input(rev).T @ dxw,
                hp.T @ dxw[:, : 2 * d],
                (zrs[:, g, :, d:].reshape(n * batch, d) * hp).T @ dxw[:, 2 * d :],
                dxw.sum(axis=0),
            ]
        return (dx, *dparams)

    return _make(out, parents, back)


def gru_sequence(inputs: Tensor, layers, lengths) -> Tensor:
    """Both directions of every BiGruParams in `layers` along axis 0 of
    `inputs`, in one time loop, returning one state per step.

    `inputs` is a batch of B sequences packed time-first as (T, B, in),
    where column b holds `lengths[b]` steps followed by padding; a single
    sequence is the batch of one.  Each column's states match a separate
    call on its own steps, and states at padded steps are meaningless.  The
    backward direction reads each column in reverse within its own length,
    so step t still describes token t and padded steps stay after the valid
    ones.  The layers, all of one shape, read the same input; the output
    holds, side by side in `layers` order, each layer's forward and
    backward states: (T, B, 2d * len(layers)).
    """
    cells = tuple(c for p in layers for c in (p.fwd, p.bwd))
    shape = inputs.data.shape
    if inputs.data.ndim != 3 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"gru_sequence needs a nonempty (T, B, in) input, got shape {shape}")
    if any(c.w.data.shape != cells[0].w.data.shape for c in cells):
        raise ValueError(f"gru_sequence layers differ in weight shape: {[c.w.data.shape for c in cells]}")
    if shape[-1] != cells[0].w.data.shape[0]:
        raise ValueError(f"gru_sequence input width {shape[-1]} does not match weight shape {cells[0].w.data.shape}")
    lengths = np.asarray(lengths)
    if lengths.shape != shape[1:2] or lengths.min() < 1 or lengths.max() > shape[0]:
        raise ValueError(f"gru_sequence lengths {lengths.tolist()} do not fit input shape {shape}")
    return _gru_pass(inputs, cells, (False, True) * len(layers), lengths)


def bigru_each(sequences, *layers) -> list:
    """The forward and backward states, side by side, of every (n_i, in)
    tensor in `sequences` under each BiGruParams of `layers`: one list of
    (n_i, 2d) tensors per layer.  The sequences go as one packed batch, so
    one time loop steps both directions of every layer over all of them."""
    lengths = [s.data.shape[0] for s in sequences]
    packed = gru_sequence(pad_stack(sequences), layers, lengths)
    # (T, B, k * 2d) as (T, B * k, 2d): column b * k + j holds layer j of sequence b
    n, batch, width = packed.shape
    k = len(layers)
    states = unstack(reshape(packed, (n, batch * k, width // k)), [m for m in lengths for _ in layers])
    return [states[j::k] for j in range(k)]
