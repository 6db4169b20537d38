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
in buffers allocated once per call.

The kernel has one call form: a table of distinct input rows and a (T, B)
map naming the row that each step of each column reads (`gru_sequence`).
Each row's input product x W + b is computed once per direction, in one
GEMM, and each step gathers its gate pre-activations from it, so columns
that share rows (the end layer's starts in one paragraph) share their
products too.  Backpropagation mirrors this: it sums the gate adjoints of
the steps that read each row first, so the input weights' gradient and
the rows' adjoints are each one GEMM over the distinct rows, and steps
that read the zero row drop out of both.  Several sequences of different
lengths share the one loop, packed time-first, their padded steps reading
one zero row (`bigru_rows`, `bigru_each`); a single sequence is the batch
of one, and a column's states do not depend, to the last bit, on what
else shares its batch or its rows.  The forward and backward directions
of a bidirectional layer share the loop too, as do several layers that
read the same rows: each step makes one stacked (G, B, d) recurrent
product per gate group over all G directions, and a backward direction
reads its steps reversed within each column's length.  Gate weights are
packed [z | r | h] along the output axis."""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .optim import glorot_uniform
from .tensor import Tensor, _make, concat_rows, grad_enabled, reshape, unstack


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


def _gru_pass(steps: np.ndarray, rows: Tensor, cells: tuple, reverse: tuple, lengths) -> Tensor:
    """Run len(cells) directions over the T steps of B columns in one time
    loop, column b reading rows[steps[t, b]] at step t, or a zero row where
    that is -1; direction g reads each column backwards within its length
    when reverse[g].  Each row is projected once per direction, and each
    step gathers its gate pre-activations from that projection.  Returns
    the directions' states side by side, with the gate caches and the BPTT
    closure only when recording."""
    x = rows.data
    count = len(x)
    n, batch = steps.shape
    dirs, d = len(cells), cells[0].hidden
    order = _reversal(n, lengths) if any(reverse) else None
    # each direction's step map in its own time order, the zero row as row `count`
    steps = np.where(steps < 0, count, steps)
    maps = [steps[order] if rev else steps for rev in reverse]
    ws, u_zrs, u_hs = [c.w.data for c in cells], [c.u_zr.data for c in cells], [c.u_h.data for c in cells]
    parents = (rows,) + tuple(t for c in cells for t in (c.w, c.u_zr, c.u_h, c.b))
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

    # xw[g, r] is row r's input product under direction g, bias included, and
    # at[t] names the (G, B) entries of xw, flattened, that step t reads
    xw = np.empty((dirs, count + 1, 3 * d))
    xw[:, count] = 0.0
    for g, c in enumerate(cells):
        _gemm(x, ws[g], out=xw[g, :count])
        xw[g] += c.b.data
    xw = xw.reshape(-1, 3 * d)
    at = np.stack(maps, axis=1) + (count + 1) * np.arange(dirs)[:, None]
    xt = np.empty((dirs, batch, 3 * d))
    u_zr, u_h = np.stack(u_zrs), np.stack(u_hs)
    with np.errstate(over="ignore"):
        for t in range(n):
            h = hs[t]
            zr = zrs[t] if recording else a_zr
            c = cs[t] if recording else a_c
            xw.take(at[t], axis=0, out=xt, mode="clip")
            _gemm(h, u_zr, out=a_zr)
            _sigmoid(np.add(xt[..., : 2 * d], a_zr, out=zr), out=zr)
            z, r = zr[..., :d], zr[..., d:]
            _gemm(np.multiply(r, h, out=rh), u_h, out=a_c)
            np.tanh(np.add(xt[..., 2 * d :], a_c, out=c), out=c)
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
        # per_row[r] sums the gate adjoints of the steps that read row r, so
        # the weight and input products run over the distinct rows; the zero
        # row's, at `count`, is dropped, and with it every padded step.  The
        # scatter goes through flat entry indices: np.add.at's 1-D path is
        # several times faster than its row-indexed one
        per_row = np.empty((count + 1, 3 * d))
        entries = np.empty((n * batch, 3 * d), dtype=np.intp)
        drows, dparams = np.zeros((count, x.shape[1])), []
        for g in range(dirs):
            dxw = dxws[g].reshape(n * batch, 3 * d)
            hp = hs[:-1, g].reshape(n * batch, d)
            per_row.fill(0.0)
            np.add(maps[g].reshape(-1, 1) * (3 * d), np.arange(3 * d), out=entries)
            np.add.at(per_row.reshape(-1), entries.reshape(-1), dxw.reshape(-1))
            dparams += [
                x.T @ per_row[:count],
                hp.T @ dxw[:, : 2 * d],
                (zrs[:, g, :, d:].reshape(n * batch, d) * hp).T @ dxw[:, 2 * d :],
                dxw.sum(axis=0),
            ]
            drows += per_row[:count] @ ws[g].T
        return (drows, *dparams)

    return _make(out, parents, back)


def gru_sequence(steps, rows: Tensor, layers, lengths) -> Tensor:
    """Both directions of every BiGruParams in `layers` over a batch of B
    columns, in one time loop, returning one state per step.

    `rows` (R, in) holds the distinct input rows, and the (T, B) integer
    array `steps` names the row each step reads: column b reads
    rows[steps[t, b]] at step t, or a row of zeros where steps[t, b] is -1,
    for its first `lengths[b]` steps, and its padded steps after those may
    read any row.  Each row's input product is computed once, however many
    steps read it.  Each column's states match a separate call on its own
    steps, and states at padded steps are meaningless.  The backward
    direction reads each column in reverse within its own length, so step
    t still describes the column's step t and padded steps stay after the
    valid ones.  The layers, all of one shape, read the same rows; the
    output holds, side by side in `layers` order, each layer's forward and
    backward states: (T, B, 2d * len(layers)).
    """
    cells = tuple(c for p in layers for c in (p.fwd, p.bwd))
    steps = np.asarray(steps)
    if steps.ndim != 2 or steps.size == 0 or steps.dtype.kind not in "iu":
        raise ValueError(f"gru_sequence needs a nonempty (T, B) integer step map, got shape {steps.shape}")
    if any(c.w.data.shape != cells[0].w.data.shape for c in cells):
        raise ValueError(f"gru_sequence layers differ in weight shape: {[c.w.data.shape for c in cells]}")
    shape = rows.data.shape
    if len(shape) != 2 or shape[-1] != cells[0].w.data.shape[0]:
        raise ValueError(f"gru_sequence input width of rows {shape} does not fit weight shape {cells[0].w.data.shape}")
    if steps.min() < -1 or steps.max() >= shape[0]:
        raise ValueError(f"gru_sequence step map reads rows {steps.min()}..{steps.max()} of {shape[0]}")
    lengths = np.asarray(lengths)
    if lengths.shape != steps.shape[1:] or lengths.min() < 1 or lengths.max() > steps.shape[0]:
        raise ValueError(f"gru_sequence lengths {lengths.tolist()} do not fit step map shape {steps.shape}")
    return _gru_pass(steps, rows, cells, (False, True) * len(layers), lengths)


def bigru_rows(parts, columns, *layers) -> list:
    """The forward and backward states, side by side, of every column under
    each BiGruParams of `layers`: one list of (len(columns[b]), 2d) tensors
    per layer.  The rows of the 2-D tensors `parts` form one table, and
    column b reads row columns[b][t] of it at step t; every column goes in
    one packed batch, so one time loop steps both directions of every layer
    over all of them, and a row that several steps read is projected once.
    Padded steps read the zero row (-1)."""
    rows = concat_rows(parts)
    lengths = [len(c) for c in columns]
    steps = np.full((max(lengths), len(columns)), -1)
    for b, c in enumerate(columns):
        steps[: lengths[b], b] = c
    packed = gru_sequence(steps, rows, layers, lengths)
    # (T, B, k * 2d) as (T, B * k, 2d): column b * k + j holds layer j of column b
    n, batch, width = packed.shape
    k = len(layers)
    states = unstack(reshape(packed, (n, batch * k, width // k)), [m for m in lengths for _ in layers])
    return [states[j::k] for j in range(k)]


def bigru_each(sequences, *layers) -> list:
    """`bigru_rows` over the (n_i, in) tensors in `sequences`, each its own
    column reading its own rows in order."""
    ends = accumulate(s.shape[0] for s in sequences)
    return bigru_rows(sequences, [np.arange(e - s.shape[0], e) for s, e in zip(sequences, ends)], *layers)
