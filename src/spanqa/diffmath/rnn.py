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
of one, and a column's states do not depend on what else shares its
batch or its rows beyond BLAS's rounding, which at an inner width above
200 can change with a product's row count.  The forward and backward
directions of a bidirectional layer share the loop too, as do several
layers that read the same rows: each step makes one stacked (G, B, d)
recurrent product per gate group over all G directions, and a backward
direction reads its steps reversed within each column's length.  Inside a
`workers.workers` block that pins BLAS the directions go in groups, each
on a thread of its own.  Gate weights are packed [z | r | h] along the
output axis."""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .optim import glorot_uniform
from .tensor import Tensor, _make, concat_rows, grad_enabled, reshape, unstack
from .workers import direction_groups, split_cpus, together


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


# BPTT's scatter of gate adjoints into rows indexes a block of steps at a
# time, of at most this many entries, so its index buffer stays within 1 MB
_SCATTER_ENTRIES = 1 << 17


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
    closure only when recording.

    Inside a `workers` block that pins BLAS the directions go in contiguous
    groups (`direction_groups`), and each group's projection, time loop and
    BPTT sweep run on a thread of their own; in BPTT's epilogue, one
    direction at a time, the weight products run beside the input product.
    Each direction runs the same ops on the same operands in any group,
    and the input adjoints are added in direction order, so no number
    depends on the grouping."""
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
    spans = direction_groups(dirs, split_cpus())

    # hs[t] is the state before step t (row 0 the zero state) and hs[t + 1]
    # after it; the gates go to the caches zrs ([z | r]) and cs when
    # recording; xw[g, r] is row r's input product under direction g, bias
    # included.  Each array is allocated whole, on the calling thread, and a
    # group of directions [a, b) works in its slice of it: one array per
    # group kept more memory resident, since malloc keeps smaller blocks in
    # its heaps (a worker's in an arena of its own) where it unmaps larger
    # ones when they are freed
    hs = np.zeros((n + 1, dirs, batch, d))
    zrs = np.empty((n, dirs, batch, 2 * d)) if recording else None
    cs = np.empty((n, dirs, batch, d)) if recording else None
    xw = np.empty((dirs, count + 1, 3 * d))
    xw[:, count] = 0.0
    # at[t] names the (G, B) entries of xw, flattened, that step t reads;
    # a_zr and a_c take each step's recurrent products, and the gates go
    # over them when not recording
    at = np.stack(maps, axis=1) + (count + 1) * np.arange(dirs)[:, None]
    xt = np.empty((dirs, batch, 3 * d))
    a_zr = np.empty((dirs, batch, 2 * d))
    a_c = np.empty((dirs, batch, d))
    rh = np.empty((dirs, batch, d))
    u_zr, u_h = np.stack(u_zrs), np.stack(u_hs)
    if not recording:
        del steps, maps  # only BPTT reads them

    def forward(a, b):
        """Directions [a, b), each array read and written in its slice."""
        for g in range(a, b):
            _gemm(x, ws[g], out=xw[g, :count])
            xw[g] += cells[g].b.data
        xw_flat = xw.reshape(-1, 3 * d)
        hs_g, at_g, xt_g = hs[:, a:b], at[:, a:b], xt[a:b]
        zrs_g = zrs[:, a:b] if recording else None
        cs_g = cs[:, a:b] if recording else None
        a_zr_g, a_c_g, rh_g, u_zr_g, u_h_g = a_zr[a:b], a_c[a:b], rh[a:b], u_zr[a:b], u_h[a:b]
        with np.errstate(over="ignore"):
            for t in range(n):
                h = hs_g[t]
                zr = zrs_g[t] if recording else a_zr_g
                c = cs_g[t] if recording else a_c_g
                xw_flat.take(at_g[t], axis=0, out=xt_g, mode="clip")
                _gemm(h, u_zr_g, out=a_zr_g)
                _sigmoid(np.add(xt_g[..., : 2 * d], a_zr_g, out=zr), out=zr)
                z, r = zr[..., :d], zr[..., d:]
                _gemm(np.multiply(r, h, out=rh_g), u_h_g, out=a_c_g)
                np.tanh(np.add(xt_g[..., 2 * d :], a_c_g, out=c), out=c)
                # h' = (1 - z) * h + z * c, with rh free again as scratch
                np.multiply(np.subtract(1.0, z, out=rh_g), h, out=rh_g)
                np.add(rh_g, np.multiply(z, c, out=hs_g[t + 1]), out=hs_g[t + 1])

    together([partial(forward, a, b) for a, b in spans])
    del xw  # dead once the loops end; freed before the output is gathered
    out = np.empty((n, batch, dirs, d))
    for g, rev in enumerate(reverse):
        out[:, :, g] = hs[1:, g][order] if rev else hs[1:, g]
    out = out.reshape(n, batch, dirs * d)
    if not recording:
        return Tensor(out)

    def back(grad):
        nonlocal cs
        grad = grad.reshape(n, batch, dirs, d)
        # Allocated whole here too: the output adjoints in each direction's
        # time order and the gate pre-activation adjoints [dz | dr | dc],
        # both direction-major so that a direction's block is contiguous for
        # the epilogue, and each direction's parameter adjoints
        gs = np.empty((dirs, n, batch, d))
        for g, rev in enumerate(reverse):
            gs[g] = grad[:, :, g][order] if rev else grad[:, :, g]
        dxws = np.empty((dirs, n, batch, 3 * d))
        dparams = [[np.empty_like(t.data) for t in (c.w, c.u_zr, c.u_h, c.b)] for c in cells]

        def bptt(a, b):
            # built here, not captured, so no stacked weight copy stays alive in the graph
            u_zr_t = np.stack([u.T for u in u_zrs[a:b]])
            u_h_t = np.stack([u.T for u in u_hs[a:b]])
            gs_g, hs_g, zrs_g, cs_g, dxws_g = gs[a:b], hs[:, a:b], zrs[:, a:b], cs[:, a:b], dxws[a:b]
            dh = np.zeros((b - a, batch, d))
            for t in range(n - 1, -1, -1):
                dht = gs_g[:, t] + dh
                z, r, c, hp = zrs_g[t, ..., :d], zrs_g[t, ..., d:], cs_g[t], hs_g[t]
                da = (dht * z) * (1.0 - c * c)
                dxws_g[:, t, :, 2 * d :] = da
                drh = da @ u_h_t
                dxws_g[:, t, :, :d] = (dht * (c - hp)) * z * (1.0 - z)
                dxws_g[:, t, :, d : 2 * d] = (drh * hp) * r * (1.0 - r)
                dh = dht * (1.0 - z) + drh * r + dxws_g[:, t, :, : 2 * d] @ u_zr_t

        together([partial(bptt, a, b) for a, b in spans])
        cs = None  # the candidate cache is BPTT's alone: freed before the epilogue allocates

        # per_row[r] sums the gate adjoints of the steps that read row r, so
        # the weight and input products run over the distinct rows; the zero
        # row's, at `count`, is dropped, and with it every padded step.  The
        # scatter goes through flat entry indices, a block of steps at a
        # time: np.add.at's 1-D path is several times faster than its
        # row-indexed one, and it adds in step order either way
        per_row = np.empty((count + 1, 3 * d))
        block = min(max(1, _SCATTER_ENTRIES // (3 * d)), n * batch)
        entries = np.empty((block, 3 * d), dtype=np.intp)
        drows, product = np.zeros((count, x.shape[1])), np.empty((count, x.shape[1]))

        def weights(g):
            dxw = dxws[g].reshape(n * batch, 3 * d)
            dw, du_zr, du_h, db = dparams[g]
            np.matmul(x.T, per_row[:count], out=dw)
            # the output adjoints are spent, so their block takes h, then z_r * h
            spent = gs[g].reshape(n * batch, d)
            np.copyto(gs[g], hs[:-1, g])
            np.matmul(spent.T, dxw[:, : 2 * d], out=du_zr)
            np.multiply(zrs[:, g, :, d:], gs[g], out=gs[g])
            np.matmul(spent.T, dxw[:, 2 * d :], out=du_h)
            dxw.sum(axis=0, out=db)

        def add_input_adjoint(g):
            np.matmul(per_row[:count], ws[g].T, out=product)
            np.add(drows, product, out=drows)

        for g in range(dirs):
            dxw = dxws[g].reshape(-1)
            reads = maps[g].reshape(-1, 1) * (3 * d)
            per_row.fill(0.0)
            for s in range(0, n * batch, block):
                chunk = entries[: min(block, n * batch - s)]
                np.add(reads[s : s + len(chunk)], np.arange(3 * d), out=chunk)
                np.add.at(per_row.reshape(-1), chunk.reshape(-1), dxw[s * 3 * d : (s + len(chunk)) * 3 * d])
            # the input adjoints go into drows in direction order
            together([partial(add_input_adjoint, g), partial(weights, g)])
        return (drows, *[p for ps in dparams for p in ps])

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
