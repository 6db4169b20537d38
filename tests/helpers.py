"""Shared test utilities: finite-difference gradient checking, tiny models,
and reference oracles for the tokenizer, the span decoder and the encode path."""

import json
import math
import string
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from spanqa.aggregation import aggregate, group_candidates
from spanqa.checkpoint import MAGIC
from spanqa.diffmath import (
    BiGruParams,
    Tensor,
    backward,
    bigru_each,
    clip_min,
    concat_cols,
    gather_rows,
    log,
    matmul,
    mul,
    no_grad,
    pick,
    reshape,
    row_softmax,
    rnn,
    workers,
)
from spanqa.diffmath.rnn import _gru_pass, _reversal, _sigmoid
from spanqa.diffmath.tensor import _make
from spanqa.encoder import CharVocab, EncoderConfig, Vocab
from spanqa.model import QaModel
from spanqa.paragraph_quality import normalize_quality_tensors, quality_head, quality_logit
from spanqa.pipeline import PROB_FLOOR, beam_candidates, best_answer, combine_scores, top_indices
from spanqa.span_decoder import (
    SpanDecoderParams,
    StartDistribution,
    end_distribution,
    span_probability,
    start_distribution,
    start_head,
)

TINY_WORDS = ["camels", "store", "fat", "in", "their", "humps", "what", "do", "?", "sand", "dune", "walks"]


def tiny_model(hidden_dim=2, word_dim=4, char_out_dim=3, words=None, seed=0, keep_prob=1.0):
    config = EncoderConfig(
        word_dim=word_dim,
        char_dim=5,
        char_conv_width=3,
        char_out_dim=char_out_dim,
        hidden_dim=hidden_dim,
        keep_prob=keep_prob,
    )
    vocab = Vocab(words or TINY_WORDS)
    return QaModel.create(config, vocab, CharVocab.from_vocab(vocab), seed=seed)


def full_width_model(seed=0, keep_prob=1.0):
    """`tiny_model` at the full profile's widths (tokens 400 wide, hidden
    200), where BLAS's rounding depends on its thread count and on a
    product's size."""
    return tiny_model(hidden_dim=200, word_dim=300, char_out_dim=100, seed=seed, keep_prob=keep_prob)


# full-width passes run on the calling thread where numpy's BLAS thread
# count cannot be set
needs_blas_threads = pytest.mark.skipif(
    workers._blas_thread_calls() is None, reason="numpy's BLAS thread count cannot be set here"
)


@contextmanager
def serial_at_one_blas_thread(monkeypatch):
    """numpy's OpenBLAS at one thread inside the block, and every recurrent
    pass on the calling thread whatever its width: the bits that a split
    pass reproduces (tests marked `needs_blas_threads`)."""
    get, put = workers._blas_thread_calls()
    before = get()
    put(1)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(workers, "_blas_thread_calls", lambda: None)
            yield
    finally:
        put(before)


def spy_groups(monkeypatch, cpus):
    """Let each recurrent pass split into up to `cpus` groups, as on a host
    with `cpus` usable CPUs, and return the list that records how many
    groups each pass's directions go in."""
    sizes = []

    def direction_groups(dirs, cpus):
        groups = workers.direction_groups(dirs, cpus)
        sizes.append(len(groups))
        return groups

    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(workers, "_MAX_GROUPS", cpus)
    monkeypatch.setattr(rnn, "direction_groups", direction_groups)
    return sizes


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of the scalar-valued callable f w.r.t. x.

    x is perturbed in place and restored; f must recompute from x's current
    contents on every call.
    """
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f()
        x[i] = orig - h
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / denom))


def check_grads(build, tensors, tol=1e-4, h=1e-5):
    """Compare backward() against finite differences for each leaf in `tensors`.

    `build` must rebuild the graph from the leaves' current data and return
    a scalar Tensor.
    """
    loss = build()
    backward(loss)
    for t in tensors:
        assert t.grad is not None, "leaf received no gradient"
        analytic = t.grad.copy()
        numeric = numeric_grad(lambda: build().item(), t.data, h=h)
        err = max_rel_err(analytic, numeric)
        assert err < tol, f"gradient mismatch: max rel err {err:.3e} (tol {tol:.0e})"
        t.zero_grad()


def set_checkpoint_value(path, name, value):
    """Overwrite the first entry of parameter `name` in the checkpoint file at
    `path` with the float `value`, leaving every other byte as it was."""
    raw = bytearray(Path(path).read_bytes())
    length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    manifest = json.loads(raw[len(MAGIC) + 8 : len(MAGIC) + 8 + length])
    offset = len(MAGIC) + 8 + length
    for entry in manifest["params"] + manifest["frozen"]:
        if entry["name"] == name:
            raw[offset : offset + 8] = np.array([value], dtype="<f8").tobytes()
            Path(path).write_bytes(bytes(raw))
            return
        offset += 8 * math.prod(entry["shape"])
    raise KeyError(name)


# ------------------------------------------------------------- oracles


def reverse_columns(a: Tensor, lengths) -> Tensor:
    """Reverse column b of a packed (T, B, k) tensor within its first
    lengths[b] steps, leaving its padded steps in place."""
    n, batch, k = a.shape
    steps, ends = np.arange(n)[:, None], np.asarray(lengths)[None, :]
    rows = np.where(steps < ends, ends - 1 - steps, steps) * batch + np.arange(batch)[None, :]
    return reshape(gather_rows(reshape(a, (n * batch, k)), rows.reshape(-1)), (n, batch, k))


def pad_stack(parts) -> Tensor:
    """Pack 2-D tensors (n_b, k) time-first into a zero-padded (max n_b, B, k)
    tensor whose column b holds parts[b]."""
    lengths = [p.data.shape[0] for p in parts]
    out = np.zeros((max(lengths), len(parts), parts[0].data.shape[1]))
    for b, p in enumerate(parts):
        out[: lengths[b], b] = p.data
    return _make(out, tuple(parts), lambda g: tuple(g[:n, b] for b, n in enumerate(lengths)))


def step_rows(inputs: Tensor) -> tuple:
    """A packed (T, B, in) batch in the recurrent kernel's call form: the
    (T, B) step map and the (T * B, in) rows, each step reading its own row."""
    n, batch, width = inputs.shape
    return np.arange(n * batch).reshape(n, batch), reshape(inputs, (n * batch, width))


def two_loop_bigru(steps, rows: Tensor, params: BiGruParams, lengths) -> Tensor:
    """Both directions of a packed batch as two separate forward passes, the
    second reading each column's steps reversed within its length: the
    reference for the kernel that steps both directions in one loop."""
    fwd = _gru_pass(steps, rows, (params.fwd,), (False,), lengths)
    backwards = steps[_reversal(len(steps), lengths)]
    bwd = reverse_columns(_gru_pass(backwards, rows, (params.bwd,), (False,), lengths), lengths)
    return concat_cols([fwd, bwd])


def copying_gru_pass(steps, rows: Tensor, cells: tuple, reverse: tuple, lengths) -> Tensor:
    """The recurrent kernel (`diffmath.rnn._gru_pass`, same arguments) as it
    was before it projected each row once and shared its BPTT buffers: it
    gathers the padded (T, B, in) input from the rows (a zero row where a
    step reads -1) and projects every step, the closure keeps the backward
    direction's reversed copy of the input, the epilogue concatenates
    separate dzr and dah arrays per direction, and each step's input and
    weight adjoints come from its own gathered row, the input adjoints
    added into their rows last.  The reference that the kernel's states
    must match bit for bit; its gradients, which sum each row's step
    adjoints before the weight and input products, within 1e-12
    relative."""
    x = np.concatenate([rows.data, np.zeros((1, rows.shape[1]))])[steps]
    n, batch, _ = x.shape
    dirs, d = len(cells), cells[0].hidden
    order = _reversal(n, lengths) if any(reverse) else None
    ws, u_zrs, u_hs = [c.w.data for c in cells], [c.u_zr.data for c in cells], [c.u_h.data for c in cells]
    flat = [(x[order] if rev else x).reshape(n * batch, -1) for rev in reverse]
    xw = np.empty((n, dirs, batch, 3 * d))
    for g, c in enumerate(cells):
        np.add((flat[g] @ ws[g]).reshape(n, batch, 3 * d), c.b.data, out=xw[:, g])
    u_zr, u_h = np.stack(u_zrs), np.stack(u_hs)
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
        u_zr_t = np.stack([u.T for u in u_zrs])
        u_h_t = np.stack([u.T for u in u_hs])
        dzr = np.empty((n, dirs, batch, 2 * d))
        dah = np.empty((n, dirs, batch, d))
        dh = np.zeros((dirs, batch, d))
        for t in range(n - 1, -1, -1):
            dht = gs[t] + dh
            z, r, c, hp = zs[t], rs[t], cs[t], hs[t]
            da = (dht * z) * (1.0 - c * c)
            dah[t] = da
            drh = da @ u_h_t
            dzr[t, ..., :d] = (dht * (c - hp)) * z * (1.0 - z)
            dzr[t, ..., d:] = (drh * hp) * r * (1.0 - r)
            dh = dht * (1.0 - z) + drh * r + dzr[t] @ u_zr_t
        dx, dparams = None, []
        for g, rev in enumerate(reverse):
            dxw = np.concatenate([dzr[:, g], dah[:, g]], axis=-1).reshape(n * batch, 3 * d)
            hp = hs[:-1, g].reshape(n * batch, d)
            dxg = (dxw @ ws[g].T).reshape(x.shape)
            dxg = dxg[order] if rev else dxg
            dx = dxg if dx is None else dx + dxg
            dparams += [
                flat[g].T @ dxw,
                hp.T @ dzr[:, g].reshape(n * batch, 2 * d),
                (rs[:, g].reshape(n * batch, d) * hp).T @ dah[:, g].reshape(n * batch, d),
                dxw.sum(axis=0),
            ]
        drows = np.zeros((len(rows.data) + 1, x.shape[-1]))
        np.add.at(drows, steps, dx)  # a step reading -1 adds into the dropped last row
        return (drows[:-1], *dparams)

    out = np.empty((n, batch, dirs, d))
    for g, rev in enumerate(reverse):
        out[:, :, g] = hs[1:, g][order] if rev else hs[1:, g]
    parents = (rows,) + tuple(t for c in cells for t in (c.w, c.u_zr, c.u_h, c.b))
    return _make(out.reshape(n, batch, dirs * d), parents, back)


def copying_end_distributions(rows, params: SpanDecoderParams) -> list:
    """`span_decoder.end_distributions` with one copy of the paragraph per
    start: each (context, start_dist, start) triple reads its own
    [context | start states | indicator] rows, the indicator one at its
    start, as training's end layer did before the starts shared their
    paragraph's rows.  The reference that the shared rows must match:
    distributions bit for bit, gradients within 1e-12 relative."""
    inputs = []
    for context, start_dist, start in rows:
        indicator = np.zeros((context.shape[0], 1))
        indicator[start, 0] = 1.0
        inputs.append(concat_cols([context, start_dist.states, Tensor(indicator)]))
    (states_each,) = bigru_each(inputs, params.end_rnn)
    dists = []
    for (_, _, start), states in zip(rows, states_each):
        logits = reshape(matmul(states, params.w_end), (-1,))
        dists.append(row_softmax(logits, np.arange(logits.data.shape[0]) >= start))
    return dists


def separate_start_and_quality(contexts, decoder, params, grad_through_start):
    """`paragraph_quality.start_and_quality` with the start and the quality
    layer each in its own time loop over the contexts: the reference for the
    one loop they share."""
    (start_states,) = bigru_each(contexts, decoder.start_rnn)
    (quality_states,) = bigru_each(contexts, params.rnn)
    starts = [start_head(states, decoder) for states in start_states]
    logits = [quality_head(q, sd, params, grad_through_start) for q, sd in zip(quality_states, starts)]
    return starts, logits


def tsum(a) -> Tensor:
    """Sum of all entries, as a scalar tensor: the usual scalar to call
    `backward` on in gradient tests."""
    shape = a.data.shape
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape),))


def dense_unstack(a: Tensor, lengths) -> list:
    """Reference `unstack`: each column's closure returns a dense adjoint of
    the whole packed shape, zero outside the column's own slice."""

    def column(b, n):
        def back(g):
            out = np.zeros_like(a.data)
            out[:n, b] = g
            return (out,)

        return _make(a.data[:n, b], (a,), back)

    return [column(b, n) for b, n in enumerate(lengths)]


def loop_group_max_rows(a: np.ndarray, group_sizes):
    """group_max_rows as one argmax per group: (per-column group maxima, the
    first row holding each) -- the reference for the vectorized op."""
    starts = np.cumsum([0] + list(group_sizes)[:-1])
    out = np.empty((len(group_sizes), a.shape[1]))
    rows = np.empty((len(group_sizes), a.shape[1]), dtype=np.intp)
    for gi, (s0, size) in enumerate(zip(starts, group_sizes)):
        local = a[s0 : s0 + size].argmax(axis=0)
        rows[gi] = s0 + local
        out[gi] = a[s0 + local, np.arange(a.shape[1])]
    return out, rows


def loop_tokenize(text):
    """corpus.tokenize as a character scan: split on whitespace, peel
    punctuation off both ends of each run one character at a time, and
    lowercase what is left -- the reference for the regular expression."""
    punct = set(string.punctuation)
    tokens, offsets = [], []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        s, e = i, j
        while s < e and text[s] in punct:
            tokens.append(text[s])
            offsets.append((s, s + 1))
            s += 1
        trail = []
        while e > s and text[e - 1] in punct:
            trail.append((e - 1, e))
            e -= 1
        if s < e:
            tokens.append(text[s:e].lower())
            offsets.append((s, e))
        for a, b in reversed(trail):
            tokens.append(text[a])
            offsets.append((a, b))
        i = j
    return tokens, offsets


def softmax(logits) -> list:
    """Max-subtracted softmax of plain floats in numpy: the independent
    reference for the paragraph weights q_i."""
    arr = np.array([float(x) for x in logits])
    arr = np.exp(arr - arr.max())
    return (arr / arr.sum()).tolist()


def all_span_probabilities(context: Tensor, params: SpanDecoderParams, cap: int = 64) -> np.ndarray:
    """Dense (n, n) table of span probabilities: row s holds p(start=s) * p(end | s).

    An exhaustive reference for small paragraphs — it runs one end
    distribution per start, so n is capped.  Entries below the diagonal are
    zero by construction.
    """
    n = context.shape[0]
    if n > cap:
        raise ValueError(f"paragraph length {n} exceeds exhaustive-table cap {cap}")
    start_dist = start_distribution(context, params)
    table = np.zeros((n, n))
    for s in range(n):
        ends = end_distribution(context, start_dist, s, params)
        table[s] = start_dist.probs.data[s] * ends.data
    return table


def independent_end_distribution(
    context: Tensor,
    start_dist: StartDistribution,
    rnn: BiGruParams,
    w_end: Tensor,
) -> Tensor:
    """Baseline end distribution that ignores the chosen start entirely.

    Used only as a test-bench contrast: it sees the same context and start
    states but no indicator and no mask, so it returns one fixed
    distribution regardless of the start position.
    """
    [[states]] = bigru_each([concat_cols([context, start_dist.states])], rnn)
    return row_softmax(reshape(matmul(states, w_end), (-1,)))


def encode_question(model, tokens, rng=None) -> Tensor:
    """Contextual encoding (m, 2d) of one question: `QaModel.encode_questions`
    of a batch of one, the B=1 reference call; `rng` gives its dropout."""
    return model.encode_questions([tokens], [rng])[0]


def paragraph_contexts(model, example):
    """Each paragraph's context embedding, with the question encoded afresh
    for every paragraph: the reference for sharing one question encoding."""
    return [
        model.encode_paragraph(encode_question(model, example.question), p.tokens)
        for p in example.paragraphs
    ]


def quality_probs(model, example):
    """Normalized quality of each paragraph, skipping span decoding."""
    with no_grad():
        logits = []
        for ctx in paragraph_contexts(model, example):
            starts = start_distribution(ctx, model.decoder)
            logits.append(quality_logit(ctx, starts, model.quality).item())
    return softmax(logits)


def reference_example_loss(model, example, pos_index, pos_labels, neg_paragraph, mode, rng):
    """pipeline.example_loss from the one-item (B=1) calls: each paragraph of
    the pair, and each distinct labelled start, gets its own recurrent pass.
    Random draws come in the same order: question, positive, negative, then
    aggregation."""
    question = encode_question(model, example.question, rng)
    pos_ctx = model.encode_paragraph(question, example.paragraphs[pos_index].tokens, rng)
    neg_ctx = model.encode_paragraph(question, neg_paragraph.tokens, rng)
    pos_starts = start_distribution(pos_ctx, model.decoder)
    neg_starts = start_distribution(neg_ctx, model.decoder)
    ends = {s: end_distribution(pos_ctx, pos_starts, s, model.decoder) for s in {l.start for l in pos_labels}}
    span_probs = [span_probability(pos_starts, ends[l.start], l.start, l.end) for l in pos_labels]
    answer_prob = aggregate(span_probs, mode, rng)
    pair_probs = normalize_quality_tensors(
        [
            quality_logit(pos_ctx, pos_starts, model.quality, model.grad_through_start),
            quality_logit(neg_ctx, neg_starts, model.quality, model.grad_through_start),
        ]
    )
    return mul(log(clip_min(pick(pair_probs, 0), PROB_FLOOR)) + log(clip_min(answer_prob, PROB_FLOOR)), -1.0)


def reference_beam(context, paragraph, params, k1, k2):
    """beam_candidates over one paragraph, with one start distribution and
    one end distribution per top-k1 start, each its own B=1 pass."""
    starts = start_distribution(context, params)
    ends = {s: end_distribution(context, starts, s, params).data for s in top_indices(starts.probs.data, k1)}
    return beam_candidates(paragraph, starts, ends, k1, k2)


def reference_predict(model, example, mode, k1, k2, rng=None):
    """(answer_scores, paragraph_probs, best_answer) from the same beam and
    mixture as pipeline.predict, over paragraph_contexts."""
    with no_grad():
        logits, groups = [], []
        for paragraph, ctx in zip(example.paragraphs, paragraph_contexts(model, example)):
            cands = reference_beam(ctx, paragraph, model.decoder, k1, k2)
            groups.append(group_candidates(cands, mode, rng))
            starts = start_distribution(ctx, model.decoder)
            logits.append(quality_logit(ctx, starts, model.quality).item())
    probs = softmax(logits)
    scores = combine_scores(probs, groups)
    return scores, probs, best_answer(scores)
