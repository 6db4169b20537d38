"""Shared test utilities: finite-difference gradient checking, tiny models,
and exhaustive reference oracles for the span decoder and the encode path."""

import numpy as np

from spanqa.aggregation import aggregate, group_candidates
from spanqa.diffmath import (
    BiGruParams,
    Tensor,
    backward,
    bigru,
    clip_min,
    concat_cols,
    gather_rows,
    gru_sequence,
    log,
    matmul,
    no_grad,
    pick,
    reshape,
    row_softmax,
)
from spanqa.diffmath.rnn import _reversal, _sigmoid
from spanqa.diffmath.tensor import _make
from spanqa.encoder import CharVocab, EncoderConfig, Vocab
from spanqa.model import QaModel
from spanqa.paragraph_quality import normalize_quality_tensors, quality_logit
from spanqa.pipeline import PROB_FLOOR, beam_candidates, best_answer, combine_scores, top_indices
from spanqa.span_decoder import (
    SpanDecoderParams,
    StartDistribution,
    end_distribution,
    span_probability,
    start_distribution,
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


# ------------------------------------------------------------- oracles


def reverse_columns(a: Tensor, lengths) -> Tensor:
    """Reverse column b of a packed (T, B, k) tensor within its first
    lengths[b] steps, leaving its padded steps in place."""
    n, batch, k = a.shape
    steps, ends = np.arange(n)[:, None], np.asarray(lengths)[None, :]
    rows = np.where(steps < ends, ends - 1 - steps, steps) * batch + np.arange(batch)[None, :]
    return reshape(gather_rows(reshape(a, (n * batch, k)), rows.reshape(-1)), (n, batch, k))


def two_loop_bigru(inputs: Tensor, params: BiGruParams, lengths) -> Tensor:
    """bigru of a packed (T, B, in) batch as two separate forward passes, the
    second over the input reversed within each column: the reference for
    the kernel that steps both directions in one loop."""
    fwd = gru_sequence(inputs, params.fwd, "forward")
    bwd = reverse_columns(gru_sequence(reverse_columns(inputs, lengths), params.bwd, "forward"), lengths)
    return concat_cols([fwd, bwd])


def copying_gru_pass(inputs: Tensor, cells: tuple, reverse: tuple, lengths) -> Tensor:
    """The recurrent kernel (`diffmath.rnn._gru_pass`, same arguments) as it
    was before its BPTT buffers were shared: the closure keeps the backward
    direction's reversed copy of the input, and the epilogue concatenates
    separate dzr and dah arrays per direction.  The reference that the
    shared-buffer kernel must match bit for bit."""
    x = inputs.data
    n = x.shape[0]
    x3 = x.reshape(n, -1, x.shape[-1])
    batch, dirs, d = x3.shape[1], len(cells), cells[0].hidden
    order = _reversal(n, [n] * batch if lengths is None else lengths) if any(reverse) else None
    ws, u_zrs, u_hs = [c.w.data for c in cells], [c.u_zr.data for c in cells], [c.u_h.data for c in cells]
    flat = [(x3[order] if rev else x3).reshape(n * batch, -1) for rev in reverse]
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
            dxg = (dxw @ ws[g].T).reshape(x3.shape)
            dxg = dxg[order] if rev else dxg
            dx = dxg if dx is None else dx + dxg
            dparams += [
                flat[g].T @ dxw,
                hp.T @ dzr[:, g].reshape(n * batch, 2 * d),
                (rs[:, g].reshape(n * batch, d) * hp).T @ dah[:, g].reshape(n * batch, d),
                dxw.sum(axis=0),
            ]
        return (dx.reshape(x.shape), *dparams)

    out = np.empty((n, batch, dirs, d))
    for g, rev in enumerate(reverse):
        out[:, :, g] = hs[1:, g][order] if rev else hs[1:, g]
    parents = (inputs,) + tuple(t for c in cells for t in (c.w, c.u_zr, c.u_h, c.b))
    return _make(out.reshape(x.shape[:-1] + (dirs * d,)), parents, back)


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
    states = bigru(concat_cols([context, start_dist.states]), rnn)
    return row_softmax(reshape(matmul(states, w_end), (-1,)))


def paragraph_contexts(model, example):
    """Each paragraph's context embedding, with the question encoded afresh
    for every paragraph: the reference for sharing one question encoding."""
    return [
        model.encode_paragraph(model.encode_question(example.question), p.tokens)
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
    question = model.encode_question(example.question, rng, training=True)
    pos_ctx = model.encode_paragraph(question, example.paragraphs[pos_index].tokens, rng, training=True)
    neg_ctx = model.encode_paragraph(question, neg_paragraph.tokens, rng, training=True)
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
    return -(log(clip_min(pick(pair_probs, 0), PROB_FLOOR)) + log(clip_min(answer_prob, PROB_FLOOR)))


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
