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
