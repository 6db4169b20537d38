"""Conditional span prediction over an encoded paragraph.

The start distribution comes from a recurrent pass over the context; the end
distribution is computed *per start position* — the chosen start is fed back
in as an indicator input column, and every position before it is masked out
of the end softmax.  Because each conditional end distribution renormalizes
over the suffix, the probabilities of all well-formed spans sum to one.

The end layer reads [context | start states | indicator] rows.  A
paragraph's starts, in training and in prediction alike, share its
start-free rows and differ in one indicator row each, so the layer
projects each paragraph's rows once rather than once per start.

There is deliberately no cap on span length: the end distribution covers the
whole suffix and long answers stay reachable.
"""

from dataclasses import dataclass

import numpy as np

from .diffmath import (
    BiGruParams,
    Tensor,
    bigru_each,
    bigru_rows,
    concat_cols,
    concat_rows,
    gather_rows,
    glorot_uniform,
    init_bigru_params,
    matmul,
    pick,
    reshape,
    row_softmax,
)


@dataclass
class StartDistribution:
    """Start-position probabilities plus the recurrent states they came from.

    `states` (n, 2d) is reused by the end distribution, so it is computed
    once per paragraph.  The paragraph quality score reads `probs` only; it
    runs its own recurrent layer over the context.
    """

    probs: Tensor  # (n,)
    states: Tensor  # (n, 2d)

    @property
    def length(self) -> int:
        return self.probs.data.shape[0]


@dataclass
class SpanCandidate:
    """One scored (start, end) span; span_prob is exactly P(start) * P(end | start)."""

    start: int
    end: int
    span_prob: float
    answer_text: str


@dataclass
class SpanDecoderParams:
    start_rnn: BiGruParams  # 2d -> d
    end_rnn: BiGruParams  # 4d + 1 -> d
    w_start: Tensor  # (2d, 1)
    w_end: Tensor  # (2d, 1)


def init_span_decoder_params(hidden_dim: int, rng) -> SpanDecoderParams:
    d = hidden_dim
    return SpanDecoderParams(
        start_rnn=init_bigru_params(2 * d, d, rng),
        end_rnn=init_bigru_params(4 * d + 1, d, rng),
        w_start=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
        w_end=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
    )


def start_distribution(context: Tensor, params: SpanDecoderParams) -> StartDistribution:
    """Start-position probabilities of one paragraph, from its own recurrent pass."""
    ((states,),) = bigru_each([context], params.start_rnn)
    return start_head(states, params)


def start_head(states: Tensor, params: SpanDecoderParams) -> StartDistribution:
    """The start distribution read off a paragraph's (n, 2d) start-layer states."""
    logits = reshape(matmul(states, params.w_start), (-1,))
    return StartDistribution(probs=row_softmax(logits), states=states)


def end_distribution(
    context: Tensor,
    start_dist: StartDistribution,
    start: int,
    params: SpanDecoderParams,
) -> Tensor:
    """End-position probabilities conditioned on a concrete start.

    The conditioning is twofold: an indicator column marks the start row in
    the recurrent input (so the states themselves depend on where the span
    begins), and positions before the start are masked out of the softmax,
    which renormalizes the remaining mass.  Different starts therefore
    yield genuinely different distributions, not one shared end marginal.
    """
    return end_distributions([(context, start_dist, start)], params)[0]


def end_distributions(rows, params: SpanDecoderParams) -> list:
    """`end_distribution` of every (context, start_dist, start) triple in
    `rows`, with one recurrent pass over all of them.

    The triples of one paragraph share its start-free rows, and each reads
    one indicator row of its own at its start, so the paragraph's input
    product is computed once, not once per start.  The states equal those
    of one copy of the paragraph per start, to the last bit at small
    widths and within BLAS's rounding at full width, and the indicator
    rows are graph ops on the start-free rows, so their adjoints reach the
    context and the start states."""
    for context, _, start in rows:
        if not 0 <= start < context.shape[0]:
            raise ValueError(f"start {start} out of range for paragraph length {context.shape[0]}")
    (states_each,) = bigru_rows(*_shared_end_rows(rows), params.end_rnn)
    dists = []
    for (_, _, start), states in zip(rows, states_each):
        logits = reshape(matmul(states, params.w_end), (-1,))
        dists.append(row_softmax(logits, np.arange(logits.data.shape[0]) >= start))
    return dists


def _shared_end_rows(rows) -> tuple:
    """`bigru_rows`' (parts, columns) for the end layer's triples `rows`: a
    table of the start-free rows [context | start states | 0] of each
    distinct (context, start_dist) once, then one indicator row per triple,
    its start's table row with the last column set to one, which its column
    reads at its start in place of the start-free row."""
    parts, firsts, count = [], {}, 0
    for context, start_dist, _ in rows:
        key = (id(context), id(start_dist))
        if key not in firsts:
            firsts[key] = count
            parts.append(concat_cols([context, start_dist.states, Tensor(np.zeros((context.shape[0], 1)))]))
            count += context.shape[0]
    table = concat_rows(parts)
    columns, at = [], []
    for context, start_dist, start in rows:
        column = firsts[(id(context), id(start_dist))] + np.arange(context.shape[0])
        at.append(column[start])
        column[start] = count + len(columns)
        columns.append(column)
    # the last column holds 0.0 in the table, and x + 0.0 = x elsewhere
    marks = np.zeros((len(rows), table.shape[1]))
    marks[:, -1] = 1.0
    return [table, gather_rows(table, at) + marks], columns


def span_probability(start_dist: StartDistribution, end_dist: Tensor, start: int, end: int) -> Tensor:
    """Scalar probability of the inclusive span [start, end]."""
    if end < start:
        raise ValueError(f"span end {end} precedes start {start}")
    if end >= start_dist.length:
        raise ValueError(f"span end {end} out of range for length {start_dist.length}")
    return pick(start_dist.probs, start) * pick(end_dist, end)
