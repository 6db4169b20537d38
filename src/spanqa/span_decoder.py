"""Conditional span prediction over an encoded paragraph.

The start distribution comes from a recurrent pass over the context; the end
distribution is computed *per start position* — the chosen start is fed back
in as an indicator input column, and every position before it is masked out
of the end softmax.  Because each conditional end distribution renormalizes
over the suffix, the probabilities of all well-formed spans sum to one.

There is deliberately no cap on span length: the end distribution covers the
whole suffix and long answers stay reachable.
"""

from dataclasses import dataclass

import numpy as np

from .diffmath import (
    BiGruParams,
    Tensor,
    bigru_each,
    concat_cols,
    glorot_uniform,
    init_bigru_params,
    matmul,
    pick,
    reshape,
    row_softmax,
)
from .encoder import ContextEmbedding


@dataclass
class StartDistribution:
    """Start-position probabilities plus the recurrent states they came from.

    `states` (n, 2d) is reused by the end distribution and the paragraph
    quality score, so it is computed once per paragraph.
    """

    probs: Tensor  # (n,)
    states: Tensor  # (n, 2d)

    @property
    def length(self) -> int:
        return self.probs.data.shape[0]


@dataclass
class SpanCandidate:
    """One scored (start, end) span; span_prob is exactly start_prob * end_prob."""

    start: int
    end: int
    start_prob: float
    end_prob: float
    span_prob: float
    answer_text: str


@dataclass
class SpanDecoderParams:
    start_rnn: BiGruParams  # 2d -> d
    end_rnn: BiGruParams  # 4d + 1 -> d
    w_start: Tensor  # (2d, 1)
    w_end: Tensor  # (2d, 1)

    def tensors(self):
        for name, t in self.start_rnn.tensors():
            yield "start_rnn/" + name, t
        for name, t in self.end_rnn.tensors():
            yield "end_rnn/" + name, t
        yield "w_start", self.w_start
        yield "w_end", self.w_end


def init_span_decoder_params(hidden_dim: int, rng) -> SpanDecoderParams:
    d = hidden_dim
    return SpanDecoderParams(
        start_rnn=init_bigru_params(2 * d, d, rng),
        end_rnn=init_bigru_params(4 * d + 1, d, rng),
        w_start=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
        w_end=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
    )


def start_distribution(context: ContextEmbedding, params: SpanDecoderParams) -> StartDistribution:
    return start_distributions([context], params)[0]


def start_distributions(contexts, params: SpanDecoderParams) -> list:
    """`start_distribution` of every paragraph, with one recurrent pass over all of them."""
    dists = []
    for states in bigru_each([c.values for c in contexts], params.start_rnn):
        logits = reshape(matmul(states, params.w_start), (-1,))
        dists.append(StartDistribution(probs=row_softmax(logits), states=states))
    return dists


def end_distribution(
    context: ContextEmbedding,
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
    `rows`, with one recurrent pass over all of them."""
    inputs = []
    for context, start_dist, start in rows:
        n = context.length
        if not 0 <= start < n:
            raise ValueError(f"start {start} out of range for paragraph length {n}")
        indicator = np.zeros((n, 1))
        indicator[start, 0] = 1.0
        inputs.append(concat_cols([context.values, start_dist.states, Tensor(indicator)]))
    dists = []
    for (_, _, start), states in zip(rows, bigru_each(inputs, params.end_rnn)):
        logits = reshape(matmul(states, params.w_end), (-1,))
        dists.append(row_softmax(logits, np.arange(logits.data.shape[0]) >= start))
    return dists


def span_probability(start_dist: StartDistribution, end_dist: Tensor, start: int, end: int) -> Tensor:
    """Scalar probability of the inclusive span [start, end]."""
    if end < start:
        raise ValueError(f"span end {end} precedes start {start}")
    if end >= start_dist.length:
        raise ValueError(f"span end {end} out of range for length {start_dist.length}")
    return pick(start_dist.probs, start) * pick(end_dist, end)
