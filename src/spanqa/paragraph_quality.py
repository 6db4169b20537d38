"""Paragraph quality scoring and the positive/negative pair sampler.

Each paragraph gets a scalar quality logit: a recurrent pass over the
context embedding, attention-pooled with the start distribution as the key,
then projected by w_c.  Logits are normalized across a paragraph list with a
softmax — over all retrieved paragraphs at inference, over just the sampled
(positive, negative) pair during training.
"""

from dataclasses import dataclass

from .diffmath import (
    BiGruParams,
    Tensor,
    bigru_each,
    concat_cols,
    glorot_uniform,
    init_bigru_params,
    matmul,
    reshape,
    row_softmax,
)
from .span_decoder import SpanDecoderParams, StartDistribution, start_head


@dataclass
class QualityParams:
    rnn: BiGruParams  # 2d -> d
    w_c: Tensor  # (2d, 1)


def init_quality_params(hidden_dim: int, rng) -> QualityParams:
    return QualityParams(
        rnn=init_bigru_params(2 * hidden_dim, hidden_dim, rng),
        w_c=Tensor(glorot_uniform((2 * hidden_dim, 1), rng), requires_grad=True),
    )


def quality_logit(
    context: Tensor,
    start_dist: StartDistribution,
    params: QualityParams,
    grad_through_start: bool = True,
) -> Tensor:
    """Scalar quality logit for one paragraph.

    The start distribution acts as attention weights over the quality
    states.  By default gradients flow through it, coupling the quality
    head to the span head; `grad_through_start=False` stops that coupling
    (the weights are then treated as constants) for ablation.
    """
    ((states,),) = bigru_each([context], params.rnn)
    return quality_head(states, start_dist, params, grad_through_start)


def quality_head(
    states: Tensor, start_dist: StartDistribution, params: QualityParams, grad_through_start: bool
) -> Tensor:
    """The quality logit read off a paragraph's (n, 2d) quality-layer states."""
    key = start_dist.probs if grad_through_start else start_dist.probs.detach()
    pooled = matmul(reshape(key, (1, -1)), states)
    return reshape(matmul(pooled, params.w_c), ())


def start_and_quality(contexts, decoder: SpanDecoderParams, params: QualityParams, grad_through_start: bool):
    """(`start_distribution`s, `quality_logit`s) of every paragraph.  The
    start and quality layers read the same contexts, so one time loop steps
    all four of their directions over every paragraph."""
    start_states, quality_states = bigru_each(contexts, decoder.start_rnn, params.rnn)
    starts = [start_head(states, decoder) for states in start_states]
    logits = [
        quality_head(states, start_dist, params, grad_through_start)
        for states, start_dist in zip(quality_states, starts)
    ]
    return starts, logits


def normalize_quality_tensors(logits) -> Tensor:
    """Softmax (max-subtracted) over scalar quality logits, one per paragraph,
    in the original paragraph (retrieval-rank) order: the paragraph weights
    q_i at inference and the pair probabilities in training."""
    if not logits:
        raise ValueError("normalize_quality_tensors needs at least one paragraph")
    return row_softmax(concat_cols([reshape(logit, (1,)) for logit in logits]))


def sample_pair(label_counts, rng):
    """Pick (positive index, negative index) from per-paragraph label counts.

    The positive is uniform over paragraphs with at least one labeled span;
    the negative is uniform over label-free paragraphs.  Returns None when
    there is no positive (the example is skipped this step), and a None
    negative when every paragraph is positive (the caller substitutes a
    negative from elsewhere in the batch).
    """
    positives = [i for i, c in enumerate(label_counts) if c > 0]
    negatives = [i for i, c in enumerate(label_counts) if c == 0]
    if not positives:
        return None
    pos = positives[int(rng.integers(len(positives)))]
    neg = negatives[int(rng.integers(len(negatives)))] if negatives else None
    return pos, neg
