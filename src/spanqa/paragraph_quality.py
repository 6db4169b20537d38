"""Paragraph quality scoring and the positive/negative pair sampler.

Each paragraph gets a scalar quality logit: a recurrent pass over the
context embedding, attention-pooled with the start distribution as the key,
then projected by w_c.  Logits are normalized across a paragraph list with a
softmax — over all retrieved paragraphs at inference, over just the sampled
(positive, negative) pair during training.
"""

from dataclasses import dataclass

import numpy as np

from .diffmath import (
    BiGruParams,
    Tensor,
    bigru_each,
    glorot_uniform,
    init_bigru_params,
    matmul,
    reshape,
    row_softmax,
    stack_scalars,
)
from .encoder import ContextEmbedding
from .span_decoder import StartDistribution


@dataclass
class ParagraphScores:
    """Per-paragraph quality: raw logits and their normalized probabilities,
    in the original paragraph (retrieval-rank) order."""

    logits: list
    probs: list


@dataclass
class QualityParams:
    rnn: BiGruParams  # 2d -> d
    w_c: Tensor  # (2d, 1)

    def tensors(self):
        for name, t in self.rnn.tensors():
            yield "rnn/" + name, t
        yield "w_c", self.w_c


def init_quality_params(hidden_dim: int, rng) -> QualityParams:
    return QualityParams(
        rnn=init_bigru_params(2 * hidden_dim, hidden_dim, rng),
        w_c=Tensor(glorot_uniform((2 * hidden_dim, 1), rng), requires_grad=True),
    )


def quality_logit(
    context: ContextEmbedding,
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
    return quality_logits([context], [start_dist], params, grad_through_start)[0]


def quality_logits(contexts, start_dists, params: QualityParams, grad_through_start: bool = True) -> list:
    """`quality_logit` of every paragraph, with one recurrent pass over all of them."""
    logits = []
    for start_dist, states in zip(start_dists, bigru_each([c.values for c in contexts], params.rnn)):
        key = start_dist.probs if grad_through_start else start_dist.probs.detach()
        pooled = matmul(reshape(key, (1, -1)), states)
        logits.append(reshape(matmul(pooled, params.w_c), ()))
    return logits


def normalize_qualities(logits) -> ParagraphScores:
    """Softmax (max-subtracted) over plain float logits, one per paragraph."""
    values = [float(x) for x in logits]
    if not values:
        raise ValueError("normalize_qualities needs at least one paragraph")
    arr = np.array(values)
    arr = np.exp(arr - arr.max())
    return ParagraphScores(logits=values, probs=(arr / arr.sum()).tolist())


def normalize_quality_tensors(logits) -> Tensor:
    """Differentiable counterpart of normalize_qualities for training graphs."""
    if not logits:
        raise ValueError("normalize_quality_tensors needs at least one paragraph")
    return row_softmax(stack_scalars(logits))


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
