"""Training, inference, and evaluation.

Training draws a (positive, negative) paragraph pair per example and
minimizes -(log q+ + log p+), where q+ is the positive paragraph's share of
the pair-normalized quality softmax and p+ aggregates the span probabilities
at the weakly labeled answer locations.  Batches average example losses into
one Adadelta step.

Training and inference share one forward path, `encode_items`, over a
batch of items (question, paragraphs, dropout stream): each recurrent
layer runs once over the whole batch, through the batched calls
`encode_questions`, `encode_paragraphs`, `start_distributions` and
`quality_logits`, and the end distributions share one more pass through
`end_distributions`.  Training sends a whole Adadelta batch through it,
one (positive, negative) pair per example; inference sends one example
with all its paragraphs.

Inference runs a start/end beam per paragraph, groups candidate spans by
normalized answer text, aggregates within each paragraph, and mixes across
paragraphs with the quality weights:  S(A) = sum_i q_i * p_i(A).  The best
answer is the argmax of S (ties go to the lexicographically smaller string).

Metrics are exact match, bag-of-token F1 (both after answer normalization:
lowercase, strip punctuation and articles, collapse whitespace), and mean
average precision of the quality ranking against contains-answer labels.
"""

import re
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationMode, aggregate, group_candidates
from .corpus import label_spans
from .diffmath import backward, clip_min, log, no_grad, pick
from .diffmath.rng import STREAM_PREDICT, STREAM_TRAIN, make_rng
from .paragraph_quality import normalize_quality_tensors, quality_logits, sample_pair
from .span_decoder import SpanCandidate, end_distributions, span_probability, start_distributions

# Not called here: the benchmark's tracer (perfbench/run.py) rebinds these names in this module.
from .paragraph_quality import quality_logit  # noqa: F401
from .span_decoder import end_distribution, start_distribution  # noqa: F401

PROB_FLOOR = 1e-12


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 10
    mode: str = "max"
    k1: int = 3
    k2: int = 1
    seed: int = 0
    lr: float = 1.0
    rho: float = 0.95
    eps: float = 1e-6
    threads: int = 1

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError(f"beam sizes must be >= 1, got k1={self.k1}, k2={self.k2}")
        for name in ("epochs", "batch_size", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        AggregationMode.parse(self.mode)  # an unknown mode fails here, not mid-training


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float | None
    skipped: int
    steps: int


@dataclass
class Prediction:
    example_id: str
    best_answer: str
    answer_scores: dict
    paragraph_probs: list
    paragraph_groups: list  # per paragraph: the AnswerGroups it contributed


# ----------------------------------------------------------------- training


def paragraph_label_table(dataset):
    """labels[example][paragraph] -> list of SpanLabel, computed once."""
    return [[label_spans(p, ex.answers) for p in ex.paragraphs] for ex in dataset]


@dataclass
class ItemEncoding:
    """One item's share of `encode_items`, one entry per paragraph of the item."""

    contexts: list  # (n_i, 2d) context embeddings
    starts: list  # StartDistributions
    quality: list  # scalar quality logits


def encode_items(model, items, training: bool = False) -> list:
    """The forward pass shared by training and inference, over a batch of
    (question tokens, list of paragraph token lists, rng) items: one
    ItemEncoding per item.

    Each recurrent layer runs once over the whole batch: the question layer
    over every item's question, then the paragraph, self-attention, start and
    quality layers over every paragraph of every item, each paragraph
    attending to its own item's question.  An item's rng drives only its own
    dropout masks (question first, then its paragraphs in order) and is not
    consulted outside training.
    """
    questions, paragraph_lists, rngs = zip(*items)
    owners = [i for i, paragraphs in enumerate(paragraph_lists) for _ in paragraphs]
    encoded_questions = model.encode_questions(questions, rngs, training)
    contexts = model.encode_paragraphs(
        [encoded_questions[i] for i in owners],
        [p for paragraphs in paragraph_lists for p in paragraphs],
        [rngs[i] for i in owners],
        training,
    )
    starts = start_distributions(contexts, model.decoder)
    quality = quality_logits(contexts, starts, model.quality, model.grad_through_start)
    bounds = np.cumsum([0] + [len(paragraphs) for paragraphs in paragraph_lists]).tolist()
    return [ItemEncoding(contexts[a:b], starts[a:b], quality[a:b]) for a, b in zip(bounds, bounds[1:])]


def batch_losses(model, pairs, mode) -> list:
    """-(log q+ + log p+) of every training pair in `pairs`, as graph scalars.

    A pair is (example, positive index, positive's labels, negative
    paragraph, rng).  All pairs share one `encode_items` pass, and the end
    distributions of every positive's distinct labeled starts share one
    more recurrent pass.  p+ aggregates span probabilities at the labeled
    locations.  Both probabilities are floored at PROB_FLOOR before the log
    so early zero-mass labels cannot produce infinities.  Each pair's rng
    gives the dropout masks for its question, positive and negative
    paragraph, and then the `rand` aggregation draw.
    """
    encoded = encode_items(
        model,
        [(ex.question, [ex.paragraphs[pos].tokens, neg.tokens], rng) for ex, pos, _, neg, rng in pairs],
        training=True,
    )
    distinct = [list(dict.fromkeys(label.start for label in labels)) for _, _, labels, _, _ in pairs]
    rows = [(enc.contexts[0], enc.starts[0], s) for enc, starts in zip(encoded, distinct) for s in starts]
    ends = iter(end_distributions(rows, model.decoder))
    losses = []
    for (example, _, labels, _, rng), enc, starts in zip(pairs, encoded, distinct):
        ends_by_start = {s: next(ends) for s in starts}
        pos_starts = enc.starts[0]
        span_probs = [span_probability(pos_starts, ends_by_start[l.start], l.start, l.end) for l in labels]
        answer_prob = aggregate(span_probs, mode, rng)
        pair_probs = normalize_quality_tensors(enc.quality)
        loss = -(log(clip_min(pick(pair_probs, 0), PROB_FLOOR)) + log(clip_min(answer_prob, PROB_FLOOR)))
        if not np.isfinite(loss.data):
            raise FloatingPointError(f"non-finite loss for example {example.id}")
        losses.append(loss)
    return losses


# No caller in the package; the benchmark's tracer rebinds it and the tests call it.
def example_loss(model, example, pos_index, pos_labels, neg_paragraph, mode, rng):
    """`batch_losses` of the one pair (example, pos_index, pos_labels,
    neg_paragraph, rng)."""
    return batch_losses(model, [(example, pos_index, pos_labels, neg_paragraph, rng)], mode)[0]


def _fallback_negative(dataset, batch, ex_idx, rng):
    """Negative paragraph borrowed from another example in the batch (used when
    every paragraph of the current example is positive)."""
    donors = [i for i in batch if i != ex_idx]
    if not donors:
        return None
    donor = dataset[donors[int(rng.integers(len(donors)))]]
    return donor.paragraphs[int(rng.integers(len(donor.paragraphs)))]


def train_epoch(model, dataset, labels, config: TrainConfig, epoch: int) -> EpochStats:
    """One pass over the dataset in a seeded shuffle order.

    Examples whose pair cannot be formed (no positive paragraph, or no
    negative available anywhere in the batch) are skipped and counted.
    """
    mode = AggregationMode.parse(config.mode)
    order = make_rng(config.seed, STREAM_TRAIN, epoch).permutation(len(dataset)).tolist()
    loss_total, counted, skipped = 0.0, 0, 0
    for batch_start in range(0, len(order), config.batch_size):
        batch = order[batch_start : batch_start + config.batch_size]
        pairs = []
        for offset, ex_idx in enumerate(batch):
            example = dataset[ex_idx]
            rng = make_rng(config.seed, STREAM_TRAIN, epoch, batch_start + offset + 1)
            pair = sample_pair([len(l) for l in labels[ex_idx]], rng)
            if pair is None:
                skipped += 1
                continue
            pos_idx, neg_idx = pair
            if neg_idx is not None:
                negative = example.paragraphs[neg_idx]
            else:
                negative = _fallback_negative(dataset, batch, ex_idx, rng)
                if negative is None:
                    skipped += 1
                    continue
            pairs.append((example, pos_idx, labels[ex_idx][pos_idx], negative, rng))
        if pairs:
            losses = batch_losses(model, pairs, mode)
            batch_loss = losses[0]
            for extra in losses[1:]:
                batch_loss = batch_loss + extra
            batch_loss = batch_loss / float(len(losses))
            backward(batch_loss)
            model.store.adadelta_step(lr=config.lr, rho=config.rho, eps=config.eps)
            loss_total += batch_loss.item() * len(losses)
            counted += len(losses)
    mean = loss_total / counted if counted else None
    return EpochStats(epoch=epoch, mean_loss=mean, skipped=skipped, steps=counted)


def train(model, dataset, config: TrainConfig, start_epoch: int = 0, log=None):
    """Run config.epochs training epochs (resuming at start_epoch); returns the
    per-epoch stats.  `log`, when given, is called with each EpochStats."""
    labels = paragraph_label_table(dataset)
    history = []
    for epoch in range(start_epoch, config.epochs):
        stats = train_epoch(model, dataset, labels, config, epoch)
        history.append(stats)
        if log is not None:
            log(stats)
    return history


# ---------------------------------------------------------------- inference


def top_indices(values: np.ndarray, k: int):
    """Indices of the k largest entries, ties resolved toward the lower index."""
    order = np.argsort(-np.asarray(values), kind="stable")
    return order[: max(k, 0)].tolist()


def beam_candidates(paragraph, start_dist, end_dists, k1: int, k2: int):
    """Up to k1*k2 scored SpanCandidates for one paragraph: the top-k1 starts
    of `start_dist`, and for each the top-k2 ends of its end-probability
    array `end_dists[start]`.  Ends before the start carry zero probability
    and are dropped.
    """
    start_probs = start_dist.probs.data
    candidates = []
    for s in top_indices(start_probs, k1):
        ends = end_dists[s]
        for e in top_indices(ends, k2):
            if e < s:
                continue
            sp, ep = float(start_probs[s]), float(ends[e])
            candidates.append(
                SpanCandidate(
                    start=s,
                    end=e,
                    start_prob=sp,
                    end_prob=ep,
                    span_prob=sp * ep,
                    answer_text=paragraph.span_text(s, e),
                )
            )
    return candidates


def combine_scores(quality_probs, groups_per_paragraph) -> dict:
    """Mix per-paragraph answer probabilities with the quality weights:
    S(A) = sum_i q_i * p_i(A).  A paragraph without the answer contributes 0."""
    scores = {}
    for q_i, groups in zip(quality_probs, groups_per_paragraph):
        for g in groups:
            scores[g.answer_text] = scores.get(g.answer_text, 0.0) + q_i * g.aggregated_prob
    return scores


def best_answer(scores: dict) -> str:
    """Argmax answer string; ties go to the lexicographically smaller key."""
    if not scores:
        raise ValueError("no answer candidates to choose from")
    return min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def predict(model, example, mode: AggregationMode, k1: int, k2: int, rng=None) -> Prediction:
    """Scores for every answer string surfaced by the per-paragraph beams.

    The example is `encode_items`' one item, so each recurrent layer runs
    once over all its paragraphs, and the end distributions of every
    paragraph's top-k1 starts share one pass.  With
    a single paragraph the quality weight collapses to 1 and the score is
    just the paragraph-level probability.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError(f"beam sizes must be >= 1, got k1={k1}, k2={k2}")
    if not example.paragraphs:
        raise ValueError(f"example {example.id} has no paragraphs")
    with no_grad():
        (encoded,) = encode_items(model, [(example.question, [p.tokens for p in example.paragraphs], None)])
        beams = [top_indices(sd.probs.data, k1) for sd in encoded.starts]
        rows = [(ctx, sd, s) for ctx, sd, beam in zip(encoded.contexts, encoded.starts, beams) for s in beam]
        ends = iter(end_distributions(rows, model.decoder))
        per_paragraph = []
        for paragraph, sd, beam in zip(example.paragraphs, encoded.starts, beams):
            end_dists = {s: next(ends).data for s in beam}
            cands = beam_candidates(paragraph, sd, end_dists, k1, k2)
            per_paragraph.append(group_candidates(cands, mode, rng))
        quality = normalize_quality_tensors(encoded.quality).data.tolist()
        scores = combine_scores(quality, per_paragraph)
        best = best_answer(scores)
        return Prediction(
            example_id=example.id,
            best_answer=best,
            answer_scores=scores,
            paragraph_probs=quality,
            paragraph_groups=per_paragraph,
        )


def predict_dataset(model, dataset, mode: AggregationMode, k1: int, k2: int, seed: int = 0, threads: int = 1):
    """Predictions in dataset order; each example gets its own derived stream,
    so results do not depend on thread scheduling."""

    def run(item):
        index, example = item
        return predict(model, example, mode, k1, k2, make_rng(seed, STREAM_PREDICT, index))

    items = list(enumerate(dataset))
    if threads <= 1:
        return [run(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, items))


# ------------------------------------------------------------------ metrics

_ARTICLE = re.compile(r"\b(a|an|the)\b")


def normalize_for_metric(text: str) -> str:
    text = "".join(ch for ch in text.lower() if ch not in string.punctuation)
    return " ".join(_ARTICLE.sub(" ", text).split())


def exact_match(prediction: str, golds) -> int:
    norm = normalize_for_metric(prediction)
    return int(any(norm == normalize_for_metric(g) for g in golds))


def token_f1(prediction: str, golds) -> float:
    pred_tokens = normalize_for_metric(prediction).split()
    best = 0.0
    for gold in golds:
        gold_tokens = normalize_for_metric(gold).split()
        if not pred_tokens and not gold_tokens:
            best = max(best, 1.0)
            continue
        common = Counter(pred_tokens) & Counter(gold_tokens)
        overlap = sum(common.values())
        if overlap == 0:
            continue
        precision = overlap / len(pred_tokens)
        recall = overlap / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def average_precision(ranked_labels):
    """AP of a ranked 0/1 label list; None when there is no positive."""
    hits, acc = 0, 0.0
    for rank, label in enumerate(ranked_labels, start=1):
        if label:
            hits += 1
            acc += hits / rank
    return acc / hits if hits else None


def map_from_scores(scored):
    """Mean AP over (scores, labels) pairs; higher score = better rank, ties
    keep original (retrieval) order.  Returns (map or None, skipped count)."""
    aps, skipped = [], 0
    for scores, labels in scored:
        order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
        ap = average_precision([labels[i] for i in order])
        if ap is None:
            skipped += 1
        else:
            aps.append(ap)
    return (sum(aps) / len(aps) if aps else None), skipped


def score_predictions(dataset, predictions) -> dict:
    """EM / F1 / MAP / mean predicted answer length of `predictions`, one per
    example of `dataset` and in the same order.

    Each prediction must carry its example's id and one paragraph
    probability per paragraph; MAP ranks the paragraphs by those
    probabilities against contains-answer labels.
    """
    if not dataset:
        raise ValueError("evaluation needs a nonempty dataset")
    if len(predictions) != len(dataset):
        raise ValueError(f"{len(predictions)} predictions for {len(dataset)} examples")
    em_total, f1_total, lengths, scored = 0, 0.0, [], []
    for example, pred in zip(dataset, predictions):
        if pred.example_id != example.id:
            raise ValueError(f"prediction for {pred.example_id!r} where example {example.id!r} was expected")
        labels = [1 if label_spans(p, example.answers) else 0 for p in example.paragraphs]
        if len(pred.paragraph_probs) != len(labels):
            raise ValueError(
                f"example {example.id!r}: {len(pred.paragraph_probs)} paragraph probabilities for "
                f"{len(labels)} paragraphs"
            )
        em_total += exact_match(pred.best_answer, example.answers)
        f1_total += token_f1(pred.best_answer, example.answers)
        lengths.append(len(pred.best_answer.split()))
        scored.append((pred.paragraph_probs, labels))
    map_value, _ = map_from_scores(scored)
    n = len(dataset)
    return {
        "em": em_total / n,
        "f1": f1_total / n,
        "map": map_value,
        "avg_answer_len": sum(lengths) / n,
        "n": n,
    }


def evaluate_dataset(model, dataset, mode: AggregationMode, k1: int, k2: int, seed: int = 0, threads: int = 1, predictions=None):
    """EM / F1 / MAP / mean predicted answer length over a dataset, from
    `predictions` or, when none are given, from predicting it."""
    if predictions is None:
        predictions = predict_dataset(model, dataset, mode, k1, k2, seed=seed, threads=threads)
    return score_predictions(dataset, predictions)
