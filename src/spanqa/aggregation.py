"""Combining the span probabilities of one answer string within a paragraph.

A paragraph may contain several spans whose text is the same answer; the
aggregation mode decides how their probabilities combine into one
paragraph-level answer probability:

    head  first span in document order
    rand  a seeded random span (deterministic given the stream)
    max   the first largest; in training it alone gets the gradient
    sum   the total span probability

`aggregate` accepts plain floats (inference) or graph tensors (training,
where max and sum stay differentiable).
"""

import enum
from dataclasses import dataclass

from .corpus import answer_token_seq
from .diffmath import Tensor


class AggregationMode(enum.Enum):
    HEAD = "head"
    RAND = "rand"
    MAX = "max"
    SUM = "sum"

    @classmethod
    def parse(cls, name: str) -> "AggregationMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown aggregation mode {name!r}; expected one of "
                + "|".join(m.value for m in cls)
            ) from None


def aggregate(span_probs, mode: AggregationMode, rng=None):
    """Collapse span probabilities (document order) into one value per `mode`.

    rand requires an rng and draws one index from it; the draw happens on
    every call, so repeated aggregation re-samples.
    """
    probs = list(span_probs)
    if not probs:
        raise ValueError("aggregate needs at least one span probability")
    if mode is AggregationMode.HEAD:
        return probs[0]
    if mode is AggregationMode.RAND:
        if rng is None:
            raise ValueError("rand aggregation needs an rng")
        return probs[int(rng.integers(len(probs)))]
    if mode is AggregationMode.MAX:
        return max(probs, key=lambda p: p.data if isinstance(p, Tensor) else p)
    if mode is AggregationMode.SUM:
        out = probs[0]
        for p in probs[1:]:
            out = out + p
        return out
    raise ValueError(f"unhandled mode {mode!r}")


@dataclass
class AnswerGroup:
    """All candidate spans that read as the same normalized answer."""

    answer_text: str  # normalized form, the grouping key
    spans: list  # SpanCandidates in document order
    aggregated_prob: float


def normalize_answer_key(text: str) -> str:
    return " ".join(answer_token_seq(text))


def group_candidates(candidates, mode: AggregationMode, rng=None):
    """Group spans by normalized answer text and aggregate each group.

    Spans inside a group are kept in document order — head aggregation
    depends on it.  Groups come back sorted by key so downstream argmax
    tie-breaking is deterministic.
    """
    by_key = {}
    for cand in sorted(candidates, key=lambda c: (c.start, c.end)):
        by_key.setdefault(normalize_answer_key(cand.answer_text), []).append(cand)
    return [
        AnswerGroup(
            answer_text=key,
            spans=spans,
            aggregated_prob=aggregate([s.span_prob for s in spans], mode, rng),
        )
        for key, spans in sorted(by_key.items())
    ]
