"""Span-probability aggregation and answer grouping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanqa.aggregation import AggregationMode, aggregate, group_candidates
from spanqa.diffmath import Tensor, backward, make_rng
from spanqa.span_decoder import SpanCandidate

PROBS = [0.2, 0.3, 0.1]


def cand(start, end, prob, text):
    return SpanCandidate(start=start, end=end, span_prob=prob, answer_text=text)


def test_mode_fixtures():
    assert aggregate(PROBS, AggregationMode.HEAD) == 0.2
    assert aggregate(PROBS, AggregationMode.MAX) == 0.3
    # on a tie the first comes back: 0.0 and -0.0 compare equal, and the sign tells them apart
    assert math.copysign(1.0, aggregate([0.0, -0.0], AggregationMode.MAX)) == 1.0
    assert math.copysign(1.0, aggregate([-0.0, 0.0], AggregationMode.MAX)) == -1.0
    assert aggregate(PROBS, AggregationMode.SUM) == pytest.approx(0.6)


def test_singleton_all_modes():
    for mode in AggregationMode:
        assert aggregate([0.4], mode, rng=make_rng(0, 1)) == pytest.approx(0.4)


def test_rand_is_seeded():
    picks = [aggregate(PROBS, AggregationMode.RAND, make_rng(5, 9)) for _ in range(3)]
    assert len(set(picks)) == 1
    assert picks[0] in PROBS


def test_rand_without_rng_rejected():
    with pytest.raises(ValueError, match="rng"):
        aggregate(PROBS, AggregationMode.RAND)


def test_empty_rejected():
    with pytest.raises(ValueError, match="at least one"):
        aggregate([], AggregationMode.MAX)


@given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_sum_dominates_max_dominates_head(probs):
    s = aggregate(probs, AggregationMode.SUM)
    m = aggregate(probs, AggregationMode.MAX)
    h = aggregate(probs, AggregationMode.HEAD)
    assert s >= m >= h or (s >= m and m >= min(probs))
    assert m >= h


@given(st.lists(st.floats(0, 1), min_size=2, max_size=8), st.randoms())
@settings(max_examples=60, deadline=None)
def test_max_sum_permutation_invariant(probs, pyrandom):
    shuffled = probs[:]
    pyrandom.shuffle(shuffled)
    assert aggregate(shuffled, AggregationMode.MAX) == aggregate(probs, AggregationMode.MAX)
    assert aggregate(shuffled, AggregationMode.SUM) == pytest.approx(
        aggregate(probs, AggregationMode.SUM)
    )


def test_head_is_order_dependent():
    assert aggregate([0.1, 0.9], AggregationMode.HEAD) != aggregate([0.9, 0.1], AggregationMode.HEAD)


def test_tensor_max_routes_gradient_to_argmax():
    probs = [Tensor(np.asarray(v), requires_grad=True) for v in PROBS]
    out = aggregate(probs, AggregationMode.MAX)
    backward(out)
    grads = [float(p.grad) if p.grad is not None else 0.0 for p in probs]
    assert grads == [0.0, 1.0, 0.0]
    # on a tie the first maximal tensor is returned and alone gets the gradient
    tied = [Tensor(np.asarray(v), requires_grad=True) for v in (0.1, 0.3, 0.2, 0.3)]
    out = aggregate(tied, AggregationMode.MAX)
    assert out is tied[1]
    backward(out * 2.0)
    assert [None if p.grad is None else float(p.grad) for p in tied] == [None, 2.0, None, None]


def test_tensor_sum_gradient_is_ones():
    probs = [Tensor(np.asarray(v), requires_grad=True) for v in PROBS]
    backward(aggregate(probs, AggregationMode.SUM))
    assert [float(p.grad) for p in probs] == [1.0, 1.0, 1.0]


def test_mode_parse():
    assert AggregationMode.parse("MAX") is AggregationMode.MAX
    assert AggregationMode.parse("head") is AggregationMode.HEAD
    with pytest.raises(ValueError, match="unknown aggregation mode"):
        AggregationMode.parse("mean")


# ---------------------------------------------------------------- grouping


def test_group_candidates_fixture():
    cands = [
        cand(2, 2, 0.30, "fat"),
        cand(4, 4, 0.21, "fat"),
        cand(0, 1, 0.05, "camels store"),
    ]
    groups = group_candidates(cands, AggregationMode.MAX)
    by_text = {g.answer_text: g for g in groups}
    assert set(by_text) == {"fat", "camels store"}
    assert len(by_text["fat"].spans) == 2
    assert by_text["fat"].aggregated_prob == pytest.approx(0.30)
    assert by_text["camels store"].aggregated_prob == pytest.approx(0.05)


def test_group_candidates_distinct_texts():
    cands = [cand(0, 0, 0.1, "a"), cand(1, 1, 0.2, "b"), cand(2, 2, 0.3, "c")]
    groups = group_candidates(cands, AggregationMode.SUM)
    assert len(groups) == 3


def test_group_keys_use_answer_normalization():
    cands = [cand(0, 0, 0.4, "Fat"), cand(3, 3, 0.5, "fat.")]
    groups = group_candidates(cands, AggregationMode.SUM)
    assert len(groups) == 1
    assert groups[0].answer_text == "fat"
    assert groups[0].aggregated_prob == pytest.approx(0.9)


def test_group_spans_kept_in_document_order():
    cands = [cand(4, 4, 0.2, "fat"), cand(1, 1, 0.7, "fat")]
    groups = group_candidates(cands, AggregationMode.HEAD)
    assert [s.start for s in groups[0].spans] == [1, 4]
    assert groups[0].aggregated_prob == pytest.approx(0.7)  # head = first in document


def test_groups_sorted_by_key():
    cands = [cand(0, 0, 0.1, "zebra"), cand(1, 1, 0.2, "ant")]
    groups = group_candidates(cands, AggregationMode.MAX)
    assert [g.answer_text for g in groups] == ["ant", "zebra"]
