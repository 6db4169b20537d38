"""Paragraph quality scoring, normalization, and pair sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads, encode_question, softmax, step_rows, tiny_model, tsum
from spanqa.diffmath import Tensor, backward, gru_sequence, make_rng
from spanqa.paragraph_quality import normalize_quality_tensors, quality_logit, sample_pair
from spanqa.span_decoder import StartDistribution, start_distribution

QUESTION = ["what", "do", "camels", "store", "?"]
PARAGRAPH = ["camels", "store", "fat", "in", "their", "humps"]


def context_and_start(model, para=PARAGRAPH):
    ctx = model.encode_paragraph(encode_question(model, QUESTION), para)
    return ctx, start_distribution(ctx, model.decoder)


def test_zero_projection_gives_zero_logit():
    model = tiny_model(seed=1)
    model.quality.w_c.data[:] = 0.0
    ctx, sd = context_and_start(model)
    assert quality_logit(ctx, sd, model.quality).item() == 0.0


def test_uniform_key_pools_to_row_mean():
    model = tiny_model(seed=2)
    ctx, sd = context_and_start(model)
    n = ctx.shape[0]
    uniform = StartDistribution(probs=Tensor(np.full(n, 1.0 / n)), states=sd.states)
    got = quality_logit(ctx, uniform, model.quality).item()
    states = gru_sequence(*step_rows(Tensor(ctx.data[:, None])), (model.quality.rnn,), [n]).data[:, 0]
    expected = float(states.mean(axis=0) @ model.quality.w_c.data.reshape(-1))
    assert got == pytest.approx(expected, abs=1e-12)


def test_quality_gradient():
    model = tiny_model(seed=3)
    para = PARAGRAPH[:4]

    def build():
        ctx, sd = context_and_start(model, para)
        return quality_logit(ctx, sd, model.quality)

    check_grads(
        build,
        [
            model.quality.w_c,
            model.quality.rnn.fwd.w,
            model.decoder.w_start,
            model.encoder.att_w_p,
        ],
    )


def test_grad_through_start_toggle():
    model = tiny_model(seed=4)
    ctx, sd = context_and_start(model)
    backward(quality_logit(ctx, sd, model.quality, grad_through_start=False))
    # with the start key detached, the start projection gets no gradient
    assert model.decoder.w_start.grad is None
    assert model.quality.w_c.grad is not None
    model.store.zero_grads()
    backward(quality_logit(ctx, sd, model.quality, grad_through_start=True))
    assert model.decoder.w_start.grad is not None


# ------------------------------------------------------------ normalization


def normalized(logits):
    return normalize_quality_tensors([Tensor(np.asarray(float(x))) for x in logits]).data.tolist()


def test_normalize_symmetric():
    assert normalized([0.0, 0.0]) == pytest.approx([0.5, 0.5])


def test_normalize_single_paragraph():
    assert normalized([2.7]) == [1.0]


def test_normalize_analytic():
    assert normalized([np.log(3.0), 0.0]) == pytest.approx([0.75, 0.25])


def test_normalize_empty_rejected():
    with pytest.raises(ValueError):
        normalize_quality_tensors([])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.floats(-100, 100))
@settings(max_examples=60, deadline=None)
def test_normalize_shift_invariant(logits, shift):
    a = normalized(logits)
    b = normalized([x + shift for x in logits])
    assert sum(a) == pytest.approx(1.0, abs=1e-9)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_normalize_tensor_matches_float_path():
    logits = [1.2, -0.3, 0.8]
    leaves = [Tensor(np.asarray(x), requires_grad=True) for x in logits]
    t = normalize_quality_tensors(leaves)
    np.testing.assert_allclose(t.data, softmax(logits), atol=1e-12)
    weights = np.array([0.5, -2.0, 1.5])
    check_grads(lambda: tsum(normalize_quality_tensors(leaves) * weights), leaves)


# ------------------------------------------------------------- pair sampling


def test_sample_pair_forced():
    assert sample_pair([2, 0], make_rng(0, 3)) == (0, 1)
    assert sample_pair([0, 1], make_rng(0, 3)) == (1, 0)


def test_sample_pair_no_positive_skips():
    assert sample_pair([0, 0, 0], make_rng(1, 3)) is None


def test_sample_pair_all_positive_needs_fallback():
    pos, neg = sample_pair([1, 2, 3], make_rng(2, 3))
    assert neg is None
    assert pos in (0, 1, 2)


def test_sample_pair_deterministic():
    counts = [1, 0, 2, 0, 5]
    a = [sample_pair(counts, make_rng(7, 3, i)) for i in range(20)]
    b = [sample_pair(counts, make_rng(7, 3, i)) for i in range(20)]
    assert a == b
    assert {p for p, _ in a} <= {0, 2, 4}
    assert {n for _, n in a} <= {1, 3}


def test_separation_property_after_nudging_weights():
    # quality logits react to inputs: two different paragraphs get different scores
    model = tiny_model(seed=6)
    ctx1, sd1 = context_and_start(model, PARAGRAPH)
    ctx2, sd2 = context_and_start(model, ["sand", "dune", "walks"])
    q1 = quality_logit(ctx1, sd1, model.quality).item()
    q2 = quality_logit(ctx2, sd2, model.quality).item()
    assert q1 != q2
