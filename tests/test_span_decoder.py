"""Start/end distributions, span probabilities, and the exhaustive table."""

import numpy as np
import pytest

from helpers import (
    all_span_probabilities,
    check_grads,
    copying_end_distributions,
    encode_question,
    independent_end_distribution,
    tiny_model,
)
from spanqa.diffmath import Tensor, glorot_uniform, init_bigru_params, log, make_rng, no_grad, pick
from spanqa.span_decoder import (
    StartDistribution,
    end_distribution,
    end_distributions,
    span_probability,
    start_distribution,
)

QUESTION = ["what", "do", "camels", "store", "?"]
PARAGRAPH = ["camels", "store", "fat", "in", "their", "humps"]


def encoded(model, para=PARAGRAPH):
    return model.encode_paragraph(encode_question(model, QUESTION), para)


# ------------------------------------------------------- start distribution


def test_start_distribution_zero_weight_is_uniform():
    model = tiny_model()
    model.decoder.w_start.data[:] = 0.0
    sd = start_distribution(encoded(model), model.decoder)
    np.testing.assert_allclose(sd.probs.data, 1.0 / len(PARAGRAPH), atol=1e-12)


def test_start_distribution_sums_to_one():
    model = tiny_model(seed=2)
    sd = start_distribution(encoded(model), model.decoder)
    assert sd.probs.data.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(sd.probs.data >= 0)
    assert sd.states.shape == (len(PARAGRAPH), 2 * model.config.hidden_dim)


def test_start_nll_gradient():
    model = tiny_model(seed=3)
    para = PARAGRAPH[:4]

    def build():
        sd = start_distribution(encoded(model, para), model.decoder)
        return log(pick(sd.probs, 2)) * -1.0

    check_grads(
        build,
        [
            model.decoder.w_start,
            model.decoder.start_rnn.fwd.w,
            model.encoder.att_w_pq,
            model.encoder.word_emb,
        ],
    )


# --------------------------------------------------------- end distribution


def test_end_distribution_last_start_is_forced():
    model = tiny_model(seed=4)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    n = len(PARAGRAPH)
    ends = end_distribution(ctx, sd, n - 1, model.decoder)
    expected = np.zeros(n)
    expected[n - 1] = 1.0
    np.testing.assert_allclose(ends.data, expected, atol=1e-12)


def test_end_distribution_masks_positions_before_start():
    model = tiny_model(seed=5)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    ends = end_distribution(ctx, sd, 2, model.decoder)
    np.testing.assert_array_equal(ends.data[:2], 0.0)
    assert ends.data[2:].sum() == pytest.approx(1.0, abs=1e-9)


def test_end_distribution_start_out_of_range():
    model = tiny_model(seed=6)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    with pytest.raises(ValueError, match="out of range"):
        end_distribution(ctx, sd, len(PARAGRAPH), model.decoder)
    with pytest.raises(ValueError, match="out of range"):
        end_distribution(ctx, sd, -1, model.decoder)


def test_end_distribution_depends_on_start():
    model = tiny_model(seed=7)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    e0 = end_distribution(ctx, sd, 0, model.decoder).data
    e1 = end_distribution(ctx, sd, 1, model.decoder).data
    # compare on the common unmasked suffix, where both are free to place mass
    assert np.max(np.abs(e0[1:] - e1[1:])) > 1e-6


def test_end_distribution_gradient():
    """One recorded end layer over starts 0, 1 and n - 1 of one paragraph,
    which share its start-free rows: the indicator rows' adjoints must reach
    the context and the start states, so the encoder and start-layer
    weights are checked with the end layer's."""
    model = tiny_model(seed=8)
    para = PARAGRAPH[:4]
    picks = {0: 2, 1: 1, len(para) - 1: len(para) - 1}

    def build():
        ctx = encoded(model, para)
        sd = start_distribution(ctx, model.decoder)
        ends = end_distributions([(ctx, sd, s) for s in picks], model.decoder)
        losses = [log(pick(dist, e)) * -1.0 for dist, e in zip(ends, picks.values())]
        return losses[0] + losses[1] + losses[2]

    check_grads(
        build,
        [
            model.encoder.p_ctx.bwd.u_h,
            model.encoder.self_rnn.fwd.w,
            model.decoder.start_rnn.bwd.u_h,
            model.decoder.start_rnn.fwd.w,
            model.decoder.w_end,
            model.decoder.end_rnn.fwd.w,
            model.decoder.end_rnn.bwd.u_zr,
        ],
    )


# -------------------------------------------------------- span probability


def test_span_probability_is_product():
    model = tiny_model(seed=9)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    ends = end_distribution(ctx, sd, 2, model.decoder)
    sp = span_probability(sd, ends, 2, 4)
    assert sp.item() == pytest.approx(sd.probs.data[2] * ends.data[4])


def test_span_probability_rejects_reversed_span():
    model = tiny_model(seed=10)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    ends = end_distribution(ctx, sd, 3, model.decoder)
    with pytest.raises(ValueError, match="precedes"):
        span_probability(sd, ends, 3, 1)


def test_single_token_paragraph_has_unit_span():
    model = tiny_model(seed=11)
    table = all_span_probabilities(model.encode_paragraph(encode_question(model, QUESTION), ["fat"]), model.decoder)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------- exhaustive table


@pytest.mark.parametrize("seed", [12, 13, 14])
def test_all_span_probabilities_mass_and_support(seed):
    model = tiny_model(seed=seed)
    ctx = encoded(model)
    table = all_span_probabilities(ctx, model.decoder)
    n = len(PARAGRAPH)
    assert table.shape == (n, n)
    assert np.all(table[np.tril_indices(n, k=-1)] == 0.0)
    assert np.all(table >= 0)
    assert table.sum() == pytest.approx(1.0, abs=1e-6)


def test_all_span_probabilities_matches_pointwise():
    model = tiny_model(seed=15)
    ctx = encoded(model)
    table = all_span_probabilities(ctx, model.decoder)
    sd = start_distribution(ctx, model.decoder)
    ends2 = end_distribution(ctx, sd, 2, model.decoder)
    assert table[2, 5] == pytest.approx(span_probability(sd, ends2, 2, 5).item(), abs=1e-12)


def test_all_span_probabilities_cap():
    model = tiny_model(seed=16)
    ctx = encoded(model)
    with pytest.raises(ValueError, match="cap"):
        all_span_probabilities(ctx, model.decoder, cap=3)


# ------------------------------------------------- independence baseline


def test_independent_baseline_ignores_start():
    model = tiny_model(seed=17)
    ctx = encoded(model)
    sd = start_distribution(ctx, model.decoder)
    d = model.config.hidden_dim
    rng = make_rng(17, 5)
    rnn = init_bigru_params(4 * d, d, rng)
    w_end = Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True)
    # the baseline has no start input at all: one fixed distribution
    base = independent_end_distribution(ctx, sd, rnn, w_end)
    assert base.data.sum() == pytest.approx(1.0, abs=1e-9)
    again = independent_end_distribution(ctx, sd, rnn, w_end)
    assert np.max(np.abs(base.data - again.data)) == 0.0


@pytest.mark.parametrize("hidden", [2, 16])
def test_end_layer_shares_paragraph_rows_bit_for_bit(monkeypatch, hidden):
    """Recording a graph or not, the end layer projects each paragraph's
    start-free rows once, plus one indicator row per start, and gives the
    distributions of one copy of the paragraph per start bit for bit:
    paragraphs of 1 to 9 tokens, 1 to 3 starts each, at 0 and at n - 1
    among them, in shuffled order."""
    import spanqa.diffmath.rnn as rnn

    model = tiny_model(hidden_dim=hidden, seed=7)
    rng = make_rng(62, hidden)
    rows = []
    for n in range(1, 10):
        context = Tensor(rng.standard_normal((n, 2 * hidden)))
        states = Tensor(rng.standard_normal((n, 2 * hidden)))
        start_dist = StartDistribution(probs=Tensor(np.full(n, 1.0 / n)), states=states)
        rows += [(context, start_dist, s) for s in sorted({0, n // 2, n - 1})]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    gru_sequence, table_rows = rnn.gru_sequence, []

    def counted(steps, table, layers, lengths):
        table_rows.append(table.shape[0])
        return gru_sequence(steps, table, layers, lengths)

    monkeypatch.setattr(rnn, "gru_sequence", counted)
    recorded = end_distributions(rows, model.decoder)
    with no_grad():
        shared = end_distributions(rows, model.decoder)
    copies = copying_end_distributions(rows, model.decoder)
    assert recorded[0].requires_grad and not shared[0].requires_grad
    shared_rows = sum(range(1, 10)) + len(rows)
    assert table_rows == [shared_rows, shared_rows, sum(context.shape[0] for context, _, _ in rows)]
    for got, also, want in zip(recorded, shared, copies):
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(also.data, want.data)
