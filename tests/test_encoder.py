"""Encoding stack: embeddings, attention blocks, end-to-end gradients."""

import numpy as np
import pytest

from helpers import check_grads, tiny_model
from spanqa.diffmath import Tensor, bigru, make_rng, tsum
from spanqa.encoder import (
    CharVocab,
    EncoderConfig,
    Vocab,
    bidaf_attention,
    contextualize,
    embed_tokens,
    load_word_vectors,
    self_attend,
)

QUESTION = ["what", "do", "camels", "store", "?"]
PARAGRAPH = ["camels", "store", "fat", "in", "their", "humps"]


def zero_attention(model):
    for t in (model.encoder.att_w_p, model.encoder.att_w_q, model.encoder.att_w_pq):
        t.data[:] = 0.0


# ------------------------------------------------------------------- vocab


def test_vocab_unknown_maps_to_zero():
    v = Vocab(["b", "a"])
    assert v.tokens[0] == Vocab.UNK
    assert v.id("zzz") == 0
    assert v.id("a") == 1 and v.id("b") == 2


def test_vocab_layout_is_order_independent():
    assert Vocab(["x", "y", "z"]).tokens == Vocab(["z", "x", "y"]).tokens


def test_char_vocab_pad_and_unknown():
    cv = CharVocab("ab")
    assert cv.id("a") != cv.id("b")
    assert cv.id("!") == CharVocab.UNK
    assert len(cv) == 4


# ------------------------------------------------------------ embed_tokens


def test_embed_tokens_shape_and_repeat_rows():
    model = tiny_model()
    out = embed_tokens(["fat", "store", "fat"], model.vocab, model.char_vocab, model.encoder)
    assert out.shape == (3, model.config.token_dim)
    np.testing.assert_array_equal(out.data[0], out.data[2])
    assert np.any(out.data[0] != out.data[1])


def test_embed_tokens_zero_conv_gives_zero_char_part():
    model = tiny_model()
    model.encoder.char_conv_w.data[:] = 0.0
    model.encoder.char_conv_b.data[:] = 0.0
    out = embed_tokens(["?"], model.vocab, model.char_vocab, model.encoder)
    np.testing.assert_array_equal(out.data[0, model.config.word_dim :], 0.0)


def test_embed_tokens_independent_of_neighbors():
    # a token's row must not change with the other tokens in the sequence
    model = tiny_model()
    alone = embed_tokens(["fat"], model.vocab, model.char_vocab, model.encoder)
    paired = embed_tokens(["extraordinarily", "fat"], model.vocab, model.char_vocab, model.encoder)
    np.testing.assert_array_equal(alone.data[0], paired.data[1])


def test_embed_tokens_rejects_empty():
    model = tiny_model()
    with pytest.raises(ValueError):
        embed_tokens([], model.vocab, model.char_vocab, model.encoder)


# ----------------------------------------------------------- contextualize


def test_contextualize_shape():
    model = tiny_model()
    emb = embed_tokens(PARAGRAPH, model.vocab, model.char_vocab, model.encoder)
    (out,) = contextualize([emb], model.encoder.p_ctx, 1.0, None, training=False)
    assert out.shape == (len(PARAGRAPH), 2 * model.config.hidden_dim)


def test_contextualize_zero_weights_gives_zeros():
    model = tiny_model()
    for _, t in model.encoder.p_ctx.tensors():
        t.data[:] = 0.0
    emb = embed_tokens(PARAGRAPH, model.vocab, model.char_vocab, model.encoder)
    (out,) = contextualize([emb], model.encoder.p_ctx, 1.0, None, training=False)
    np.testing.assert_array_equal(out.data, 0.0)


# --------------------------------------------------------- bidaf_attention


def encoded_pair(model, para=PARAGRAPH, ques=QUESTION):
    (q,) = contextualize(
        [embed_tokens(ques, model.vocab, model.char_vocab, model.encoder)],
        model.encoder.q_ctx, 1.0, None, False,
    )
    (p,) = contextualize(
        [embed_tokens(para, model.vocab, model.char_vocab, model.encoder)],
        model.encoder.p_ctx, 1.0, None, False,
    )
    return p, q


def test_bidaf_output_shape():
    model = tiny_model()
    p, q = encoded_pair(model)
    out = bidaf_attention(p, q, model.encoder)
    assert out.shape == (len(PARAGRAPH), 8 * model.config.hidden_dim)


def test_bidaf_zero_weights_attend_to_question_mean():
    model = tiny_model()
    zero_attention(model)
    p, q = encoded_pair(model)
    out = bidaf_attention(p, q, model.encoder)
    width = 2 * model.config.hidden_dim
    attended = out.data[:, width : 2 * width]
    expected = np.tile(q.data.mean(axis=0), (len(PARAGRAPH), 1))
    np.testing.assert_allclose(attended, expected, atol=1e-12)


def test_bidaf_single_question_token_attends_to_it():
    model = tiny_model()
    p, q = encoded_pair(model, ques=["what"])
    out = bidaf_attention(p, q, model.encoder)
    width = 2 * model.config.hidden_dim
    attended = out.data[:, width : 2 * width]
    np.testing.assert_allclose(attended, np.tile(q.data[0], (len(PARAGRAPH), 1)), atol=1e-12)


# -------------------------------------------------------------- self_attend


def test_self_attend_shape():
    model = tiny_model()
    p, q = encoded_pair(model)
    (ctx,) = self_attend([bidaf_attention(p, q, model.encoder)], model.encoder)
    assert ctx.values.shape == (len(PARAGRAPH), 2 * model.config.hidden_dim)
    assert ctx.length == len(PARAGRAPH)


def test_self_attend_single_token_is_plain_projection():
    model = tiny_model()
    p, q = encoded_pair(model, para=["fat"])
    x = bidaf_attention(p, q, model.encoder)
    (ctx,) = self_attend([x], model.encoder)
    direct = bigru(x, model.encoder.self_rnn)
    np.testing.assert_array_equal(ctx.values.data, direct.data)


# ------------------------------------------------------ end-to-end behavior


def test_encode_is_permutation_sensitive():
    model = tiny_model(seed=3)
    c1 = model.encode_paragraph(model.encode_question(QUESTION), PARAGRAPH)
    shuffled = list(reversed(PARAGRAPH))
    c2 = model.encode_paragraph(model.encode_question(QUESTION), shuffled)
    assert np.max(np.abs(c1.values.data - c2.values.data)) > 1e-8


def test_encode_finite_for_extreme_inputs():
    model = tiny_model(seed=4)
    model.encoder.word_emb.data *= 50.0
    out = model.encode_paragraph(model.encode_question(QUESTION), PARAGRAPH)
    assert np.all(np.isfinite(out.values.data))


def test_encode_deterministic_in_eval_mode():
    model = tiny_model(seed=5)
    a = model.encode_paragraph(model.encode_question(QUESTION), PARAGRAPH).values.data
    b = model.encode_paragraph(model.encode_question(QUESTION), PARAGRAPH).values.data
    np.testing.assert_array_equal(a, b)


def test_encoder_end_to_end_gradients():
    model = tiny_model(seed=6)
    rng = make_rng(6, 7)
    para, ques = PARAGRAPH[:4], QUESTION[:3]
    w = Tensor(rng.standard_normal((4, 2 * model.config.hidden_dim)))

    def build():
        return tsum(model.encode_paragraph(model.encode_question(ques), para).values * w)

    leaves = [
        model.encoder.word_emb,
        model.encoder.char_emb,
        model.encoder.char_conv_w,
        model.encoder.char_conv_b,
        model.encoder.att_w_p,
        model.encoder.att_w_q,
        model.encoder.att_w_pq,
        model.encoder.q_ctx.fwd.w,
        model.encoder.p_ctx.bwd.u_zr,
        model.encoder.self_rnn.fwd.u_h,
        model.encoder.self_rnn.bwd.b,
    ]
    check_grads(build, leaves)


def test_dropout_active_only_in_training():
    model = tiny_model(seed=7, keep_prob=0.5)
    eval_out = model.encode_paragraph(model.encode_question(QUESTION), PARAGRAPH, training=False).values.data
    rng = make_rng(7, 3)
    question = model.encode_question(QUESTION, rng, training=True)
    train_out = model.encode_paragraph(question, PARAGRAPH, rng=rng, training=True).values.data
    assert np.any(eval_out != train_out)


# --------------------------------------------------------- word vector file


def test_load_word_vectors_overlay(tmp_path):
    vocab = Vocab(["fat", "hump"])
    dim = 3
    init = np.zeros((len(vocab), dim))
    path = tmp_path / "vecs.txt"
    path.write_text("fat 1 2 3\nunknowntoken 9 9 9\n")
    table = load_word_vectors(path, vocab, dim, init)
    np.testing.assert_array_equal(table[vocab.id("fat")], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(table[vocab.id("hump")], 0.0)
    np.testing.assert_array_equal(table[0], 0.0)  # unknown token didn't hit the UNK row


def test_load_word_vectors_dimension_mismatch(tmp_path):
    vocab = Vocab(["fat"])
    path = tmp_path / "vecs.txt"
    path.write_text("fat 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        load_word_vectors(path, vocab, 3, np.zeros((len(vocab), 3)))


def test_frozen_word_vectors_not_trainable():
    config = EncoderConfig(word_dim=3, hidden_dim=2, char_out_dim=2)
    vocab = Vocab(["fat", "hump"])
    cv = CharVocab.from_vocab(vocab)
    from spanqa.model import QaModel

    frozen = QaModel.create(config, vocab, cv, seed=1, word_init=np.ones((len(vocab), 3)))
    assert "enc/word_emb" not in frozen.store
    assert not frozen.encoder.word_emb.requires_grad
    trained = QaModel.create(config, vocab, cv, seed=1)
    assert "enc/word_emb" in trained.store
