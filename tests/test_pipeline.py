"""Training loop, beam inference, mixture scoring, and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TINY_WORDS,
    all_span_probabilities,
    check_grads,
    copying_end_distributions,
    copying_gru_pass,
    encode_question,
    full_width_model,
    needs_blas_threads,
    quality_probs,
    reference_beam,
    reference_example_loss,
    reference_predict,
    separate_start_and_quality,
    serial_at_one_blas_thread,
    softmax,
    spy_groups,
    tiny_model,
)
from spanqa.aggregation import AggregationMode, AnswerGroup, normalize_answer_key
from spanqa.corpus import QAExample, make_paragraph
from spanqa.diffmath import Tensor, backward, make_rng, no_grad, workers
from spanqa.diffmath.rng import STREAM_PREDICT, STREAM_TRAIN
from spanqa.paragraph_quality import sample_pair
from spanqa.pipeline import (
    Prediction,
    TrainConfig,
    _fallback_negative,
    average_precision,
    batch_losses,
    beam_candidates,
    best_answer,
    chunk_bounds,
    combine_scores,
    encode_for_beams,
    encode_items,
    evaluate_dataset,
    exact_match,
    example_loss,
    map_from_scores,
    normalize_for_metric,
    paragraph_label_table,
    predict,
    predict_dataset,
    token_f1,
    top_indices,
    train,
    train_epoch,
)
from spanqa.span_decoder import StartDistribution

QUESTION = ["what", "do", "camels", "store", "?"]


def qa_example(paragraph_texts, answers=("fat",), ex_id="x", question=QUESTION):
    return QAExample(
        id=ex_id,
        question=list(question),
        answers=list(answers),
        paragraphs=[make_paragraph(f"{ex_id}-p{i}", t) for i, t in enumerate(paragraph_texts)],
        question_text=" ".join(question),
    )


POS_NEG = qa_example(["camels store fat in humps", "sand dune walks do"])


def test_train_config_validation():
    with pytest.raises(ValueError, match="beam"):
        TrainConfig(k1=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    assert AggregationMode.parse(TrainConfig().mode) is AggregationMode.MAX


# --------------------------------------------------------------- example_loss


def components_loss(model, example, mode=AggregationMode.MAX):
    """Recompute the pair loss from the public pieces, for cross-checking."""
    from spanqa.paragraph_quality import quality_logit
    from spanqa.span_decoder import end_distribution, span_probability, start_distribution
    from spanqa.corpus import label_spans

    pos, neg = example.paragraphs
    with no_grad():
        ctx = model.encode_paragraph(encode_question(model, example.question), pos.tokens)
        sd = start_distribution(ctx, model.decoder)
        probs = []
        for lab in label_spans(pos, example.answers):
            ends = end_distribution(ctx, sd, lab.start, model.decoder)
            probs.append(span_probability(sd, ends, lab.start, lab.end).item())
        p_pos = max(probs)
        q_pos = quality_logit(ctx, sd, model.quality).item()
        ctx_n = model.encode_paragraph(encode_question(model, example.question), neg.tokens)
        sd_n = start_distribution(ctx_n, model.decoder)
        q_neg = quality_logit(ctx_n, sd_n, model.quality).item()
    q = softmax([q_pos, q_neg])[0]
    return -(np.log(q) + np.log(p_pos))


def test_example_loss_matches_component_arithmetic():
    model = tiny_model(seed=1)
    labels = paragraph_label_table([POS_NEG])[0]
    loss = example_loss(
        model, POS_NEG, 0, labels[0], POS_NEG.paragraphs[1], AggregationMode.MAX, make_rng(1, 3)
    )
    assert loss.item() == pytest.approx(components_loss(model, POS_NEG), abs=1e-10)


def test_example_loss_encodes_question_once_and_batches_the_pair(monkeypatch):
    import spanqa.pipeline as pipeline

    model = tiny_model(seed=21, keep_prob=0.7)
    example = qa_example(["camels store fat in their fat humps", "sand dune walks do"])
    labels = paragraph_label_table([example])[0]
    assert len(labels[0]) == 2

    def loss_and_grads(fn):
        model.store.zero_grads()
        loss = fn(model, example, 0, labels[0], example.paragraphs[1], AggregationMode.RAND, make_rng(21, 3))
        backward(loss)
        return loss.item(), {name: t.grad.copy() for name, t in model.store.items()}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    ref_loss, ref_grads = loss_and_grads(reference_example_loss)
    calls = []
    count(model, "encode_questions")
    count(model, "encode_paragraphs")
    count(pipeline, "start_and_quality")
    loss, grads = loss_and_grads(example_loss)
    assert sorted(calls) == ["encode_paragraphs", "encode_questions", "start_and_quality"]
    # same dropout masks and rand draw as the one-item path; the packed pair
    # only reorders float64 sums
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    for name, grad in ref_grads.items():
        np.testing.assert_allclose(grads[name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name)


def test_example_loss_analytic_value():
    # -(log q + log p) with q=0.5, p=0.25 is ln 8
    assert -(np.log(0.5) + np.log(0.25)) == pytest.approx(np.log(8.0))


def test_example_loss_gradient_full_stack():
    model = tiny_model(seed=2)
    labels = paragraph_label_table([POS_NEG])[0]

    def build():
        return example_loss(
            model, POS_NEG, 0, labels[0], POS_NEG.paragraphs[1], AggregationMode.SUM, make_rng(2, 3)
        )

    check_grads(
        build,
        [
            model.decoder.w_end,
            model.quality.w_c,
            model.encoder.att_w_pq,
            model.encoder.char_conv_w,
            model.decoder.end_rnn.fwd.u_h,
        ],
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_example_loss_rejects_non_finite_with_id():
    model = tiny_model(seed=3)
    model.encoder.word_emb.data[:] = np.inf
    labels = paragraph_label_table([POS_NEG])[0]
    with pytest.raises(FloatingPointError, match="x"):
        example_loss(
            model, POS_NEG, 0, labels[0], POS_NEG.paragraphs[1], AggregationMode.MAX, make_rng(3, 3)
        )


# ---------------------------------------------------------------- training


def test_single_example_loss_decreases_after_one_epoch():
    model = tiny_model(seed=4)
    dataset = [POS_NEG]
    labels = paragraph_label_table(dataset)
    config = TrainConfig(epochs=1, batch_size=1, seed=4)

    def current_loss():
        return example_loss(
            model, POS_NEG, 0, labels[0][0], POS_NEG.paragraphs[1], AggregationMode.MAX, make_rng(0, 0)
        ).item()

    with no_grad():
        before = current_loss()
    model.store.zero_grads()
    train_epoch(model, dataset, labels, config, epoch=0)
    with no_grad():
        after = current_loss()
    assert after < before


def test_epoch_with_no_positives_skips_everything():
    model = tiny_model(seed=5)
    dataset = [qa_example(["sand dune walks", "their humps do"], answers=["zzz"], ex_id=f"e{i}") for i in range(3)]
    labels = paragraph_label_table(dataset)
    stats = train_epoch(model, dataset, labels, TrainConfig(seed=5), epoch=0)
    assert stats.mean_loss is None
    assert stats.skipped == 3
    assert stats.steps == 0


def test_all_positive_example_uses_in_batch_fallback():
    model = tiny_model(seed=6)
    dataset = [
        qa_example(["camels store fat", "fat in humps"], ex_id="allpos"),
        qa_example(["camels store fat", "sand dune walks"], ex_id="mixed"),
    ]
    labels = paragraph_label_table(dataset)
    stats = train_epoch(model, dataset, labels, TrainConfig(batch_size=2, seed=6), epoch=0)
    assert stats.skipped == 0
    assert stats.steps == 2


def test_all_positive_alone_in_batch_is_skipped():
    model = tiny_model(seed=7)
    dataset = [qa_example(["camels store fat", "fat in humps"], ex_id="allpos")]
    labels = paragraph_label_table(dataset)
    stats = train_epoch(model, dataset, labels, TrainConfig(batch_size=1, seed=7), epoch=0)
    assert stats.skipped == 1
    assert stats.steps == 0


def test_training_is_deterministic():
    def run():
        model = tiny_model(seed=8)
        dataset = [
            POS_NEG,
            qa_example(["store fat in their humps", "what do sand walks"], ex_id="y"),
        ]
        history = train(model, dataset, TrainConfig(epochs=2, batch_size=2, seed=8))
        return [(h.mean_loss, h.skipped, h.steps) for h in history]

    assert run() == run()


# ----------------------------------------------------- batched training


BATCH = [
    qa_example(["camels store fat in their fat humps", "sand dune walks do"], ex_id="two-labels"),
    qa_example(["camels store fat", "fat in humps"], ex_id="all-positive"),
    qa_example(["sand dune walks", "their humps do"], answers=["zzz"], ex_id="no-positive"),
    qa_example(["what do camels store in their humps ? fat", "dune"], ex_id="long-short"),
    qa_example(["fat", "sand dune walks in their humps do"], ex_id="short-long", question=["store", "?"]),
]


def capture_steps(monkeypatch, model, on_step):
    """Replace the model's Adadelta step by `on_step()` followed by zeroing
    the gradients, so a test sees each batch's accumulated gradients."""

    def step(**kwargs):
        on_step()
        model.store.zero_grads()

    monkeypatch.setattr(model.store, "adadelta_step", step)


def grads_of(model):
    return {name: t.grad.copy() for name, t in model.store.items() if t.grad is not None}


def test_train_batch_matches_sum_of_one_item_references(monkeypatch):
    # one Adadelta batch of the whole dataset: dropout, `rand` aggregation,
    # a negative borrowed from another example and a skipped example
    model = tiny_model(seed=23, keep_prob=0.7)
    labels = paragraph_label_table(BATCH)
    config = TrainConfig(batch_size=len(BATCH), seed=23, mode="rand")
    steps = []
    capture_steps(monkeypatch, model, lambda: steps.append(grads_of(model)))
    stats = train_epoch(model, BATCH, labels, config, epoch=0)
    assert (stats.steps, stats.skipped, len(steps)) == (4, 1, 1)

    # the same draws, each pair through the one-item (B=1) calls
    order = make_rng(23, STREAM_TRAIN, 0).permutation(len(BATCH)).tolist()
    losses, borrowed = [], 0
    for offset, ex_idx in enumerate(order):
        rng = make_rng(23, STREAM_TRAIN, 0, offset + 1)
        pair = sample_pair([len(l) for l in labels[ex_idx]], rng)
        if pair is None:
            continue
        example, (pos, neg) = BATCH[ex_idx], pair
        if neg is None:
            borrowed += 1
            negative = _fallback_negative(BATCH, order, ex_idx, rng)
        else:
            negative = example.paragraphs[neg]
        losses.append(
            reference_example_loss(model, example, pos, labels[ex_idx][pos], negative, AggregationMode.RAND, rng)
        )
    assert borrowed == 1
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    total = total * (1.0 / len(losses))
    backward(total)
    ref_grads = grads_of(model)
    assert stats.mean_loss == pytest.approx(total.item(), rel=1e-12, abs=0)
    assert set(steps[0]) == set(ref_grads)
    for name, grad in ref_grads.items():
        np.testing.assert_allclose(steps[0][name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name)


def test_batch_mates_do_not_change_an_example_loss():
    # paragraphs of 1 to 7 tokens share each packed pass, so padding must not
    # leak into a shorter example's loss or gradients
    model = tiny_model(seed=24, keep_prob=0.7)
    labels = paragraph_label_table(BATCH)
    pairs = [(i, 0, 1) for i in (0, 3, 4)]

    def batch(indices):
        return [
            (BATCH[i], pos, labels[i][pos], BATCH[i].paragraphs[neg], make_rng(24, i))
            for i, pos, neg in indices
        ]

    together = batch_losses(model, batch(pairs), AggregationMode.SUM)
    for got, one in zip(together, pairs):
        (alone,) = batch_losses(model, batch([one]), AggregationMode.SUM)
        assert got.item() == pytest.approx(alone.item(), rel=1e-12, abs=0)
    model.store.zero_grads()
    backward(batch_losses(model, batch(pairs), AggregationMode.SUM)[2])
    together_grads = grads_of(model)
    model.store.zero_grads()
    backward(batch_losses(model, batch(pairs[2:]), AggregationMode.SUM)[0])
    for name, grad in grads_of(model).items():
        np.testing.assert_allclose(
            together_grads[name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name
        )


def test_predict_through_the_shared_start_and_quality_loop_equals_separate_loops(monkeypatch):
    # one loop for the start and quality layers runs the same ops in the same
    # order as one loop each, so predictions are equal, not just close
    import spanqa.pipeline as pipeline

    model = tiny_model(hidden_dim=4, seed=26)
    example = qa_example(["camels store fat in their fat humps", "sand dune walks do", "fat in humps"])
    shared = predict(model, example, AggregationMode.SUM, 3, 2)
    monkeypatch.setattr(pipeline, "start_and_quality", separate_start_and_quality)
    separate = predict(model, example, AggregationMode.SUM, 3, 2)
    assert shared.answer_scores == separate.answer_scores
    assert shared.paragraph_probs == separate.paragraph_probs
    assert shared.best_answer == separate.best_answer


def test_shared_start_and_quality_loop_gradients_match_separate_loops(monkeypatch):
    # the context gradient adds the start and quality layers' adjoints in
    # another order; everything else is the same arithmetic
    import spanqa.pipeline as pipeline

    model = tiny_model(hidden_dim=4, seed=28, keep_prob=0.7)
    labels = paragraph_label_table(BATCH)

    def losses_and_grads():
        pairs = [(BATCH[i], 0, labels[i][0], BATCH[i].paragraphs[1], make_rng(28, i)) for i in (0, 3, 4)]
        model.store.zero_grads()
        losses = batch_losses(model, pairs, AggregationMode.SUM)
        backward(losses[0] + losses[1] + losses[2])
        return [loss.item() for loss in losses], grads_of(model)

    shared_losses, shared_grads = losses_and_grads()
    monkeypatch.setattr(pipeline, "start_and_quality", separate_start_and_quality)
    separate_losses, separate_grads = losses_and_grads()
    assert shared_losses == separate_losses
    assert set(shared_grads) == set(separate_grads)
    for name, grad in separate_grads.items():
        np.testing.assert_allclose(
            shared_grads[name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name
        )


def test_training_step_matches_the_copying_kernel_and_end_layer(monkeypatch):
    """A training step's losses equal, and its gradients are within 1e-12
    relative of, the same step through the kernel that projects and
    backpropagates every step from its own gathered row, with one copy of
    the paragraph per end-layer start: the kernel sums each row's step
    adjoints before its weight and input products, which reorders only the
    gradients' sums.  The first positive holds two labelled starts."""
    import spanqa.diffmath.rnn as rnn
    import spanqa.pipeline as pipeline

    model = tiny_model(hidden_dim=4, seed=29, keep_prob=0.7)
    labels = paragraph_label_table(BATCH)

    def losses_and_grads():
        pairs = [(BATCH[i], 0, labels[i][0], BATCH[i].paragraphs[1], make_rng(29, i)) for i in (0, 3, 4)]
        model.store.zero_grads()
        losses = batch_losses(model, pairs, AggregationMode.SUM)
        backward(losses[0] + losses[1] + losses[2])
        return [loss.item() for loss in losses], grads_of(model)

    assert len({label.start for label in labels[0][0]}) == 2
    got_losses, got_grads = losses_and_grads()
    monkeypatch.setattr(rnn, "_gru_pass", copying_gru_pass)
    monkeypatch.setattr(pipeline, "end_distributions", copying_end_distributions)
    ref_losses, ref_grads = losses_and_grads()
    assert got_losses == ref_losses
    assert set(got_grads) == set(ref_grads)
    for name, grad in ref_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name)


@pytest.mark.parametrize("batch_size", [1, 2, 5])
def test_one_gru_call_per_layer_per_training_batch(monkeypatch, batch_size):
    import spanqa.diffmath.rnn as rnn

    model = tiny_model(seed=25)
    dataset = [
        qa_example(["camels store fat in humps", "sand dune walks do"], ex_id=f"e{i}", question=QUESTION[i:])
        for i in range(5)
    ]
    gru_sequence, calls, per_step = rnn.gru_sequence, [], []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return gru_sequence(*args, **kwargs)

    def on_step():
        per_step.append(len(calls))
        calls.clear()

    monkeypatch.setattr(rnn, "gru_sequence", counted)
    capture_steps(monkeypatch, model, on_step)
    stats = train_epoch(model, dataset, paragraph_label_table(dataset), TrainConfig(batch_size=batch_size), epoch=0)
    assert stats.steps == 5
    assert per_step == [5] * -(-5 // batch_size)


def test_train_epoch_releases_each_batch_graph_before_the_next(monkeypatch):
    import weakref

    import spanqa.pipeline as pipeline

    model = tiny_model(seed=27)
    dataset = [qa_example(["camels store fat in humps", "sand dune walks do"], ex_id=f"e{i}") for i in range(3)]
    real, earlier, alive_at_call = pipeline.batch_losses, [], []

    def tracked(*args):
        # a Tensor has no weakref slot, so watch the arrays the losses own
        alive_at_call.append(sum(ref() is not None for ref in earlier))
        losses = real(*args)
        earlier.extend(weakref.ref(loss.data) for loss in losses)
        return losses

    monkeypatch.setattr(pipeline, "batch_losses", tracked)
    stats = train_epoch(model, dataset, paragraph_label_table(dataset), TrainConfig(batch_size=1, seed=27), epoch=0)
    assert stats.steps == 3
    assert alive_at_call == [0, 0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_in_a_batch_names_its_example():
    model = tiny_model(seed=26, words=TINY_WORDS + ["oasis"])
    model.encoder.word_emb.data[model.vocab.id("oasis")] = np.inf
    dataset = [
        qa_example(["camels store fat", "sand dune walks"], ex_id="fine-1"),
        qa_example(["camels store fat", "sand dune walks"], ex_id="poisoned", question=["oasis", "?"]),
        qa_example(["fat in their humps", "dune walks"], ex_id="fine-2"),
    ]
    with pytest.raises(FloatingPointError, match="for example poisoned$"):
        train_epoch(model, dataset, paragraph_label_table(dataset), TrainConfig(batch_size=3, seed=26), epoch=0)


# -------------------------------------------------------------- beam search


def test_top_indices_ties_prefer_lower():
    assert top_indices(np.array([0.4, 0.4, 0.2]), 2) == [0, 1]
    assert top_indices(np.array([0.1, 0.9, 0.1]), 2) == [1, 0]


def beam_tuples(start_probs, end_dists, k1, k2):
    """(start, end, span_prob) of beam_candidates over plain arrays."""
    paragraph = make_paragraph("p", " ".join(f"w{i}" for i in range(len(start_probs))))
    start_dist = StartDistribution(probs=Tensor(start_probs), states=None)
    cands = beam_candidates(paragraph, start_dist, end_dists, k1, k2)
    return [(c.start, c.end, c.span_prob) for c in cands]


def test_beam_spans_fixture():
    start = np.array([0.6, 0.3, 0.1])
    ends = {
        0: np.array([0.1, 0.7, 0.2]),
        1: np.array([0.0, 0.5, 0.5]),
        2: np.array([0.0, 0.0, 1.0]),
    }
    spans = beam_tuples(start, ends, k1=2, k2=1)
    assert spans == [
        (0, 1, 0.6 * 0.7),
        (1, 1, 0.3 * 0.5),  # tie 0.5/0.5 resolves to the lower end index
    ]


def test_beam_greedy_single():
    start = np.array([0.2, 0.8])
    spans = beam_tuples(start, {1: np.array([0.0, 1.0])}, 1, 1)
    assert spans == [(1, 1, 0.8 * 1.0)]


def test_beam_rejects_bad_widths():
    model = tiny_model(seed=8)
    for k1, k2 in [(0, 1), (1, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="beam sizes"):
            predict(model, POS_NEG, AggregationMode.MAX, k1, k2)


def test_exhaustive_beam_covers_all_spans():
    model = tiny_model(seed=9)
    example = POS_NEG
    paragraph = example.paragraphs[0]
    with no_grad():
        ctx = model.encode_paragraph(encode_question(model, example.question), paragraph.tokens)
        n = len(paragraph.tokens)
        cands = reference_beam(ctx, paragraph, model.decoder, n, n)
        table = all_span_probabilities(ctx, model.decoder)
    assert len(cands) == n * (n + 1) // 2
    for c in cands:
        assert c.span_prob == pytest.approx(table[c.start, c.end], abs=1e-12)
        assert c.answer_text == paragraph.span_text(c.start, c.end)


def test_beam_top1_monotone_in_widths():
    model = tiny_model(seed=10)
    paragraph = POS_NEG.paragraphs[0]
    with no_grad():
        ctx = model.encode_paragraph(encode_question(model, POS_NEG.question), paragraph.tokens)
        tops = []
        for k1, k2 in [(1, 1), (2, 1), (2, 2), (3, 3), (6, 6)]:
            cands = reference_beam(ctx, paragraph, model.decoder, k1, k2)
            tops.append(max(c.span_prob for c in cands))
    assert all(b >= a - 1e-15 for a, b in zip(tops, tops[1:]))


# ----------------------------------------------------------------- predict


def group(text, prob):
    return AnswerGroup(answer_text=text, spans=[], aggregated_prob=prob)


def test_combine_scores_fixture():
    scores = combine_scores([0.7, 0.3], [[group("fat", 0.5)], [group("fat", 0.2)]])
    assert scores == {"fat": pytest.approx(0.41)}


def test_combine_scores_missing_answer_contributes_zero():
    scores = combine_scores([0.6, 0.4], [[group("fat", 0.5)], [group("hump", 0.3)]])
    assert scores["fat"] == pytest.approx(0.3)
    assert scores["hump"] == pytest.approx(0.12)


def test_best_answer_tie_breaks_lexicographically():
    assert best_answer({"zebra": 0.4, "ant": 0.4}) == "ant"
    with pytest.raises(ValueError):
        best_answer({})


def test_predict_single_paragraph_collapses_quality():
    model = tiny_model(seed=11)
    example = qa_example(["camels store fat in humps"])
    pred = predict(model, example, AggregationMode.MAX, 2, 2)
    assert pred.paragraph_probs == [1.0]
    groups = {g.answer_text: g.aggregated_prob for g in pred.paragraph_groups[0]}
    for text, score in pred.answer_scores.items():
        assert score == pytest.approx(groups[text])


def test_predict_rejects_empty_example():
    model = tiny_model(seed=12)
    empty = QAExample(id="none", question=QUESTION, answers=["x"], paragraphs=[], question_text="")
    with pytest.raises(ValueError, match="no paragraphs"):
        predict(model, empty, AggregationMode.MAX, 1, 1)


def brute_force_scores(model, example, mode):
    """Independent mixture over every span of every paragraph."""
    q = quality_probs(model, example)
    scores = {}
    with no_grad():
        for q_i, paragraph in zip(q, example.paragraphs):
            ctx = model.encode_paragraph(encode_question(model, example.question), paragraph.tokens)
            table = all_span_probabilities(ctx, model.decoder)
            per_text = {}
            n = len(paragraph.tokens)
            for s in range(n):
                for e in range(s, n):
                    key = normalize_answer_key(paragraph.span_text(s, e))
                    per_text.setdefault(key, []).append(table[s, e])
            for key, plist in per_text.items():
                if mode is AggregationMode.HEAD:
                    value = plist[0]
                elif mode is AggregationMode.MAX:
                    value = max(plist)
                elif mode is AggregationMode.SUM:
                    value = sum(plist)
                else:
                    raise AssertionError("deterministic modes only")
                scores[key] = scores.get(key, 0.0) + q_i * value
    return scores


@pytest.mark.parametrize("mode", [AggregationMode.MAX, AggregationMode.SUM, AggregationMode.HEAD])
def test_exhaustive_predict_matches_brute_force(mode):
    model = tiny_model(seed=13)
    example = qa_example(
        ["camels store fat in humps", "sand dune walks do", "what do camels do"]
    )
    n = max(len(p.tokens) for p in example.paragraphs)
    pred = predict(model, example, mode, n, n)
    brute = brute_force_scores(model, example, mode)
    assert set(pred.answer_scores) == set(brute)
    for key, value in brute.items():
        assert pred.answer_scores[key] == pytest.approx(value, abs=1e-9)
    assert pred.best_answer == min(brute.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def test_predict_sum_mass_bounded():
    model = tiny_model(seed=14)
    example = qa_example(["camels store fat in humps", "sand dune walks do"])
    n = max(len(p.tokens) for p in example.paragraphs)
    pred = predict(model, example, AggregationMode.SUM, n, n)
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in pred.answer_scores.values())
    assert sum(pred.answer_scores.values()) <= 1.0 + 1e-6



def test_predict_encodes_question_once_and_matches_per_paragraph_reference(monkeypatch):
    model = tiny_model(seed=20)
    example = qa_example(["camels store fat in humps", "sand dune walks do", "fat in their humps"])
    scores, probs, best = reference_predict(model, example, AggregationMode.SUM, 3, 2)
    encode_questions, calls = model.encode_questions, []

    def counted(questions, *args, **kwargs):
        calls.append(len(questions))
        return encode_questions(questions, *args, **kwargs)

    monkeypatch.setattr(model, "encode_questions", counted)
    pred = predict(model, example, AggregationMode.SUM, 3, 2)
    assert calls == [1]  # one pass, over the one question
    assert pred.answer_scores == scores
    assert pred.paragraph_probs == probs
    assert pred.best_answer == best

def test_one_gru_call_per_bidirectional_layer(monkeypatch):
    # question, paragraph, self-attention and end layers each run both
    # directions of all their sequences in one kernel call, and the start and
    # quality layers, which read the same contexts, share one more
    import spanqa.diffmath.rnn as rnn

    model = tiny_model(seed=22)
    example = qa_example(["camels store fat in humps", "sand dune walks do", "fat in their humps"])
    labels = paragraph_label_table([example])[0]
    gru_sequence, calls = rnn.gru_sequence, []

    def counted(*args, **kwargs):
        # perfbench/run.py counts args[0].data.shape[0] of each call as its GRU steps
        calls.append(args[0].data.shape[0])
        return gru_sequence(*args, **kwargs)

    def steps(questions, paragraphs, ends):
        """Each pass's step count: its longest question, paragraph or end row."""
        longest = max(len(p.tokens) for p in paragraphs)
        return [max(map(len, questions)), longest, longest, longest, max(len(p.tokens) for p in ends)]

    monkeypatch.setattr(rnn, "gru_sequence", counted)
    predict(model, example, AggregationMode.SUM, 3, 2)
    assert len(calls) == 5
    assert calls == steps([example.question], example.paragraphs, example.paragraphs)
    calls.clear()
    example_loss(model, example, 0, labels[0], example.paragraphs[1], AggregationMode.MAX, make_rng(22, 3))
    assert len(calls) == 5
    assert calls == steps([example.question], example.paragraphs[:2], example.paragraphs[:1])
    examples = [
        example,
        qa_example(["fat in their humps", "dune walks"], ex_id="y", question=QUESTION[1:]),
        qa_example(["sand dune walks do", "camels store fat"], ex_id="z", question=QUESTION[2:]),
    ]
    assert chunk_bounds(examples) == [(0, 3)]
    calls.clear()
    predict_dataset(model, examples, AggregationMode.SUM, 3, 2)
    assert len(calls) == 5
    every = [p for ex in examples for p in ex.paragraphs]
    assert calls == steps([ex.question for ex in examples], every, every)
    pairs = []
    for i, (ex, ex_labels) in enumerate(zip(examples, paragraph_label_table(examples))):
        pos = next(j for j, p_labels in enumerate(ex_labels) if p_labels)
        pairs.append((ex, pos, ex_labels[pos], ex.paragraphs[1 - pos], make_rng(22, 4, i)))
    calls.clear()
    batch_losses(model, pairs, AggregationMode.MAX)
    assert len(calls) == 5
    positives = [ex.paragraphs[pos] for ex, pos, _, _, _ in pairs]
    negatives = [neg for _, _, _, neg, _ in pairs]
    assert calls == steps([ex.question for ex in examples], positives + negatives, positives)


def test_beam_encoding_equals_the_recorded_pass_bit_for_bit():
    """`encode_for_beams` runs the end layer without a graph, over rows that
    a paragraph's starts share; every start, quality and end number equals
    that of a recorded `encode_items` pass over the same chunk of examples,
    which reads one copy of the paragraph per start."""
    model = tiny_model(hidden_dim=8, seed=31)
    examples = mixed_dataset()
    shared = encode_for_beams(model, examples, 3)
    recorded = encode_items(
        model,
        [(ex.question, [p.tokens for p in ex.paragraphs], None) for ex in examples],
        lambda i, j, start_dist: top_indices(start_dist.probs.data, 3),
    )
    assert recorded[0].quality[0].requires_grad
    for got, want in zip(shared, recorded):
        assert len(got.ends) == len(want.ends)
        for sd, want_sd, q, want_q in zip(got.starts, want.starts, got.quality, want.quality):
            assert np.array_equal(sd.probs.data, want_sd.probs.data) and np.array_equal(q.data, want_q.data)
        for ends, want_ends in zip(got.ends, want.ends):
            assert list(ends) == list(want_ends)
            for s in ends:
                assert np.array_equal(ends[s].data, want_ends[s].data)


def mixed_dataset(n=7):
    """Examples of one to four paragraphs of 2 to 9 tokens, each with its own question."""
    rng = np.random.default_rng(5)
    words = [w for w in TINY_WORDS if w != "?"]
    return [
        qa_example(
            [" ".join(rng.choice(words, size=rng.integers(2, 10))) for _ in range(rng.integers(1, 5))],
            answers=[str(rng.choice(words))],
            ex_id=f"m{i}",
            question=list(rng.choice(words, size=rng.integers(2, 6))) + ["?"],
        )
        for i in range(n)
    ]


def test_chunk_bounds_cover_the_data_in_whole_examples_within_the_cap(monkeypatch):
    import spanqa.pipeline as pipeline

    monkeypatch.setattr(pipeline, "CHUNK_ROW_STEPS", 40)
    dataset = mixed_dataset(12)
    bounds = pipeline.chunk_bounds(dataset)
    assert [i for start, stop in bounds for i in range(start, stop)] == list(range(len(dataset)))
    for start, stop in bounds:
        paragraphs = [p for ex in dataset[start:stop] for p in ex.paragraphs]
        steps = len(paragraphs) * max(len(p.tokens) for p in paragraphs)
        assert steps <= 40 or stop - start == 1
        if stop < len(dataset):  # the next example would have overflowed the chunk
            paragraphs += dataset[stop].paragraphs
            assert len(paragraphs) * max(len(p.tokens) for p in paragraphs) > 40
    assert pipeline.chunk_bounds([]) == []


def test_predict_dataset_matches_one_example_predict_calls(monkeypatch):
    # equal to the last bit: a chunk pads its paragraphs and questions to its
    # longest and packs them into one batch, and neither may move a number
    import spanqa.pipeline as pipeline

    monkeypatch.setattr(pipeline, "CHUNK_ROW_STEPS", 40)
    model = tiny_model(seed=16, hidden_dim=16, word_dim=8, char_out_dim=8)
    dataset = mixed_dataset()
    bounds = pipeline.chunk_bounds(dataset)
    assert len(bounds) >= 3 and max(stop - start for start, stop in bounds) >= 2
    chunked = predict_dataset(model, dataset, AggregationMode.RAND, 6, 4, seed=4)
    for i, (example, pred) in enumerate(zip(dataset, chunked)):
        assert pred == predict(model, example, AggregationMode.RAND, 6, 4, make_rng(4, STREAM_PREDICT, i))


def test_predict_dataset_threads_match_serial(monkeypatch):
    import spanqa.pipeline as pipeline

    monkeypatch.setattr(pipeline, "CHUNK_ROW_STEPS", 40)
    model = tiny_model(seed=15)
    dataset = mixed_dataset()
    assert len(pipeline.chunk_bounds(dataset)) >= 3
    serial = predict_dataset(model, dataset, AggregationMode.RAND, 2, 2, seed=1, threads=1)
    for threads in (2, 4):
        assert predict_dataset(model, dataset, AggregationMode.RAND, 2, 2, seed=1, threads=threads) == serial


def test_predict_dataset_names_an_example_without_paragraphs_inside_a_chunk():
    import spanqa.pipeline as pipeline

    dataset = mixed_dataset(4)
    dataset[2] = QAExample(id="bare", question=QUESTION, answers=["x"], paragraphs=[], question_text="")
    assert pipeline.chunk_bounds(dataset) == [(0, 4)]
    with pytest.raises(ValueError, match="example bare has no paragraphs"):
        predict_dataset(tiny_model(seed=17), dataset, AggregationMode.MAX, 2, 1)


def test_a_chunk_agrees_with_each_example_alone_at_full_width():
    """Within 1e-12 relative, though not always to the last bit: BLAS picks
    its gemm kernel by the product's size, and with 400-wide tokens a
    question of four projects as a product of 4 rows alone and of 8 in
    this chunk, which round differently here."""
    import spanqa.pipeline as pipeline

    model = full_width_model(seed=18)
    dataset = [
        qa_example(
            ["camels store fat in their fat humps", "sand dune walks do"], ex_id="a", question=QUESTION[:3] + ["?"]
        ),
        qa_example(["what do camels store in their humps ? fat", "dune"], ex_id="b", question=QUESTION[1:]),
    ]
    assert pipeline.chunk_bounds(dataset) == [(0, 2)]
    chunked = predict_dataset(model, dataset, AggregationMode.SUM, 3, 2, seed=3)
    for i, (example, pred) in enumerate(zip(dataset, chunked)):
        alone = predict(model, example, AggregationMode.SUM, 3, 2, make_rng(3, STREAM_PREDICT, i))
        assert pred.best_answer == alone.best_answer
        assert list(pred.answer_scores) == list(alone.answer_scores)
        np.testing.assert_allclose(
            list(pred.answer_scores.values()), list(alone.answer_scores.values()), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(pred.paragraph_probs, alone.paragraph_probs, rtol=1e-12, atol=0)


@needs_blas_threads
def test_predict_dataset_bits_do_not_depend_on_the_split_at_full_width(monkeypatch):
    sizes = spy_groups(monkeypatch, 4)
    model = full_width_model(seed=19)
    dataset = mixed_dataset(4)
    with serial_at_one_blas_thread(monkeypatch):
        serial = predict_dataset(model, dataset, AggregationMode.RAND, 3, 2, seed=2)
    assert max(sizes) == 1
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        sizes.clear()
        assert predict_dataset(model, dataset, AggregationMode.RAND, 3, 2, seed=2) == serial
        assert max(sizes) == cpus  # the start and quality layers' four directions


@needs_blas_threads
def test_train_step_bits_do_not_depend_on_the_split_at_full_width(monkeypatch):
    """One Adadelta batch, with dropout: its loss and every parameter
    gradient split over 2 and 4 threads equal those of the serial passes
    under a one-thread BLAS."""
    sizes = spy_groups(monkeypatch, 4)
    model = full_width_model(seed=20, keep_prob=0.8)
    labels = paragraph_label_table(BATCH)
    steps = []
    capture_steps(monkeypatch, model, lambda: steps.append(grads_of(model)))

    def run():
        config = TrainConfig(batch_size=len(BATCH), seed=20)
        return train_epoch(model, BATCH, labels, config, epoch=0).mean_loss, steps[-1]

    with serial_at_one_blas_thread(monkeypatch):
        loss, grads = run()
    assert max(sizes) == 1
    for cpus in (2, 4):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        sizes.clear()
        got_loss, got_grads = run()
        assert max(sizes) == cpus
        assert got_loss == loss and list(got_grads) == list(grads)
        for name, grad in grads.items():
            assert np.array_equal(got_grads[name], grad), name


@needs_blas_threads
def test_blas_thread_count_is_pinned_at_full_width_and_restored_when_a_call_raises(monkeypatch):
    import spanqa.pipeline as pipeline

    get, put = workers._blas_thread_calls()
    ambient = get()
    inside = []
    encode = pipeline.encode_for_beams
    monkeypatch.setattr(pipeline, "encode_for_beams", lambda *args: inside.append(get()) or encode(*args))

    def failing_step(*args):
        inside.append(get())
        raise RuntimeError("step failed")

    monkeypatch.setattr(pipeline, "_train_step", failing_step)
    dataset = mixed_dataset(4)
    dataset[2] = QAExample(id="bare", question=QUESTION, answers=["x"], paragraphs=[], question_text="")
    config = TrainConfig(batch_size=len(BATCH))
    put(2)
    try:
        with pytest.raises(ValueError, match="example bare has no paragraphs"):
            predict_dataset(full_width_model(seed=17), dataset, AggregationMode.MAX, 2, 1)
        assert (inside, get()) == ([1], 2)
        with pytest.raises(RuntimeError, match="step failed"):
            train_epoch(full_width_model(seed=17), BATCH, paragraph_label_table(BATCH), config, epoch=0)
        assert (inside, get()) == ([1, 1], 2)
        # below the split width BLAS is left as it is
        predict_dataset(tiny_model(seed=17), mixed_dataset(1), AggregationMode.MAX, 2, 1)
        with pytest.raises(RuntimeError, match="step failed"):
            train_epoch(tiny_model(seed=17), BATCH, paragraph_label_table(BATCH), config, epoch=0)
        assert (inside, get()) == ([1, 1, 2, 2], 2)
    finally:
        put(ambient)


def test_passes_run_serially_below_the_split_width_or_where_blas_threads_cannot_be_set(monkeypatch):
    sizes = spy_groups(monkeypatch, 4)
    predict_dataset(tiny_model(hidden_dim=workers.SPLIT_WIDTH - 1), mixed_dataset(2), AggregationMode.MAX, 3, 1)
    assert set(sizes) == {1}
    sizes.clear()
    monkeypatch.setattr(workers, "_blas_thread_calls", lambda: None)
    predict_dataset(full_width_model(seed=21), mixed_dataset(2), AggregationMode.MAX, 3, 1)
    assert set(sizes) == {1}


# ----------------------------------------------------------------- metrics


def test_normalize_for_metric():
    assert normalize_for_metric("The Fat.") == "fat"
    assert normalize_for_metric("A  man, an apple; the end") == "man apple end"


def test_exact_match_fixtures():
    assert exact_match("The Fat.", ["fat"]) == 1
    assert exact_match("", ["fat"]) == 0
    assert exact_match("fat", ["lean", "fat"]) == 1


def test_token_f1_fixtures():
    assert token_f1("body fat", ["fat"]) == pytest.approx(2 / 3)
    assert token_f1("exact match", ["exact match"]) == 1.0
    assert token_f1("apples", ["oranges"]) == 0.0


@given(st.text(max_size=30), st.lists(st.text(max_size=30), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_em_never_exceeds_f1(pred, golds):
    assert exact_match(pred, golds) <= token_f1(pred, golds) + 1e-12


def test_average_precision_fixtures():
    assert average_precision([1, 1, 0]) == 1.0
    assert average_precision([0, 1, 0]) == 0.5
    assert average_precision([0, 0]) is None


def test_map_from_scores_ranks_and_skips():
    value = map_from_scores(
        [
            ([0.9, 0.1], [1, 0]),  # AP 1.0
            ([0.2, 0.9, 0.1], [0, 0, 1]),  # positive ranked last: AP 1/3
            ([0.5, 0.5], [0, 0]),  # no positive: skipped, so the mean is over two
        ]
    )
    assert value == pytest.approx((1.0 + 1 / 3) / 2)
    assert map_from_scores([([0.5, 0.5], [0, 0])]) is None


def test_map_random_scores_near_random_baseline():
    # one positive among two paragraphs under random ranking: E[AP] = 3/4
    rng = make_rng(99, 1)
    scored = [((rng.random(2)).tolist(), [1, 0]) for _ in range(4000)]
    value = map_from_scores(scored)
    assert value == pytest.approx(0.75, abs=0.02)


def test_paragraph_map_perfect_when_quality_separates():
    model = tiny_model(seed=16)
    dataset = [qa_example(["camels store fat", "sand dune walks"], ex_id="a")]
    value = evaluate_dataset(model, dataset, AggregationMode.MAX, 1, 1)["map"]
    assert value in (0.5, 1.0)  # single positive at rank 1 or 2


def test_evaluate_dataset_all_correct_fixture():
    model = tiny_model(seed=17)
    dataset = [qa_example(["camels store fat in humps"], ex_id="a")]
    fake = [
        Prediction(
            example_id="a",
            best_answer="fat",
            answer_scores={"fat": 1.0},
            paragraph_probs=[1.0],
            paragraph_groups=[[]],
        )
    ]
    metrics = evaluate_dataset(model, dataset, AggregationMode.MAX, 1, 1, predictions=fake)
    assert metrics["em"] == 1.0
    assert metrics["f1"] == 1.0
    assert metrics["map"] == 1.0
    assert metrics["avg_answer_len"] == 1.0
    assert metrics["n"] == 1


def test_evaluate_dataset_hand_fixture():
    model = tiny_model(seed=18)
    dataset = [
        qa_example(["camels store fat"], ex_id="a"),
        qa_example(["camels store fat"], answers=["store fat"], ex_id="b"),
        qa_example(["camels store fat"], answers=["water"], ex_id="c"),
    ]
    fake = [
        Prediction("a", "fat", {"fat": 1.0}, [1.0], [[]]),  # EM 1, F1 1
        Prediction("b", "fat", {"fat": 1.0}, [1.0], [[]]),  # EM 0, F1 2/3
        Prediction("c", "fat", {"fat": 1.0}, [1.0], [[]]),  # EM 0, F1 0
    ]
    metrics = evaluate_dataset(model, dataset, AggregationMode.MAX, 1, 1, predictions=fake)
    assert metrics["em"] == pytest.approx(1 / 3)
    assert metrics["f1"] == pytest.approx((1.0 + 2 / 3 + 0.0) / 3)



def test_evaluate_dataset_rejects_predictions_that_do_not_line_up():
    model = tiny_model(seed=18)
    dataset = [qa_example(["camels store fat"], ex_id="a"), qa_example(["camels store fat"], ex_id="b")]
    a, b = (Prediction(i, "fat", {"fat": 1.0}, [1.0], [[]]) for i in "ab")
    with pytest.raises(ValueError, match="1 predictions for 2 examples"):
        evaluate_dataset(model, dataset, AggregationMode.MAX, 1, 1, predictions=[a])
    with pytest.raises(ValueError, match="prediction for 'b' where example 'a' was expected"):
        evaluate_dataset(model, dataset, AggregationMode.MAX, 1, 1, predictions=[b, a])

def test_evaluate_dataset_rejects_empty():
    model = tiny_model(seed=19)
    with pytest.raises(ValueError, match="nonempty"):
        evaluate_dataset(model, [], AggregationMode.MAX, 1, 1)
