"""Acceptance gate: nine criteria, one printed verdict line each.

Verdicts are echoed immediately (visible under -s) and replayed in the
terminal summary after the run, so the nine lines always reach the log.
The synthetic-protocol fixtures are session-scoped and shared: the MAX-mode
model backs criteria 5, 6, and 7.
"""

import sys
import time

import numpy as np
import pytest

from helpers import (
    all_span_probabilities,
    encode_question,
    independent_end_distribution,
    max_rel_err,
    numeric_grad,
    softmax,
    step_rows,
    tiny_model,
    tsum,
)
from spanqa.aggregation import AggregationMode, normalize_answer_key
from spanqa.checkpoint import load_checkpoint, save_checkpoint
from spanqa.cli import main as cli_main
from spanqa.corpus import SynthConfig, generate_synthetic, corpus_stats
from spanqa.diffmath import Tensor, backward, make_rng, no_grad
from spanqa.encoder import CharVocab, EncoderConfig, Vocab
from spanqa.model import QaModel
from spanqa.paragraph_quality import quality_logit
from spanqa.pipeline import (
    TrainConfig,
    evaluate_dataset,
    example_loss,
    paragraph_label_table,
    predict,
    train,
)
from spanqa.span_decoder import end_distribution, start_distribution


def report(criterion: int, passed: bool, detail: str):
    import conftest

    verdict = "PASS" if passed else "FAIL"
    line = f"[acceptance] criterion {criterion}: {verdict} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert passed, f"criterion {criterion} failed: {detail}"


WORD_POOL = [
    "alder", "birch", "cedar", "dune", "elm", "fern", "gorse", "hazel",
    "iris", "juniper", "kelp", "larch", "moss", "nettle", "oak", "pine",
    "what", "grows", "there", "?",
]
QUESTION = ["what", "grows", "there", "?"]


def random_instance(seed, max_tokens=8, max_paragraphs=3, hidden_dim=2):
    """A tiny fresh model plus a random multi-paragraph example."""
    from spanqa.corpus import QAExample, make_paragraph

    rng = make_rng(seed, 55)
    model = tiny_model(hidden_dim=hidden_dim, words=WORD_POOL, seed=seed)
    k = int(rng.integers(1, max_paragraphs + 1))
    paragraphs = []
    for i in range(k):
        n = int(rng.integers(1, max_tokens + 1))
        words = [WORD_POOL[int(rng.integers(16))] for _ in range(n)]
        paragraphs.append(make_paragraph(f"p{i}", " ".join(words)))
    example = QAExample(
        id=f"inst{seed}",
        question=QUESTION,
        answers=[paragraphs[0].tokens[0]],
        paragraphs=paragraphs,
        question_text=" ".join(QUESTION),
    )
    return model, example


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_suite():
    """Analytic gradients match central differences across the whole stack."""
    t0 = time.monotonic()
    worst, instances = 0.0, 0

    def fd_check(build, leaves):
        nonlocal worst, instances
        loss = build()
        backward(loss)
        grads = [(leaf, leaf.grad.copy()) for leaf in leaves]
        for leaf, analytic in grads:
            numeric = numeric_grad(lambda: build().item(), leaf.data)
            worst = max(worst, max_rel_err(analytic, numeric))
        for leaf, _ in grads:
            leaf.zero_grad()
        instances += 1

    # 8 instances: the full training loss (encoder -> spans -> quality -> loss)
    for seed in range(8):
        model, example = random_instance(seed, max_tokens=5, max_paragraphs=2)
        bump = 0
        while len(example.paragraphs) < 2:
            bump += 100
            model, example = random_instance(seed + bump, max_tokens=5, max_paragraphs=2)
        labels = paragraph_label_table([example])[0]
        mode = [AggregationMode.MAX, AggregationMode.SUM][seed % 2]

        def build_loss():
            return example_loss(
                model, example, 0, labels[0], example.paragraphs[1], mode, make_rng(seed, 3)
            )

        fd_check(
            build_loss,
            [model.decoder.w_end, model.quality.w_c, model.encoder.att_w_pq, model.encoder.char_conv_b],
        )

    # 6 instances: BiGRU sequence reductions at random shapes
    from spanqa.diffmath.rnn import gru_sequence, init_bigru_params

    for seed in range(20, 26):
        rng = make_rng(seed, 56)
        n, width, d = int(rng.integers(1, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        params = init_bigru_params(width, d, rng)
        x = Tensor(rng.standard_normal((n, 1, width)), requires_grad=True)

        def build_rnn():
            return tsum(gru_sequence(*step_rows(x), (params,), [n]))

        fd_check(build_rnn, [x, params.fwd.u_h, params.bwd.w, params.fwd.b])

    # 6 instances: attention + softmax + span-score composite
    for seed in range(40, 46):
        model, example = random_instance(seed, max_tokens=6, max_paragraphs=1)
        paragraph = example.paragraphs[0]

        def build_span():
            ctx = model.encode_paragraph(encode_question(model, example.question), paragraph.tokens)
            starts = start_distribution(ctx, model.decoder)
            ends = end_distribution(ctx, starts, 0, model.decoder)
            q = quality_logit(ctx, starts, model.quality)
            from spanqa.span_decoder import span_probability

            return span_probability(starts, ends, 0, len(paragraph.tokens) - 1) + q

        fd_check(build_span, [model.encoder.att_w_p, model.encoder.att_w_q, model.decoder.w_start])

    elapsed = time.monotonic() - t0
    passed = instances >= 20 and worst < 1e-4 and elapsed < 120
    report(1, passed, f"{instances} instances, max rel err {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_normalization():
    """Start, end, and quality distributions sum to one; span mass totals one."""
    worst_dist, worst_mass = 0.0, 0.0
    for seed in range(10):
        model, example = random_instance(seed + 300)
        with no_grad():
            logits = []
            for paragraph in example.paragraphs:
                ctx = model.encode_paragraph(encode_question(model, example.question), paragraph.tokens)
                starts = start_distribution(ctx, model.decoder)
                worst_dist = max(worst_dist, abs(starts.probs.data.sum() - 1.0))
                n = len(paragraph.tokens)
                for s in range(n):
                    ends = end_distribution(ctx, starts, s, model.decoder)
                    worst_dist = max(worst_dist, abs(ends.data.sum() - 1.0))
                table = all_span_probabilities(ctx, model.decoder)
                worst_mass = max(worst_mass, abs(table.sum() - 1.0))
                logits.append(quality_logit(ctx, starts, model.quality).item())
            q = softmax(logits)
            worst_dist = max(worst_dist, abs(sum(q) - 1.0))
    passed = worst_dist < 1e-9 and worst_mass < 1e-6
    report(2, passed, f"max |Σ dist - 1| {worst_dist:.2e}, max |Σ span mass - 1| {worst_mass:.2e}")


# --------------------------------------------------------------- criterion 3


def brute_force_mixture(model, example, mode):
    """Independent re-implementation of the quality-weighted span mixture."""
    with no_grad():
        logits, tables = [], []
        for paragraph in example.paragraphs:
            ctx = model.encode_paragraph(encode_question(model, example.question), paragraph.tokens)
            starts = start_distribution(ctx, model.decoder)
            logits.append(quality_logit(ctx, starts, model.quality).item())
            tables.append(all_span_probabilities(ctx, model.decoder))
    q = softmax(logits)
    scores = {}
    for q_i, paragraph, table in zip(q, example.paragraphs, tables):
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
            else:
                value = sum(plist)
            scores[key] = scores.get(key, 0.0) + q_i * value
    return scores


def test_criterion_3_beam_matches_oracle():
    t0 = time.monotonic()
    modes = [AggregationMode.MAX, AggregationMode.SUM, AggregationMode.HEAD]
    worst = 0.0
    for seed in range(50):
        model, example = random_instance(seed + 600)
        mode = modes[seed % 3]
        n = max(len(p.tokens) for p in example.paragraphs)
        pred = predict(model, example, mode, n, n)
        brute = brute_force_mixture(model, example, mode)
        assert set(pred.answer_scores) == set(brute)
        for key, value in brute.items():
            worst = max(worst, abs(pred.answer_scores[key] - value))
        assert pred.best_answer == min(brute.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    elapsed = time.monotonic() - t0
    passed = worst < 1e-9 and elapsed < 60
    report(3, passed, f"50 instances, max |Δscore| {worst:.2e}, top-1 all agree, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_end_distributions_condition_on_start():
    from spanqa.corpus import make_paragraph
    from spanqa.diffmath import glorot_uniform, init_bigru_params

    paragraph = make_paragraph("p", "alder birch cedar dune elm fern")
    dependent, independent = 0, 0
    for seed in range(10):
        model = tiny_model(hidden_dim=2, words=WORD_POOL, seed=seed + 900)
        d = model.config.hidden_dim
        with no_grad():
            ctx = model.encode_paragraph(encode_question(model, QUESTION), paragraph.tokens)
            starts = start_distribution(ctx, model.decoder)
            e0 = end_distribution(ctx, starts, 0, model.decoder).data
            e1 = end_distribution(ctx, starts, 1, model.decoder).data
            # compare on the region where both are unmasked
            if np.max(np.abs(e0[1:] - e1[1:])) > 1e-6:
                dependent += 1
            # the baseline takes no start input at all: every start sees the
            # same distribution, so its L∞ spread is identically zero
            rng = make_rng(seed, 57)
            rnn = init_bigru_params(4 * d, d, rng)
            w_end = Tensor(glorot_uniform((2 * d, 1), rng))
            base = independent_end_distribution(ctx, starts, rnn, w_end).data
            spread = max(
                float(np.max(np.abs(independent_end_distribution(ctx, starts, rnn, w_end).data - base)))
                for _ in range(1, len(paragraph.tokens))
            )
            if spread == 0.0:
                independent += 1
    passed = dependent >= 9 and independent == 10
    report(4, passed, f"conditional differs on {dependent}/10 draws; baseline L∞ = 0 on {independent}/10")


# ------------------------------------------------- synthetic protocol (5-7)


PROTOCOL = dict(
    vocab_size=100,
    paragraphs_per_question=3,
    paragraph_len=15,
    distractor_ratio=1 / 3,
    multi_span_prob=0.35,
)
EPOCHS = 8


@pytest.fixture(scope="session")
def protocol_data():
    train_set = generate_synthetic(SynthConfig(num_examples=500, seed=100, **PROTOCOL))
    test_set = generate_synthetic(SynthConfig(num_examples=100, seed=200, **PROTOCOL))
    return train_set, test_set


def train_mode_model(train_set, test_set, mode: str):
    config = EncoderConfig(hidden_dim=32)
    vocab = Vocab.from_dataset(train_set + test_set)
    model = QaModel.create(config, vocab, CharVocab.from_vocab(vocab), seed=0)
    tc = TrainConfig(epochs=EPOCHS, batch_size=10, mode=mode, k1=3, k2=1, seed=0)
    train(model, train_set, tc)
    return model


@pytest.fixture(scope="session")
def max_model(protocol_data):
    train_set, test_set = protocol_data
    t0 = time.monotonic()
    model = train_mode_model(train_set, test_set, "max")
    return model, time.monotonic() - t0


def held_out_metrics(model, test_set, mode, k1=3, k2=1):
    return evaluate_dataset(model, test_set, AggregationMode.parse(mode), k1, k2, seed=0)


def test_criterion_5_synthetic_learnability(protocol_data, max_model):
    train_set, test_set = protocol_data
    model, train_seconds = max_model
    t0 = time.monotonic()
    metrics = held_out_metrics(model, test_set, "max")
    elapsed = train_seconds + (time.monotonic() - t0)
    passed = (
        metrics["em"] >= 0.8
        and metrics["map"] >= 0.9
        and 1.0 <= metrics["avg_answer_len"] <= 3.0
        and elapsed < 600
    )
    report(
        5,
        passed,
        f"EM {metrics['em']:.3f}, MAP {metrics['map']:.3f}, "
        f"answer len {metrics['avg_answer_len']:.2f}, {elapsed:.0f}s",
    )


def test_criterion_6_aggregation_ordering(protocol_data, max_model):
    train_set, test_set = protocol_data
    em = {"max": held_out_metrics(max_model[0], test_set, "max")["em"]}
    for mode in ("sum", "head", "rand"):
        model = train_mode_model(train_set, test_set, mode)
        em[mode] = held_out_metrics(model, test_set, mode)["em"]
    passed = (
        em["max"] >= em["head"]
        and em["max"] >= em["rand"]
        and em["sum"] >= em["head"]
        and em["sum"] >= em["rand"]
    )
    report(
        6,
        passed,
        "EM " + " ".join(f"{m}={em[m]:.3f}" for m in ("max", "sum", "head", "rand")),
    )


def test_criterion_7_beam_sensitivity(protocol_data, max_model):
    _, test_set = protocol_data
    model = max_model[0]
    em_11 = held_out_metrics(model, test_set, "max", k1=1, k2=1)["em"]
    em_31 = held_out_metrics(model, test_set, "max", k1=3, k2=1)["em"]
    em_k2 = [held_out_metrics(model, test_set, "max", k1=3, k2=k2)["em"] for k2 in (1, 3, 5)]
    spread = max(em_k2) - min(em_k2)
    passed = em_31 >= em_11 - 0.005 and spread < 0.01
    report(
        7,
        passed,
        f"EM(3,1) {em_31:.3f} vs EM(1,1) {em_11:.3f}; spread over K2∈{{1,3,5}} {spread:.4f}",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_metric_fixtures(tmp_path, capsys):
    import json

    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        "\n".join(
            json.dumps(r)
            for r in [
                {
                    "id": "a",
                    "question": "what do camels store ?",
                    "answers": ["fat"],
                    "paragraphs": [
                        {"id": "a0", "text": "camels store fat"},
                        {"id": "a1", "text": "sand dunes drift"},
                    ],
                },
                {
                    "id": "b",
                    "question": "what helps camels ?",
                    "answers": ["body fat"],
                    "paragraphs": [{"id": "b0", "text": "body fat helps camels"}],
                },
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    preds = tmp_path / "pred.jsonl"
    preds.write_text(
        "\n".join(
            json.dumps(r)
            for r in [
                {"id": "a", "answer": "The Fat.", "paragraph_probs": [0.2, 0.8]},
                {"id": "b", "answer": "fat", "paragraph_probs": [1.0]},
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    rc = cli_main(["evaluate", "--predictions", str(preds), "--data", str(gold)])
    metrics = json.loads(capsys.readouterr().out)
    # EM: "The Fat." normalizes to "fat" (hit), "fat" vs "body fat" misses -> 1/2
    # F1: 1.0 and 2/3 -> 5/6;  MAP: positive ranked second (AP 1/2) and first (AP 1) -> 3/4
    metrics_ok = (
        rc == 0
        and metrics["em"] == 0.5
        and metrics["f1"] == (1.0 + 2 / 3) / 2
        and metrics["map"] == 0.75
    )

    stats_data = tmp_path / "stats.jsonl"
    stats_data.write_text(
        json.dumps(
            {
                "id": "q0",
                "question": "what do camels store ?",
                "answers": ["fat"],
                "paragraphs": [
                    {"id": "p0", "text": "fat is stored , fat helps"},
                    {"id": "p1", "text": "camels store fat"},
                    {"id": "p2", "text": "sand dunes drift"},
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    rc = cli_main(["stats", "--data", str(stats_data)])
    stats = json.loads(capsys.readouterr().out)
    stats_ok = (
        rc == 0
        and round(100 * stats["neg_paragraph_ratio"], 2) == 33.33
        and stats["avg_answer_span_count"] == 1.5
    )
    report(
        8,
        metrics_ok and stats_ok,
        f"EM {metrics['em']} F1 {metrics['f1']:.4f} MAP {metrics['map']}; "
        f"ratio {100 * stats['neg_paragraph_ratio']:.2f}% avg spans {stats['avg_answer_span_count']}",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_determinism(tmp_path, capsys):
    import json

    config = tmp_path / "tiny.json"
    config.write_text(
        json.dumps(
            {
                "word_dim": 4,
                "char_dim": 5,
                "char_conv_width": 3,
                "char_out_dim": 3,
                "hidden_dim": 2,
                "epochs": 2,
                "batch_size": 3,
                "seed": 17,
            }
        ),
        encoding="utf-8",
    )
    synth = tmp_path / "synth.json"
    synth.write_text(
        json.dumps({"num_examples": 8, "vocab_size": 30, "paragraph_len": 15, "seed": 4}),
        encoding="utf-8",
    )
    data = tmp_path / "data.jsonl"
    assert cli_main(["make-synthetic", "--config", str(synth), "--out", str(data)]) == 0
    capsys.readouterr()

    logs = []
    for name in ("one", "two"):
        ckpt = tmp_path / f"{name}.ckpt"
        assert cli_main(["train", "--config", str(config), "--data", str(data), "--out", str(ckpt)]) == 0
        err = capsys.readouterr().err
        logs.append([l for l in err.splitlines() if l.startswith("epoch ")])
    logs_identical = logs[0] == logs[1] and len(logs[0]) == 2

    # round-trip the checkpoint and compare predictions byte for byte
    model, manifest = load_checkpoint(tmp_path / "one.ckpt")
    save_checkpoint(tmp_path / "rt.ckpt", model, manifest["config"], manifest["epoch"], 17)
    outs = []
    for ckpt in ("one.ckpt", "rt.ckpt"):
        out = tmp_path / (ckpt + ".pred")
        rc = cli_main(
            ["predict", "--checkpoint", str(tmp_path / ckpt), "--data", str(data), "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        outs.append(out.read_bytes())
    roundtrip_identical = outs[0] == outs[1] and len(outs[0]) > 0
    report(
        9,
        logs_identical and roundtrip_identical,
        f"loss logs identical: {logs_identical}; round-trip predictions identical: {roundtrip_identical}",
    )
