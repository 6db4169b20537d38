"""End-to-end command-line behavior: stdout carries data, stderr carries logs,
failures are single-line JSON with a nonzero exit."""

import json

import pytest

from spanqa.checkpoint import load_checkpoint, save_checkpoint
from spanqa.cli import main

TINY_CONFIG = {
    "word_dim": 4,
    "char_dim": 5,
    "char_conv_width": 3,
    "char_out_dim": 3,
    "hidden_dim": 2,
    "epochs": 2,
    "batch_size": 3,
    "seed": 11,
    "k1": 2,
    "k2": 1,
    "mode": "max",
}

SYNTH_CONFIG = {
    "num_examples": 6,
    "vocab_size": 30,
    "paragraphs_per_question": 3,
    "paragraph_len": 15,
    "seed": 7,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def stats_dataset(path):
    # per-paragraph span label counts [2, 1, 0]
    return write_jsonl(
        path,
        [
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
        ],
    )


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_single_json_error(err):
    lines = [l for l in err.strip().splitlines() if l]
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error"}
    return payload["error"]


# ------------------------------------------------------------------- stats


def test_stats_fixture(tmp_path, capsys):
    data = stats_dataset(tmp_path / "data.jsonl")
    rc, out, err = run(capsys, ["stats", "--data", data])
    assert rc == 0
    stats = json.loads(out)
    assert stats["paragraph_count"] == 3
    assert stats["neg_paragraph_ratio"] == pytest.approx(1 / 3)
    assert stats["avg_answer_span_count"] == pytest.approx(1.5)
    assert err == ""


def test_stats_honors_truncation_flags(tmp_path, capsys):
    data = stats_dataset(tmp_path / "data.jsonl")
    rc, out, _ = run(capsys, ["stats", "--data", data, "--max-paragraphs", "1"])
    assert rc == 0
    stats = json.loads(out)
    assert stats["paragraph_count"] == 1
    assert stats["avg_answer_span_count"] == 2.0
    # cutting each paragraph to its first 4 tokens drops the second "fat"
    rc, out, _ = run(capsys, ["stats", "--data", data, "--max-tokens", "4"])
    assert json.loads(out)["avg_answer_span_count"] == 1.0


def test_stats_empty_dataset_fails(tmp_path, capsys):
    data = tmp_path / "empty.jsonl"
    data.write_text("", encoding="utf-8")
    rc, out, err = run(capsys, ["stats", "--data", str(data)])
    assert rc == 1
    assert out == ""
    assert_single_json_error(err)


def test_stats_malformed_line_reports_line_number(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    rc, _, err = run(capsys, ["stats", "--data", str(data)])
    assert rc == 1
    assert "line 1" in assert_single_json_error(err)


# ----------------------------------------------------------- make-synthetic


def test_make_synthetic_is_byte_deterministic(tmp_path, capsys):
    config = write_json(tmp_path / "synth.json", SYNTH_CONFIG)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, ["make-synthetic", "--config", config, "--out", str(first)])[0] == 0
    assert run(capsys, ["make-synthetic", "--config", config, "--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_make_synthetic_output_loads_and_matches_config(tmp_path, capsys):
    config = write_json(tmp_path / "synth.json", SYNTH_CONFIG)
    out = tmp_path / "synth.jsonl"
    run(capsys, ["make-synthetic", "--config", config, "--out", str(out)])
    rc, stats_out, _ = run(capsys, ["stats", "--data", str(out)])
    assert rc == 0
    stats = json.loads(stats_out)
    assert stats["paragraph_count"] == 18  # 6 examples x 3 paragraphs
    assert stats["neg_paragraph_ratio"] == pytest.approx(1 / 3)  # 1 distractor per question
    assert stats["avg_answer_span_count"] == 1.0  # multi_span_prob defaults to 0


def test_make_synthetic_seed_flag_changes_output(tmp_path, capsys):
    config = write_json(tmp_path / "synth.json", SYNTH_CONFIG)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, ["make-synthetic", "--config", config, "--out", str(a)])
    run(capsys, ["make-synthetic", "--config", config, "--out", str(b), "--seed", "8"])
    assert a.read_bytes() != b.read_bytes()


def test_make_synthetic_rejects_unknown_keys(tmp_path, capsys):
    config = write_json(tmp_path / "synth.json", {"bogus": 1})
    rc, _, err = run(capsys, ["make-synthetic", "--config", config, "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "bogus" in assert_single_json_error(err)


# -------------------------------------------------------------------- train


@pytest.fixture()
def synth_data(tmp_path, capsys):
    config = write_json(tmp_path / "synth.json", SYNTH_CONFIG)
    out = tmp_path / "train.jsonl"
    assert run(capsys, ["make-synthetic", "--config", config, "--out", str(out)])[0] == 0
    return str(out)


def train_once(capsys, tmp_path, data, name, extra=(), config=TINY_CONFIG):
    cfg = write_json(tmp_path / f"{name}.json", config)
    ckpt = tmp_path / f"{name}.ckpt"
    rc, out, err = run(capsys, ["train", "--config", cfg, "--data", data, "--out", str(ckpt), *extra])
    return rc, out, err, str(ckpt)


def loss_lines(err):
    return [l for l in err.splitlines() if l.startswith("epoch ")]


def test_train_writes_checkpoint_and_logs_to_stderr(tmp_path, capsys, synth_data):
    rc, out, err, ckpt = train_once(capsys, tmp_path, synth_data, "run")
    assert rc == 0
    assert out == ""  # logs belong on stderr
    lines = loss_lines(err)
    assert len(lines) == 2
    assert lines[0].startswith("epoch 1/2 loss ")
    assert lines[1].startswith("epoch 2/2 loss ")
    assert all("skipped" in l for l in lines)
    model, manifest = load_checkpoint(ckpt)
    assert manifest["epoch"] == 2
    assert manifest["config"]["hidden_dim"] == 2


def test_train_twice_same_seed_identical_logs(tmp_path, capsys, synth_data):
    _, _, err1, ckpt1 = train_once(capsys, tmp_path, synth_data, "first")
    _, _, err2, ckpt2 = train_once(capsys, tmp_path, synth_data, "second")
    assert loss_lines(err1) == loss_lines(err2)
    # and the checkpoints agree byte for byte
    from pathlib import Path

    assert Path(ckpt1).read_bytes() == Path(ckpt2).read_bytes()


def test_train_resume_continues_epoch_numbering(tmp_path, capsys, synth_data):
    short = dict(TINY_CONFIG, epochs=1)
    rc, _, _, ckpt1 = train_once(capsys, tmp_path, synth_data, "short", config=short)
    assert rc == 0
    longer = write_json(tmp_path / "longer.json", dict(TINY_CONFIG, epochs=2))
    ckpt2 = tmp_path / "resumed.ckpt"
    rc, _, err = run(
        capsys,
        ["train", "--config", longer, "--data", synth_data, "--out", str(ckpt2), "--checkpoint", ckpt1],
    )
    assert rc == 0
    assert "resuming" in err and "epoch 1" in err.splitlines()[0]
    lines = loss_lines(err)
    assert len(lines) == 1  # only the second epoch runs
    assert lines[0].startswith("epoch 2/2 ")
    _, manifest = load_checkpoint(ckpt2)
    assert manifest["epoch"] == 2


def test_train_resume_below_checkpoint_epoch_fails(tmp_path, capsys, synth_data):
    rc, _, _, ckpt = train_once(capsys, tmp_path, synth_data, "two")  # epochs=2
    assert rc == 0
    fewer = write_json(tmp_path / "fewer.json", dict(TINY_CONFIG, epochs=1))
    out = tmp_path / "resumed.ckpt"
    rc, _, err = run(
        capsys,
        ["train", "--config", fewer, "--data", synth_data, "--out", str(out), "--checkpoint", ckpt],
    )
    assert rc == 1
    message = assert_single_json_error(err)
    assert message.startswith(f"{ckpt}: ")
    assert "epoch 2" in message and "1 epochs" in message
    assert not out.exists()


def test_train_resume_may_overwrite_its_checkpoint(tmp_path, capsys, synth_data):
    rc, _, _, ckpt = train_once(capsys, tmp_path, synth_data, "short", config=dict(TINY_CONFIG, epochs=1))
    assert rc == 0
    longer = write_json(tmp_path / "longer.json", TINY_CONFIG)
    rc, _, err = run(
        capsys,
        ["train", "--config", longer, "--data", synth_data, "--out", ckpt, "--checkpoint", ckpt],
    )
    assert rc == 0
    assert len(loss_lines(err)) == 1
    _, manifest = load_checkpoint(ckpt)
    assert manifest["epoch"] == 2
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_train_rejects_unknown_config_key(tmp_path, capsys, synth_data):
    rc, _, err, _ = train_once(
        capsys, tmp_path, synth_data, "bad", config=dict(TINY_CONFIG, bogus=1)
    )
    assert rc == 1
    assert "bogus" in assert_single_json_error(err)


# ------------------------------------------------------------------ predict


@pytest.fixture()
def trained(tmp_path, capsys, synth_data):
    rc, _, _, ckpt = train_once(capsys, tmp_path, synth_data, "model")
    assert rc == 0
    return ckpt, synth_data


def test_predict_writes_deterministic_jsonl(tmp_path, capsys, trained):
    ckpt, data = trained
    a, b = tmp_path / "a.pred", tmp_path / "b.pred"
    for path in (a, b):
        rc, out, err = run(capsys, ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(path)])
        assert rc == 0
        assert out == ""
        assert "predicted 6 examples" in err
    assert a.read_bytes() == b.read_bytes()

    records = [json.loads(l) for l in a.read_text().splitlines()]
    assert len(records) == 6
    for record in records:
        assert set(record) == {"id", "answer", "scores", "paragraph_probs"}
        assert len(record["paragraph_probs"]) == 3
        assert sum(record["paragraph_probs"]) == pytest.approx(1.0)
        assert record["answer"] in record["scores"]


def test_predict_stdout_and_single_paragraph_probs(tmp_path, capsys, trained):
    ckpt, _ = trained
    data = write_jsonl(
        tmp_path / "one.jsonl",
        [
            {
                "id": "solo",
                "question": "aaa aab ?",
                "answers": ["aac"],
                "paragraphs": [{"id": "p", "text": "aad aac aae"}],
            }
        ],
    )
    rc, out, _ = run(capsys, ["predict", "--checkpoint", ckpt, "--data", data])
    assert rc == 0
    record = json.loads(out.strip())
    assert record["id"] == "solo"
    assert record["paragraph_probs"] == [1.0]


def test_predict_threads_do_not_change_output(tmp_path, capsys, trained):
    ckpt, data = trained
    a, b = tmp_path / "a.pred", tmp_path / "b.pred"
    run(capsys, ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(a), "--threads", "1"])
    run(capsys, ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(b), "--threads", "4"])
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_with_retired_span_table_cap_still_loads(tmp_path, capsys, trained):
    ckpt, data = trained
    model, manifest = load_checkpoint(ckpt)
    old = tmp_path / "old.ckpt"
    config = dict(manifest["config"], span_table_cap=64)
    save_checkpoint(old, model, config, epoch=manifest["epoch"], seed=manifest["rng"]["seed"])
    preds = []
    for path in (ckpt, str(old)):
        rc, out, _ = run(capsys, ["predict", "--checkpoint", path, "--data", data])
        assert rc == 0
        preds.append(out)
    assert preds[0] == preds[1]
    longer = write_json(tmp_path / "longer.json", dict(TINY_CONFIG, epochs=3))
    resumed = tmp_path / "resumed.ckpt"
    rc, _, err = run(
        capsys, ["train", "--config", longer, "--data", data, "--out", str(resumed), "--checkpoint", str(old)]
    )
    assert rc == 0
    assert loss_lines(err)[0].startswith("epoch 3/3 ")
    assert "span_table_cap" not in load_checkpoint(resumed)[1]["config"]


def test_predict_missing_checkpoint_fails(tmp_path, capsys, synth_data):
    rc, _, err = run(
        capsys, ["predict", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", synth_data]
    )
    assert rc == 1
    assert_single_json_error(err)


# ----------------------------------------------------------------- evaluate


def eval_dataset(tmp_path):
    return write_jsonl(
        tmp_path / "gold.jsonl",
        [
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
        ],
    )


def test_evaluate_perfect_predictions(tmp_path, capsys):
    data = eval_dataset(tmp_path)
    preds = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "a", "answer": "The Fat.", "paragraph_probs": [0.9, 0.1]},
            {"id": "b", "answer": "body fat", "paragraph_probs": [1.0]},
        ],
    )
    rc, out, _ = run(capsys, ["evaluate", "--predictions", preds, "--data", data])
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["em"] == 1.0  # normalization forgives case, article, period
    assert metrics["f1"] == 1.0
    assert metrics["map"] == 1.0
    assert metrics["n"] == 2
    assert metrics["avg_answer_len"] == pytest.approx(2.0)  # "The Fat." counts 2 raw tokens


def test_evaluate_hand_fixture(tmp_path, capsys):
    data = eval_dataset(tmp_path)
    preds = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            # ranked negative paragraph first: AP 0.5
            {"id": "a", "answer": "sand", "paragraph_probs": [0.2, 0.8]},
            # partial credit: F1("fat", "body fat") = 2/3
            {"id": "b", "answer": "fat", "paragraph_probs": [1.0]},
        ],
    )
    rc, out, _ = run(capsys, ["evaluate", "--predictions", preds, "--data", data])
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["em"] == 0.0
    assert metrics["f1"] == pytest.approx((0.0 + 2 / 3) / 2)
    assert metrics["map"] == pytest.approx((0.5 + 1.0) / 2)


def test_evaluate_missing_prediction_names_the_example(tmp_path, capsys):
    data = eval_dataset(tmp_path)
    preds = write_jsonl(
        tmp_path / "pred.jsonl", [{"id": "a", "answer": "fat", "paragraph_probs": [0.9, 0.1]}]
    )
    rc, _, err = run(capsys, ["evaluate", "--predictions", preds, "--data", data])
    assert rc == 1
    assert "'b'" in assert_single_json_error(err)


def test_evaluate_rejects_paragraph_prob_length_mismatch(tmp_path, capsys):
    data = eval_dataset(tmp_path)
    preds = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "a", "answer": "fat", "paragraph_probs": [1.0]},  # dataset has 2
            {"id": "b", "answer": "fat", "paragraph_probs": [1.0]},
        ],
    )
    rc, _, err = run(capsys, ["evaluate", "--predictions", preds, "--data", data])
    assert rc == 1
    message = assert_single_json_error(err)
    assert "'a'" in message and "2 paragraphs" in message
    assert message.startswith(f"{preds}: line 1: ")


@pytest.mark.parametrize(
    "line, message",
    [
        ({"id": "a", "answer": "sand", "paragraph_probs": [0.5, 0.5]}, "line 2: duplicate id 'a'"),
        (["a", "fat"], "line 2: expected a JSON object"),
        ({"answer": "fat", "paragraph_probs": [0.9, 0.1]}, 'line 2: a prediction needs a string "id"'),
        ({"id": "b", "paragraph_probs": [1.0]}, 'line 2: a prediction needs a string "id" and a string "answer"'),
        ({"id": "b", "answer": "fat", "paragraph_probs": ["x"]}, 'line 2: "paragraph_probs" must be a list of numbers'),
    ],
    ids=["duplicate_id", "not_an_object", "missing_id", "missing_answer", "bad_paragraph_probs"],
)
def test_evaluate_rejects_bad_prediction_line(tmp_path, capsys, line, message):
    data = eval_dataset(tmp_path)
    preds = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "a", "answer": "fat", "paragraph_probs": [0.9, 0.1]},
            line,
            {"id": "b", "answer": "body fat", "paragraph_probs": [1.0]},
        ],
    )
    rc, out, err = run(capsys, ["evaluate", "--predictions", preds, "--data", data])
    assert rc == 1 and out == ""
    assert f"{preds}: {message}" in assert_single_json_error(err)
