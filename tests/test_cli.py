"""End-to-end command-line behavior: stdout carries data, stderr carries logs,
failures are single-line JSON with a nonzero exit."""

import argparse
import json
from pathlib import Path

import pytest

from helpers import set_checkpoint_value
from spanqa.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spanqa.cli import build_parser, main

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
    """One line per record; a string record is written as it is."""
    lines = (r if isinstance(r, str) else json.dumps(r) for r in records)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
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


LIMIT_FLAGS = [
    (flag, value, arg)
    for flag, arg in (("--max-paragraphs", "max_paragraphs"), ("--max-tokens", "max_paragraph_tokens"))
    for value in ("-1", "0")
]


@pytest.mark.parametrize("flag, value, arg", LIMIT_FLAGS)
def test_stats_rejects_truncation_limits_below_one(tmp_path, capsys, flag, value, arg):
    # -1 would slice off each example's last paragraph or token, and 0 would
    # keep nothing; both are refused before the file is read
    data = stats_dataset(tmp_path / "data.jsonl")
    rc, out, err = run(capsys, ["stats", "--data", data, flag, value])
    assert rc == 1
    assert out == ""
    assert assert_single_json_error(err) == f"{arg} must be at least 1, got {value}"


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


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"num_examples": "6"}', "'num_examples'"),
        ('{"num_examples": 6.5}', "'num_examples'"),
        ('{"num_examples": true}', "'num_examples'"),
        ('{"num_examples": 0}', "num_examples"),
        ('{"paragraphs_per_question": 0}', "paragraphs_per_question"),
        ('{"paragraph_len": 3}', "paragraph_len"),
        ('{"vocab_size": 5}', "vocab_size"),
        ('{"distractor_ratio": "half"}', "'distractor_ratio'"),
        ('{"distractor_ratio": 1.0}', "distractor_ratio"),
        ('{"distractor_ratio": 1e308}', "distractor_ratio"),
        ('{"multi_span_prob": NaN}', "'multi_span_prob'"),
        ('{"multi_span_prob": 1.5}', "multi_span_prob"),
        ('{"seed": 1.0}', "'seed'"),
        ('{"bogus": 1}', "bogus"),
        ('{"num_examples": 6,', "Expecting"),
        ("[1, 2]", "JSON object"),
        # an int too large for a float is not a finite float
        pytest.param('{"multi_span_prob": 1' + "0" * 400 + "}", "'multi_span_prob' must be finite", id="huge_int"),
        pytest.param('{"distractor_ratio": -1' + "0" * 400 + "}", "'distractor_ratio' must be", id="huge_negative_int"),
        pytest.param(
            '{"num_examples": 1' + "0" * 400 + "}", "'num_examples' must be finite", id="huge_int_num_examples"
        ),
        pytest.param('{"num_examples": 1000000000000000000}', "num_examples must be <=", id="num_examples_past_bound"),
        pytest.param('{"paragraph_len": 100000}', "paragraph_len must be <=", id="paragraph_len_past_bound"),
        # every size within its own bound, 10^12 tokens in all: refused before any is generated
        pytest.param(
            '{"num_examples": 1000000, "paragraphs_per_question": 100, "paragraph_len": 10000}',
            "num_examples x paragraphs_per_question x paragraph_len must be <=",
            id="total_tokens_past_bound",
        ),
    ],
)
def test_make_synthetic_rejects_bad_config_naming_file_and_key(tmp_path, capsys, monkeypatch, text, key):
    # a config that got past its checks would fail here instead of generating
    monkeypatch.setattr("spanqa.cli.generate_synthetic", None)
    config = tmp_path / "bad.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "x.jsonl"
    rc, _, err = run(capsys, ["make-synthetic", "--config", str(config), "--out", str(out)])
    assert rc == 1
    message = assert_single_json_error(err)
    assert message.startswith(f"{config}: ") and key in message
    assert not out.exists()


def test_bundled_synth_config_loads():
    from pathlib import Path

    from spanqa.config import read_synth_config

    config = read_synth_config(Path(__file__).resolve().parents[1] / "configs" / "synth.json")
    assert config.num_examples == 500 and config.multi_span_prob == 0.35


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


@pytest.mark.parametrize("key", ["lr", "rho", "eps"])
def test_train_rejects_adadelta_constants_as_unknown_keys(tmp_path, capsys, synth_data, key):
    # Adadelta's constants are fixed, so a config may not set them
    cfg = write_json(tmp_path / "old.json", {key: 1.0})
    out = tmp_path / "model.ckpt"
    rc, _, err = run(capsys, ["train", "--config", cfg, "--data", synth_data, "--out", str(out)])
    assert rc == 1
    assert assert_single_json_error(err) == f"{cfg}: unknown config keys: [{key!r}]"
    assert not out.exists()


def test_train_rejects_negative_seed_before_training(tmp_path, capsys, synth_data):
    # the checkpoint stores the seed, and loading it refuses a negative one
    rc, _, err, ckpt = train_once(capsys, tmp_path, synth_data, "neg", extra=("--seed", "-1"))
    assert rc == 1
    assert assert_single_json_error(err) == "seed must be >= 0, got -1"
    assert not loss_lines(err)
    assert not Path(ckpt).exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"k1": 1.5}', "'k1'"),
        ('{"hidden_dim": "8"}', "'hidden_dim'"),
        ('{"hidden_dim": 0}', "hidden_dim"),
        ('{"epochs": 1.0}', "'epochs'"),
        ('{"batch_size": true}', "'batch_size'"),
        pytest.param('{"keep_prob": false}', "'keep_prob'", id="bool_keep_prob"),
        pytest.param('{"keep_prob": NaN}', "'keep_prob'", id="nan_keep_prob"),
        ('{"keep_prob": 0}', "keep_prob"),
        ('{"keep_prob": 1.5}', "keep_prob"),
        ('{"mode": 3}', "'mode'"),
        ('{"mode": "median"}', "'median'"),
        ('{"grad_through_start": 1}', "'grad_through_start'"),
        ('{"seed": -5}', "seed"),
        ('{"epochs": 2, "k1":', "Expecting value"),
        ("[1, 2]", "JSON object"),
        # an int too large for a float is not a finite float
        pytest.param('{"keep_prob": 1' + "0" * 400 + "}", "'keep_prob' must be finite", id="huge_int_keep_prob"),
        pytest.param('{"hidden_dim": 1' + "0" * 400 + "}", "'hidden_dim' must be finite", id="huge_int_hidden_dim"),
        pytest.param('{"hidden_dim": 100000000000}', "hidden_dim must be in [1, ", id="hidden_dim_past_bound"),
        pytest.param('{"char_conv_width": 5000}', "char_conv_width must be in [1, ", id="char_conv_width_past_bound"),
        # past Python's int conversion limit the JSON itself does not parse
        pytest.param('{"keep_prob": 1' + "0" * 5000 + "}", "integer string conversion", id="int_past_conversion_limit"),
    ],
)
def test_train_rejects_bad_config_value_naming_file_and_key(tmp_path, capsys, synth_data, text, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "model.ckpt"
    rc, _, err = run(capsys, ["train", "--config", str(cfg), "--data", synth_data, "--out", str(out)])
    assert rc == 1
    message = assert_single_json_error(err)
    assert message.startswith(f"{cfg}: ") and key in message
    assert not out.exists()


def test_bundled_train_configs_load():
    from pathlib import Path

    from spanqa.config import load_config, split_config

    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("desk.json", "full.json"):
        split_config(load_config(configs / name))


def test_settable_values_are_pinned():
    # a new config key or flag has to be added here, so none comes in unread
    from spanqa.config import default_config

    assert set(default_config()) == {
        "word_dim", "char_dim", "char_conv_width", "char_out_dim", "hidden_dim", "keep_prob",
        "epochs", "batch_size", "mode", "k1", "k2", "seed", "threads", "grad_through_start",
    }
    data = {"--data", "--max-paragraphs", "--max-tokens"}
    assert command_flags("train") == data | {
        "--config", "--out", "--checkpoint", "--word-vectors", "--mode", "--seed",
    }
    assert command_flags("predict") == data | {
        "--checkpoint", "--out", "--mode", "--k1", "--k2", "--seed",
    }


def command_flags(name):
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for action in commands.choices[name]._actions for flag in action.option_strings} - {"-h", "--help"}


def test_train_resume_cannot_change_the_model(tmp_path, capsys, synth_data):
    rc, _, _, ckpt = train_once(capsys, tmp_path, synth_data, "short", config=dict(TINY_CONFIG, epochs=1))
    assert rc == 0
    changed = write_json(tmp_path / "changed.json", {"epochs": 2, "hidden_dim": 16, "grad_through_start": False})
    out = tmp_path / "resumed.ckpt"
    rc, _, err = run(
        capsys,
        ["train", "--config", changed, "--data", synth_data, "--out", str(out), "--checkpoint", ckpt],
    )
    assert rc == 1
    message = assert_single_json_error(err)
    assert message.startswith(f"{changed}: ") and ckpt in message
    assert "hidden_dim 2 -> 16" in message and "grad_through_start True -> False" in message
    assert "epochs" not in message
    assert not out.exists()


def test_train_resume_rejects_word_vectors(tmp_path, capsys, synth_data):
    rc, _, _, ckpt = train_once(capsys, tmp_path, synth_data, "short", config=dict(TINY_CONFIG, epochs=1))
    assert rc == 0
    longer = write_json(tmp_path / "longer.json", {"epochs": 2})
    out = tmp_path / "resumed.ckpt"
    rc, _, err = run(
        capsys,
        [
            "train", "--config", longer, "--data", synth_data, "--out", str(out),
            "--checkpoint", ckpt, "--word-vectors", str(tmp_path / "missing-vectors.txt"),
        ],
    )
    assert rc == 1
    message = assert_single_json_error(err)
    assert "--word-vectors" in message and "--checkpoint" in message
    assert not out.exists()


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


def test_checkpoint_with_retired_span_table_cap_still_loads(tmp_path, capsys, trained):
    # older checkpoints also hold the Adadelta constants that every one of
    # them was trained with
    ckpt, data = trained
    model, manifest = load_checkpoint(ckpt)
    old = tmp_path / "old.ckpt"
    config = dict(manifest["config"], span_table_cap=64, lr=1.0, rho=0.95, eps=1e-6)
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
    assert set(load_checkpoint(resumed)[1]["config"]).isdisjoint({"span_table_cap", "lr", "rho", "eps"})
    # a checkpoint that was trained with another value does not load
    other = tmp_path / "other.ckpt"
    save_checkpoint(other, model, dict(config, lr=0.5), epoch=manifest["epoch"], seed=manifest["rng"]["seed"])
    rc, out, err = run(capsys, ["predict", "--checkpoint", str(other), "--data", data])
    assert rc == 1 and out == ""
    message = assert_single_json_error(err)
    assert message.startswith(f"{other}: ") and "'lr' must be 1.0, got 0.5" in message


def test_predict_missing_checkpoint_fails(tmp_path, capsys, synth_data):
    rc, _, err = run(
        capsys, ["predict", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", synth_data]
    )
    assert rc == 1
    assert_single_json_error(err)



@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_predict_rejects_a_non_finite_parameter_naming_file_and_parameter(tmp_path, capsys, trained, value):
    ckpt, data = trained
    set_checkpoint_value(ckpt, "qual/w_c", value)
    out = tmp_path / "out.pred"
    rc, stdout, err = run(capsys, ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(out)])
    assert rc == 1 and stdout == ""
    assert assert_single_json_error(err) == f"{ckpt}: parameter 'qual/w_c' holds a non-finite value"
    assert not out.exists()


@pytest.mark.parametrize("length", [2**40, 2**63 - 1])
def test_predict_rejects_manifest_length_past_the_end_naming_the_file(tmp_path, capsys, trained, length):
    ckpt, data = trained
    raw = Path(ckpt).read_bytes()
    Path(ckpt).write_bytes(MAGIC + length.to_bytes(8, "little") + raw[len(MAGIC) + 8 :])
    rc, out, err = run(capsys, ["predict", "--checkpoint", ckpt, "--data", data])
    assert rc == 1 and out == ""
    assert assert_single_json_error(err).startswith(
        f"{ckpt}: corrupt checkpoint manifest: runs past the end of the file: length {length}, "
    )


def test_predict_rejects_repeated_example_id_naming_file_and_line(tmp_path, capsys, trained):
    ckpt, _ = trained
    record = {"id": "a", "question": "what", "answers": ["fat"], "paragraphs": [{"id": "p", "text": "fat"}]}
    data = write_jsonl(tmp_path / "dup.jsonl", [record, record])
    rc, out, err = run(capsys, ["predict", "--checkpoint", ckpt, "--data", data])
    assert rc == 1 and out == ""
    assert assert_single_json_error(err) == f"{data}: line 2: duplicate id 'a'"


@pytest.mark.parametrize("flag, value, arg", LIMIT_FLAGS)
def test_predict_rejects_truncation_limits_below_one(tmp_path, capsys, trained, flag, value, arg):
    ckpt, data = trained
    out = tmp_path / "out.pred"
    rc, stdout, err = run(capsys, ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(out), flag, value])
    assert rc == 1
    assert stdout == "" and not out.exists()
    assert assert_single_json_error(err) == f"{arg} must be at least 1, got {value}"


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
        ({"answer": "fat", "paragraph_probs": [0.9, 0.1]}, "line 2: missing field 'id'"),
        ({"id": "b", "paragraph_probs": [1.0]}, "line 2: missing field 'answer'"),
        (
            {"id": "b", "answer": "fat", "paragraph_probs": ["x"]},
            "line 2: field 'paragraph_probs' item 0 must be a number, got str",
        ),
        (
            {"id": "b", "answer": "fat", "paragraph_probs": [float("nan")]},
            "line 2: field 'paragraph_probs' item 0 must be finite, got nan",
        ),
        (
            {"id": "b", "answer": "fat", "paragraph_probs": [True]},
            "line 2: field 'paragraph_probs' item 0 must be a number, got bool",
        ),
        (
            {"id": "b", "answer": "fat", "paragraph_probs": [10**400]},
            "line 2: field 'paragraph_probs' item 0 must be finite, got 1" + "0" * 400,
        ),
        ('{"id": "b", "answer": "fat", "paragraph_probs": [1' + "0" * 5000 + "]}", "line 2: invalid JSON"),
        ("[" * 100_000, "line 2: invalid JSON: maximum recursion depth exceeded"),
    ],
    ids=[
        "duplicate_id",
        "not_an_object",
        "missing_id",
        "missing_answer",
        "bad_paragraph_probs",
        "nan_paragraph_prob",
        "bool_paragraph_prob",
        "huge_int_paragraph_prob",
        "int_past_conversion_limit",
        "nested_past_recursion_limit",
    ],
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


@pytest.mark.parametrize(
    "command, bad",
    [
        ("stats", "data"),
        ("train", "data"),
        ("predict", "data"),
        ("evaluate", "data"),
        ("evaluate", "predictions"),
    ],
)
def test_text_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys, request, command, bad):
    data = Path(eval_dataset(tmp_path))
    preds = Path(
        write_jsonl(
            tmp_path / "pred.jsonl",
            [
                {"id": "a", "answer": "fat", "paragraph_probs": [0.9, 0.1]},
                {"id": "b", "answer": "body fat", "paragraph_probs": [1.0]},
            ],
        )
    )
    path = data if bad == "data" else preds
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + second.replace(b"fat", b"f\xffat", 1))
    out = tmp_path / "out"
    if command == "predict":
        argv = ["predict", "--checkpoint", request.getfixturevalue("trained")[0]]
    else:
        argv = {
            "stats": ["stats"],
            "train": ["train", "--out", str(out)],
            "evaluate": ["evaluate", "--predictions", str(preds)],
        }[command]
    rc, stdout, err = run(capsys, [*argv, "--data", str(data)])
    assert rc == 1 and stdout == "" and not out.exists()
    assert assert_single_json_error(err) == f"{path}: line 2: not UTF-8 text"
