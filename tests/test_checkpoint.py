"""Binary checkpoint format: round-trips, corruption handling."""

import json

import numpy as np
import pytest

from helpers import TINY_WORDS, tiny_model
from spanqa.aggregation import AggregationMode
from spanqa.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from spanqa.config import default_config
from spanqa.corpus import QAExample, make_paragraph
from spanqa.diffmath import make_rng
from spanqa.encoder import CharVocab, EncoderConfig, Vocab
from spanqa.model import QaModel
from spanqa.pipeline import TrainConfig, predict, train

TINY_FLAT = dict(word_dim=4, char_dim=5, char_conv_width=3, char_out_dim=3, hidden_dim=2)


def snapshot(**overrides):
    flat = default_config()
    flat.update(TINY_FLAT)
    flat.update(overrides)
    return flat


def scrambled_model(seed=0):
    """Tiny model whose weights are visibly different from a fresh init."""
    model = tiny_model(seed=seed)
    rng = make_rng(seed, 77)
    for _, tensor in model.store.items():
        tensor.data[...] = rng.standard_normal(tensor.data.shape)
    return model


def example():
    return QAExample(
        id="q0",
        question=["what", "do", "camels", "store", "?"],
        answers=["fat"],
        paragraphs=[
            make_paragraph("p0", "camels store fat in humps"),
            make_paragraph("p1", "sand dune walks do"),
        ],
        question_text="what do camels store ?",
    )


def rewrite_manifest(path, mutate):
    """Apply `mutate` to the manifest dict and rewrite the file around it."""
    raw = path.read_bytes()
    offset = len(MAGIC)
    length = int.from_bytes(raw[offset : offset + 8], "little")
    manifest = json.loads(raw[offset + 8 : offset + 8 + length])
    mutate(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + raw[offset + 8 + length :])


def test_round_trip_restores_every_parameter(tmp_path):
    model = scrambled_model(seed=31)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, snapshot(), epoch=3, seed=9)
    loaded, manifest = load_checkpoint(path)
    assert loaded.store.names() == model.store.names()
    for name, tensor in model.store.items():
        assert np.array_equal(loaded.store[name].data, tensor.data), name
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.char_vocab.chars == model.char_vocab.chars
    assert manifest["epoch"] == 3
    assert manifest["rng"] == {"seed": 9, "next_epoch": 3}
    assert manifest["format_version"] == FORMAT_VERSION


def test_save_after_load_is_byte_identical(tmp_path):
    model = scrambled_model(seed=32)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, model, snapshot(), epoch=1, seed=5)
    loaded, manifest = load_checkpoint(first)
    save_checkpoint(second, loaded, manifest["config"], epoch=manifest["epoch"], seed=5)
    assert first.read_bytes() == second.read_bytes()


def test_round_trip_preserves_predictions(tmp_path):
    model = tiny_model(seed=33)
    train(model, [example()], TrainConfig(epochs=2, batch_size=1, seed=33))
    before = predict(model, example(), AggregationMode.MAX, 3, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, snapshot(), epoch=2, seed=33)
    loaded, _ = load_checkpoint(path)
    after = predict(loaded, example(), AggregationMode.MAX, 3, 3)
    assert after.best_answer == before.best_answer
    assert after.answer_scores == before.answer_scores
    assert after.paragraph_probs == before.paragraph_probs


def test_frozen_word_vectors_round_trip(tmp_path):
    config = EncoderConfig(**TINY_FLAT)
    vocab = Vocab(TINY_WORDS)
    word_init = make_rng(0, 78).standard_normal((len(vocab), config.word_dim))
    model = QaModel.create(config, vocab, CharVocab.from_vocab(vocab), seed=2, word_init=word_init)
    assert "enc/word_emb" not in model.store.names()

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, snapshot(), epoch=0, seed=2)
    loaded, manifest = load_checkpoint(path)
    assert [e["name"] for e in manifest["frozen"]] == ["enc/word_emb"]
    assert not loaded.encoder.word_emb_trainable
    assert "enc/word_emb" not in loaded.store.names()
    assert np.array_equal(loaded.encoder.word_emb.data, word_init)


def test_failed_save_keeps_previous_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    model = scrambled_model()
    save_checkpoint(path, model, snapshot(), epoch=1, seed=0)
    before = path.read_bytes()
    # the last parameter cannot be converted, so the save fails after the
    # manifest and the other parameters are written
    _, last = list(model.store.items())[-1]
    monkeypatch.setattr(last, "data", np.array(["not a number"], dtype=object))
    with pytest.raises(ValueError):
        save_checkpoint(path, model, snapshot(), epoch=2, seed=0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_rejects_unsupported_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    rewrite_manifest(path, lambda m: m.update(format_version=99))
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated payload"):
        load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def test_rejects_tampered_parameter_names(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)

    def rename(manifest):
        manifest["params"][0]["name"] = "enc/bogus"

    rewrite_manifest(path, rename)
    with pytest.raises(ValueError, match="parameter set"):
        load_checkpoint(path)


def test_rejects_config_param_shape_drift(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    # claim a different hidden size: stored arrays no longer fit the model
    rewrite_manifest(path, lambda m: m["config"].update(hidden_dim=3))
    with pytest.raises(ValueError, match="shape mismatch|truncated"):
        load_checkpoint(path)
