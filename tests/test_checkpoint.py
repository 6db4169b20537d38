"""Binary checkpoint format: round-trips, corruption handling."""

import json

import numpy as np
import pytest

from helpers import TINY_WORDS, set_checkpoint_value, tiny_model
from spanqa.aggregation import AggregationMode
from spanqa.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from spanqa.config import default_config
from spanqa.corpus import QAExample, make_paragraph
from spanqa.diffmath import Tensor, make_rng
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
    assert not loaded.encoder.word_emb.requires_grad
    assert "enc/word_emb" not in loaded.store.names()
    assert np.array_equal(loaded.encoder.word_emb.data, word_init)


def bigru_names(layer):
    return [f"{layer}/{side}/{leaf}" for side in ("fwd", "bwd") for leaf in ("w", "u_zr", "u_h", "b")]


def test_parameter_names_are_pinned():
    # the names are the checkpoint format: a renamed or dropped field would
    # make every earlier checkpoint fail to load
    expected = (
        ["enc/word_emb", "enc/char_emb", "enc/char_conv_w", "enc/char_conv_b"]
        + bigru_names("enc/q_ctx")
        + bigru_names("enc/p_ctx")
        + ["enc/att_w_p", "enc/att_w_q", "enc/att_w_pq"]
        + bigru_names("enc/self_rnn")
        + bigru_names("dec/start_rnn")
        + bigru_names("dec/end_rnn")
        + ["dec/w_start", "dec/w_end"]
        + bigru_names("qual/rnn")
        + ["qual/w_c"]
    )
    assert tiny_model().store.names() == sorted(expected)


def reachable_tensors(obj, path=""):
    """Every Tensor reachable through the attributes of a parameter bundle,
    by attribute path: found without the model's own parameter walk."""
    for key, value in sorted(vars(obj).items()):
        if isinstance(value, Tensor):
            yield path + key, value
        elif hasattr(value, "__dict__"):
            yield from reachable_tensors(value, f"{path}{key}/")


@pytest.mark.parametrize("word_vectors", [False, True])
def test_round_trip_restores_every_reachable_tensor(tmp_path, word_vectors):
    config = EncoderConfig(**TINY_FLAT)
    vocab = Vocab(TINY_WORDS)
    word_init = make_rng(0, 79).standard_normal((len(vocab), config.word_dim)) if word_vectors else None
    model = QaModel.create(config, vocab, CharVocab.from_vocab(vocab), seed=4, word_init=word_init)
    bundles = ("encoder", "decoder", "quality")
    # every tensor, trainable or frozen, moves away from what a fresh
    # QaModel.create would rebuild, so one left out of the file shows
    rng = make_rng(4, 80)
    for bundle in bundles:
        for _, tensor in reachable_tensors(getattr(model, bundle)):
            tensor.data[...] = rng.standard_normal(tensor.data.shape)

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, snapshot(), epoch=1, seed=4)
    loaded, manifest = load_checkpoint(path)
    assert [e["name"] for e in manifest["frozen"]] == (["enc/word_emb"] if word_vectors else [])
    count = 0
    for bundle in bundles:
        want = dict(reachable_tensors(getattr(model, bundle)))
        got = dict(reachable_tensors(getattr(loaded, bundle)))
        assert got.keys() == want.keys()
        for name, tensor in want.items():
            assert np.array_equal(got[name].data, tensor.data), f"{bundle}/{name}"
            assert got[name].requires_grad == tensor.requires_grad, f"{bundle}/{name}"
        count += len(want)
    assert count == len(loaded.store) + len(manifest["frozen"]) == 58


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


@pytest.mark.parametrize("version, kind", [(True, "bool"), (1.0, "float")])
def test_rejects_format_version_that_is_not_an_integer(tmp_path, version, kind):
    # both compare equal to 1, so only the type tells them from version 1
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    rewrite_manifest(path, lambda m: m.update(format_version=version))
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value) == (
        f"{path}: corrupt checkpoint manifest: field 'format_version' must be an integer, got {kind}"
    )


def cut_manifest(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(MAGIC) + 8 + 40])


def non_utf8_manifest(path):
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC) + 8 + 1] = 0xFF
    path.write_bytes(bytes(raw))


def epoch_past_int_conversion_limit(path):
    # json.dumps cannot write such a number either, so the text is edited
    raw = path.read_bytes()
    length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    blob = raw[len(MAGIC) + 8 : len(MAGIC) + 8 + length]
    assert blob.count(b'"epoch":0') == 1
    blob = blob.replace(b'"epoch":0', b'"epoch":1' + b"0" * 5000)
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + raw[len(MAGIC) + 8 + length :])


def negative_shape(manifest):
    manifest["params"][0]["shape"] = [-1]


def float32_dtype(manifest):
    manifest["params"][0]["dtype"] = "float32"


def manifest_length(length):
    def corrupt(path):
        raw = path.read_bytes()
        path.write_bytes(MAGIC + length.to_bytes(8, "little") + raw[len(MAGIC) + 8 :])

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (cut_manifest, "runs past the end of the file: length "),
        (non_utf8_manifest, "not UTF-8 text"),
        (lambda path: rewrite_manifest(path, lambda m: m.pop("params")), "missing field 'params'"),
        (lambda path: rewrite_manifest(path, negative_shape), "params item 0: bad parameter entry"),
        (lambda path: rewrite_manifest(path, float32_dtype), "params item 0: bad parameter entry"),
        (lambda path: rewrite_manifest(path, lambda m: m.update(epoch=-1)), "bad epoch -1"),
        (
            lambda path: rewrite_manifest(path, lambda m: m.update(epoch=True)),
            "field 'epoch' must be an integer, got bool",
        ),
        (lambda path: rewrite_manifest(path, lambda m: m["rng"].update(seed=-5)), "bad rng seed -5"),
        (
            lambda path: rewrite_manifest(path, lambda m: m["rng"].update(seed=True)),
            "rng: field 'seed' must be an integer, got bool",
        ),
        (
            lambda path: rewrite_manifest(path, lambda m: m["config"].update(keep_prob=10**400)),
            "config: field 'keep_prob' must be finite",
        ),
        (epoch_past_int_conversion_limit, "invalid JSON: Exceeds the limit"),
        (
            lambda path: rewrite_manifest(path, lambda m: m["vocab"].insert(1, 7)),
            "field 'vocab' item 1 must be a string, got int",
        ),
        (
            lambda path: rewrite_manifest(path, lambda m: m["chars"].insert(0, 7)),
            "field 'chars' item 0 must be a string, got int",
        ),
        (manifest_length(2**40), f"runs past the end of the file: length {2**40}, "),
        (manifest_length(2**63 - 1), f"runs past the end of the file: length {2**63 - 1}, "),
    ],
    ids=[
        "truncated",
        "not_utf8",
        "missing_params",
        "negative_shape",
        "float32_dtype",
        "negative_epoch",
        "bool_epoch",
        "negative_seed",
        "bool_seed",
        "huge_int_config_value",
        "int_past_conversion_limit",
        "number_in_vocab",
        "number_in_chars",
        "length_2_40",
        "length_2_63_minus_1",
    ],
)
def test_corrupt_manifest_names_the_file(tmp_path, corrupt, message):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    corrupt(path)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: corrupt checkpoint manifest: {message}")


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated payload"):
        load_checkpoint(path)


def test_shape_larger_than_the_file_is_a_truncated_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    rewrite_manifest(path, lambda m: m["params"][0].update(shape=[2**40, 2**20]))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: truncated payload at parameter")


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def renamed_parameter(path):
    rewrite_manifest(path, lambda m: m["params"][0].update(name="enc/bogus"))


def extra_frozen_tensor(path):
    # a well-formed frozen entry, with its bytes, that the model has no tensor for
    rewrite_manifest(path, lambda m: m["frozen"].append({"name": "enc/bogus", "shape": [1], "dtype": "float64"}))
    path.write_bytes(path.read_bytes() + bytes(8))


def test_rejects_tampered_parameter_names(tmp_path):
    for tamper in (renamed_parameter, extra_frozen_tensor):
        path = tmp_path / f"{tamper.__name__}.ckpt"
        save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
        tamper(path)
        with pytest.raises(ValueError, match="parameter set"):
            load_checkpoint(path)


def test_wrong_shaped_word_vector_table_names_the_file(tmp_path):
    config = EncoderConfig(**TINY_FLAT)
    vocab = Vocab(TINY_WORDS)
    word_init = make_rng(0, 81).standard_normal((len(vocab), config.word_dim))
    model = QaModel.create(config, vocab, CharVocab.from_vocab(vocab), seed=2, word_init=word_init)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, snapshot(), epoch=0, seed=2)
    # the table is the last array of the payload: keep its first 3 rows
    rewrite_manifest(path, lambda m: m["frozen"][0].update(shape=[3, config.word_dim]))
    path.write_bytes(path.read_bytes()[: -(len(vocab) - 3) * config.word_dim * 8])
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: word vector table shape (3, {config.word_dim}) does not match")


def test_rejects_config_param_shape_drift(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, scrambled_model(), snapshot(), epoch=0, seed=0)
    # claim a different hidden size: stored arrays no longer fit the model
    rewrite_manifest(path, lambda m: m["config"].update(hidden_dim=3))
    with pytest.raises(ValueError, match="shape mismatch|truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["qual/w_c", "dec/end_rnn/bwd/b", "enc/word_emb"])
def test_rejects_a_non_finite_parameter_value_naming_file_and_parameter(tmp_path, name, value):
    # enc/word_emb is the frozen section's table, loaded from word vectors
    config = EncoderConfig(**TINY_FLAT)
    vocab = Vocab(TINY_WORDS)
    word_init = make_rng(0, 82).standard_normal((len(vocab), config.word_dim))
    model = QaModel.create(config, vocab, CharVocab.from_vocab(vocab), seed=2, word_init=word_init)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, snapshot(), epoch=0, seed=2)
    load_checkpoint(path)
    set_checkpoint_value(path, name, value)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: parameter {name!r} holds a non-finite value"
