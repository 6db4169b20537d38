"""Single-file model persistence.

Layout:  8-byte magic | u64 little-endian manifest length | canonical JSON
manifest | parameter payload.  The manifest records the format version, the
flat config snapshot, both vocabularies, every parameter's name/shape/dtype
(store order, which is lexicographic), the RNG state, and the number of
completed epochs.  The payload is the parameters' float64 little-endian
bytes concatenated in manifest order; frozen (non-trainable) tensors follow
the trainable ones under their own manifest section.

Because the manifest serialization is canonical (sorted keys, no spaces) and
the payload is raw bits, load -> save reproduces the file byte for byte.
A save writes a temporary file beside the target and renames it over the
target, so a failed save leaves any earlier file as it was.

Optimizer accumulators are deliberately not stored; resuming training
restarts them from zero.
"""

import json
import math
import os

import numpy as np

from .config import split_config
from .encoder import CharVocab, Vocab
from .model import QaModel

MAGIC = b"SPANQA\x01\n"
FORMAT_VERSION = 1


def _entry(name, array):
    return {"name": name, "shape": list(array.shape), "dtype": "float64"}


def save_checkpoint(path, model: QaModel, config_snapshot: dict, epoch: int, seed: int):
    params = [(name, t.data) for name, t in model.store.items()]
    frozen = []
    if not model.encoder.word_emb_trainable:
        frozen.append(("enc/word_emb", model.encoder.word_emb.data))
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_snapshot,
        "vocab": model.vocab.tokens,
        "chars": model.char_vocab.chars,
        "params": [_entry(n, a) for n, a in params],
        "frozen": [_entry(n, a) for n, a in frozen],
        "rng": {"seed": seed, "next_epoch": epoch},
        "epoch": epoch,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for _, array in params + frozen:
                fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Rebuild the model from a checkpoint; returns (model, manifest)."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        length = int.from_bytes(fh.read(8), "little")
        manifest = json.loads(fh.read(length).decode("utf-8"))
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint format {manifest.get('format_version')!r}"
            )
        arrays = {}
        for entry in manifest["params"] + manifest["frozen"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"{path}: truncated payload at parameter {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after payload")

    # the retired `span_table_cap` key, still present in older checkpoints
    manifest["config"].pop("span_table_cap", None)
    encoder_config, _, grad_through_start = split_config(manifest["config"])
    vocab = Vocab(manifest["vocab"])
    if vocab.tokens != manifest["vocab"]:
        raise ValueError(f"{path}: vocabulary layout mismatch")
    char_vocab = CharVocab(manifest["chars"])
    if char_vocab.chars != manifest["chars"]:
        raise ValueError(f"{path}: character vocabulary layout mismatch")

    frozen_names = {e["name"] for e in manifest["frozen"]}
    word_init = arrays["enc/word_emb"] if "enc/word_emb" in frozen_names else None
    model = QaModel.create(
        encoder_config,
        vocab,
        char_vocab,
        seed=manifest["rng"]["seed"],
        word_init=word_init,
        grad_through_start=grad_through_start,
    )
    stored = [e["name"] for e in manifest["params"]]
    if stored != model.store.names():
        raise ValueError(f"{path}: parameter set does not match the configured model")
    for name in stored:
        tensor = model.store[name]
        if arrays[name].shape != tensor.data.shape:
            raise ValueError(f"{path}: shape mismatch for parameter {name!r}")
        tensor.data[...] = arrays[name]
    return model, manifest
