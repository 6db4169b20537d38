"""Single-file model persistence.

Layout:  8-byte magic | u64 little-endian manifest length | canonical JSON
manifest | parameter payload.  The manifest records the format version, the
flat config snapshot, both vocabularies, every parameter's name/shape/dtype
(store order, which is lexicographic), the RNG state, and the number of
completed epochs.  The payload is the parameters' float64 little-endian
bytes concatenated in manifest order.  The frozen section follows the
trainable one: every encoder tensor that the parameter store does not hold,
by the same `enc/` name (only `enc/word_emb`, when it was loaded from word
vectors).  Loading reads each array once and adopts it as the parameter's
data, so the rebuilt model draws no initial weights; it hands the frozen
table back to `QaModel.create` as its `word_init`, and rejects a file whose
names in either section differ from the rebuilt model's, whose entries are
not float64, or any of whose values is not finite (a NaN or an infinity
would only surface later, as NaN scores).

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
from .diffmath import named_tensors
from .encoder import CharVocab, Vocab
from .inputs import decode, field, parse_object
from .model import QaModel

MAGIC = b"SPANQA\x01\n"
FORMAT_VERSION = 1


def _entry(name, array):
    return {"name": name, "shape": list(array.shape), "dtype": "float64"}


def save_checkpoint(path, model: QaModel, config_snapshot: dict, epoch: int, seed: int):
    params = [(name, t.data) for name, t in model.store.items()]
    frozen = [(name, t.data) for name, t in named_tensors(model.encoder, "enc/") if name not in model.store]
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


# field -> (kind, item kind for a list)
_MANIFEST_FIELDS = {
    "config": (dict, None),
    "vocab": (list, str),
    "chars": (list, str),
    "params": (list, None),
    "frozen": (list, None),
    "rng": (dict, None),
    "epoch": (int, None),
}


def _read_manifest(path, fh) -> dict:
    """The manifest that follows the magic, checked for the fields and the
    parameter entries `load_checkpoint` reads; a corrupt one fails with a
    ValueError naming the file."""
    where = f"{path}: corrupt checkpoint manifest"
    length = int.from_bytes(fh.read(8), "little")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if length > left:
        raise ValueError(f"{where}: runs past the end of the file: length {length}, {left} bytes left")
    manifest = parse_object(decode(fh.read(length), where), where)
    if field(manifest, "format_version", int, where) != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format {manifest['format_version']!r}")
    for key, (kind, item) in _MANIFEST_FIELDS.items():
        field(manifest, key, kind, where, item)
    seed = field(manifest["rng"], "seed", int, f"{where}: rng")
    if seed < 0:
        raise ValueError(f"{where}: bad rng seed {seed!r}")
    if manifest["epoch"] < 0:
        raise ValueError(f"{where}: bad epoch {manifest['epoch']!r}")
    for section in ("params", "frozen"):
        for i, entry in enumerate(manifest[section]):
            at = f"{where}: {section} item {i}"
            field(entry, "name", str, at)
            if min(field(entry, "shape", list, at, item=int), default=0) < 0 or entry.get("dtype") != "float64":
                raise ValueError(f"{at}: bad parameter entry {entry!r}")
    return manifest


# config keys that older checkpoints hold and no model reads, each with the one
# value that every checkpoint was written with (None: any, as it never was read)
_RETIRED = {"span_table_cap": None, "lr": 1.0, "rho": 0.95, "eps": 1e-6}


class _NoDraws:
    """Init stream for a model whose every drawn weight the checkpoint then
    replaces: `glorot_uniform` gets an untouched array instead of a draw."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def load_checkpoint(path):
    """Rebuild the model from a checkpoint; returns (model, manifest)."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        manifest = _read_manifest(path, fh)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        arrays = {}
        for entry in manifest["params"] + manifest["frozen"]:
            nbytes = 8 * math.prod(entry["shape"])
            # a shape larger than the file is never allocated
            array = np.empty(entry["shape"], dtype="<f8") if nbytes <= left else None
            if array is None or fh.readinto(array) != nbytes:
                raise ValueError(f"{path}: truncated payload at parameter {entry['name']!r}")
            left -= nbytes
            if not np.isfinite(array).all():
                raise ValueError(f"{path}: parameter {entry['name']!r} holds a non-finite value")
            arrays[entry["name"]] = array.astype(np.float64, copy=False)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after payload")

    config = manifest["config"]
    try:
        for key, kept in _RETIRED.items():
            if key in config and kept is not None and field(config, key, float, "") != kept:
                raise ValueError(f"retired field {key!r} must be {kept!r}, got {config[key]!r}")
            config.pop(key, None)
        encoder_config, _, grad_through_start = split_config(config)
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt checkpoint manifest: config: {exc}") from exc
    vocab = Vocab(manifest["vocab"])
    if vocab.tokens != manifest["vocab"]:
        raise ValueError(f"{path}: vocabulary layout mismatch")
    char_vocab = CharVocab(manifest["chars"])
    if char_vocab.chars != manifest["chars"]:
        raise ValueError(f"{path}: character vocabulary layout mismatch")

    frozen = [e["name"] for e in manifest["frozen"]]
    try:
        model = QaModel.create(
            encoder_config,
            vocab,
            char_vocab,
            rng=_NoDraws(),
            word_init=arrays["enc/word_emb"] if "enc/word_emb" in frozen else None,
            grad_through_start=grad_through_start,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    stored = [e["name"] for e in manifest["params"]]
    unstored = [name for name, _ in named_tensors(model.encoder, "enc/") if name not in model.store]
    if stored != model.store.names() or frozen != unstored:
        raise ValueError(f"{path}: parameter set does not match the configured model")
    for name in stored:
        tensor = model.store[name]
        if arrays[name].shape != tensor.data.shape:
            raise ValueError(f"{path}: shape mismatch for parameter {name!r}")
        tensor.data = arrays[name]
    return model, manifest
