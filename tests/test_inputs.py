"""Every reader of outside input either returns a value or raises one
ValueError that starts with the file it read."""

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_model
from spanqa.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spanqa.cli import read_predictions
from spanqa.config import default_config, read_config_overrides, read_synth_config
from spanqa.corpus import load_dataset

READERS = [load_dataset, read_config_overrides, read_synth_config, read_predictions]

# keys the readers look for, so that generated objects reach past the first missing field
KEYS = [
    "id", "question", "answers", "paragraphs", "text", "answer", "paragraph_probs",
    "hidden_dim", "keep_prob", "seed", "mode", "k1", "grad_through_start",
    "num_examples", "distractor_ratio", "multi_span_prob", "paragraph_len",
]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 1e308])
    | st.floats()
    | st.text(max_size=12)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
)
JSON_LINES = st.lists(
    st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=6).map(json.dumps) | st.text(max_size=20),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode("utf-8"))


@st.composite
def contents(draw):
    """Arbitrary bytes, or JSON-ish lines with at most one byte changed."""
    blob = draw(st.binary(max_size=200) | JSON_LINES)
    if blob and draw(st.booleans()):
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]
    return blob


def assert_value_or_named_error(read, path):
    try:
        read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


@settings(max_examples=100, deadline=None)
@given(blob=contents())
def test_readers_return_a_value_or_name_the_file(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(blob)
        for read in READERS:
            assert_value_or_named_error(read, path)


@functools.cache
def checkpoint_bytes() -> bytes:
    config = dict(default_config(), word_dim=4, char_dim=5, char_conv_width=3, char_out_dim=3, hidden_dim=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(path, tiny_model(), config, epoch=1, seed=0)
        load_checkpoint(path)  # the unchanged file loads
        return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(position=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255))
def test_checkpoint_with_one_manifest_byte_changed_loads_or_names_the_file(position, byte):
    # the changed byte falls in the manifest or in the 8 bytes of its length
    raw = checkpoint_bytes()
    start = len(MAGIC) + 8
    at = len(MAGIC) + int(position * (8 + int.from_bytes(raw[len(MAGIC) : start], "little")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1 :])
        assert_value_or_named_error(load_checkpoint, path)
