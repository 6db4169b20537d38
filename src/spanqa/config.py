"""Flat JSON configuration shared by the CLI and checkpoints.

One flat dict carries every encoder and training field plus
`grad_through_start`; files only need to list the keys they override.
"""

import json
import math
from dataclasses import fields

from .corpus import SynthConfig
from .encoder import EncoderConfig
from .pipeline import TrainConfig

_MODEL_KEYS = {"grad_through_start"}


def _field_names(cls):
    return {f.name for f in fields(cls)}


def default_config() -> dict:
    flat = {f.name: getattr(EncoderConfig(), f.name) for f in fields(EncoderConfig)}
    flat.update({f.name: getattr(TrainConfig(), f.name) for f in fields(TrainConfig)})
    flat["grad_through_start"] = True
    return flat


def is_finite(value) -> bool:
    """math.isfinite of an int or float, where an int too large for a float
    (which JSON can hold) is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_type(key, value, kind):
    """An int field takes an int, a float field a finite int or float; a
    boolean passes for neither."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
    if kind is float and not is_finite(value):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")


def split_config(flat: dict):
    """Validate a flat dict and split it into (EncoderConfig, TrainConfig,
    grad_through_start).  Unknown keys, wrongly typed values and values out
    of range are rejected by key."""
    enc_keys, train_keys = _field_names(EncoderConfig), _field_names(TrainConfig)
    unknown = set(flat) - enc_keys - train_keys - _MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {**default_config(), **flat}
    for cls in (EncoderConfig, TrainConfig):
        for f in fields(cls):
            _check_type(f.name, merged[f.name], f.type)
    _check_type("grad_through_start", merged["grad_through_start"], bool)
    encoder = EncoderConfig(**{k: merged[k] for k in enc_keys})
    training = TrainConfig(**{k: merged[k] for k in train_keys})
    return encoder, training, merged["grad_through_start"]


def _check_synth(values: dict):
    """Keys, types and ranges of `make-synthetic` overrides, checked as
    `split_config` checks its own."""
    unknown = set(values) - _field_names(SynthConfig)
    if unknown:
        raise ValueError(f"unknown synthetic config keys: {sorted(unknown)}")
    for f in fields(SynthConfig):
        if f.name in values:
            _check_type(f.name, values[f.name], f.type)
    SynthConfig(**values)  # ranges


def _read_json_object(path, check) -> dict:
    """The JSON object in the file at `path`, after `check(object)` passes.
    Every error, bad JSON and bad UTF-8 included, names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("config must be a JSON object")
        check(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return values


def read_config_overrides(path) -> dict:
    """Read a JSON config file and validate its keys and values, without
    filling in defaults — callers choose what the overrides sit on top of."""
    return _read_json_object(path, split_config)


def read_synth_config(path) -> SynthConfig:
    """Read a `make-synthetic` JSON config file over the generator defaults."""
    return SynthConfig(**_read_json_object(path, _check_synth))


def load_config(path) -> dict:
    """Read a JSON config file and merge it over the defaults."""
    return {**default_config(), **read_config_overrides(path)}
