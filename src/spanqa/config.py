"""Flat JSON configuration shared by the CLI and checkpoints.

One flat dict carries every encoder and training field plus
`grad_through_start`; files only need to list the keys they override.
"""

from dataclasses import fields

from .corpus import SynthConfig
from .encoder import EncoderConfig
from .inputs import build, field, read_json_object
from .pipeline import TrainConfig

_MODEL_KEYS = {"grad_through_start"}


def _field_names(cls):
    return {f.name for f in fields(cls)}


def default_config() -> dict:
    flat = {f.name: getattr(EncoderConfig(), f.name) for f in fields(EncoderConfig)}
    flat.update({f.name: getattr(TrainConfig(), f.name) for f in fields(TrainConfig)})
    flat["grad_through_start"] = True
    return flat


def _reject_unknown(values: dict, *classes, extra=()):
    unknown = set(values).difference(*map(_field_names, classes), extra)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")


def split_config(flat: dict):
    """Validate a flat dict and split it into (EncoderConfig, TrainConfig,
    grad_through_start).  Unknown keys, wrongly typed values and values out
    of range are rejected by key."""
    _reject_unknown(flat, EncoderConfig, TrainConfig, extra=_MODEL_KEYS)
    merged = {**default_config(), **flat}
    return build(EncoderConfig, merged), build(TrainConfig, merged), field(merged, "grad_through_start", bool, "")


def _synth_config(values: dict) -> SynthConfig:
    _reject_unknown(values, SynthConfig)
    return build(SynthConfig, values)


def _read_config_file(path, check) -> dict:
    """The JSON object in the file at `path`, after `check(object)` passes.
    Every error, bad JSON and bad UTF-8 included, names the file."""
    values = read_json_object(path)
    try:
        check(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return values


def read_config_overrides(path) -> dict:
    """Read a JSON config file and validate its keys and values, without
    filling in defaults — callers choose what the overrides sit on top of."""
    return _read_config_file(path, split_config)


def read_synth_config(path) -> SynthConfig:
    """Read a `make-synthetic` JSON config file over the generator defaults."""
    return SynthConfig(**_read_config_file(path, _synth_config))


def load_config(path) -> dict:
    """Read a JSON config file and merge it over the defaults."""
    return {**default_config(), **read_config_overrides(path)}
