"""Reading and checking input from outside the program.

Data, predictions and word-vector files are read line by line; config files
and checkpoint manifests are one JSON value.  Every value read from them is
checked against one rule: a bool is never a number, a float takes an int,
and every number, an int included, must be finite (an int must fit a
float).  Each failure is a ValueError whose message starts with where it
happened: the file, then the line (for line files), then the field.
"""

import json
import math
import re
from dataclasses import fields

_MISSING = object()
# how a message names each kind, and the kinds a list's items may have
_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    list: "a list", dict: "a JSON object", (str, int): "a string or an integer",
}
_PLURALS = {str: "strings", int: "integers", float: "numbers"}
_ACCEPTS = {float: (int, float)}  # a float kind takes an int too
# for each kind, the type whose every instance fits it, so `field` skips `_problem`
_PLAIN = {str: str, list: list, dict: dict, (str, int): str}
# what "surrogateescape" makes of bytes that are not UTF-8; UTF-8 text decodes to none
_ESCAPED = re.compile("[\ud800-\udfff]")


def _error(where, message) -> ValueError:
    return ValueError(f"{where}: {message}" if where else message)


def is_finite(value) -> bool:
    """math.isfinite of an int or float, where an int too large for a float
    (which JSON can hold) is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _utf8(text: str, where) -> str:
    """`text`, decoded with "surrogateescape", unless bytes that are not
    UTF-8 went into it."""
    if not text.isascii() and _ESCAPED.search(text):
        raise _error(where, "not UTF-8 text")
    return text


def decode(raw: bytes, where) -> str:
    """The UTF-8 text in `raw`."""
    return _utf8(raw.decode("utf-8", "surrogateescape"), where)


def read_lines(path):
    """(where, line) for each line of the UTF-8 text file at `path`, where
    `where` is "<path>: line N"."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            where = f"{path}: line {line_no}"
            yield where, _utf8(line, where)


def parse_json(text: str, where):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a number past the int conversion limit, or deep nesting
        raise _error(where, f"invalid JSON: {exc}") from exc


def parse_object(text: str, where) -> dict:
    value = parse_json(text, where)
    if not isinstance(value, dict):
        raise _error(where, "expected a JSON object")
    return value


def read_json_object(path) -> dict:
    """The JSON object that is the whole file at `path`."""
    return parse_object("".join(line for _, line in read_lines(path)), path)


def read_json_lines(path):
    """(where, value) for each nonblank line of the JSON-lines file at `path`."""
    for where, line in read_lines(path):
        if line.strip():
            yield where, parse_json(line, where)


def _problem(value, kind, item=None):
    """None if `value` is a `kind` (a type, or a tuple of types), else why
    not; `item` names the kind of a list's items."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _ACCEPTS.get(kind, kind)):
        name = f"a list of {_PLURALS[item]}" if item else _NAMES[kind]
        return f"must be {name}, got {type(value).__name__}"
    if isinstance(value, (int, float)) and not is_finite(value):
        return f"must be finite, got {value!r}"
    return None


def field(record, key, kind, where, item=None):
    """record[key], which must be a `kind`; with `item`, a list whose every
    element is an `item`.  `record` must be a JSON object.  A failure names
    `where` (which may be empty) and the key."""
    if not isinstance(record, dict):
        raise _error(where, "expected a JSON object")
    value = record.get(key, _MISSING)
    if value is _MISSING:
        raise _error(where, f"missing field {key!r}")
    if type(value) is not _PLAIN.get(kind) and (problem := _problem(value, kind, item)):
        raise _error(where, f"field {key!r} {problem}")
    if item:
        for i, element in enumerate(value):
            if type(element) is not _PLAIN.get(item) and (problem := _problem(element, item)):
                raise _error(where, f"field {key!r} item {i} {problem}")
    return value


def build(cls, values: dict):
    """The dataclass `cls` built from the entries of `values` that name its
    fields, each checked against its field's type first."""
    return cls(**{f.name: field(values, f.name, f.type, "") for f in fields(cls) if f.name in values})
