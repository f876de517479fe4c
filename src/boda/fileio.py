"""Atomic file writes and the type rule of the JSON input files."""

import json
import os
from contextlib import contextmanager

from .errors import ValidationError


@contextmanager
def atomic_open(path, newline=None):
    """Write text to ``<path>.tmp``, moved onto ``path`` when the block ends;
    if the block raises, the temporary file goes and ``path`` is unchanged."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_json(payload, path) -> None:
    """``payload`` as two-space-indented JSON and a newline, atomically."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def json_type_ok(value, kind) -> bool:
    """Whether a JSON value fits ``kind``: a bool only where a bool is
    expected, an int where a float is, a list of items that fit ``k`` for
    ``[k]``, and an object of known fields that fit for a dict of kinds."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(json_type_ok(v, kind[0])
                                               for v in value)
    if isinstance(kind, dict):
        return isinstance(value, dict) and all(
            k in kind and json_type_ok(v, kind[k]) for k, v in value.items())
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def check_json_object(data, kinds: dict, what: str, required=()) -> None:
    """Raise a ValidationError unless ``data`` is a JSON object with every
    ``required`` field, no field outside ``kinds`` and each field of its
    kind (see ``json_type_ok``)."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = set(data) - set(kinds)
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    for name in required:
        if name not in data:
            raise ValidationError(f"{what} is missing field {name!r}")
    for name, value in data.items():
        if not json_type_ok(value, kinds[name]):
            raise ValidationError(
                f"{what} field {name!r} has the wrong JSON type: {value!r}")
