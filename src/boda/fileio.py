"""Atomic file writes."""

import json
import os
from contextlib import contextmanager


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
