"""Atomic file writes."""

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
