"""Durable appends to JSON-lines files.

The sweep journal and the performance ledger are both append-only JSONL
files whose readers skip torn or corrupt lines.  A crash mid-append
leaves a newline-less last line; :func:`append_record` starts the next
record on a line of its own, so the torn line stays the only casualty
instead of swallowing the record appended after it.
"""

from __future__ import annotations

import json
import os
from typing import Dict

__all__ = ["append_record"]


def append_record(path: str, record: Dict) -> None:
    """Append ``record`` to ``path`` as one compact, key-sorted JSON
    line, durably.

    Creates the parent directory and the file as needed, terminates a
    torn last line first, then writes, flushes and ``fsync``-s before
    returning.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "ab+") as fh:
        fh.seek(0, os.SEEK_END)
        torn_tail = False
        if fh.tell():
            fh.seek(-1, os.SEEK_END)
            torn_tail = fh.read(1) != b"\n"
        fh.write((("\n" if torn_tail else "") + line + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())
