"""Crash-safe sweep journal: append-only JSONL of unit completions.

A checkpoint (:mod:`repro.experiments.checkpoint`) snapshots the whole
point store by rewriting one JSON file — safe, but only as fresh as
the last snapshot.  The journal is the complement for long ``--jobs N``
sweeps: every unit completion is **appended** to a JSONL file, flushed
and ``fsync``-ed, the moment it happens.  Kill the process at any
point — power cut, OOM kill, ^C — and the journal holds every unit
that finished; ``--resume`` replays it and the sweep re-executes only
the units that never completed.

Format (one JSON object per line)::

    {"journal": 1, "experiment_id": "fig3", "fingerprint": "..."}
    {"key": "uniform:1", "value": ..., "sha256": "<payload checksum>"}
    {"key": "uniform:2", "value": ..., "sha256": "..."}

The first line binds the journal to one experiment (replaying a
``fig3`` journal into a ``fig7`` sweep is refused).  Every record
carries the same SHA-256 payload checksum the result cache uses
(:func:`repro.exec.cache.value_checksum`), so a torn or corrupted line
is detected on replay and skipped — in particular the final line, which
a crash mid-append routinely truncates.  Appends go through
:func:`repro.core.jsonl.append_record`, so a resumed sweep's first record
starts on a fresh line instead of merging into that torn one.  Skipped
lines only cost a re-execution; they can never smuggle a wrong value
into results.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from ..core.canon import canonical
from ..core.jsonl import append_record
from .cache import value_checksum
from .events import journal_header, journal_record

__all__ = ["SweepJournal", "JournalError", "JOURNAL_SCHEMA"]

JOURNAL_SCHEMA = 1


class JournalError(ValueError):
    """The journal file is unusable for this sweep; str() says why."""


class SweepJournal:
    """Append-only record of unit completions for one experiment.

    Usage::

        journal = SweepJournal(path)
        done = journal.replay("fig3")   # {} on a fresh file
        journal.open("fig3")
        journal.record(unit.key, value)  # from the pool's on_complete
        ...
        journal.close()

    ``replay`` before ``open``: opening is append-mode, so a journal
    survives its own resume and keeps growing across interruptions.
    """

    def __init__(self, path: str):
        self.path = path
        self.replayed = 0      #: completions recovered by replay()
        self.skipped = 0       #: torn/corrupt lines ignored by replay()
        self.recorded = 0      #: completions appended this run
        self._open = False

    # -- replay ---------------------------------------------------------

    def replay(self, experiment_id: str) -> Dict[str, object]:
        """Completions already journaled, as ``{key: value}``.

        Returns ``{}`` when the file does not exist yet.  Raises
        :class:`JournalError` when the file belongs to a different
        experiment or is not a journal at all.  Torn or checksum-failed
        lines (the normal crash residue) are counted in ``skipped`` and
        ignored; later duplicates of a key win (they are by construction
        identical values, re-journaled after a resume raced a crash).
        """
        try:
            fh = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return {}
        done: Dict[str, object] = {}
        with fh:
            header = fh.readline()
            if not header.strip():
                return {}
            try:
                head = json.loads(header)
                schema = head["journal"]
                bound = head["experiment_id"]
            except (ValueError, KeyError, TypeError):
                raise JournalError(
                    f"{self.path} is not a sweep journal (bad header "
                    "line); pass a fresh --journal path") from None
            if schema != JOURNAL_SCHEMA:
                raise JournalError(
                    f"{self.path} uses journal schema {schema!r}, this "
                    f"build writes {JOURNAL_SCHEMA}; pass a fresh "
                    "--journal path")
            if bound != experiment_id:
                raise JournalError(
                    f"{self.path} belongs to experiment {bound!r}, not "
                    f"{experiment_id!r}; pass a fresh --journal path")
            for line in fh:
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    key = rec["key"]
                    value = rec["value"]
                    recorded = rec["sha256"]
                except (ValueError, KeyError, TypeError):
                    self.skipped += 1  # torn tail of a crashed append
                    continue
                if value_checksum(value) != recorded:
                    self.skipped += 1
                    continue
                done[key] = value
                self.replayed += 1
        return done

    # -- recording ------------------------------------------------------

    def open(self, experiment_id: str, fingerprint: str = "") -> None:
        """Open for appending; writes the binding header on a new file."""
        fresh = not os.path.exists(self.path) or \
            os.path.getsize(self.path) == 0
        self._open = True
        if fresh:
            append_record(self.path, journal_header(
                JOURNAL_SCHEMA, experiment_id, fingerprint))

    def record(self, key: str, value) -> None:
        """Append one completion; durable (flush + fsync) on return."""
        if not self._open:
            raise JournalError("journal is not open for recording")
        append_record(self.path, journal_record(
            key, canonical(value), value_checksum(value)))
        self.recorded += 1

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        return {"replayed": self.replayed, "skipped": self.skipped,
                "recorded": self.recorded}
