"""JSONL journals: durable appends and one tolerant line reader.

Campaign journals, fuzz journals and the campaign service's manifest
and shard journals share this substrate.  A record is one JSON object
per line, appended and flushed the moment its work finishes, so a
crashed or killed run loses at most the work in flight.  Readers fold
over :func:`read_records`, which skips what a crash can leave behind (a
truncated final line) as well as blank and non-object lines, so every
fold is tolerant in the same way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, TextIO

__all__ = [
    "append_line",
    "open_journal",
    "read_records",
    "repair_trailing_newline",
]


def append_line(handle: TextIO, line: str) -> None:
    handle.write(line + "\n")
    handle.flush()


def repair_trailing_newline(path: Path) -> None:
    """Terminate a line truncated by a crash so appended records start
    on their own line (the readers already skip the malformed fragment)."""
    with path.open("rb+") as handle:
        handle.seek(0, 2)
        if handle.tell() == 0:
            return
        handle.seek(-1, 2)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


def open_journal(path: Path, append: bool) -> TextIO:
    """Open a journal for writing.

    Appending to an existing file *always* repairs a crash-truncated
    final line first — the repair is part of opening, not a courtesy of
    individual call sites, so no append path (resume, stale-grid
    header, service shard re-attach) can write its first record onto
    the fragment the previous crash left behind.
    """
    if append and path.exists():
        repair_trailing_newline(path)
    return path.open("a" if append else "w")


def read_records(path: "Path | str") -> Iterator[dict]:
    """Every JSON-object line of a journal, in file order.

    A missing file has no records; blank, malformed (e.g. truncated by
    the crash the journal exists to survive) and non-object lines are
    skipped.
    """
    target = Path(path)
    if not target.exists():
        return
    with target.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record
