"""Crash-tolerant append-only JSONL files: one reader, one tail healer.

The run journal (:mod:`repro.corpus.journal`) and the run store's index
(:mod:`repro.store.runstore`) share one on-disk idiom: one JSON entry
per line, each written with its newline and flushed.  A process that
dies mid-write leaves at most one torn final line, and the rules for it
live here, once:

- only complete (newline-terminated) lines are entries; a torn tail is
  invisible to readers;
- a complete line that does not decode is tolerated only when nothing
  follows it in the file (the final line); anywhere else it is
  corruption and the caller's error is raised;
- before appending, the torn tail is truncated - welding the next
  entry onto the fragment would corrupt both.

Reading starts at a byte offset, so a caller that remembers how far it
got (its watermark) decodes each line once, however often it re-reads.
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Tuple

from repro.errors import ReproError


def read_from(path: str, offset: int = 0, line: int = 0, *,
              corrupt: Callable[[int], str],
              decode: Callable[[bytes], Any] = json.loads,
              ) -> Tuple[List[Any], int, int]:
    """Decode the complete lines of ``path`` from byte ``offset`` on.

    ``line`` is the number of lines before ``offset`` (blank ones
    included), so error messages name the file's own line numbers.
    Returns ``(entries, offset, line)`` advanced past every consumed
    line: the next call resumes there.  A corrupt final line is not
    consumed, so it is re-read (and refused) once more lines follow.
    ``corrupt(line_number)`` builds the :class:`ReproError` message.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return [], offset, line
    with handle:
        handle.seek(offset)
        data = handle.read()
    entries: List[Any] = []
    end = data.rfind(b"\n") + 1  # bytes past this are a torn tail
    pos = 0
    while pos < end:
        stop = data.index(b"\n", pos)
        raw = data[pos:stop]
        if raw.strip():
            try:
                entries.append(decode(raw))
            except ValueError:
                if stop + 1 == len(data):
                    break  # final line: tolerated, left unconsumed
                raise ReproError(corrupt(line + 1))
        line += 1
        pos = stop + 1
    return entries, offset + pos, line


def discard_torn_tail(path: str, offset: int = 0) -> None:
    """Truncate a torn (newline-less) final line before appending.

    Only bytes from ``offset`` on are read, so a caller that has
    already read up to a line boundary pays for the tail alone.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        handle.seek(offset)
        tail = handle.read()
        if tail and not tail.endswith(b"\n"):
            handle.truncate(offset + tail.rfind(b"\n") + 1)
