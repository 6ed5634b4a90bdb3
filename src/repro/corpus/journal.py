"""On-disk run journal: resumable corpus sweeps.

A fleet-scale sweep that dies at cell 480 of 500 must not cost 480
cells to finish.  :class:`RunJournal` appends one JSON line per
completed unit of work *as it finishes* - a case's provenance when its
recording lands, a cell's metric row (or quarantine verdict) when its
replay lands - so ``repro corpus run --resume <dir>`` can reload the
journal and recompute only the cells with no terminal entry.

Entry kinds (one JSON object per line):

``header``      sweep identity: models, seeds, journal format version.
``case``        one seed's generation provenance (record phase done).
``row``         one (seed, model) cell's metric row (terminal: ok).
``quarantine``  one (seed, model) cell's terminal non-ok status.

The journal is append-only and crash-tolerant: a process that dies
mid-write leaves at most one truncated final line, which loading
ignores (that cell simply reruns).  Cell rows are pure functions of
(seed, model), so a resumed run's artifact is identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.util import jsonl

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1


@dataclass
class JournalState:
    """Everything a resumed run reloads from a journal."""

    header: Optional[Dict[str, Any]] = None
    cases: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    rows: Dict[Tuple[int, str], Dict[str, Any]] = field(
        default_factory=dict)
    quarantines: Dict[Tuple[int, str], Dict[str, Any]] = field(
        default_factory=dict)

    def done_cells(self) -> set:
        """Cells with a terminal entry (never recomputed on resume)."""
        return set(self.rows) | set(self.quarantines)


class RunJournal:
    """Append-only journal for one sweep's run directory."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, JOURNAL_NAME)
        self._handle = None

    # -- loading ------------------------------------------------------------

    def load(self) -> JournalState:
        """Parse the journal, tolerating a truncated final line."""
        state = JournalState()
        entries, __, ___ = jsonl.read_from(
            self.path, corrupt=lambda line: (
                f"corrupt journal line {line} in {self.path!r}; delete "
                f"the run directory to start over"))
        for entry in entries:
            kind = entry.get("kind")
            if kind == "header":
                state.header = entry
            elif kind == "case":
                state.cases[int(entry["seed"])] = entry["provenance"]
            elif kind == "row":
                state.rows[(int(entry["seed"]), entry["model"])] = (
                    entry["row"])
            elif kind == "quarantine":
                state.quarantines[(int(entry["seed"]),
                                   entry["model"])] = entry
        return state

    # -- appending ----------------------------------------------------------

    def open(self) -> None:
        os.makedirs(self.run_dir, exist_ok=True)
        if self._handle is None:
            # A torn last line is truncated, not welded onto; loading
            # already ignores it, so that cell just reruns.
            jsonl.discard_torn_tail(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, entry: Dict[str, Any]) -> None:
        """Write one entry and flush - completed work must survive an
        abort that happens one cell later."""
        self.open()
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def write_header(self, seeds, models) -> None:
        self.append({"kind": "header", "version": JOURNAL_VERSION,
                     "artifact": "corpus-matrix-journal",
                     "seeds": list(seeds), "models": list(models)})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
