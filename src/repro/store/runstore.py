"""Content-addressed run store: dedupe for a fleet's recordings and rows.

A debugging fleet produces millions of recordings and result rows, and
most of them say the same thing.  The store gives every artifact one
name - the SHA-256 of its canonical JSON encoding, the same hashing
attestation stamps use (:mod:`repro.util.hashing`) - so identical
artifacts occupy one object no matter how many sweeps produce them,
and a rerun can prove "I already have this" by address alone.

Layout of a store directory::

    objects/<aa>/<sha256>.json   one object per content address
    index.jsonl                  append-only index (crash-tolerant)

The object plane is immutable and self-verifying: an object's file name
*is* its hash, so ``get`` recomputes the address on read and refuses a
corrupted object instead of returning silently wrong bytes.  Writes are
atomic (temp file + rename) and idempotent - re-putting existing
content is a no-op that costs one hash.

The index is the mutable-world view over the immutable objects, in the
run journal's JSONL idiom (:mod:`repro.util.jsonl`: append + flush per
entry, torn final line ignored on load).  Each instance parses it once
into in-memory maps and then follows its tail: every public call
``stat``s the file and decodes only the lines appended since, by this
instance or any other on the directory, so the cost of a lookup or a
put does not grow with the index.  Four entry kinds:

``row``       one matrix cell's metric row, keyed by
              ``(seed, model, code_hash)`` - the incremental-rerun
              lookup: a sweep skips any cell whose key is already
              stored under the current code hash.
``case``      one seed's case provenance, keyed by ``(seed, code_hash)``.
``bucket``    one quarantined/failed recording's membership in a dedupe
              bucket, keyed by ``(failure, fingerprint)`` - the failure
              signature and divergence/quarantine fingerprint from
              :mod:`repro.replay.diff`.
``exemplar``  the one recording payload the fleet ships per bucket;
              every later member of the bucket is counted, not stored.

``gc`` deletes unreferenced objects (and reports orphaned index
entries); it never touches referenced content.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.util import jsonl
from repro.util.hashing import content_address

OBJECTS_DIR = "objects"
INDEX_NAME = "index.jsonl"
STORE_VERSION = 1

# Index lines are decoded through this name (tests count the calls).
_decode_line = json.loads


@dataclass
class BucketView:
    """One dedupe bucket, as reconstructed from the index."""

    bucket: str
    count: int = 0
    exemplar: Optional[str] = None      # content address of the payload
    failure: Optional[List[Any]] = None  # failure signature (first seen)
    cells: List[Any] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"bucket": self.bucket, "count": self.count,
                "exemplar": self.exemplar, "failure": self.failure,
                "cells": list(self.cells)}


class RunStore:
    """One content-addressed store directory."""

    def __init__(self, root: str):
        self.root = root
        self.objects_dir = os.path.join(root, OBJECTS_DIR)
        self.index_path = os.path.join(root, INDEX_NAME)
        self._reset_index()

    # -- object plane --------------------------------------------------------

    def _object_path(self, address: str) -> str:
        return os.path.join(self.objects_dir, address[:2],
                            f"{address}.json")

    def put_object(self, payload: Any) -> str:
        """Store a JSON-able payload; returns its content address.

        Idempotent: content that already exists is not rewritten.  The
        write is atomic (temp + rename) so a crash can never leave a
        half-object under a valid address.
        """
        address = content_address(payload)
        path = self._object_path(address)
        if os.path.exists(path):
            return address
        os.makedirs(os.path.dirname(path), exist_ok=True)
        handle, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                json.dump(payload, out, sort_keys=True,
                          separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return address

    def get_object(self, address: str) -> Any:
        """Load an object by address, verifying its content on read."""
        path = self._object_path(address)
        if not os.path.exists(path):
            raise ReproError(
                f"store {self.root!r} has no object {address[:12]}…; "
                f"was it gc'd, or is the address from another store?")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        found = content_address(payload)
        if found != address:
            raise ReproError(
                f"store object {address[:12]}… is corrupt: content "
                f"re-hashes to {found[:12]}… - the file was modified "
                f"in place; delete it and re-run the sweep")
        return payload

    def has_object(self, address: str) -> bool:
        return os.path.exists(self._object_path(address))

    # -- index plane ---------------------------------------------------------

    def _reset_index(self) -> None:
        """Forget the in-memory index; the next read parses from byte 0."""
        self._entries: List[Dict[str, Any]] = []
        # code_hash -> (seed, model) -> address of the latest row entry.
        self._rows: Dict[Any, Dict[Tuple[Any, Any], Optional[str]]] = {}
        # (seed, code_hash) -> address of the latest case entry.
        self._cases: Dict[Tuple[Any, Any], Optional[str]] = {}
        self._buckets: Dict[str, BucketView] = {}
        self._offset = 0     # watermark: bytes of index.jsonl parsed
        self._lines = 0      # lines below the watermark
        self._inode: Optional[int] = None

    def _refresh(self) -> int:
        """Catch the in-memory index up with ``index.jsonl``.

        Parses only the complete lines appended since the last call, by
        this or any other instance on the directory; a file that shrank
        below the watermark or was replaced is reloaded from scratch.
        Returns the file's size (0 when it does not exist).
        """
        try:
            info = os.stat(self.index_path)
        except FileNotFoundError:
            if self._offset:
                self._reset_index()
            return 0
        if info.st_size < self._offset or info.st_ino != self._inode:
            self._reset_index()
            self._inode = info.st_ino
        if info.st_size > self._offset:
            entries, self._offset, self._lines = jsonl.read_from(
                self.index_path, self._offset, self._lines,
                decode=_decode_line,
                corrupt=lambda line: (f"corrupt store index line {line} "
                                      f"in {self.index_path!r}"))
            for entry in entries:
                self._apply(entry)
        return info.st_size

    def _apply(self, entry: Dict[str, Any]) -> None:
        """Fold one index entry into the maps; later entries win."""
        self._entries.append(entry)
        kind = entry.get("kind")
        if kind == "row":
            cells = self._rows.setdefault(entry.get("code_hash"), {})
            cells[(entry.get("seed"), entry.get("model"))] = (
                entry.get("address"))
        elif kind == "case":
            self._cases[(entry.get("seed"), entry.get("code_hash"))] = (
                entry.get("address"))
        elif kind in ("bucket", "exemplar"):
            view = self._buckets.setdefault(
                entry["bucket"], BucketView(bucket=entry["bucket"]))
            if kind == "bucket":
                view.count += 1
                if view.failure is None and entry.get("failure"):
                    view.failure = entry["failure"]
                if entry.get("cell") is not None:
                    view.cells.append(entry["cell"])
            elif view.exemplar is None:
                view.exemplar = entry.get("address")

    def entries(self) -> List[Dict[str, Any]]:
        """All index entries, tolerating a torn final line."""
        self._refresh()
        return list(self._entries)

    def _append(self, entry: Dict[str, Any]) -> None:
        os.makedirs(self.root, exist_ok=True)
        if self._refresh() > self._offset:
            # Bytes past the watermark that are not a complete line are
            # a torn tail (journal idiom: welding onto it corrupts both).
            jsonl.discard_torn_tail(self.index_path, self._offset)
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()

    def _load_live(self, address: Optional[str]) -> Optional[Any]:
        """The object at ``address``; a missing (gc'd) object is a miss."""
        if address and self.has_object(address):
            return self.get_object(address)
        return None

    # -- rows: incremental reruns -------------------------------------------

    def put_row(self, seed: int, model: str, code_hash: str,
                row: Dict[str, Any]) -> str:
        """Store one matrix cell's row under its rerun key."""
        address = self.put_object(row)
        self._refresh()
        if self._rows.get(code_hash, {}).get((int(seed), model)) != address:
            self._append({"kind": "row", "seed": int(seed),
                          "model": model, "code_hash": code_hash,
                          "address": address})
        return address

    def get_row(self, seed: int, model: str,
                code_hash: str) -> Optional[Dict[str, Any]]:
        """The stored row for ``(seed, model, code_hash)``, if any.

        The latest matching index entry wins; an entry whose object was
        gc'd away counts as absent (the cell simply reruns).
        """
        self._refresh()
        return self._load_live(
            self._rows.get(code_hash, {}).get((int(seed), model)))

    def put_case(self, seed: int, code_hash: str,
                 provenance: Dict[str, Any]) -> str:
        """Store one seed's case provenance (the sweep's ``cases`` row).

        Stored alongside the seed's rows so a rerun whose every cell is
        a store hit can still emit a byte-identical ``cases`` section
        without re-running the record phase.
        """
        address = self.put_object(provenance)
        self._refresh()
        if self._cases.get((int(seed), code_hash)) != address:
            self._append({"kind": "case", "seed": int(seed),
                          "code_hash": code_hash, "address": address})
        return address

    def get_case(self, seed: int,
                 code_hash: str) -> Optional[Dict[str, Any]]:
        """The stored provenance for ``(seed, code_hash)``, if any."""
        self._refresh()
        return self._load_live(self._cases.get((int(seed), code_hash)))

    def stored_cells(self, code_hash: str) -> Dict[Tuple[int, str], str]:
        """All ``(seed, model) -> address`` rows stored under a code hash.

        Agrees with :meth:`get_row` cell by cell: the latest entry wins
        and a gc'd object is a miss, never an older row's address.
        """
        self._refresh()
        return {cell: address
                for cell, address in self._rows.get(code_hash, {}).items()
                if address and self.has_object(address)}

    # -- buckets: fleet dedupe ----------------------------------------------

    def put_bucket_member(self, bucket: str, *,
                          failure: Optional[Iterable[Any]] = None,
                          fingerprint: Optional[str] = None,
                          cell: Any = None,
                          payload: Any = None) -> Tuple[Optional[str], bool]:
        """Record one recording's membership in a dedupe bucket.

        Ships ``payload`` (the recording, JSON-able) only when the
        bucket has no exemplar yet - the fleet's "one exemplar per
        bucket" rule.  Returns ``(exemplar_address, shipped)`` where
        ``shipped`` says whether *this* call stored the payload.
        """
        self._append({"kind": "bucket", "bucket": bucket,
                      "failure": list(failure) if failure else None,
                      "fingerprint": fingerprint, "cell": cell})
        self._refresh()
        existing = self._buckets.get(bucket)
        if existing is not None and existing.exemplar:
            return existing.exemplar, False
        if payload is None:
            return None, False
        address = self.put_object(payload)
        self._append({"kind": "exemplar", "bucket": bucket,
                      "address": address, "cell": cell})
        return address, True

    def buckets(self) -> Dict[str, BucketView]:
        """Dedupe buckets reconstructed from the index."""
        self._refresh()
        return {name: replace(view, cells=list(view.cells))
                for name, view in self._buckets.items()}

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Index/object counts (the CI health artifact)."""
        entries = self.entries()
        kinds: Dict[str, int] = {}
        for entry in entries:
            kind = entry.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        objects = 0
        size = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for name in filenames:
                    if name.endswith(".json"):
                        objects += 1
                        size += os.path.getsize(
                            os.path.join(dirpath, name))
        return {"version": STORE_VERSION, "root": self.root,
                "entries": len(entries), "kinds": kinds,
                "objects": objects, "object_bytes": size,
                "buckets": len(self._buckets)}

    def gc(self) -> Dict[str, int]:
        """Delete objects no index entry references.

        Referenced objects are never touched; entries whose object has
        gone missing are counted as ``orphaned`` (their cells rerun).
        """
        live = {entry.get("address") for entry in self.entries()
                if entry.get("address")}
        removed = 0
        kept = 0
        orphaned = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for name in filenames:
                    if not name.endswith(".json"):
                        continue
                    address = name[:-len(".json")]
                    path = os.path.join(dirpath, name)
                    if address in live:
                        kept += 1
                    else:
                        os.unlink(path)
                        removed += 1
        for address in live:
            if not self.has_object(address):
                orphaned += 1
        return {"kept": kept, "removed": removed, "orphaned": orphaned}
