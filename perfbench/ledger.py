"""Span ledger: times the system's layers from outside the program.

A :class:`Tracer` replaces the public functions a workload calls with
thin wrappers that record one span per call - name, start, end, parent
span and cell id - and restores the originals on :meth:`Tracer.close`.
No span lives inside ``src/``; the layer boundaries are the calls the
inline matrix and a debugging session make:

``generate``     ``repro.corpus.matrix.generate_case`` (the matrix's
                 record phase; case resolution inside ``receive`` is
                 left to the ``receive`` span)
``record``       ``DebugSession.record`` (recorder + attestation stamp)
``ship``         ``DebugSession.ship`` (encode + decode round trip)
``receive``      ``DebugSession.receive`` (decode, verify, case resolve)
``replay``       ``DebugSession.replay``
``diff``         ``DebugSession.diff``
``causes``       ``repro.models.session.count_root_causes``
``score``        ``DebugSession.score``
``store.put``    ``RunStore.put_row/put_case/put_object/put_bucket_member``
``store.read``   ``RunStore.get_row/get_case/get_object/stored_cells/
                 entries/buckets``

Spans are kept in memory.  Worker processes forked while the tracer is
installed inherit the wrappers; each worker appends every finished
top-level span tree to ``<spill_dir>/worker-<pid>.jsonl`` so the
coordinator can merge them after the body (:meth:`Tracer.merge_spills`).

:func:`layer_metrics` turns spans into the per-layer table.  A layer's
time is the *self* time of its spans: duration minus the part covered
by child spans, so nested calls (``put_row`` -> ``get_row``,
``score`` -> ``replay``) are never counted twice.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

MODELS = ("full", "value", "output", "failure", "rcse")

# name, unit, better - the per-layer metrics in report order.
LAYER_METRICS = [
    ("generate.s", "s", "lower"),
    ("generate.cases", "count", "lower"),
    ("vm.steps", "steps", "lower"),
    ("vm.steps_per_s", "steps/s", "higher"),
    ("record.s", "s", "lower"),
    *[(f"record.{m}.s", "s", "lower") for m in MODELS],
    ("record.native_cycles", "cycles", "lower"),
    ("ship.s", "s", "lower"),
    ("ship.bytes", "bytes", "lower"),
    ("receive.s", "s", "lower"),
    *[(f"replay.{m}.s", "s", "lower") for m in MODELS],
    ("replay.attempts", "count", "lower"),
    ("replay.accept_ratio", "ratio", "higher"),
    ("replay.inference_cycles", "cycles", "lower"),
    ("diff.s", "s", "lower"),
    ("diff.diverged", "count", "lower"),
    ("causes.s", "s", "lower"),
    ("causes.calls", "count", "lower"),
    ("causes.distinct", "count", "lower"),
    ("score.s", "s", "lower"),
    ("fleet.record_phase_s", "s", "lower"),
    ("fleet.replay_phase_s", "s", "lower"),
    ("fleet.busy_share", "share", "higher"),
    ("store.put.s", "s", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.read.s", "s", "lower"),
    ("store.read.calls", "count", "lower"),
    ("store.index_entries", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("trace.coverage", "share", "higher"),
    ("trace.overhead", "share", "lower"),
]

STORE_PUTS = ("put_row", "put_case", "put_object", "put_bucket_member")
STORE_READS = ("get_row", "get_case", "get_object", "stored_cells",
               "entries", "buckets")


def _session_cell(session) -> str:
    case = session.case
    key = getattr(case, "corpus_seed", None)
    return f"{case.name if key is None else key}:{session.model.name}"


class Tracer:
    """In-memory span recorder that patches layer entry points."""

    def __init__(self, spill_dir: Optional[str] = None):
        # A span is [name, start, end, parent, cell, attrs]; ``parent``
        # indexes ``spans`` (None for a top-level span).
        self.spans: List[list] = []
        self.spill_dir = spill_dir
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._home = self._pid = os.getpid()
        # id(program) -> (program, structural fingerprint); the program
        # is held so its id cannot be reused by a later object.
        self._fingerprints: Dict[int, tuple] = {}

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, cell: Optional[str]) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: drop the coordinator's copy.
            self._pid = pid
            self.spans = []
            self._stack = []
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent][4]
        span = [name, 0.0, 0.0, parent, cell, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self) -> None:
        self._stack.pop()
        if not self._stack and self._pid != self._home and self.spill_dir:
            path = os.path.join(self.spill_dir, f"worker-{self._pid}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def patch(self, owner: Any, attr: str, name: str,
              cell: Optional[Callable[..., Optional[str]]] = None,
              after: Optional[Callable[..., None]] = None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``cell(args)`` names the span's cell (default: the parent's);
        ``after(span, args, kwargs, result)`` adds attributes once the
        call has returned, outside the timed interval.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, cell(args) if cell else None)
            try:
                result = func(*args, **kwargs)
                span[2] = time.perf_counter()
                if after is not None:
                    after(span, args, kwargs, result)
            finally:
                if not span[2]:
                    span[2] = time.perf_counter()
                tracer._close()
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every patched function (latest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every layer entry point the workloads reach."""
        from repro.corpus import matrix
        from repro.models import session as session_mod
        from repro.models.session import DebugSession
        from repro.store import RunStore

        def from_self(args):
            return _session_cell(args[0])

        def on_record(span, args, kwargs, log):
            span[5] = {"model": args[0].model.name,
                       "native_cycles": log.native_cycles,
                       "seed": args[0].seed}

        def on_ship(span, args, kwargs, payload):
            span[5] = {"bytes": len(payload)}

        def on_receive(span, args, kwargs, session):
            span[4] = _session_cell(session)

        def on_replay(span, args, kwargs, result):
            span[5] = {"model": args[0].model.name,
                       "attempts": result.attempts, "found": result.found,
                       "inference_cycles": result.inference_cycles}

        def on_diff(span, args, kwargs, report):
            span[5] = {"diverged": bool(report.diverged)}

        def on_causes(span, args, kwargs, count):
            program, failure = args[0].program, args[1]
            budget = kwargs.get("max_attempts",
                                args[2] if len(args) > 2 else 120)
            span[5] = {"key": [self._fingerprint(program),
                               repr(failure.signature()), budget]}

        self.patch(matrix, "generate_case", "generate",
                   cell=lambda args: str(args[0]))
        self.patch(DebugSession, "record", "record", from_self, on_record)
        self.patch(DebugSession, "ship", "ship", from_self, on_ship)
        self.patch(DebugSession, "receive", "receive", after=on_receive)
        self.patch(DebugSession, "replay", "replay", from_self, on_replay)
        self.patch(DebugSession, "diff", "diff", from_self, on_diff)
        self.patch(DebugSession, "score", "score", from_self)
        self.patch(session_mod, "count_root_causes", "causes",
                   after=on_causes)
        for method in STORE_PUTS:
            self.patch(RunStore, method, "store.put")
        for method in STORE_READS:
            self.patch(RunStore, method, "store.read")
        return self

    # -- after the body -------------------------------------------------------

    def merge_spills(self) -> List[list]:
        """Worker span trees appended since install, re-indexed."""
        merged: List[list] = []
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return merged
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("worker-"):
                continue
            with open(os.path.join(self.spill_dir, name),
                      encoding="utf-8") as handle:
                for line in handle:
                    tree = json.loads(line)
                    base = len(merged)
                    for span in tree:
                        if span[3] is not None:
                            span[3] += base
                        merged.append(span)
        return merged

    def _fingerprint(self, program) -> str:
        """Structural guest fingerprint, memoized per program object."""
        entry = self._fingerprints.get(id(program))
        if entry is None:
            from repro.record.attest import guest_fingerprint
            entry = (program, guest_fingerprint(program))
            self._fingerprints[id(program)] = entry
        return entry[1]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    selfs = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            selfs[span[3]] -= span[2] - span[1]
    return selfs


def layer_metrics(home: List[list], workers: List[list],
                  body_wall: float) -> Dict[str, float]:
    """Per-layer sums over the coordinator's and the workers' spans.

    ``trace.coverage`` is taken over the coordinator's spans only: the
    share of the body's wall time that some top-level span covers.
    Metrics the caller measures elsewhere (vm probe, fleet phases,
    store index, overhead) are left at 0 here.
    """
    spans = home + workers
    selfs = self_times(home) + self_times(workers)
    out: Dict[str, float] = {name: 0 for name, __, __ in LAYER_METRICS}
    attempts = found = 0
    cause_keys = set()
    for span, own in zip(spans, selfs):
        name, attrs = span[0], span[5]
        if name in ("generate", "record", "ship", "receive", "diff",
                    "causes", "score"):
            out[f"{name}.s"] += own
        if name == "generate":
            out["generate.cases"] += 1
        elif name == "record":
            out[f"record.{attrs['model']}.s"] += own
            out["record.native_cycles"] += attrs["native_cycles"]
        elif name == "ship":
            out["ship.bytes"] += attrs["bytes"]
        elif name == "replay":
            out[f"replay.{attrs['model']}.s"] += own
            attempts += attrs["attempts"]
            found += 1 if attrs["found"] else 0
            out["replay.inference_cycles"] += attrs["inference_cycles"]
        elif name == "diff":
            out["diff.diverged"] += 1 if attrs["diverged"] else 0
        elif name == "causes":
            out["causes.calls"] += 1
            cause_keys.add(json.dumps(attrs["key"]))
        elif name in ("store.put", "store.read"):
            out[f"{name}.s"] += own
            out[f"{name}.calls"] += 1
    out["replay.attempts"] = attempts
    out["causes.distinct"] = len(cause_keys)
    out["replay.accept_ratio"] = found / attempts if attempts else 0.0
    covered = sum(span[2] - span[1] for span in home if span[3] is None)
    out["trace.coverage"] = covered / body_wall if body_wall else 0.0
    return out


def busy_seconds(workers: List[list]) -> float:
    """Time worker processes spent inside top-level layer spans."""
    return sum(span[2] - span[1] for span in workers if span[3] is None)


def record_by_cell(spans: List[list]) -> Dict[str, str]:
    """Cell id -> model for every recorded cell (the paper check)."""
    return {span[4]: span[5]["model"] for span in spans
            if span[0] == "record"}


def write_spans(path: str, home: List[list], workers: List[list]) -> None:
    """All spans of one traced body as one JSON file."""
    def as_dicts(spans, process):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "cell": s[4], "process": process, "attrs": s[5]}
                for s in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"coordinator": as_dicts(home, "coordinator"),
                   "workers": as_dicts(workers, "worker")}, handle)
