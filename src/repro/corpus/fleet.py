"""Fault-tolerant worker fleet: one dispatch ledger, three transports.

The corpus matrix is this repo's own "production fleet": many workers
each evaluating (case x model) cells.  A fleet-scale runner cannot
assume every worker survives and every cell finishes - one hung cell
must not stall a 20-seed sweep, and one crashed worker must not kill
it.

:class:`DispatchLedger` makes every decision about the cells of one
``run()`` - unique keys, the outcome table, the ready/backoff queue,
per-owner lease deadlines, exactly-once finalization, and strike ->
retry-or-terminal.  It does no I/O and reads no clock: every method
that depends on time takes ``now``.  The runners own only their
transport:

- :func:`run_inline` (``jobs<=1``) calls the task directly.
- :class:`WorkerSupervisor` owns ``jobs`` persistent, warm worker
  processes fed *batches* over pipes (chunked dispatch amortizes the
  per-cell IPC overhead; workers survive across phases so decode caches
  stay warm).  A worker that reports no progress for ``cell_timeout``
  seconds is killed and replaced (its in-flight cell is charged a
  *timeout* strike); a worker that dies mid-batch (``os._exit``,
  OOM-kill, ...) is detected by its broken pipe and replaced (a *crash*
  strike).  Either way the rest of its batch is requeued unpenalized.
- :class:`~repro.corpus.remote.RemoteCoordinator` owns sockets, frames
  and the degraded-mode fallback.

A struck cell is retried up to ``retries`` times with exponential
backoff whose delay (including jitter) is a pure function of
``(key, attempt)`` via :func:`retry_seed` - reruns of the same sweep
back off identically.  A cell that exhausts its retries is *reported*,
not raised (:class:`CellStatus`): ``failed`` for a Python exception in
the task, ``timeout`` for a wall-clock kill, ``quarantined`` for a cell
that keeps crashing the worker that runs it.

The supervisor is a context manager; leaving the block (normally, on
``KeyboardInterrupt``, or on any raised exception) terminates and joins
every worker, so an aborted run never leaves orphan processes.

Workers call ``worker_fn(payload, attempt)`` - the attempt index makes
retries explicit to the task (the fault-injection harness keys on it),
while deterministic tasks simply ignore it.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class CellStatus:
    """Terminal status of one supervised cell."""

    OK = "ok"                    # task completed and returned a value
    FAILED = "failed"            # task raised an exception every attempt
    TIMEOUT = "timeout"          # task exceeded the wall-clock budget
    QUARANTINED = "quarantined"  # task kept killing its worker (or its
    #                              payload was refused by attestation)

    TERMINAL = (OK, FAILED, TIMEOUT, QUARANTINED)


# Per-attempt strike kinds and the terminal status each maps to when the
# retry budget is exhausted.
_STRIKE_STATUS = {
    "error": CellStatus.FAILED,
    "timeout": CellStatus.TIMEOUT,
    "crash": CellStatus.QUARANTINED,
}


def retry_seed(key: str, attempt: int) -> int:
    """Deterministic per-(cell, attempt) seed for retry decisions.

    A pure function of the cell key and the attempt index, so a rerun of
    the same sweep makes byte-identical retry choices (backoff jitter,
    fault-injection draws) - randomness without nondeterminism.
    """
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


@dataclass(frozen=True)
class FleetPolicy:
    """Supervision knobs for one supervised run."""

    cell_timeout: Optional[float] = None  # seconds of no progress -> kill
    retries: int = 2                      # retry budget per cell
    backoff_base: float = 0.05            # first retry delay (seconds)
    backoff_cap: float = 30.0             # hard delay ceiling (seconds)
    batch_size: Optional[int] = None      # cells per dispatch (None: auto)

    def backoff(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seconds).

        The ceiling is a *hard* cap applied after jitter - no attempt
        count, however large, can sleep longer than ``backoff_cap``
        (the CLI's ``--max-backoff``) - and the exponent is clamped so
        absurd attempt numbers cannot even build the intermediate
        power.
        """
        if self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base * (2 ** min(max(0, attempt - 1), 62))
        jitter = (retry_seed(key, attempt) % 1000) / 2000.0  # [0, 0.5)
        return min(self.backoff_cap, delay * (1.0 + jitter))

    def chunk(self, n_tasks: int, jobs: int) -> int:
        """Cells per dispatch: explicit, or sized so each worker sees
        ~2 batches (big enough to amortize IPC, small enough to
        rebalance when cells are uneven)."""
        if self.batch_size is not None:
            return max(1, self.batch_size)
        if jobs <= 0:
            return max(1, n_tasks)
        return max(1, -(-n_tasks // (jobs * 2)))


@dataclass
class CellOutcome:
    """What the supervisor reports for one cell."""

    key: str
    status: str
    value: Any = None
    attempts: int = 0
    strikes: List[str] = field(default_factory=list)  # per-attempt kinds
    error: str = ""                                   # last failure detail

    @property
    def ok(self) -> bool:
        return self.status == CellStatus.OK


# -- the dispatch ledger ------------------------------------------------------

Item = Tuple[str, Any, int]  # a handed-out cell: (key, payload, attempt)


class DispatchLedger:
    """Every decision about the cells of one ``run()``, with no I/O.

    Owners are opaque hashable handles (a worker process, a socket
    connection, the inline caller).  An owner holds at most one lease:
    the batch :meth:`dispatch` handed it, run in order, so its
    *in-flight* cell is the first one it has not reported.  With a
    ``ttl``, a lease expires ``ttl`` seconds after the owner last showed
    progress.  A lease ends with :meth:`release` (unreported cells go
    back without a strike) or :meth:`fail` (the in-flight cell is
    struck, the rest go back).  A result for a cell the owner does not
    hold - a late arrival after a re-dispatch, a duplicated delivery -
    is dropped, so every cell finalizes, and fires ``on_result``,
    exactly once.
    """

    def __init__(self, tasks: Sequence[Tuple[str, Any]],
                 policy: FleetPolicy,
                 on_result: Optional[Callable[[CellOutcome], None]] = None,
                 ttl: Optional[float] = None):
        self.tasks = list(tasks)
        self.outcomes: Dict[str, CellOutcome] = {
            key: CellOutcome(key=key, status="pending")
            for key, __ in self.tasks}
        if len(self.outcomes) != len(self.tasks):
            raise ValueError("fleet task keys must be unique")
        self.policy = policy
        self.ttl = ttl
        self.pending = len(self.tasks)
        self._on_result = on_result
        # (key, payload, attempt, not_before)
        self._queue: deque = deque((key, payload, 0, 0.0)
                                   for key, payload in self.tasks)
        self._leases: Dict[Any, Dict[str, Item]] = {}  # unreported cells
        self._deadlines: Dict[Any, float] = {}

    def dispatch(self, owner: Any, now: float, limit: int = 1) -> List[Item]:
        """Lease up to ``limit`` ready cells, in queue order, to
        ``owner``; empty when nothing is ready."""
        ready = []
        for entry in self._queue:
            if entry[3] <= now:
                ready.append(entry)
                if len(ready) == limit:
                    break
        for entry in ready:
            self._queue.remove(entry)
        batch = [entry[:3] for entry in ready]
        if batch:
            self._leases[owner] = {item[0]: item for item in batch}
            self.renew(owner, now)
        return batch

    def holds(self, owner: Any) -> bool:
        return owner in self._leases

    def in_flight(self, owner: Any) -> Optional[str]:
        """The key ``owner`` is (or died) running, if any."""
        return next(iter(self._leases.get(owner, ())), None)

    def unfinished(self) -> List[Tuple[str, Any]]:
        """Every task with no terminal outcome yet, in input order."""
        return [(key, payload) for key, payload in self.tasks
                if self.outcomes[key].status == "pending"]

    def renew(self, owner: Any, now: float) -> None:
        """The owner showed progress (a result or a heartbeat)."""
        if self.ttl is not None and owner in self._leases:
            self._deadlines[owner] = now + self.ttl

    def expired(self, now: float) -> List[Any]:
        """Owners silent past their lease deadline."""
        return [owner for owner, deadline in self._deadlines.items()
                if now > deadline]

    def next_ready(self) -> Optional[float]:
        """When the earliest queued cell may be handed out."""
        return min((entry[3] for entry in self._queue), default=None)

    def result(self, owner: Any, key: str, now: float, ok: bool,
               value: Any) -> bool:
        """Record one reported attempt: ``value`` on success, else the
        error text.  False (and nothing changes) when ``owner`` does not
        hold ``key``."""
        todo = self._leases.get(owner)
        if todo is None or key not in todo:
            return False
        item = todo.pop(key)
        self.renew(owner, now)
        if ok:
            self.outcomes[key].attempts = item[2] + 1
            self._finalize(key, CellStatus.OK, value=value)
        else:
            self._strike(item, "error", value, now)
        return True

    def release(self, owner: Any) -> None:
        """End ``owner``'s lease; its unreported cells were never
        attempted, so they go back first in line, without a strike."""
        todo = self._leases.pop(owner, {})
        self._deadlines.pop(owner, None)
        self._queue.extendleft((key, payload, attempt, 0.0) for
                               key, payload, attempt in reversed(todo.values()))

    def fail(self, owner: Any, kind: str, now: float,
             describe: Callable[[str], str]) -> None:
        """``owner`` lost its lease (died, went silent, gave up): charge
        its in-flight cell a ``kind`` strike with ``describe(key)`` as
        the error, and release the rest."""
        todo = self._leases.get(owner)
        item = todo.pop(next(iter(todo))) if todo else None
        self.release(owner)
        if item is not None:
            self._strike(item, kind, describe(item[0]), now)

    def _strike(self, item: Item, kind: str, error: str,
                now: float) -> None:
        """Charge one failed attempt; retry after backoff or finalize."""
        key, payload, attempt = item
        outcome = self.outcomes[key]
        outcome.attempts = attempt + 1
        outcome.strikes.append(kind)
        outcome.error = error or kind
        if attempt < self.policy.retries:
            not_before = now + self.policy.backoff(key, attempt + 1)
            self._queue.append((key, payload, attempt + 1, not_before))
        else:
            self._finalize(key, _STRIKE_STATUS[kind])

    def _finalize(self, key: str, status: str, value: Any = None) -> None:
        outcome = self.outcomes[key]
        outcome.status = status
        outcome.value = value
        self.pending -= 1
        if self._on_result is not None:
            self._on_result(outcome)


# -- the worker half ----------------------------------------------------------


def _worker_main(conn, worker_fn) -> None:
    """Long-lived worker: drain batches, stream per-cell results.

    Results are streamed cell by cell (not per batch) so the supervisor
    always knows *which* cell a dead or silent worker was running: the
    first cell of the current batch it has not reported yet.
    """
    # The supervisor owns shutdown; a terminal ^C must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        __, batch = message
        for key, payload, attempt in batch:
            try:
                value = worker_fn(payload, attempt)
            except Exception:
                conn.send(("cell", key, "error", traceback.format_exc()))
            else:
                conn.send(("cell", key, "ok", value))
        conn.send(("batch-done",))


class _Worker:
    """Supervisor-side handle on one worker process."""

    def __init__(self, worker_fn):
        self.conn, child = Pipe()
        self.process = Process(target=_worker_main, args=(child, worker_fn),
                               daemon=True)
        self.process.start()
        child.close()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=1.0)
        self.kill()


# -- the supervisor -----------------------------------------------------------


class WorkerSupervisor:
    """Supervised, persistent worker pool (see module docstring).

    One supervisor can serve several :meth:`run` calls (the matrix runs
    its record and replay phases on the same warm fleet); workers are
    torn down when the ``with`` block exits.
    """

    def __init__(self, worker_fn: Callable[[Any, int], Any],
                 jobs: int = 2,
                 policy: Optional[FleetPolicy] = None):
        self.worker_fn = worker_fn
        self.jobs = max(1, jobs)
        self.policy = policy or FleetPolicy()
        self.workers: List[_Worker] = []
        self._prev_sigterm = None

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerSupervisor":
        self._install_sigterm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _install_sigterm(self) -> None:
        """Turn SIGTERM into SystemExit while the fleet is up.

        A KeyboardInterrupt or raised exception already unwinds through
        ``__exit__`` and reaps every worker; a plain SIGTERM (systemd
        stop, ``kill``, container teardown) would bypass Python cleanup
        entirely and orphan the fleet.  Only the default disposition is
        replaced - a caller's own handler is respected - and only from
        the main thread, where signal handlers can be set.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            current = signal.getsignal(signal.SIGTERM)
        except (ValueError, OSError):
            return
        if current not in (signal.SIG_DFL, None):
            return

        def _terminate(signum, frame):
            raise SystemExit(128 + signum)

        signal.signal(signal.SIGTERM, _terminate)
        self._prev_sigterm = current

    def close(self) -> None:
        """Terminate and join every worker (idempotent)."""
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop()
        if self._prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except (ValueError, OSError):
                pass
            self._prev_sigterm = None

    def _spawn(self) -> _Worker:
        worker = _Worker(self.worker_fn)
        self.workers.append(worker)
        return worker

    def _replace(self, worker: _Worker) -> None:
        worker.kill()
        self.workers.remove(worker)

    # -- the run loop -------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[str, Any]],
            on_result: Optional[Callable[[CellOutcome], None]] = None
            ) -> Dict[str, CellOutcome]:
        """Run every (key, payload) task to a terminal status.

        Returns ``{key: CellOutcome}`` - every key terminal, in input
        order.  ``on_result`` fires once per cell *as it finalizes* (the
        journaling hook).  Keys must be unique strings.
        """
        ledger = DispatchLedger(tasks, self.policy, on_result,
                                ttl=self.policy.cell_timeout)
        if not tasks:
            return ledger.outcomes
        chunk = self.policy.chunk(ledger.pending, self.jobs)
        while ledger.pending > 0:
            # Keep the fleet at strength, then hand ready work to idle
            # workers.
            while len(self.workers) < min(self.jobs, ledger.pending):
                self._spawn()
            now = time.monotonic()
            for worker in self.workers:
                if ledger.holds(worker):
                    continue
                batch = ledger.dispatch(worker, now, chunk)
                if not batch:
                    break
                worker.conn.send(("batch", batch))

            busy = [w for w in self.workers if ledger.holds(w)]
            if not busy:
                ready_at = ledger.next_ready()
                if ready_at is None:
                    break  # pending>0 but no work anywhere: defensive exit
                time.sleep(max(0.0, ready_at - now))  # all backing off
                continue

            # Wait for progress, bounded so timeouts stay responsive.
            ready_conns = _conn_wait([w.conn for w in busy], timeout=0.05)

            for worker in busy:
                if worker.conn not in ready_conns:
                    continue
                try:
                    while worker.conn.poll():
                        message = worker.conn.recv()
                        if message[0] == "cell":
                            __, key, status, value = message
                            ledger.result(worker, key, time.monotonic(),
                                          status == "ok", value)
                        elif message[0] == "batch-done":
                            ledger.release(worker)
                except (EOFError, OSError):
                    # Worker crashed mid-batch: replace it; the ledger
                    # charges the in-flight cell and requeues the rest.
                    self._replace(worker)
                    ledger.fail(worker, "crash", time.monotonic(),
                                lambda key: f"worker process died "
                                            f"running {key!r}")

            # Wall-clock supervision: kill silent workers.
            now = time.monotonic()
            for worker in ledger.expired(now):
                self._replace(worker)
                ledger.fail(worker, "timeout", now,
                            lambda key: f"cell {key!r} exceeded "
                                        f"{self.policy.cell_timeout}s "
                                        f"wall-clock budget")
        return ledger.outcomes


def run_inline(worker_fn: Callable[[Any, int], Any],
               tasks: Sequence[Tuple[str, Any]],
               policy: Optional[FleetPolicy] = None,
               on_result: Optional[Callable[[CellOutcome], None]] = None
               ) -> Dict[str, CellOutcome]:
    """The jobs<=1 degenerate fleet: same contract, no processes.

    Exceptions are struck, retried with the same deterministic backoff
    (after the other ready cells) and reported as ``failed`` cells;
    crash/hang supervision needs a real worker process (use
    :class:`WorkerSupervisor` with ``jobs=1`` when ``cell_timeout``
    matters more than process-free debugging).
    """
    ledger = DispatchLedger(tasks, policy or FleetPolicy(), on_result)
    while ledger.pending > 0:
        now = time.monotonic()
        batch = ledger.dispatch("inline", now)
        if not batch:
            ready_at = ledger.next_ready()
            if ready_at is None:
                break  # defensive: nothing queued, nothing leased
            time.sleep(max(0.0, ready_at - now))
            continue
        key, payload, attempt = batch[0]
        try:
            value = worker_fn(payload, attempt)
        except Exception:
            ledger.result("inline", key, time.monotonic(), False,
                          traceback.format_exc())
        else:
            ledger.result("inline", key, now, True, value)
        ledger.release("inline")
    return ledger.outcomes
