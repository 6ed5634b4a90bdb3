"""Socket-based remote worker fleet: leases, heartbeats, degraded mode.

The paper's deployment story is a *distributed* one - a production
fleet records failures, developer workstations replay them - and this
module is that split made real for the experiment matrix:

- :class:`RemoteCoordinator` is the workstation side.  It listens on a
  TCP port, accepts worker connections (``repro fleet worker --connect
  HOST:PORT``), and dispatches cells under **lease-based at-least-once
  semantics**: every dispatched cell carries a lease deadline, worker
  heartbeats renew it, and an expired lease - crashed host, network
  partition, hung guest - requeues the cell with the same deterministic
  :func:`~repro.corpus.fleet.retry_seed` backoff the local supervisor
  uses.  At-least-once delivery means a re-dispatched cell's original
  result can still arrive late (or a faulty link can deliver a result
  twice); the coordinator finalizes each cell exactly once and drops
  the duplicates, so journaled rows - pure functions of (seed, model) -
  stay byte-identical regardless of delivery order.
- :func:`serve_worker` is the production-host side: a loop that
  connects, handshakes, runs leased cells (each in a budgeted thread so
  a hung guest is *abandoned*, not fatal to the worker), heartbeats
  while a cell runs, and streams results back.  Recordings cross the
  wire only as attested payload strings inside JSON frames
  (:mod:`repro.corpus.protocol`); a tampered frame is quarantined
  per-cell by the attestation layer exactly like a corrupted file.
- **Degraded mode**: a coordinator with no connected workers (none ever
  arrived, or every one died mid-sweep) waits ``worker_wait`` seconds
  for the fleet to (re)appear, then falls back to the local runner it
  was configured with - journaled progress is kept, only cells with no
  terminal outcome are handed over, and the sweep still completes.

The coordinator implements the same ``run(tasks, on_result)`` contract
as :class:`~repro.corpus.fleet.WorkerSupervisor` on the same
:class:`~repro.corpus.fleet.DispatchLedger` - queue, leases, backoff,
dedupe and finalization are decided there, once per run, and this
module owns only sockets, frames, ``select`` and the degraded-mode
fallback.  ``run_matrix`` swaps backends without touching phase logic,
and one coordinator serves both the record and replay phases over the
same connected fleet.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.corpus.fleet import CellOutcome, DispatchLedger, FleetPolicy
from repro.corpus.protocol import (FrameReader, ProtocolError, abandon_frame,
                                   check_hello, decode_value, encode_frame,
                                   heartbeat_frame, hello_frame, recv_frame,
                                   reject_frame, result_frame, send_frame,
                                   stop_frame, task_frame)
from repro.errors import ReproError
from repro.harness.faults import FaultPlan

# Lease renewals are heartbeat-driven; the lease is the heartbeat-loss
# tolerance (partition detector), not the cell budget - a healthy slow
# cell heartbeats its lease alive, a hung guest is caught by the
# worker-side budget (abandon) and, failing that, by lease expiry.
DEFAULT_LEASE_SECONDS = 5.0
DEFAULT_WORKER_WAIT = 10.0
_POLL_SECONDS = 0.05


class _RemoteWorker:
    """Coordinator-side handle on one connected worker."""

    __slots__ = ("sock", "reader", "worker_id")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = FrameReader()
        self.worker_id: Optional[str] = None  # set by the hello frame

    def send(self, frame: Dict[str, Any],
             timeout: float = 5.0) -> None:
        """Blocking send with a bound (reads stay non-blocking).

        Task frames carry whole recordings; ``sendall`` on the
        coordinator's non-blocking socket would raise the moment the
        kernel buffer filled, so sends flip to a bounded timeout.
        """
        self.sock.settimeout(timeout)
        try:
            send_frame(self.sock, frame)
        finally:
            self.sock.setblocking(False)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteCoordinator:
    """Dispatch cells to socket-connected workers under leases.

    Construct with a ``(host, port)`` listen address (port 0 binds an
    ephemeral port; read :attr:`address` for the real one), then
    :meth:`configure` the run policy / fault plan / degraded-mode
    fallback and call :meth:`run` - once per phase; workers persist
    across calls.  The coordinator is a context manager: leaving the
    block sends every connected worker a ``stop`` frame and closes the
    listener.
    """

    def __init__(self, listen: Tuple[str, int] = ("127.0.0.1", 0),
                 policy: Optional[FleetPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 worker_wait: float = DEFAULT_WORKER_WAIT,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 fallback: Optional[Callable[..., Dict[str, CellOutcome]]]
                 = None):
        self.policy = policy or FleetPolicy()
        self.faults = faults
        self.worker_wait = worker_wait
        self.lease_seconds = lease_seconds
        self.fallback = fallback
        self.workers: List[_RemoteWorker] = []
        self.stats: Dict[str, Any] = {
            "workers_seen": 0, "worker_disconnects": 0,
            "expired_leases": 0, "abandoned_cells": 0,
            "duplicate_results": 0, "degraded": False,
            "degraded_cells": 0,
        }
        self._degraded = False
        self._last_worker_event = time.monotonic()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(listen)
        self._listener.listen(16)
        self._listener.setblocking(False)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    def configure(self, policy: Optional[FleetPolicy] = None,
                  faults: Optional[FaultPlan] = None,
                  fallback: Optional[Callable[..., Dict[str, CellOutcome]]]
                  = None) -> "RemoteCoordinator":
        """Late-bind the per-run knobs (``run_matrix`` owns these)."""
        if policy is not None:
            self.policy = policy
        if faults is not None:
            self.faults = faults
        if fallback is not None:
            self.fallback = fallback
        return self

    def __enter__(self) -> "RemoteCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker, close the listener (idempotent)."""
        workers, self.workers = self.workers, []
        for worker in workers:
            try:
                worker.send(stop_frame())
            except OSError:
                pass
            worker.close()
        try:
            self._listener.close()
        except OSError:
            pass

    # -- connection plumbing ------------------------------------------------

    def _accept_new(self) -> None:
        while True:
            try:
                sock, __ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.workers.append(_RemoteWorker(sock))

    def _drop(self, worker: _RemoteWorker) -> None:
        """Forget a dead/expired worker (its lease is the ledger's)."""
        worker.close()
        if worker in self.workers:
            self.workers.remove(worker)
        if worker.worker_id is not None:
            self.stats["worker_disconnects"] += 1
        self._last_worker_event = time.monotonic()

    def _send_task(self, worker: _RemoteWorker, key: str, payload: Any,
                   attempt: int) -> bool:
        """Send one leased cell to one worker; False if the send failed."""
        frame = task_frame(key, payload, attempt,
                           lease_seconds=self.lease_seconds,
                           heartbeat_seconds=max(0.05,
                                                 self.lease_seconds / 4.0),
                           budget=self.policy.cell_timeout,
                           faults=self.faults)
        try:
            worker.send(frame)
        except (OSError, ProtocolError):
            self._drop(worker)
            return False
        return True

    def _handle(self, ledger: DispatchLedger, worker: _RemoteWorker,
                frame: Dict[str, Any]) -> None:
        ftype = frame.get("type")
        if ftype == "hello":
            try:
                worker.worker_id = check_hello(frame)
            except ProtocolError as exc:
                try:
                    worker.send(reject_frame(str(exc)))
                except OSError:
                    pass
                self._drop(worker)
                return
            self.stats["workers_seen"] += 1
            self._last_worker_event = time.monotonic()
            return
        key = frame.get("key")
        held = key is not None and ledger.in_flight(worker) == key
        if ftype == "heartbeat":
            if held:
                ledger.renew(worker, time.monotonic())
        elif ftype == "abandon":
            if held:
                self.stats["abandoned_cells"] += 1
                ledger.fail(worker, "timeout", time.monotonic(),
                            lambda key: f"cell {key!r} abandoned by "
                                        f"worker {worker.worker_id}: "
                                        f"{frame.get('reason', '')}")
        elif ftype == "result":
            if not held:
                # Late arrival after re-dispatch, or a duplicated
                # delivery: the cell is (or will be) finalized by
                # exactly one copy; drop the rest idempotently.
                self.stats["duplicate_results"] += 1
                return
            ok = frame.get("status") == "ok"
            ledger.result(worker, key, time.monotonic(), ok,
                          decode_value(frame.get("value")) if ok
                          else frame.get("error", ""))
            ledger.release(worker)

    # -- the run loop -------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[str, Any]],
            on_result: Optional[Callable[[CellOutcome], None]] = None
            ) -> Dict[str, CellOutcome]:
        """Run every (key, payload) task to a terminal status.

        The :class:`~repro.corpus.fleet.WorkerSupervisor` contract:
        every key terminal, ``on_result`` fired exactly once per cell as
        it finalizes (at-least-once delivery is deduplicated *before*
        this hook, so journal appends stay exactly-once).
        """
        ledger = DispatchLedger(tasks, self.policy, on_result,
                                ttl=self.lease_seconds)
        if not tasks:
            return ledger.outcomes
        if self._degraded:  # a prior phase already lost the fleet
            return self._degrade(ledger, on_result)
        self._last_worker_event = time.monotonic()

        while ledger.pending > 0:
            self._accept_new()
            now = time.monotonic()

            # Lease one ready cell to each handshaken idle worker.
            for worker in list(self.workers):
                if worker.worker_id is None or ledger.holds(worker):
                    continue
                batch = ledger.dispatch(worker, now)
                if not batch:
                    break
                if not self._send_task(worker, *batch[0]):
                    ledger.release(worker)

            # Degraded mode: no fleet, and none appearing.
            if not self.workers and (now - self._last_worker_event
                                     > self.worker_wait):
                return self._degrade(ledger, on_result)

            # Wait for frames, bounded so leases/backoffs stay live.
            socks = [self._listener] + [w.sock for w in self.workers]
            try:
                readable, __, __ = select.select(socks, [], [],
                                                 _POLL_SECONDS)
            except (OSError, ValueError):
                readable = []  # a socket died under us; next loop reaps

            for worker in list(self.workers):
                if worker.sock not in readable:
                    continue
                try:
                    data = worker.sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    data = b""
                if not data:
                    # EOF: a tear inside a frame is a mid-frame drop;
                    # either way the leased cell is charged a crash.
                    self._drop(worker)
                    ledger.fail(worker, "crash", time.monotonic(),
                                lambda key: f"remote worker disconnected "
                                            f"running {key!r}")
                    continue
                worker.reader.feed(data)
                try:
                    for frame in worker.reader:
                        self._handle(ledger, worker, frame)
                except ProtocolError as exc:
                    self._drop(worker)
                    ledger.fail(worker, "crash", time.monotonic(),
                                lambda key: f"protocol violation running "
                                            f"{key!r}: {exc}")

            # Lease expiry: a silent worker is a partitioned worker.
            now = time.monotonic()
            for worker in ledger.expired(now):
                self.stats["expired_leases"] += 1
                self._drop(worker)
                ledger.fail(worker, "timeout", now,
                            lambda key: f"lease on {key!r} expired after "
                                        f"{self.lease_seconds}s without a "
                                        f"heartbeat (worker "
                                        f"{worker.worker_id or '?'})")
        return ledger.outcomes

    def _degrade(self, ledger: DispatchLedger,
                 on_result) -> Dict[str, CellOutcome]:
        """Hand every non-terminal cell to the local fallback runner.

        Journaled progress survives by construction: cells the remote
        fleet finalized already fired ``on_result`` and are no longer
        unfinished, so the fallback recomputes nothing that landed.
        """
        remaining = ledger.unfinished()
        self._degraded = True
        self.stats["degraded"] = True
        self.stats["degraded_cells"] += len(remaining)
        if self.fallback is None:
            raise ReproError(
                "remote fleet has no connected workers and no local "
                "fallback was configured")
        ledger.outcomes.update(self.fallback(remaining, on_result=on_result))
        return ledger.outcomes


# -- the worker service -------------------------------------------------------


def _run_leased_cell(sock: socket.socket, frame: Dict[str, Any],
                     worker_fn: Callable[[Any, int], Any]) -> bool:
    """Execute one leased cell; returns False when the connection must
    be abandoned (drop fault or send failure) so the caller reconnects.

    The cell runs in a daemon thread so a hung guest can be *abandoned*
    at its budget - the worker stays alive to serve the next lease, the
    zombie thread's eventual result is discarded, and the coordinator
    requeues the cell (fast path; lease expiry is the partition path).
    Heartbeats are sent from this thread between bounded joins, renewing
    the coordinator's lease only while the cell is genuinely live.
    """
    key = frame["key"]
    attempt = int(frame.get("attempt", 0))
    payload = decode_value(frame["payload"])
    budget = frame.get("budget")
    heartbeat = float(frame.get("heartbeat", 1.0))
    faults = decode_value(frame["faults"]) if "faults" in frame else None
    kind = faults.net_fault(key, attempt) if faults is not None else None
    if kind == "kill":
        # The fleet-host loss analogue: the process vanishes with the
        # lease held; no goodbye, no cleanup.
        os._exit(3)

    holder: Dict[str, Any] = {}

    def call() -> None:
        try:
            holder["value"] = worker_fn(payload, attempt)
            holder["status"] = "ok"
        except BaseException:
            holder["status"] = "error"
            holder["error"] = traceback.format_exc()

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    deadline = (time.monotonic() + float(budget)
                if budget is not None else None)
    while thread.is_alive():
        if deadline is not None and time.monotonic() > deadline:
            try:
                send_frame(sock, abandon_frame(
                    key, f"exceeded {budget}s cell budget"))
            except OSError:
                return False
            return True  # zombie thread abandoned; keep serving
        thread.join(heartbeat)
        if thread.is_alive():
            try:
                send_frame(sock, heartbeat_frame(key))
            except OSError:
                return False  # coordinator hung up mid-cell

    if kind == "stall":
        # Wedge silently past the lease: no heartbeats, then a late
        # result - which arrives after re-dispatch and must be deduped.
        time.sleep(float(frame.get("lease", DEFAULT_LEASE_SECONDS)) * 2.5)
    if holder["status"] == "ok":
        out = result_frame(key, "ok", value=holder.get("value"))
    else:
        out = result_frame(key, "error", error=holder.get("error", ""))
    data = encode_frame(out)
    try:
        if kind == "drop":
            # Mid-frame connection drop: half a frame, then hang up.
            sock.sendall(data[:max(1, len(data) // 2)])
            return False
        sock.sendall(data)
        if kind == "dup":
            sock.sendall(data)  # duplicate delivery
    except OSError:
        return False
    return True


def _serve_connection(sock: socket.socket,
                      worker_fn: Callable[[Any, int], Any],
                      worker_id: str,
                      should_depart: Optional[Callable[[], bool]] = None
                      ) -> str:
    """Serve one coordinator connection.

    Returns ``"stop"`` on a clean coordinator stop, ``"depart"`` when
    ``should_depart`` says this worker's shift is over, ``"dropped"``
    when the connection died and the caller should reconnect.
    """
    send_frame(sock, hello_frame(worker_id))
    while True:
        try:
            frame = recv_frame(sock)
        except (EOFError, ProtocolError, OSError):
            return "dropped"
        ftype = frame.get("type")
        if ftype in ("stop", "reject"):
            return "stop"
        if ftype != "task":
            continue  # future-proof: unknown frames are skipped
        if not _run_leased_cell(sock, frame, worker_fn):
            return "dropped"
        if should_depart is not None and should_depart():
            return "depart"


def serve_worker(host: str, port: int,
                 worker_fn: Optional[Callable[[Any, int], Any]] = None,
                 worker_id: Optional[str] = None,
                 reconnect_attempts: int = 10,
                 reconnect_delay: float = 0.5,
                 max_cells: Optional[int] = None) -> bool:
    """Run one remote worker until stopped (the ``repro fleet worker``
    service loop).

    Connects to the coordinator, serves leased cells, and *reconnects*
    after a dropped connection - only consecutive connection refusals
    count against ``reconnect_attempts`` (a coordinator that is gone
    for good).  ``worker_fn`` defaults to the matrix cell executor, so
    a bare ``repro fleet worker --connect HOST:PORT`` serves corpus
    sweeps.  ``max_cells`` bounds how many cells this worker serves
    before departing (the test harness's deterministic "host leaves
    mid-sweep" lever).  Returns True on a clean coordinator stop.
    """
    if worker_fn is None:
        from repro.corpus.matrix import _fleet_cell as worker_fn
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    served = 0

    def counting_fn(payload: Any, attempt: int) -> Any:
        nonlocal served
        value = worker_fn(payload, attempt)
        served += 1
        return value

    def shift_over() -> bool:
        return max_cells is not None and served >= max_cells

    refused = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            refused += 1
            if refused > reconnect_attempts:
                return False
            time.sleep(reconnect_delay)
            continue
        refused = 0
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            verdict = _serve_connection(sock, counting_fn, worker_id,
                                        should_depart=shift_over)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if verdict == "stop":
            return True
        if verdict == "depart" or shift_over():
            return False  # this host's shift is over
        time.sleep(reconnect_delay)
