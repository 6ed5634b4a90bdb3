"""Thread schedulers: the source (and the sink) of schedule non-determinism.

Production runs use :class:`RandomScheduler`, a seeded preemptive scheduler
modelling an OS scheduler with quantum jitter.  Replay runs use
:class:`FixedScheduler` (exact recorded interleaving) or
:class:`SyncOrderScheduler` (recorded synchronization order only - the
ODR-style relaxation that leaves racing instructions unordered).

Bound scheduling
----------------
A run binds its scheduler once: :meth:`Machine.run` and
:meth:`Machine.advance` call ``scheduler.bind(machine)`` and then call the
returned zero-argument pick once per step.  Binding captures what is fixed
for the run - the machine's runnable tid list (ascending, maintained in
place), its thread table, the inner scheduler's ``choose`` - so a step
pays one call instead of re-fetching all of that.

* Leaf schedulers (round-robin, random, fixed) implement
  ``choose(candidates)``: pick one tid from a non-empty ascending list.
  The default binding is ``choose`` over the runnable list.
* Filter schedulers (:class:`SyncOrderScheduler`, and the RCSE replayer's
  ``GuidedOrderScheduler``) specialise ``_bind``: the bound pick narrows
  the runnable list by the recorded order and hands the allowed tids to
  ``inner.choose``.  An inner scheduler must therefore implement
  ``choose``.
* ``pick(machine)`` is one step's choice on a fresh binding.  A subclass
  may override ``pick`` instead; ``bind`` then calls it every step.

Every decision's state (current thread, quantum, schedule and sync-order
cursors, the RNG stream) lives on the scheduler object, never in the
bound closure: ``Machine.snapshot()`` taken mid-run clones the scheduler,
and the copy must continue from exactly that state.  After every executed
step the machine calls ``notify(step)`` so stateful schedulers can
advance.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ReplayDivergenceError, SchedulerError
from repro.util.rng import DeterministicRng
from repro.vm.instructions import SYNC_OPS
from repro.vm.trace import StepRecord


class Scheduler:
    """Base scheduler interface."""

    def choose(self, candidates: Sequence[int]) -> int:
        """Return one tid of ``candidates`` (non-empty, ascending)."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither choose() nor pick()")

    def pick(self, machine) -> int:
        """Return the tid to execute next (must be runnable)."""
        if not machine.runnable_tids():
            raise SchedulerError("no runnable threads")
        return self._bind(machine)()

    def bind(self, machine) -> Callable[[], int]:
        """The pick for one run of ``machine``: a zero-argument callable
        returning the next tid, called once per step."""
        if type(self).pick is not Scheduler.pick:
            # A subclass that customises pick keeps the per-step protocol.
            return partial(self.pick, machine)
        return self._bind(machine)

    def _bind(self, machine) -> Callable[[], int]:
        """Build the bound pick; filter schedulers override this."""
        return partial(self.choose, machine.runnable_tids())

    def notify(self, step: StepRecord) -> None:
        """Called after each executed step; default is stateless."""

    def fork(self) -> "Scheduler":
        """Return a fresh scheduler with identical initial behaviour."""
        raise NotImplementedError

    def clone(self) -> "Scheduler":
        """Return a copy that continues from the *current* state.

        Unlike :meth:`fork` (which rewinds to the initial state), a clone
        is a mid-run checkpoint: the copy makes exactly the decisions the
        original would make from here on.  Machine snapshot/fork relies on
        this.  The default is a deep copy; schedulers holding references
        to external mutable state should override.
        """
        return copy.deepcopy(self)


class RoundRobinScheduler(Scheduler):
    """Deterministic round-robin with a fixed quantum."""

    def __init__(self, quantum: int = 1):
        if quantum < 1:
            raise SchedulerError("quantum must be >= 1")
        self.quantum = quantum
        self._current: Optional[int] = None
        self._remaining = 0

    def choose(self, candidates: Sequence[int]) -> int:
        current = self._current
        if current in candidates:
            if self._remaining > 0:
                self._remaining -= 1
                return current
            # Rotate: ``candidates`` is ascending, so the first tid past
            # the current one is the rotation target.
            chosen = next((t for t in candidates if t > current),
                          candidates[0])
        else:
            chosen = candidates[0]
        self._current = chosen
        self._remaining = self.quantum - 1
        return chosen

    def fork(self) -> "RoundRobinScheduler":
        return RoundRobinScheduler(self.quantum)

    def clone(self) -> "RoundRobinScheduler":
        twin = RoundRobinScheduler(self.quantum)
        twin._current = self._current
        twin._remaining = self._remaining
        return twin


class RandomScheduler(Scheduler):
    """Seeded preemptive scheduler modelling production non-determinism.

    Sticky-random: keeps the current thread with probability
    ``1 - switch_prob`` (quantum-like behaviour), otherwise switches to a
    uniformly chosen runnable thread.  Fully determined by its seed, which
    is what makes 'record the seed' a valid (full-determinism) recording
    strategy for schedule non-determinism in this substrate.
    """

    def __init__(self, seed: int = 0, switch_prob: float = 0.25):
        self.seed = seed
        self.switch_prob = switch_prob
        self._use_rng(DeterministicRng(seed, "sched"))
        self._current: Optional[int] = None

    def _use_rng(self, rng: DeterministicRng) -> None:
        self._rng = rng
        # The raw generator, so a step draws without the wrapper calls.
        self._stream = rng.stream

    def choose(self, candidates: Sequence[int]) -> int:
        # The same draws, in the same order, as ``rng.chance`` followed by
        # ``rng.choice``: keeping the current thread costs one draw.
        current = self._current
        stream = self._stream
        if current in candidates and stream.random() >= self.switch_prob:
            return current
        current = self._current = candidates[
            stream.randrange(len(candidates))]
        return current

    def fork(self) -> "RandomScheduler":
        return RandomScheduler(self.seed, self.switch_prob)

    def clone(self) -> "RandomScheduler":
        twin = RandomScheduler(self.seed, self.switch_prob)
        twin._use_rng(self._rng.clone())
        twin._current = self._current
        return twin


class FixedScheduler(Scheduler):
    """Replays an exact recorded thread interleaving.

    In strict mode any mismatch between the recorded schedule and the
    machine's runnable set raises :class:`ReplayDivergenceError`; this is
    the deterministic replayer's divergence detector.  When the schedule
    is exhausted the fallback round-robin takes over (used by partial
    recordings that pin only a prefix).
    """

    def __init__(self, schedule: Sequence[int], strict: bool = True):
        self.schedule = list(schedule)
        self.strict = strict
        self._index = 0
        self._fallback = RoundRobinScheduler()

    def choose(self, candidates: Sequence[int]) -> int:
        index = self._index
        if index >= len(self.schedule):
            return self._fallback.choose(candidates)
        tid = self.schedule[index]
        if tid not in candidates:
            if self.strict:
                raise ReplayDivergenceError(
                    f"schedule step {index}: thread {tid} is not "
                    f"runnable (runnable={list(candidates)})")
            return self._fallback.choose(candidates)
        return tid

    def notify(self, step: StepRecord) -> None:
        if self._index < len(self.schedule):
            self._index += 1

    def fork(self) -> "FixedScheduler":
        return FixedScheduler(self.schedule, self.strict)

    def clone(self) -> "FixedScheduler":
        twin = FixedScheduler(self.schedule, self.strict)
        twin._index = self._index
        twin._fallback = self._fallback.clone()
        return twin


class SyncOrderScheduler(Scheduler):
    """Enforces a recorded synchronization order, nothing more.

    This is the ODR-style relaxation: lock/unlock/spawn/join operations
    must happen in the recorded global order, but ordinary instructions -
    including *racing* shared-memory accesses - interleave freely under the
    inner scheduler.  Replay under this scheduler reproduces sync order
    while leaving race outcomes unconstrained, which is exactly the
    residual non-determinism output-deterministic systems must infer.
    """

    def __init__(self, sync_order: Sequence[Tuple[int, str, object]],
                 inner: Optional[Scheduler] = None):
        self.sync_order = list(sync_order)
        self._index = 0
        self._inner = inner or RoundRobinScheduler()

    def _bind(self, machine) -> Callable[[], int]:
        choose = self._inner.choose
        runnable = machine.runnable_tids()
        threads = machine.threads
        order = self.sync_order
        window = len(order)

        def pick() -> int:
            index = self._index
            if index >= window:
                # Past the recorded window: sync ops run freely.
                return choose(runnable)
            expected_tid, expected_op, _ = order[index]
            # A thread is held back only when its next instruction is a
            # sync operation other than the recorded one.
            allowed = []
            for tid in runnable:
                frames = threads[tid].frames
                if frames:
                    frame = frames[-1]
                    body = frame.function.body
                    pc = frame.pc
                    if pc < len(body):
                        op = body[pc].op
                        if op in SYNC_OPS and (tid != expected_tid
                                               or op != expected_op):
                            continue
                allowed.append(tid)
            if not allowed:
                raise ReplayDivergenceError(
                    f"sync-order replay stuck at event {index}: every "
                    f"runnable thread is at an out-of-order sync "
                    f"operation")
            return choose(allowed)

        return pick

    def notify(self, step: StepRecord) -> None:
        self._inner.notify(step)
        if (step.sync is not None and self._index < len(self.sync_order)):
            expected_tid, expected_op, _ = self.sync_order[self._index]
            if step.tid == expected_tid and step.op == expected_op:
                self._index += 1

    def fork(self) -> "SyncOrderScheduler":
        return SyncOrderScheduler(self.sync_order, self._inner.fork())

    def clone(self) -> "SyncOrderScheduler":
        twin = SyncOrderScheduler(self.sync_order, self._inner.clone())
        twin._index = self._index
        return twin
