"""Bound scheduling: one bound pick per run equals a pick per step.

``Machine.run`` binds its scheduler once (``scheduler.bind(machine)``)
and calls the returned pick every step.  These properties pin that the
bound run makes exactly the decisions of the per-step protocol - calling
``scheduler.pick(machine)`` on a fresh binding every step - for every
built-in scheduler over generated corpus guests: the same tid sequence,
trace digest, metered cycles and divergence errors.  Forks taken by an
observer mid-run must continue identically, because a scheduler keeps
its decision state on itself, never in the bound closure.

The guard tests keep the protocol's edges: a subclass that overrides only
``pick`` is still asked every step, a non-runnable pick is still a
``MachineError``, and a stuck sync-order replay still raises
``ReplayDivergenceError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import generate_case
from repro.errors import MachineError, ReplayDivergenceError, ReproError
from repro.record import SelectiveRecorder, record_run
from repro.replay.base import TidMapper
from repro.replay.selective_replay import GuidedOrderScheduler
from repro.vm import (FixedScheduler, RandomScheduler, RoundRobinScheduler,
                      SyncOrderScheduler, assemble)
from repro.vm.environment import Environment
from repro.vm.machine import Machine
from repro.vm.scheduler import Scheduler

MAX_STEPS = 20_000


def _recorded(corpus_seed):
    """A generated case and a selective recording of its failing run.

    The selective log carries everything the replay schedulers consume:
    the sync order, the control-plane step order and the thread spawns.
    """
    case = generate_case(corpus_seed)
    log = record_run(case.program,
                     SelectiveRecorder(control_plane=case.control_plane),
                     inputs=case.inputs, seed=case.failing_seed,
                     scheduler=case.production_scheduler(case.failing_seed),
                     io_spec=case.io_spec, net_drop_rate=case.net_drop_rate)
    return case, log


def _guided(log, seed):
    return GuidedOrderScheduler(
        log.sync_order, log.selective_order, set(log.control_plane),
        set(), TidMapper(log.thread_spawns),
        inner=RandomScheduler(seed=seed, switch_prob=0.3))


def _schedule(case, seed):
    """The production schedule of ``seed`` (replays ``_machine`` exactly)."""
    return case.run(seed, max_steps=MAX_STEPS).trace.schedule


SCHEDULERS = {
    "round_robin": lambda case, log, seed: RoundRobinScheduler(
        quantum=1 + seed % 4),
    "random": lambda case, log, seed: RandomScheduler(
        seed=seed, switch_prob=case.switch_prob),
    "fixed_strict": lambda case, log, seed: FixedScheduler(
        _schedule(case, seed), strict=True),
    # Another seed's schedule: stale steps fall back to round-robin.
    "fixed_lenient": lambda case, log, seed: FixedScheduler(
        _schedule(case, seed + 1), strict=False),
    "sync_order_random": lambda case, log, seed: SyncOrderScheduler(
        log.sync_order, inner=RandomScheduler(seed=seed, switch_prob=0.3)),
    "sync_order_round_robin": lambda case, log, seed: SyncOrderScheduler(
        log.sync_order, inner=RoundRobinScheduler(quantum=1 + seed % 3)),
    "guided_order": lambda case, log, seed: _guided(log, seed),
}


class Bound(Scheduler):
    """Binds ``inner`` once per run and logs every tid it picks."""

    def __init__(self, inner, picks):
        self.inner = inner
        self.picks = picks

    def bind(self, machine):
        pick = self.inner.bind(machine)
        picks = self.picks

        def logged():
            tid = pick()
            picks.append(tid)
            return tid

        return logged

    def notify(self, step):
        self.inner.notify(step)

    def clone(self):
        return Bound(self.inner.clone(), list(self.picks))


class PerStep(Bound):
    """The per-step protocol: ``inner.pick(machine)`` on every step.

    Overriding ``pick`` makes ``Scheduler.bind`` call it per step, and
    ``Scheduler.pick`` decides each step on a fresh binding.
    """

    bind = Scheduler.bind

    def pick(self, machine):
        tid = self.inner.pick(machine)
        self.picks.append(tid)
        return tid


def _machine(case, seed, scheduler):
    """A machine in the environment of production seed ``seed``."""
    machine = Machine(case.program,
                      env=Environment(inputs=case.inputs, seed=seed,
                                      net_drop_rate=case.net_drop_rate),
                      scheduler=scheduler, io_spec=case.io_spec,
                      max_steps=MAX_STEPS)
    _observe_spawns(machine)
    return machine


def _observe_spawns(machine):
    """The guided scheduler maps tids through the replay's spawn map."""
    mapper = getattr(machine.scheduler.inner, "mapper", None)
    if mapper is not None:
        machine.add_observer(mapper.observe)


def _finish(machine):
    """Run to the end; every observable the two protocols must share."""
    try:
        machine.run()
        error = None
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    return (machine.scheduler.picks, error, machine.trace.fingerprint(),
            machine.meter.native_cycles, machine.steps)


@pytest.mark.parametrize("kind", sorted(SCHEDULERS))
@settings(max_examples=6, deadline=None)
@given(corpus_seed=st.integers(0, 11), seed=st.integers(0, 1_000))
def test_bound_run_equals_per_step_pick(kind, corpus_seed, seed):
    case, log = _recorded(corpus_seed)
    make = SCHEDULERS[kind]
    bound = _finish(_machine(case, seed, Bound(make(case, log, seed), [])))
    reference = _machine(case, seed, PerStep(make(case, log, seed), []))
    assert _finish(reference) == bound
    if kind == "fixed_strict":
        assert bound[1] is None  # its own schedule replays exactly


@pytest.mark.parametrize("kind", sorted(SCHEDULERS))
@settings(max_examples=5, deadline=None)
@given(corpus_seed=st.integers(0, 11), seed=st.integers(0, 1_000),
       fork_at=st.integers(0, 250))
def test_fork_taken_mid_run_continues_identically(kind, corpus_seed, seed,
                                                  fork_at):
    case, log = _recorded(corpus_seed)
    machine = _machine(case, seed,
                       Bound(SCHEDULERS[kind](case, log, seed), []))
    forks = []

    def take_fork(m, record):
        if record.index == fork_at:
            forks.append(m.snapshot())

    machine.add_observer(take_fork)
    original = _finish(machine)
    if forks:  # else the run ended before the fork point
        fork = forks[0]
        _observe_spawns(fork)
        assert _finish(fork) == original


def test_bind_is_called_once_per_run_or_advance():
    case, log = _recorded(1)
    binds = []

    class Counted(Bound):
        def bind(self, machine):
            binds.append(machine)
            return super().bind(machine)

    machine = _machine(case, 4, Counted(RandomScheduler(seed=4), []))
    machine.advance(10)
    machine.run()
    assert len(binds) == 2
    assert len(machine.scheduler.picks) >= machine.steps > 10


# -- guards --------------------------------------------------------------------

THREADS = assemble("""
global counter = 0
mutex m
fn main():
    spawn %t1, worker, 5
    spawn %t2, worker, 5
    join %t1
    join %t2
    load %c, counter
    output "o", %c
    halt
fn worker(n):
loop:
    jz %n, done
    lock m
    load %c, counter
    add %c, %c, 1
    store counter, %c
    unlock m
    sub %n, %n, 1
    jmp loop
done:
    ret
""")


class Highest(Scheduler):
    def choose(self, candidates):
        return candidates[-1]


def test_subclass_overriding_only_pick_is_honoured():
    calls = []

    class HighestPick(RandomScheduler):
        def pick(self, machine):
            calls.append(machine.steps)
            return machine.runnable_tids()[-1]

    machine = Machine(THREADS, scheduler=HighestPick(seed=3)).run()
    highest = Machine(THREADS, scheduler=Highest()).run()
    sticky = Machine(THREADS, scheduler=RandomScheduler(seed=3)).run()
    assert machine.trace.schedule == highest.trace.schedule
    assert machine.trace.schedule != sticky.trace.schedule
    assert len(calls) >= machine.steps > 0


def test_pick_only_scheduler_still_works():
    class Lowest(Scheduler):
        def pick(self, machine):
            return machine.runnable_tids()[0]

    machine = Machine(THREADS, scheduler=Lowest()).run()
    assert machine.failure is None
    assert machine.env.outputs["o"] == [10]


def test_choose_only_scheduler_is_bound():
    machine = Machine(THREADS, scheduler=Highest()).run()
    assert machine.failure is None
    assert machine.env.outputs["o"] == [10]


@pytest.mark.parametrize("style", ["choose", "pick"])
def test_non_runnable_pick_raises_machine_error(style):
    class Ghost(Scheduler):
        def choose(self, candidates):
            return 99

    class GhostPick(Scheduler):
        def pick(self, machine):
            return 99

    scheduler = Ghost() if style == "choose" else GhostPick()
    with pytest.raises(MachineError, match="non-runnable thread 99"):
        Machine(THREADS, scheduler=scheduler).run()


def test_blocked_or_finished_thread_pick_raises_machine_error():
    class Insistent(RoundRobinScheduler):
        """Keeps picking thread 1 after it blocks or finishes."""

        def pick(self, machine):
            if 1 in machine.threads and not machine.threads[1].is_runnable:
                return 1
            return super().pick(machine)

    with pytest.raises(MachineError, match="non-runnable thread 1"):
        Machine(THREADS, scheduler=Insistent()).run()


def test_sync_order_stuck_raises_divergence():
    # The recorded order says thread 5 syncs first; main's first step is a
    # spawn, so no runnable thread may proceed.
    scheduler = SyncOrderScheduler([(5, "lock", "m")],
                                   inner=RandomScheduler(seed=1))
    with pytest.raises(ReplayDivergenceError, match="stuck at event 0"):
        Machine(THREADS, scheduler=scheduler).run()


def test_sync_order_stuck_through_per_step_pick():
    scheduler = SyncOrderScheduler([(5, "lock", "m")])
    with pytest.raises(ReplayDivergenceError, match="stuck at event 0"):
        scheduler.pick(Machine(THREADS))
