"""Scheduling cost of an output-deterministic replay attempt.

An ODR replay attempt (``OdrReplayer``'s inner-seed loop) runs the guest
under ``SyncOrderScheduler`` over a ``RandomScheduler``: every step first
filters the runnable threads by the recorded synchronization order, then
lets the random scheduler choose among the allowed ones.  This file pins
what that filter costs per step, as a ratio to a plain ``RandomScheduler``
run of the same guest with the same inputs, both trace-free
(``trace_mode="counting"``).  Both sides are timed in one process,
interleaved, as a median of seven samples, so the floor is a ratio and
holds on slow and fast hosts alike.

The ODR side also pays for the attempt's tid-mapping observer and its
input/syscall interceptor, so the ratio cannot reach 1.0.  A per-step
``pick(machine)`` that builds a restricted machine proxy and re-walks the
runnable threads through ``peek_instr`` measured about 1.8; the per-run
bound pick measures about 1.5 (2-vCPU Xeon, Python 3.11).

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_scheduler.py
"""

import statistics
import time

import pytest

from repro.apps import racy_counter
from repro.apps.base import find_failing_seed
from repro.record import OutputMode, OutputRecorder, record_run
from repro.replay import OdrReplayer
from repro.vm import Environment, Machine, RandomScheduler

pytestmark = pytest.mark.perf

SAMPLES = 7
SEEDS = range(40)
MAX_RATIO = 1.65


@pytest.fixture(scope="module")
def recorded():
    case = racy_counter.make_case()
    seed = find_failing_seed(case)
    log = record_run(case.program, OutputRecorder(OutputMode.IO_PATH_SCHED),
                     inputs=case.inputs, seed=seed,
                     scheduler=case.production_scheduler(seed),
                     io_spec=case.io_spec)
    return case, log


def _odr_attempt(case, log, seed):
    return OdrReplayer()._run_once(case.program, log, case.io_spec, seed,
                                   trace_mode="counting")


def _plain_run(case, log, seed):
    machine = Machine(case.program, env=Environment(inputs=log.inputs),
                      scheduler=RandomScheduler(seed=seed, switch_prob=0.3),
                      io_spec=case.io_spec,
                      max_steps=max(log.total_steps * 4, 1000),
                      trace_mode="counting")
    return machine.run()


def _seconds_per_step(run, case, log):
    steps = 0
    start = time.perf_counter()
    for seed in SEEDS:
        steps += run(case, log, seed).steps
    return (time.perf_counter() - start) / steps


def test_sync_order_attempt_per_step_cost_ratio(recorded):
    case, log = recorded
    # Warm the decode cache and both code paths before timing.
    _seconds_per_step(_odr_attempt, case, log)
    _seconds_per_step(_plain_run, case, log)
    odr, plain = [], []
    for _ in range(SAMPLES):
        odr.append(_seconds_per_step(_odr_attempt, case, log))
        plain.append(_seconds_per_step(_plain_run, case, log))
    ratio = statistics.median(odr) / statistics.median(plain)
    print(f"\nODR attempt {statistics.median(odr) * 1e6:.2f} us/step, "
          f"plain random {statistics.median(plain) * 1e6:.2f} us/step, "
          f"ratio {ratio:.2f} (floor {MAX_RATIO})")
    assert ratio <= MAX_RATIO, (
        f"sync-order attempt costs {ratio:.2f}x a plain random run per "
        f"step (limit {MAX_RATIO}x)")
