"""Seed collapse: schedule-free guests run each input assignment once.

For a guest with one thread and no seeded syscall, every schedule seed
replays the same execution, so :class:`ExecutionSearch` runs each input
assignment under its first seed only and charges that run to the rest.
The search outcome must not move: every test here compares the collapsed
search against the same search with the schedule-free predicate forced
off, on every :class:`SearchOutcome` field, and counts executed runs
(never wall-clock time).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.rootcause import enumerate_root_causes
from repro.apps import ALL_APPS
from repro.corpus import generate_case
from repro.models import DebugSession
from repro.replay.search import ExecutionSearch, InputSpace, SearchBudget
from repro.vm import RandomScheduler, assemble
from repro.vm.environment import Environment
from repro.vm.machine import Machine

# Corpus seeds of the input-crash class (one thread, no syscall).
INPUT_CRASH_SEEDS = (4, 10)


def outcome_view(outcome):
    """Every SearchOutcome field, machines replaced by trace digests."""
    view = dataclasses.asdict(dataclasses.replace(
        outcome, machine=None, all_accepted=[]))
    view["machine"] = (outcome.machine.trace.fingerprint()
                       if outcome.machine is not None else None)
    view["all_accepted"] = [m.trace.fingerprint()
                            for m in outcome.all_accepted]
    return view


@pytest.fixture
def outcomes(monkeypatch):
    """Record the view of every outcome ExecutionSearch.search returns."""
    seen = []
    real = ExecutionSearch.search

    def spy(self, *args, **kwargs):
        outcome = real(self, *args, **kwargs)
        seen.append(outcome_view(outcome))
        return outcome

    monkeypatch.setattr(ExecutionSearch, "search", spy)
    return seen


@pytest.fixture
def machine_runs(monkeypatch):
    """Count every Machine.run call."""
    calls = []
    real = Machine.run

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Machine, "run", counting)
    return calls


def collapsed_and_plain(monkeypatch, outcomes, scenario):
    """Run ``scenario`` twice: collapse on, then the predicate off."""
    scenario()
    collapsed = list(outcomes)
    outcomes.clear()
    with monkeypatch.context() as patch:
        patch.setattr(ExecutionSearch, "schedule_free", lambda self: False)
        scenario()
    assert collapsed, "the scenario ran no search"
    return collapsed, list(outcomes)


def replay_digest(session):
    trace = session.replay().trace
    return trace.fingerprint() if trace is not None else None


def session_scenario(app, model, **overrides):
    """Record once; each call replays a fresh session on that log."""
    recorded = DebugSession(ALL_APPS[app](), model, **overrides)
    recorded.record()
    digests = []

    def scenario():
        session = DebugSession(recorded.case, model, seed=recorded.seed,
                               **overrides)
        digests.append(replay_digest(session.attach(recorded.log)))
    return scenario, digests


# -- equivalence --------------------------------------------------------------

@pytest.mark.parametrize("app,model,overrides", [
    ("overflow", "failure", {}),
    ("adder", "failure", {}),
    ("adder", "output-only", {"search_attempts": 200}),
])
def test_collapse_keeps_session_search_outcome(monkeypatch, outcomes, app,
                                               model, overrides):
    scenario, digests = session_scenario(app, model, **overrides)
    collapsed, plain = collapsed_and_plain(monkeypatch, outcomes, scenario)
    assert collapsed == plain
    assert digests[0] is not None and digests[0] == digests[1]


@pytest.mark.parametrize("corpus_seed", INPUT_CRASH_SEEDS)
def test_collapse_keeps_root_cause_enumeration(monkeypatch, outcomes,
                                               corpus_seed):
    case = generate_case(corpus_seed)
    assert case.bug_class == "input-crash"
    failure = case.run(case.failing_seed).failure
    causes = []

    def search():
        return ExecutionSearch(
            case.program, case.input_space, schedule_seeds=range(24),
            io_spec=case.io_spec, net_drop_rate=case.net_drop_rate,
            switch_prob=case.switch_prob)

    def scenario():
        causes.append(enumerate_root_causes(
            search(), failure, budget=SearchBudget(max_attempts=120)))

    assert search().schedule_free()

    collapsed, plain = collapsed_and_plain(monkeypatch, outcomes, scenario)
    assert collapsed == plain
    assert causes[0] == causes[1] and len(causes[0]) == 1


def test_collapse_reruns_a_seed_its_ceiling_would_cut(monkeypatch, outcomes):
    """A reused run at least as long as the seed's remaining allowance is
    not reused: that seed runs for real and is capped exactly as it
    would be without the collapse."""
    case = ALL_APPS["overflow"]()
    reruns = []
    real = ExecutionSearch._rerun_from_start

    def spy(first, remaining, early_abort):
        reruns.append(remaining)
        return real(first, remaining, early_abort)

    monkeypatch.setattr(ExecutionSearch, "_rerun_from_start",
                        staticmethod(spy))

    def scenario():
        search = ExecutionSearch(case.program, case.input_space,
                                 schedule_seeds=range(48),
                                 io_spec=case.io_spec)
        # Each run costs ~130 cycles, so the ceiling lands mid-way
        # through the first assignment's seeds, not on a first seed.
        search.search(lambda m: False,
                      budget=SearchBudget(max_cycles=1000))

    collapsed, plain = collapsed_and_plain(monkeypatch, outcomes, scenario)
    assert collapsed == plain
    assert len(reruns) == 1
    assert collapsed[0]["capped_candidates"] == 1
    assert collapsed[0]["inference_cycles"] >= 1000


# -- negative cases: the seed can matter, so every seed runs ------------------

SPAWN_SRC = """
global total = 0
fn main():
    input %x, "in"
    spawn %a, worker, %x
    join %a
    load %t, total
    output "out", %t
    halt
fn worker(n):
    store total, %n
    ret
"""

RANDOM_SRC = """
fn main():
    input %x, "in"
    syscall %r, "random", 10
    add %t, %x, %r
    output "out", %t
    halt
"""

NET_SRC = """
fn main():
    input %x, "in"
    syscall %ok, "net_send", "wire", %x
    syscall %now, "time"
    syscall %more, "has_input", "in"
    output "out", %ok
    halt
"""


def runs_per_search(machine_runs, search, seeds=4):
    before = len(machine_runs)
    outcome = search.search(lambda m: False,
                            budget=SearchBudget(max_attempts=seeds))
    assert outcome.attempts == seeds
    return len(machine_runs) - before


def fixed_search(src, **kwargs):
    return ExecutionSearch(assemble(src), InputSpace.fixed({"in": [3]}),
                           schedule_seeds=range(4), **kwargs)


def test_schedule_free_guest_runs_one_seed(machine_runs):
    search = fixed_search(NET_SRC)
    assert search.schedule_free()
    assert runs_per_search(machine_runs, search) == 1


@pytest.mark.parametrize("src,kwargs", [
    (SPAWN_SRC, {}),
    (RANDOM_SRC, {}),
    (NET_SRC, {"net_drop_rate": 0.5}),
    (NET_SRC, {"scheduler_factory":
               lambda seed: RandomScheduler(seed=seed)}),
    (NET_SRC, {"env_factory":
               lambda inputs, seed: Environment(inputs=inputs, seed=seed)}),
], ids=["spawn", "random", "lossy-net-send", "custom-scheduler",
        "custom-env"])
def test_seed_sensitive_search_runs_every_seed(machine_runs, src, kwargs):
    search = fixed_search(src, **kwargs)
    assert not search.schedule_free()
    assert runs_per_search(machine_runs, search) == 4


# -- regression count -----------------------------------------------------------

def test_overflow_synthesis_runs_each_distinct_execution_once(machine_runs):
    """385 attempts over 8 rejected batches x 48 seeds + the crash, but
    only 9 distinct executions plus the accepted run's materialization."""
    case = ALL_APPS["overflow"]()
    recorded = DebugSession(case, "failure")
    recorded.record()
    session = DebugSession(case, "failure", seed=recorded.seed)
    session.attach(recorded.log)
    before = len(machine_runs)
    result = session.replay()
    assert (result.attempts, result.inference_cycles) == (385, 50_016)
    assert len(machine_runs) - before <= 9 + 1


# -- property: collapse equals the per-seed search ------------------------------

@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus_seed=st.sampled_from(range(4, 40, 6)) | st.integers(0, 11),
       max_attempts=st.integers(1, 200),
       max_cycles=st.integers(1, 40_000),
       collect=st.booleans())
def test_collapsed_search_equals_per_seed_search(
        monkeypatch, corpus_seed, max_attempts, max_cycles, collect):
    case = generate_case(corpus_seed)
    failure = case.run(case.failing_seed).failure
    budget = SearchBudget(max_attempts=max_attempts, max_cycles=max_cycles)

    def accept(machine):
        return failure.same_failure(machine.failure)

    def outcome():
        search = ExecutionSearch(
            case.program, case.input_space, schedule_seeds=range(24),
            io_spec=case.io_spec, net_drop_rate=case.net_drop_rate,
            switch_prob=case.switch_prob)
        return outcome_view(search.search(accept, budget=budget,
                                          collect_all=collect))

    collapsed = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(ExecutionSearch, "schedule_free", lambda self: False)
        assert collapsed == outcome()

