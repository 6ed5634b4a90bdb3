"""The dispatch ledger: one cell state machine under every fleet runner.

:class:`~repro.corpus.fleet.DispatchLedger` decides everything about the
cells of one ``run()`` without a clock, so its property runs on plain
float timestamps: random task sets, policies and event scripts (results,
crashes, abandons, lease expiry, late and duplicate deliveries, requeues
of unstarted batch cells) must leave every key terminal exactly once
with a consistent strike ledger.  The contract test then runs one toy
task list through the inline, pipe and socket runners and requires the
same outcomes from all three.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.fleet import (_STRIKE_STATUS, CellStatus, DispatchLedger,
                                FleetPolicy, WorkerSupervisor, run_inline)
from repro.corpus.remote import RemoteCoordinator, serve_worker

OWNERS = ("w0", "w1", "w2")

KINDS = ("advance", "dispatch", "dispatch", "ok", "dup", "error", "crash",
         "abandon", "release", "heartbeat", "expire", "late")

# Every event is (kind, owner, n): ``n`` is the batch size of a
# dispatch, the key index of a late result and the clock step of an
# advance (one draw per event keeps generation cheap).
EVENTS = [(kind, owner, n) for kind in KINDS for owner in OWNERS
          for n in range(1, 7)]
STEPS = (0.7, 0.0, 0.01, 0.1)
_events = st.lists(st.sampled_from(EVENTS), min_size=15, max_size=40)
_policies = st.builds(FleetPolicy,
                      retries=st.integers(0, 2),
                      backoff_base=st.sampled_from([0.0, 0.05, 0.3]),
                      backoff_cap=st.sampled_from([0.1, 30.0]))


def _snapshot(ledger):
    return {key: (o.status, o.attempts, list(o.strikes), o.value, o.error)
            for key, o in ledger.outcomes.items()}


class _Driver:
    """Applies events to a ledger and checks each decision against a
    small model of who holds what and when each lease expires."""

    def __init__(self, n_tasks, policy, ttl):
        self.keys = [f"k{index}" for index in range(n_tasks)]
        self.policy = policy
        self.fired = []
        self.ledger = DispatchLedger(
            [(key, index) for index, key in enumerate(self.keys)],
            policy, self.fired.append, ttl=ttl)
        self.ttl = ttl
        self.now = 0.0
        self.held = {}       # owner -> keys not yet reported, in order
        self.deadline = {}   # owner -> lease deadline
        self.struck_at = {}  # key -> time of its latest strike

    def dispatch(self, owner, limit):
        if self.held.get(owner):
            return  # still running its batch
        self.ledger.release(owner)  # a fully reported batch: idle again
        self.end_lease(owner)
        batch = self.ledger.dispatch(owner, self.now, limit)
        assert len(batch) <= limit
        for key, payload, attempt in batch:
            outcome = self.ledger.outcomes[key]
            assert outcome.status == "pending"
            assert payload == self.keys.index(key)
            assert attempt == len(outcome.strikes)
            if attempt:  # never handed out before its backoff elapsed
                assert self.now >= (self.struck_at[key]
                                    + self.policy.backoff(key, attempt))
        if batch:
            self.held[owner] = [key for key, __, __ in batch]
            self.renewed(owner)

    def renewed(self, owner):
        if self.ttl is not None and owner in self.held:
            self.deadline[owner] = self.now + self.ttl

    def end_lease(self, owner):
        self.held.pop(owner, None)
        self.deadline.pop(owner, None)

    def report(self, owner, ok):
        key = self.ledger.in_flight(owner)
        if key is None:
            return None
        if not ok:
            self.struck_at[key] = self.now
        assert self.ledger.result(owner, key, self.now, ok,
                                  ("v", key) if ok else "boom")
        self.held[owner].pop(0)
        self.renewed(owner)
        return key

    def lose(self, owner, kind):
        key = self.ledger.in_flight(owner)
        if key is not None:
            self.struck_at[key] = self.now
        self.ledger.fail(owner, kind, self.now, lambda k: f"{kind} {k}")
        self.end_lease(owner)

    def late(self, owner, key):
        """A result for a cell ``owner`` does not hold changes nothing."""
        before, fired = _snapshot(self.ledger), len(self.fired)
        assert not self.ledger.result(owner, key, self.now, True, "late")
        assert _snapshot(self.ledger) == before
        assert len(self.fired) == fired

    def apply(self, kind, owner, n):
        if kind == "advance":
            self.now += STEPS[n % len(STEPS)]
        elif kind == "dispatch":
            self.dispatch(owner, n)
        elif kind in ("ok", "error"):
            self.report(owner, kind == "ok")
        elif kind == "dup":
            key = self.report(owner, True)
            if key is not None:
                self.late(owner, key)
        elif kind == "crash":
            self.lose(owner, "crash")
        elif kind == "abandon":
            self.lose(owner, "timeout")
        elif kind == "release":
            self.ledger.release(owner)
            self.end_lease(owner)
        elif kind == "heartbeat":
            self.ledger.renew(owner, self.now)
            self.renewed(owner)
        elif kind == "expire":
            for lost in self.ledger.expired(self.now):
                self.lose(lost, "timeout")
        elif kind == "late":
            key = self.keys[n % len(self.keys)]
            if key not in self.held.get(owner, []):
                self.late(owner, key)
        for owner in OWNERS:
            held = self.held.get(owner)
            assert self.ledger.in_flight(owner) == (held[0] if held
                                                    else None)
        assert set(self.ledger.expired(self.now)) == {
            owner for owner, deadline in self.deadline.items()
            if self.now > deadline}

    def drain(self):
        """Finish every held cell, then hand out the rest as it ripens."""
        while self.ledger.pending:
            for owner in list(self.held):
                while self.held[owner]:
                    self.report(owner, True)
                self.ledger.release(owner)
                self.end_lease(owner)
            if not self.ledger.pending:
                break
            ready_at = self.ledger.next_ready()
            assert ready_at is not None, "pending cells must be queued"
            self.now = max(self.now, ready_at)
            self.dispatch("w0", 3)


@settings(max_examples=60, deadline=None)
@given(n_tasks=st.integers(1, 6), policy=_policies,
       ttl=st.sampled_from([None, 0.05, 0.5]), script=_events)
def test_ledger_finalizes_every_cell_once_under_any_event_script(
        n_tasks, policy, ttl, script):
    driver = _Driver(n_tasks, policy, ttl)
    for event in script:
        driver.apply(*event)
    driver.drain()
    ledger = driver.ledger

    assert sorted(o.key for o in driver.fired) == sorted(driver.keys)
    assert list(ledger.outcomes) == driver.keys  # input order
    for key, outcome in ledger.outcomes.items():
        assert outcome.status in CellStatus.TERMINAL
        assert outcome.attempts == len(outcome.strikes) + outcome.ok
        if outcome.ok:
            assert outcome.value == ("v", key)
        else:
            last = outcome.strikes[-1]
            assert outcome.status == _STRIKE_STATUS[last]
            assert outcome.error == ("boom" if last == "error"
                                     else f"{last} {key}")
            assert len(outcome.strikes) == policy.retries + 1
            assert outcome.value is None
    assert ledger.unfinished() == []


def test_release_requeues_unstarted_cells_first_in_input_order():
    ledger = DispatchLedger([(f"k{i}", i) for i in range(5)],
                            FleetPolicy())
    assert [k for k, __, __ in ledger.dispatch("w", 0.0, limit=3)] == [
        "k0", "k1", "k2"]
    ledger.release("w")
    assert [k for k, __, __ in ledger.dispatch("w", 0.0, limit=5)] == [
        "k0", "k1", "k2", "k3", "k4"]
    assert all(o.strikes == [] for o in ledger.outcomes.values())


# -- every runner, one contract -----------------------------------------------


def toy(payload, attempt):
    """Module-level worker fn (pickles by name): (kind, value)."""
    kind, value = payload
    if kind == "boom":
        raise ValueError(f"boom {value}")
    if kind == "boom-once" and attempt == 0:
        raise ValueError("first attempt only")
    return value * 2


TASKS = [("a", ("ok", 3)), ("b", ("boom", 1)), ("c", ("boom-once", 8))]
POLICY = FleetPolicy(retries=1, backoff_base=0.001, backoff_cap=0.01)


def _summary(outcomes):
    return {key: (o.status, o.attempts, o.strikes, o.value,
                  o.error.strip().splitlines()[-1] if o.error else "")
            for key, o in outcomes.items()}


def test_inline_pipe_and_socket_runners_report_the_same_outcomes():
    inline = run_inline(toy, TASKS, policy=POLICY)
    with WorkerSupervisor(toy, jobs=2, policy=POLICY) as sup:
        piped = sup.run(TASKS)
    with RemoteCoordinator(policy=POLICY, worker_wait=10.0) as coord:
        host, port = coord.address
        threads = [threading.Thread(
            target=serve_worker, args=(host, port),
            kwargs=dict(worker_fn=toy, worker_id=f"t{index}",
                        reconnect_attempts=0, reconnect_delay=0.05),
            daemon=True)
            for index in range(2)]
        for thread in threads:
            thread.start()
        socketed = coord.run(TASKS)
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()  # the stop frame landed
    expected = {
        "a": (CellStatus.OK, 1, [], 6, ""),
        "b": (CellStatus.FAILED, 2, ["error", "error"], None,
              "ValueError: boom 1"),
        "c": (CellStatus.OK, 2, ["error"], 16,
              "ValueError: first attempt only"),
    }
    assert _summary(inline) == expected
    assert _summary(piped) == expected
    assert _summary(socketed) == expected


def test_empty_runs_return_at_once_and_spawn_no_worker():
    assert run_inline(toy, []) == {}
    with WorkerSupervisor(toy, jobs=2) as sup:
        assert sup.run([]) == {}
        assert sup.workers == []
