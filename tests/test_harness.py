"""Experiment harness: figure shapes (the paper's qualitative claims)."""

import pytest

from repro.harness import (EXPERIMENTS, run_experiment, run_fig2,
                           run_sec2_adder, run_sec32_efficiency)
from repro.harness.experiments import evaluate_app_model
from repro.apps import ALL_APPS


def test_registry_contents():
    assert set(EXPERIMENTS) == {"fig1", "fig2", "sec2_adder",
                                "sec2_msgserver", "sec32_efficiency",
                                "corpus"}
    with pytest.raises(KeyError):
        run_experiment("fig99")


@pytest.fixture
def enumerations(monkeypatch):
    """An empty cause-count cache, and a list of every enumeration run."""
    from repro.models import session

    calls = []
    real = session.enumerate_root_causes

    def counting(search, failure, **kwargs):
        calls.append(search.program)
        return real(search, failure, **kwargs)

    monkeypatch.setattr(session, "_CAUSE_COUNT_CACHE", {})
    monkeypatch.setattr(session, "enumerate_root_causes", counting)
    return calls


def _failure(case):
    from repro.apps.base import find_failing_seed
    return case.run(find_failing_seed(case)).failure


def test_cause_count_never_shared_between_programs_with_one_name(
        enumerations):
    """A case posing under another's name must not be served its ``n``.

    Generated corpus cases freely reuse names across seeds, and any
    caller can rebuild a case under a registered app's name; only the
    program itself tells such cases apart.
    """
    from dataclasses import replace

    from repro.harness.experiments import count_root_causes

    racy = ALL_APPS["racy_counter"]()
    # Same reference, knobs, failure, and budget: only the program differs.
    impostor = replace(ALL_APPS["deadlock"](), name="racy_counter",
                       switch_prob=racy.switch_prob,
                       net_drop_rate=racy.net_drop_rate)
    failure = _failure(racy)
    count_root_causes(racy, failure, max_attempts=6)
    count_root_causes(impostor, failure, max_attempts=6)
    assert enumerations == [racy.program, impostor.program]


def test_cause_count_computed_once_per_rebuilt_app(enumerations):
    """Rebuilding an app (fresh program object) reuses its ``n``."""
    from repro.harness.experiments import count_root_causes
    from repro.models import resolve_case

    first = ALL_APPS["racy_counter"]()
    failure = _failure(first)
    n = count_root_causes(first, failure, max_attempts=6)
    assert n >= 1
    for rebuilt in (ALL_APPS["racy_counter"](),
                    resolve_case("app:racy_counter")):
        assert rebuilt.program is not first.program
        assert count_root_causes(rebuilt, failure, max_attempts=6) == n
    assert len(enumerations) == 1
    # A different budget is a different question.
    count_root_causes(first, failure, max_attempts=5)
    assert len(enumerations) == 2


def test_cause_count_never_caches_custom_cases(enumerations):
    """A custom case's callables have no stable identity: no caching."""
    from dataclasses import replace

    from repro.harness.experiments import count_root_causes
    from repro.models import case_ref

    custom = replace(ALL_APPS["racy_counter"](), name="my_counter")
    assert case_ref(custom)["kind"] == "custom"
    failure = _failure(custom)
    first = count_root_causes(custom, failure, max_attempts=6)
    assert count_root_causes(custom, failure, max_attempts=6) == first
    assert enumerations == [custom.program, custom.program]


@pytest.fixture(scope="module")
def fig2_table():
    return run_fig2()


def test_fig2_value_determinism(fig2_table):
    row = fig2_table.lookup(model="value")
    assert row["overhead_x"] > 2.5, "value det must be expensive (~3.5x)"
    assert row["DF"] == 1.0
    assert row["failure_reproduced"]
    assert "migration-race" in row["replay_cause"]


def test_fig2_rcse_escapes_the_curve(fig2_table):
    value = fig2_table.lookup(model="value")
    rcse = fig2_table.lookup(model="rcse")
    failure = fig2_table.lookup(model="failure")
    # RCSE: near-failure-determinism overhead, full fidelity.
    assert rcse["overhead_x"] < value["overhead_x"] / 2
    assert rcse["overhead_x"] < 1.8
    assert rcse["DF"] == 1.0
    assert rcse["overhead_x"] > failure["overhead_x"]


def test_fig2_failure_determinism_one_third(fig2_table):
    row = fig2_table.lookup(model="failure")
    assert row["overhead_x"] == 1.0, "failure det records nothing"
    assert row["DF"] == pytest.approx(1 / 3, abs=0.01)
    assert row["failure_reproduced"]
    assert "migration-race" not in row["replay_cause"]


def test_sec2_adder_output_determinism_misses_failure():
    table = run_sec2_adder()
    assert table.lookup(quantity="DF")["value"] == "0.000"
    assert table.lookup(
        quantity="replay reproduced failure")["value"] == "False"
    # The search found some inputs with output 5, just not (2, 2).
    replayed = table.lookup(quantity="replayed inputs")["value"]
    assert replayed not in ("None", "[2, 2]")


def test_sec32_synthesis_de_exceeds_one():
    table = run_sec32_efficiency()
    first_hit = table.lookup(strategy="first-hit")
    assert first_hit["DE"] > 1.0, \
        "synthesis of a shorter execution must beat DE=1"
    assert first_hit["synthesized_len"] > 0


@pytest.mark.parametrize("model", ["full", "value", "failure", "rcse"])
def test_models_reproduce_racy_counter(model):
    case = ALL_APPS["racy_counter"]()
    metrics = evaluate_app_model(case, model)
    assert metrics.failure_reproduced
    assert metrics.fidelity == 1.0


def test_full_recording_costs_more_than_failure():
    case = ALL_APPS["racy_counter"]()
    full = evaluate_app_model(case, "full")
    failure = evaluate_app_model(case, "failure")
    assert full.overhead > failure.overhead
    assert failure.overhead == 1.0
