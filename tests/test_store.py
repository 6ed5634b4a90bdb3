"""The content-addressed run store and store-backed incremental reruns.

Pins the object plane's invariants (one address per content, atomic
idempotent writes, self-verifying reads), the index's journal idiom
(append-only, torn final line tolerated), gc's "never touch referenced
content" rule, the fleet's one-exemplar-per-bucket shipping rule, and
the ISSUE's acceptance criteria: a store-backed rerun recomputes zero
cells while producing an artifact byte-identical (modulo timing) to a
plain run, and a faulty sweep's quarantines land in dedupe buckets with
exactly one stored exemplar each.
"""

import copy
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.matrix import matrix_code_hash, run_matrix
from repro.errors import ReproError
from repro.harness.faults import FaultPlan
from repro.store import INDEX_NAME, RunStore, runstore
from repro.util.hashing import canonical_json, content_address, sha256_hex


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


# -- hashing ------------------------------------------------------------------


def test_content_address_is_sha256_of_canonical_json():
    payload = {"b": 2, "a": [1, "x"]}
    assert canonical_json(payload) == '{"a":[1,"x"],"b":2}'
    assert content_address(payload) == sha256_hex(canonical_json(payload))
    # Key order and whitespace never change the address.
    assert content_address({"a": [1, "x"], "b": 2}) == \
        content_address(payload)


# -- object plane -------------------------------------------------------------


def test_object_round_trip(store):
    payload = {"rows": [1, 2, 3], "model": "full"}
    address = store.put_object(payload)
    assert store.has_object(address)
    assert store.get_object(address) == payload
    # Idempotent: re-putting identical content returns the same address
    # and leaves exactly one object on disk.
    assert store.put_object(dict(payload)) == address
    assert store.stats()["objects"] == 1


def test_corrupt_object_is_refused_not_returned(store):
    address = store.put_object({"value": 1})
    path = pathlib.Path(store._object_path(address))
    path.write_text('{"value":2}')  # modified in place under its name
    with pytest.raises(ReproError) as excinfo:
        store.get_object(address)
    assert "corrupt" in str(excinfo.value)


def test_missing_object_is_a_typed_error(store):
    with pytest.raises(ReproError):
        store.get_object("0" * 64)


# -- rows: the incremental-rerun key ------------------------------------------


def test_row_round_trip_keyed_by_seed_model_code_hash(store):
    row = {"seed": 3, "model": "full", "DF": 1.0}
    store.put_row(3, "full", "hash-a", row)
    assert store.get_row(3, "full", "hash-a") == row
    # A different code hash is a miss: the cell must rerun.
    assert store.get_row(3, "full", "hash-b") is None
    assert store.get_row(3, "value", "hash-a") is None
    assert store.stored_cells("hash-a") == {
        (3, "full"): content_address(row)}


def test_duplicate_row_put_appends_no_new_index_entry(store):
    row = {"seed": 0, "model": "full"}
    store.put_row(0, "full", "h", row)
    before = len(store.entries())
    store.put_row(0, "full", "h", row)
    assert len(store.entries()) == before


def test_torn_index_tail_is_tolerated_and_healed(store):
    store.put_row(0, "full", "h", {"seed": 0})
    index = pathlib.Path(store.root) / INDEX_NAME
    with open(index, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "row", "seed": 1, "mo')  # crash mid-append
    # The torn fragment is invisible to readers...
    assert len(store.entries()) == 1
    assert store.get_row(0, "full", "h") == {"seed": 0}
    # ...and the next append discards it instead of welding onto it.
    store.put_row(2, "full", "h", {"seed": 2})
    kinds = [entry["seed"] for entry in store.entries()]
    assert kinds == [0, 2]


def test_gc_removes_only_unreferenced_objects(store):
    row = {"seed": 0, "model": "full"}
    live = store.put_row(0, "full", "h", row)
    dead = store.put_object({"scratch": True})  # no index entry
    report = store.gc()
    assert report == {"kept": 1, "removed": 1, "orphaned": 0}
    assert store.has_object(live)
    assert not store.has_object(dead)
    # A gc'd-away referenced object would count as orphaned, and its
    # row lookup degrades to a miss (the cell simply reruns).
    os.unlink(store._object_path(live))
    assert store.gc()["orphaned"] == 1
    assert store.get_row(0, "full", "h") is None


# -- buckets: one exemplar per bucket -----------------------------------------


def test_first_bucket_member_ships_the_exemplar_later_ones_do_not(store):
    address, shipped = store.put_bucket_member(
        "bucket-a", failure=["assert", "main@3"], fingerprint="fp",
        cell="0:full", payload={"recording": "the bytes"})
    assert shipped and address
    again, shipped_again = store.put_bucket_member(
        "bucket-a", failure=["assert", "main@3"], fingerprint="fp",
        cell="1:full", payload={"recording": "other bytes"})
    assert not shipped_again
    assert again == address, "every member points at the one exemplar"
    view = store.buckets()["bucket-a"]
    assert view.count == 2
    assert view.exemplar == address
    assert view.cells == ["0:full", "1:full"]
    assert store.get_object(address) == {"recording": "the bytes"}
    assert store.stats()["objects"] == 1, "second payload never stored"


def test_buckets_are_keyed_independently(store):
    store.put_bucket_member("bucket-a", cell="0:full",
                            payload={"a": 1})
    store.put_bucket_member("bucket-b", cell="0:value",
                            payload={"b": 2})
    views = store.buckets()
    assert set(views) == {"bucket-a", "bucket-b"}
    assert views["bucket-a"].exemplar != views["bucket-b"].exemplar


# -- store-backed matrix reruns -----------------------------------------------

SEEDS = [0, 1]
MODELS = ("full", "failure")


def _comparable(results):
    trimmed = copy.deepcopy(results)
    trimmed.pop("timing")  # wall clock + store accounting live here
    return trimmed


@pytest.fixture(scope="module")
def store_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("rerun")
    store_dir = str(root / "store")
    first = run_matrix(SEEDS, models=MODELS, store=store_dir)
    second = run_matrix(SEEDS, models=MODELS, store=store_dir)
    return first, second, store_dir


def test_rerun_recomputes_zero_cells(store_runs):
    first, second, __ = store_runs
    assert first["timing"]["store_hits"] == 0
    assert second["timing"]["store_hits"] == len(SEEDS) * len(MODELS)
    assert _comparable(first) == _comparable(second)


def test_store_backed_artifact_matches_plain_run(store_runs):
    """Attaching a store must not move a single byte outside timing."""
    first, __, ___ = store_runs
    plain = run_matrix(SEEDS, models=MODELS)
    assert "store_hits" not in plain["timing"]
    assert json.dumps(_comparable(plain), sort_keys=True) == \
        json.dumps(_comparable(first), sort_keys=True)


def test_code_hash_change_invalidates_stored_cells(store_runs):
    __, ___, store_dir = store_runs
    cells = RunStore(store_dir).stored_cells(matrix_code_hash())
    assert set(cells) == {(seed, model)
                          for seed in SEEDS for model in MODELS}
    assert RunStore(store_dir).stored_cells("some-other-code") == {}


# -- faulty sweeps: quarantines bucketed, one exemplar each -------------------

# Pinned plan: corruption strikes at least one payload across these
# cells and strikes=1 exhausts retries, so quarantines are guaranteed.
FAULTY_SEEDS = [0, 1, 2]
FAULT_PLAN = FaultPlan(seed=1, crash_rate=0.25, corrupt_rate=0.4,
                       strikes=1)


@pytest.fixture(scope="module")
def faulty(tmp_path_factory):
    store_dir = str(tmp_path_factory.mktemp("faulty") / "store")
    results = run_matrix(FAULTY_SEEDS, models=MODELS, jobs=2,
                         faults=FAULT_PLAN, store=store_dir)
    return results, RunStore(store_dir)


def test_faulty_sweep_buckets_its_quarantines(faulty):
    results, store = faulty
    fleet = results["fleet"]
    assert fleet["quarantined"], "plan must injure at least one cell"
    for entry in fleet["quarantined"]:
        assert entry["bucket"], "every quarantine names its bucket"
    buckets = fleet["buckets"]
    bucketed = [cell for view in buckets for cell in view["cells"]]
    assert sorted(bucketed) == \
        sorted(entry["cell"] for entry in fleet["quarantined"])
    for view in buckets:
        assert view["count"] == len(view["cells"])


def test_faulty_sweep_ships_one_exemplar_per_bucket(faulty):
    results, store = faulty
    for view in results["fleet"]["buckets"]:
        assert view["exemplar"], "store was attached: exemplar shipped"
        payload = store.get_object(view["exemplar"])
        assert "recording" in payload
    # The store holds exactly one exemplar object per bucket, no matter
    # how many members the bucket has.
    stored = store.buckets()
    assert len(stored) == len(results["fleet"]["buckets"])
    exemplars = {view.exemplar for view in stored.values()}
    assert len(exemplars) == len(stored)


def test_clean_sweep_report_has_no_bucket_section(store_runs):
    first, __, ___ = store_runs
    assert "buckets" not in first["fleet"], \
        "all-healthy artifact bytes never move"


# -- the in-memory, tail-following index --------------------------------------


def test_stored_cells_agrees_with_get_row_once_the_latest_object_is_gone(
        store):
    """Regression: ``stored_cells`` used to fall back to an *older* row
    for a cell whose latest entry's object was gc'd, while ``get_row``
    reported a miss; a rerun would have loaded a replaced row."""
    store.put_row(0, "full", "h", {"seed": 0, "version": 1})
    newer = store.put_row(0, "full", "h", {"seed": 0, "version": 2})
    os.unlink(store._object_path(newer))
    assert store.get_row(0, "full", "h") is None
    assert store.stored_cells("h") == {}
    # A fresh instance (full parse instead of tail-following) agrees.
    fresh = RunStore(store.root)
    assert fresh.get_row(0, "full", "h") is None
    assert fresh.stored_cells("h") == {}


def test_each_index_line_is_decoded_once(store, monkeypatch):
    """Count-based, no wall clock: puts and reads on one instance decode
    every appended line exactly once, however large the index grows."""
    decoded = []

    def counting(raw):
        decoded.append(raw)
        return json.loads(raw)

    monkeypatch.setattr(runstore, "_decode_line", counting)
    puts = 2000
    for seed in range(puts):
        store.put_row(seed, "full", "h", {"seed": seed})
    assert store.get_row(0, "full", "h") == {"seed": 0}
    assert len(store.stored_cells("h")) == puts
    assert len(store.entries()) == puts
    assert len(decoded) == puts


def test_two_instances_on_one_directory_see_each_others_appends(tmp_path):
    first = RunStore(str(tmp_path / "store"))
    second = RunStore(str(tmp_path / "store"))
    assert first.get_row(0, "full", "h") is None  # both parsed, empty
    assert second.get_row(0, "full", "h") is None
    first.put_row(0, "full", "h", {"seed": 0})
    assert second.get_row(0, "full", "h") == {"seed": 0}
    second.put_row(1, "full", "h", {"seed": 1})
    second.put_case(1, "h", {"case": 1})
    second.put_bucket_member("bucket-a", cell="1:full", payload={"a": 1})
    assert first.get_row(1, "full", "h") == {"seed": 1}
    assert first.get_case(1, "h") == {"case": 1}
    assert set(first.stored_cells("h")) == {(0, "full"), (1, "full")}
    assert first.buckets()["bucket-a"].count == 1
    # A later member sees the other instance's exemplar, not a miss.
    address, shipped = first.put_bucket_member(
        "bucket-a", cell="2:full", payload={"a": 2})
    assert not shipped
    assert address == second.buckets()["bucket-a"].exemplar
    assert first.entries() == second.entries()


def test_shrunk_or_replaced_index_triggers_a_full_reload(store):
    for seed in range(3):
        store.put_row(seed, "full", "h", {"seed": seed})
    index = pathlib.Path(store.root) / INDEX_NAME
    lines = index.read_text().splitlines(keepends=True)
    index.write_text(lines[0])  # truncated below the watermark
    assert [entry["seed"] for entry in store.entries()] == [0]
    assert store.get_row(2, "full", "h") is None
    assert set(store.stored_cells("h")) == {(0, "full")}
    # Rewritten smaller with other content: the maps follow the file.
    replacement = json.loads(lines[2])
    replacement["model"] = "value"
    rewritten = json.dumps(replacement, separators=(",", ":")) + "\n"
    assert len(rewritten) < len(lines[0])
    index.write_text(rewritten)
    assert store.get_row(0, "full", "h") is None
    assert store.get_row(2, "value", "h") == {"seed": 2}
    assert store.stored_cells("h") == {(2, "value"): replacement["address"]}
    # Replaced by a new, larger file (rename over it): reloaded too.
    fresh = index.with_name("index.new")
    fresh.write_text(lines[1] + lines[2] + lines[0])
    os.replace(fresh, index)
    assert [entry["seed"] for entry in store.entries()] == [1, 2, 0]
    assert store.get_row(2, "value", "h") is None


def test_corrupt_interior_index_line_raises_for_a_tail_follower(store):
    store.put_row(0, "full", "h", {"seed": 0})
    index = pathlib.Path(store.root) / INDEX_NAME
    with open(index, "a", encoding="utf-8") as handle:
        handle.write("NOT JSON\n")
    # A corrupt *final* line is tolerated like a torn one...
    assert store.get_row(0, "full", "h") == {"seed": 0}
    with open(index, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"kind": "case", "seed": 1}) + "\n")
    # ...but once a line follows it, it is corruption, with its number.
    with pytest.raises(ReproError) as excinfo:
        store.entries()
    assert "line 2" in str(excinfo.value)
    assert str(index) in str(excinfo.value)


_TORN_ROWS = 6


@pytest.fixture(scope="module")
def full_index(tmp_path_factory):
    """A small index's bytes and the entries each line holds."""
    root = tmp_path_factory.mktemp("torn") / "store"
    source = RunStore(str(root))
    for seed in range(_TORN_ROWS):
        source.put_row(seed, "full", "h", {"seed": seed, "pad": "x" * seed})
    data = (root / INDEX_NAME).read_bytes()
    return data, source.entries()


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10 ** 6))
def test_any_truncation_heals_and_loses_at_most_the_torn_entry(full_index,
                                                               cut):
    data, entries = full_index
    cut %= len(data) + 1
    complete = data[:cut].count(b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "store")
        os.makedirs(root)
        index = os.path.join(root, INDEX_NAME)
        with open(index, "wb") as handle:
            handle.write(data)
        stale = RunStore(root)
        assert stale.entries() == entries
        with open(index, "r+b") as handle:
            handle.truncate(cut)
        # Readers, fresh or already tail-following, see exactly the
        # entries whose lines are complete.
        fresh = RunStore(root)
        assert fresh.entries() == entries[:complete]
        assert stale.entries() == entries[:complete]
        # The next append lands on a clean line; nothing else is lost.
        fresh.put_row(99, "full", "h", {"seed": 99})
        with open(index, "rb") as handle:
            healed = handle.read()
        assert healed.startswith(data[:data.rfind(b"\n", 0, cut) + 1])
        assert [json.loads(line) for line in healed.splitlines()] == \
            stale.entries() == RunStore(root).entries()
        assert [entry["seed"] for entry in stale.entries()] == \
            list(range(complete)) + [99]
