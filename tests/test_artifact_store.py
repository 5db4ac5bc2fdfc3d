"""The one artifact store, exercised through both of its callers.

Every behaviour runs twice: once as the pipeline uses the store (a pickled
stage payload under ``<config hash>/<stage>.ckpt``) and once as the campaign
does (a result record through :class:`ResultStore`).
"""

import json
import os
import pickle

import pytest

from repro import obs
from repro.campaign import ResultStore, record_sha256, result_record
from repro.experiments import ExperimentConfig, run_experiment
from repro.resilience import (
    ArtifactStore,
    ChaosPlan,
    ChaosRule,
    StoreCorruptError,
    StoreError,
    chaos,
)
from repro.simulation.faults import StuckAtFault

HASH = "0123456789abcdef"


@pytest.fixture(autouse=True)
def _clean_state():
    chaos.uninstall()
    obs.disable()
    yield
    chaos.uninstall()
    obs.disable()


class CheckpointCaller:
    """The pipeline's use: pickled stage payloads, one entry per stage."""

    name = "atpg.ckpt"
    value = {
        "patterns": [[0, 1, 0], [1, 1, 1]],
        "faults": [StuckAtFault("n1", 0), StuckAtFault("n2", 1)],
        "coverage": 0.875,
    }

    def __init__(self, root, strict=False):
        self.store = ArtifactStore(root, strict=strict)

    def save(self, hash_=HASH):
        return self.store.save(hash_, self.name, pickle.dumps(self.value))

    def load(self, hash_=HASH):
        return self.store.load(hash_, self.name, decode=pickle.loads)

    def path(self, hash_=HASH):
        return self.store.path(hash_, self.name)

    def old_format(self):
        blob = pickle.dumps(self.value)
        header = json.dumps({"stage": "atpg", "config_hash": HASH})
        return b"repro-checkpoint/1\n" + header.encode() + b"\n" + blob


class ResultCaller:
    """The campaign's use: canonical-JSON result records, one per job."""

    name = "result.json"
    value = {"benchmark": "c17", "seed": 3, "series": [[1, 0.5, 0.4, 0.1, 0.01]]}

    def __init__(self, root, strict=False):
        self.results = ResultStore(root, strict=strict)
        self.store = self.results.artifacts

    def save(self, hash_=HASH):
        return self.results.save(hash_, self.value)

    def load(self, hash_=HASH):
        return self.results.load(hash_)

    def path(self, hash_=HASH):
        return self.results.path_for(hash_)

    def old_format(self):
        blob = json.dumps(self.value, sort_keys=True)
        envelope = {
            "magic": "repro-campaign-result/1",
            "job_id": HASH,
            "payload_sha256": record_sha256(self.value),
            "payload_size": len(blob),
            "record": self.value,
        }
        return (json.dumps(envelope, sort_keys=True) + "\n").encode()


@pytest.fixture(params=[CheckpointCaller, ResultCaller], ids=["checkpoint", "result"])
def caller(request):
    return request.param


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _flip(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[-10] ^= 0xFF
    return bytes(flipped)


# ---------------------------------------------------------------------------
# round trip, misses, atomicity
# ---------------------------------------------------------------------------
def test_round_trip(tmp_path, caller):
    c = caller(tmp_path)
    c.save()
    assert c.store.has(HASH, c.name)
    assert c.store.names(HASH) == [c.name]
    assert c.load() == c.value


def test_missing_entry_reads_as_none(tmp_path, caller):
    c = caller(tmp_path)
    assert c.load() is None
    assert c.store.names(HASH) == []


def test_entries_are_keyed_by_hash(tmp_path, caller):
    c = caller(tmp_path)
    c.save("aaaa")
    assert c.load("bbbb") is None
    assert c.load("aaaa") == c.value


def test_save_leaves_no_temp_file(tmp_path, caller):
    c = caller(tmp_path)
    c.save()
    assert sorted(p.name for p in c.path().parent.iterdir()) == [c.name]


def test_fsync_precedes_replace_on_every_save(tmp_path, caller, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    c = caller(tmp_path)
    c.save()
    c.save("other")
    assert calls == ["fsync", "replace", "fsync", "replace"]


def test_result_store_save_returns_record_sha256(tmp_path):
    store = ResultStore(tmp_path)
    sha = store.save(HASH, ResultCaller.value)
    assert sha == record_sha256(ResultCaller.value)
    assert store.job_ids() == [HASH]


# ---------------------------------------------------------------------------
# corruption: tolerant recomputes, strict raises
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("damage", [_truncate, _flip], ids=["truncated", "bit_flip"])
def test_damaged_entry_tolerant_mode_recomputes(tmp_path, caller, damage):
    c = caller(tmp_path)
    c.save()
    c.path().write_bytes(damage(c.path().read_bytes()))
    _, registry = obs.enable()
    with pytest.warns(RuntimeWarning, match=f"corrupt {c.name}"):
        assert c.load() is None
    assert registry.counter("store.corrupt").value == 1
    # The work recomputes and overwrites the bad file.
    c.save()
    assert c.load() == c.value


@pytest.mark.parametrize("damage", [_truncate, _flip], ids=["truncated", "bit_flip"])
def test_damaged_entry_strict_mode_raises(tmp_path, caller, damage):
    caller(tmp_path).save()
    c = caller(tmp_path, strict=True)
    c.path().write_bytes(damage(c.path().read_bytes()))
    with pytest.raises(StoreCorruptError):
        c.load()


def test_wrong_key_in_header_is_corruption(tmp_path, caller):
    c = caller(tmp_path)
    c.save()
    moved = c.path("fedcba9876543210")
    moved.parent.mkdir()
    c.path().rename(moved)
    with pytest.warns(RuntimeWarning, match="does not name entry"):
        assert c.load("fedcba9876543210") is None


def test_old_format_file_is_a_counted_miss_or_strict_error(tmp_path, caller):
    c = caller(tmp_path)
    c.path().parent.mkdir()
    c.path().write_bytes(c.old_format())
    _, registry = obs.enable()
    with pytest.warns(RuntimeWarning, match="bad magic"):
        assert c.load() is None
    assert registry.counter("store.corrupt").value == 1
    with pytest.raises(StoreCorruptError, match="bad magic"):
        caller(tmp_path, strict=True).load()


def test_decode_failure_of_verified_payload_is_corruption(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(HASH, "atpg.ckpt", b"not a pickle")
    with pytest.warns(RuntimeWarning, match="does not decode"):
        assert store.load(HASH, "atpg.ckpt", decode=pickle.loads) is None
    strict = ArtifactStore(tmp_path, strict=True)
    with pytest.raises(StoreCorruptError, match="does not decode"):
        strict.load(HASH, "atpg.ckpt", decode=pickle.loads)


@pytest.mark.parametrize("kind", ["truncate", "corrupt"])
def test_chaos_mangled_save_is_detected(tmp_path, caller, kind):
    c = caller(tmp_path)
    plan = ChaosPlan(
        rules=(ChaosRule(point="checkpoint.save", kind=kind, keys={c.name}),)
    )
    with chaos.active(plan):
        c.save()
    with pytest.warns(RuntimeWarning, match=f"corrupt {c.name}"):
        assert c.load() is None


def test_unwritable_root_raises(tmp_path, caller):
    blocker = tmp_path / "file-not-dir"
    blocker.write_text("occupied")
    with pytest.raises(StoreError, match="cannot create"):
        caller(blocker / "sub")


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------
def test_prune_keeps_kept_hashes_and_non_store_directories(tmp_path, caller):
    c = caller(tmp_path)
    for hash_ in ("aaaa", "bbbb", "cccc"):
        c.save(hash_)
    (tmp_path / "not_a_store").mkdir()
    (tmp_path / "not_a_store" / "notes.txt").write_text("keep me")
    (tmp_path / "empty").mkdir()
    doomed = (2, c.path("aaaa").stat().st_size + c.path("cccc").stat().st_size)

    assert c.store.prune({"bbbb"}, dry_run=True) == doomed
    assert c.load("aaaa") == c.value  # the dry run deleted nothing
    assert c.store.prune({"bbbb"}) == doomed
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bbbb", "empty", "not_a_store",
    ]


def test_prune_of_empty_root_is_noop(tmp_path):
    assert ArtifactStore(tmp_path / "ghost").prune(set()) == (0, 0)


# ---------------------------------------------------------------------------
# determinism of result_record
# ---------------------------------------------------------------------------
def test_result_record_is_deterministic_and_json_safe():
    config = ExperimentConfig(benchmark="c17", max_random_patterns=16)
    result = run_experiment(config)
    a = result_record(result)
    b = result_record(run_experiment(config))
    assert a == b
    assert record_sha256(a) == record_sha256(b)
    json.dumps(a)  # must be JSON-able as-is
    assert "wall" not in json.dumps(a)  # no wall-clock facts
