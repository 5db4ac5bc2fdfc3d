"""Pipeline checkpoints in the artifact store: tolerant recovery, counting.

The pipeline keys a stage checkpoint by the configuration hash and stores the
pickled stage payload as ``<stage>.ckpt``; these tests drive that layout
directly.
"""

import pickle

import pytest

from repro import obs
from repro.experiments import ExperimentConfig
from repro.obs.manifest import config_hash
from repro.resilience import ArtifactStore, chaos

CONFIG = ExperimentConfig(benchmark="c17", seed=11)
KEY = config_hash(CONFIG)


@pytest.fixture(autouse=True)
def _clean_state():
    chaos.uninstall()
    obs.disable()
    yield
    chaos.uninstall()
    obs.disable()


def _save(store, stage, payload):
    store.save(KEY, f"{stage}.ckpt", pickle.dumps(payload))
    return store.path(KEY, f"{stage}.ckpt")


def _load(store, stage):
    return store.load(KEY, f"{stage}.ckpt", decode=pickle.loads)


def test_truncated_checkpoint_recovers_tolerantly(tmp_path):
    store = ArtifactStore(tmp_path)
    path = _save(store, "stuck_sim", {"big": list(range(500))})
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])

    with pytest.warns(RuntimeWarning, match="corrupt stuck_sim.ckpt"):
        assert _load(store, "stuck_sim") is None
    # The stage recomputes and overwrites the bad file.
    _save(store, "stuck_sim", {"big": [1]})
    assert _load(store, "stuck_sim") == {"big": [1]}


def test_corruption_counter_increments(tmp_path):
    store = ArtifactStore(tmp_path)
    path = _save(store, "atpg", [1, 2, 3])
    path.write_bytes(path.read_bytes()[:-2])
    _, registry = obs.enable()
    with pytest.warns(RuntimeWarning):
        _load(store, "atpg")
    assert registry.counter("store.corrupt").value == 1
