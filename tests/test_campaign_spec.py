"""Unit tests: campaign spec parsing, sweep expansion, job identity."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignSpecError,
    JobSpec,
    config_from_dict,
    load_spec,
)
from repro.experiments import ExperimentConfig
from repro.obs.manifest import config_hash, config_to_dict


# ---------------------------------------------------------------------------
# config_from_dict
# ---------------------------------------------------------------------------
def test_config_from_dict_round_trips_config_to_dict():
    config = ExperimentConfig(benchmark="c17", seed=7, max_random_patterns=32)
    fields = config_to_dict(config)
    rebuilt = config_from_dict(fields)
    assert rebuilt == config
    assert config_hash(rebuilt) == config_hash(config)


def test_config_from_dict_rejects_unknown_field():
    # Removed knobs (the old engine registry and process pool) are unknown
    # too: a journal or spec that still names them fails loudly.
    for name, value in (
        ("warp_factor", 9),
        ("engine", "auto"),
        ("fault_sim_workers", 2),
    ):
        with pytest.raises(
            CampaignSpecError, match=f"unknown ExperimentConfig field.*{name}"
        ):
            config_from_dict({"benchmark": "c17", name: value})


def test_config_from_dict_rejects_custom_statistics():
    with pytest.raises(CampaignSpecError, match="statistics"):
        config_from_dict({"benchmark": "c17", "statistics": {"x": 1}})


def test_config_from_dict_rejects_invalid_value():
    with pytest.raises(CampaignSpecError, match="invalid experiment"):
        config_from_dict({"benchmark": "c17", "target_yield": 2.0})


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------
def test_grid_expansion_is_cartesian_product():
    spec = CampaignSpec(
        name="grid",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=16),
        grid={"seed": (1, 2, 3), "target_yield": (0.75, 0.9)},
    )
    jobs = spec.expand()
    assert len(jobs) == 6
    points = {(j.config.seed, j.config.target_yield) for j in jobs}
    assert points == {(s, y) for s in (1, 2, 3) for y in (0.75, 0.9)}


def test_job_id_is_config_hash():
    spec = CampaignSpec(
        base=ExperimentConfig(benchmark="c17"), grid={"seed": (5,)}
    )
    (job,) = spec.expand()
    assert job.job_id == config_hash(job.config)
    assert job.config.seed == 5


def test_explicit_jobs_carry_priority_and_budget():
    spec = CampaignSpec(
        base=ExperimentConfig(benchmark="c17"),
        jobs=({"seed": 9, "priority": 5, "max_attempts": 4},),
    )
    (job,) = spec.expand()
    assert job.priority == 5
    assert job.max_attempts == 4
    # Job keys never leak into the configuration (or the hash).
    assert job.config == ExperimentConfig(benchmark="c17", seed=9)


def test_duplicate_jobs_collapse_keeping_strongest():
    spec = CampaignSpec(
        base=ExperimentConfig(benchmark="c17"),
        grid={"seed": (1,)},
        jobs=({"seed": 1, "priority": 3, "max_attempts": 5},),
        priority=0,
        max_attempts=2,
    )
    (job,) = spec.expand()
    assert job.priority == 3
    assert job.max_attempts == 5


def test_expansion_orders_by_priority_then_id():
    spec = CampaignSpec(
        base=ExperimentConfig(benchmark="c17"),
        jobs=(
            {"seed": 1, "priority": 0},
            {"seed": 2, "priority": 9},
            {"seed": 3, "priority": 0},
        ),
    )
    jobs = spec.expand()
    assert jobs[0].config.seed == 2
    low = [j.job_id for j in jobs[1:]]
    assert low == sorted(low)


def test_spec_validation_rejects_bad_shapes():
    base = ExperimentConfig(benchmark="c17")
    with pytest.raises(CampaignSpecError, match="no jobs"):
        CampaignSpec(base=base)
    with pytest.raises(CampaignSpecError, match="unknown field"):
        CampaignSpec(base=base, grid={"nope": (1,)})
    with pytest.raises(CampaignSpecError, match="no values"):
        CampaignSpec(base=base, grid={"seed": ()})
    with pytest.raises(CampaignSpecError, match="max_attempts"):
        CampaignSpec(base=base, grid={"seed": (1,)}, max_attempts=0)
    with pytest.raises(CampaignSpecError, match="name"):
        CampaignSpec(name="  ", base=base, grid={"seed": (1,)})


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------
def test_spec_round_trips_through_json(tmp_path):
    spec = CampaignSpec(
        name="rt",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=32),
        grid={"seed": (1, 2)},
        jobs=({"seed": 7, "priority": 1},),
        priority=2,
        max_attempts=3,
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = load_spec(str(path))
    assert loaded.to_dict() == spec.to_dict()
    assert [j.job_id for j in loaded.expand()] == [
        j.job_id for j in spec.expand()
    ]


def test_load_spec_errors_are_typed(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(CampaignSpecError, match="cannot read"):
        load_spec(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CampaignSpecError, match="not valid JSON"):
        load_spec(str(bad))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"grid": {"seed": [1]}, "bogus": 1}))
    with pytest.raises(CampaignSpecError, match="unknown spec key"):
        load_spec(str(unknown))


def test_for_config_uses_hash():
    config = ExperimentConfig(benchmark="c17")
    job = JobSpec.for_config(config, priority=1, max_attempts=3)
    assert job.job_id == config_hash(config)
    assert job.config_dict() == config_to_dict(config)
