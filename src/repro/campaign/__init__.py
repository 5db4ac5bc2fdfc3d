"""Crash-safe campaign layer: durable multi-experiment orchestration.

One campaign = one directory = one write-ahead journal.  The package treats
:func:`repro.experiments.run_experiment` as its unit of work and layers on:

* :mod:`repro.campaign.spec` — a config sweep expanded into jobs identified
  by configuration hash (:class:`CampaignSpec`, :class:`JobSpec`);
* :mod:`repro.campaign.journal` — the sha256-framed append-only journal with
  torn-tail-tolerant replay and atomic snapshot compaction
  (:class:`Journal`);
* :mod:`repro.campaign.state` — exact state reconstruction by replaying the
  journal (:class:`CampaignState`);
* :mod:`repro.campaign.store` — the content-addressed result store that
  serves re-submitted sweeps from cache (:class:`ResultStore`, over the
  shared :class:`repro.resilience.store.ArtifactStore`);
* :mod:`repro.campaign.supervisor` — the leased, heartbeat-monitored
  process-pool scheduler (:class:`CampaignSupervisor`), which also bridges
  worker events back onto the supervisor's bus tagged per job;
* :mod:`repro.campaign.telemetry` — the live fleet table renderer
  (:class:`FleetRenderer`, behind ``campaign run --progress``);
* :mod:`repro.campaign.cli` — ``python -m repro campaign run|resume|status|
  trace|report|gc|compact``.

See ``docs/CAMPAIGN.md`` for the design rationale and crash matrix.
"""

from repro.campaign.journal import (
    Journal,
    JournalCorruptError,
    JournalError,
)
from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    JobSpec,
    config_from_dict,
    load_spec,
)
from repro.campaign.state import CampaignState, JobState, campaign_record
from repro.campaign.store import ResultStore, record_sha256, result_record
from repro.campaign.supervisor import CampaignReport, CampaignSupervisor
from repro.campaign.telemetry import FleetRenderer

__all__ = [
    "CampaignSpec",
    "CampaignSpecError",
    "JobSpec",
    "config_from_dict",
    "load_spec",
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "CampaignState",
    "JobState",
    "campaign_record",
    "ResultStore",
    "result_record",
    "record_sha256",
    "CampaignSupervisor",
    "CampaignReport",
    "FleetRenderer",
]
