"""Content-addressed campaign results keyed by experiment-configuration hash.

A :class:`ResultStore` persists one canonical **result record** per job as
entry ``<root>/<job_id>/result.json`` of a
:class:`repro.resilience.store.ArtifactStore` — the same sealed, atomic,
digest-verified file the pipeline's stage checkpoints use.  The entry's
payload is the record's canonical JSON, so the envelope digest *is*
:func:`record_sha256`.  Because the job id *is* the config hash, any
re-submitted or overlapping sweep that expands to a job already in the store
is served from cache — zero fault simulation — and served
**bit-identically**: the record stores only deterministic outputs of
:func:`repro.experiments.run_experiment` (series, fit, detection digests),
never wall-clock facts.

:func:`result_record` defines that canonical record.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.pipeline import ExperimentResult
from repro.resilience.store import ArtifactStore

__all__ = ["ResultStore", "result_record", "record_sha256"]

_RESULT_MAGIC = "repro-campaign-result/1"
#: Also the name of the older unsealed result files, so one of those fails
#: the store's magic check loudly instead of lingering unseen.
RESULT_NAME = "result.json"


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


def record_sha256(record: dict) -> str:
    """Digest of a result record's canonical JSON form."""
    return hashlib.sha256(_canonical(record)).hexdigest()


def result_record(result: ExperimentResult) -> dict:
    """The canonical, deterministic record of one experiment run.

    Bit-identical across processes and across resume/recompute paths: it
    contains only values derived from the (deterministic) pipeline outputs —
    no wall-clock timings, no pids, no environment.  The per-fault detection
    maps are folded into digests so records stay small while still proving
    two runs detected exactly the same faults at exactly the same vectors.
    """
    fit = result.fit()
    stuck = result.stuck_result
    detection_blob = json.dumps(
        sorted((repr(f), k) for f, k in stuck.first_detection.items())
    )
    counts_blob = json.dumps(
        sorted((repr(f), n) for f, n in stuck.detection_counts.items())
    )
    return {
        "magic": _RESULT_MAGIC,
        "benchmark": result.config.benchmark,
        "seed": result.config.seed,
        "n_patterns": len(result.test_patterns),
        "n_random": result.n_random,
        "n_stuck_faults": len(result.stuck_faults),
        "n_redundant": len(result.redundant_faults),
        "n_untestable_static": len(result.static_untestable),
        "series": [
            [k, t, theta, gamma, dl]
            for k, t, theta, gamma, dl in result.series()
        ],
        "final_T": result.final_T,
        "final_theta": result.theta_at(result.sample_ks[-1]),
        "final_DL": result.dl_at(result.sample_ks[-1]),
        "R": fit.susceptibility_ratio,
        "theta_max_fit": fit.theta_max,
        "fit_residual": fit.residual,
        "theta_max_measured": result.theta_max,
        "first_detection_sha256": hashlib.sha256(
            detection_blob.encode()
        ).hexdigest(),
        "detection_counts_sha256": hashlib.sha256(
            counts_blob.encode()
        ).hexdigest(),
    }


class ResultStore:
    """Campaign result records over an :class:`ArtifactStore`, one per job.

    ``strict`` is the store's corrupt-entry policy: raise
    :class:`~repro.resilience.errors.StoreCorruptError`, or (default) warn,
    count and recompute.
    """

    def __init__(self, root: str | Path, strict: bool = False):
        self.artifacts = ArtifactStore(root, strict=strict)
        self.root = self.artifacts.root

    def path_for(self, job_id: str) -> Path:
        return self.artifacts.path(job_id, RESULT_NAME)

    def has(self, job_id: str) -> bool:
        """True when a result file exists for ``job_id`` (unverified)."""
        return self.artifacts.has(job_id, RESULT_NAME)

    def job_ids(self) -> list[str]:
        """Every job hash with a result file, sorted."""
        return sorted(p.parent.name for p in self.root.glob(f"*/{RESULT_NAME}"))

    # ``save``/``load`` stay in this class body: perfbench's tracer patches
    # them by name on the class itself.
    def save(self, job_id: str, record: dict) -> str:
        """Atomically persist ``record``; returns :func:`record_sha256`."""
        return self.artifacts.save(job_id, RESULT_NAME, _canonical(record))

    def load(self, job_id: str) -> dict | None:
        """The verified result record for ``job_id``, or None when absent
        or discarded as corrupt."""
        return self.artifacts.load(job_id, RESULT_NAME, decode=json.loads)
