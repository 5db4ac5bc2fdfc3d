"""The benchmark's workloads: inputs made from a seed, one timed body, checks.

Each workload is driven through the program's public entry points only:

``paper_c432``
    ``run_experiment`` on c432 with the default knobs, then eq. 11's fit: the
    paper's experiment.  Its time splits over switch-level simulation,
    layout extraction and static analysis; PODEM and the campaign layer are
    bypassed.
``atpg_c880``
    the gate-level flow on c880 (collapse, static analysis with the prover
    over the full fault universe, random prefix, PODEM top-off).  The only
    workload where PODEM does a large share of the work; it never touches
    layout, extraction or switch-level simulation.
``sweep_dec4``
    a two-phase ``CampaignSupervisor`` sweep on the 4-to-16 decoder; phase 2
    resubmits the grid with one more yield into a directory that shares
    phase 1's result store.  The only workload that writes and reads the
    result store.

``small=True`` swaps every circuit for c17 and the sweep for a 2-job grid:
the harness self-test runs the same plumbing in seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import patch

#: The paper's fitted eq. 11 parameters for c432, printed beside ours.
PAPER_R = 1.9
PAPER_THETA_MAX = 0.96

#: atpg_c880 knobs below the pipeline defaults (prover depth 2, 2000
#: backtracks).  At the defaults one pass takes about 50 s on a 2-core
#: host, too long for the benchmark's time budget; depth 1 and 500
#: backtracks keep both cost centres (recursive learning in the prover, the
#: two c880 targets PODEM aborts on) at about 20 s.
ATPG_PROVER_DEPTH = 1
ATPG_BACKTRACK_LIMIT = 500

#: Two of the four detection techniques: the 24-job grid of all four takes
#: about 30 s a pass, too long for the time budget.  Technique and yield
#: change only ``build_coverage``, so two techniques show the repeated work
#: as well as four.
SWEEP_DETECTIONS = ("voltage", "iddq")
SWEEP_YIELDS = (0.5, 0.75)
SWEEP_EXTRA_YIELD = 0.9


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """One workload: ``prepare`` (set-up), ``run`` (timed), then checks."""

    #: Layers the workload must not call; the traced pass checks them.
    bypassed: tuple[str, ...] = ()

    def __init__(self, circuit: str, seed: int, workdir: Path) -> None:
        self.circuit = circuit
        self.seed = seed
        self.workdir = workdir

    def campaign_facts(self, outcome: Any) -> dict | None:
        """The sweep's report figures for the ``campaign.*`` metrics."""
        return None


class PaperWorkload(Workload):
    """The paper's experiment: ``run_experiment`` then the eq. 11 fit."""

    bypassed = ("campaign",)

    def prepare(self) -> None:
        from repro.experiments import pipeline

        self.pipeline = pipeline
        self.config = pipeline.ExperimentConfig(
            benchmark=self.circuit, seed=self.seed
        )

    def run(self) -> Any:
        result = self.pipeline.run_experiment(self.config)
        return result, result.fit()

    def check(self, outcome: Any) -> tuple[list[str], dict[str, float]]:
        result, fit = outcome
        errors = []
        target = self.config.target_yield
        scaled = self.pipeline.scaled_weight_check(result)
        if abs(scaled - target) > 1e-9:
            errors.append(f"scaled yield {scaled!r} != target {target}")
        if result.final_T != 1.0:
            errors.append(f"final_T {result.final_T!r} != 1.0")
        if not fit.susceptibility_ratio > 1:
            errors.append(f"fitted R {fit.susceptibility_ratio!r} is not > 1")
        if not fit.theta_max < 1:
            errors.append(f"fitted theta_max {fit.theta_max!r} is not < 1")
        outputs = {
            "R": fit.susceptibility_ratio,
            "theta_max": fit.theta_max,
            "final_T": result.final_T,
            "paper_R": PAPER_R,
            "paper_theta_max": PAPER_THETA_MAX,
        }
        return errors, outputs

    def fingerprint(self, outcome: Any) -> str:
        from repro.campaign.store import result_record

        return _digest(result_record(outcome[0]))


@dataclass
class AtpgOutcome:
    analysis: Any
    random: Any
    podem: Any


class AtpgWorkload(Workload):
    """The gate-level half of the pipeline: analysis, random prefix, PODEM."""

    bypassed = ("layout", "defects", "switchsim", "experiments", "campaign")

    def prepare(self) -> None:
        from repro import analysis
        from repro.atpg import podem, random_atpg
        from repro.circuit import iscas
        from repro.experiments.pipeline import ExperimentConfig
        from repro.simulation import faults

        self.analysis, self.podem, self.random_atpg = analysis, podem, random_atpg
        self.faults = faults
        self.config = ExperimentConfig(
            benchmark=self.circuit,
            seed=self.seed,
            prover_depth=ATPG_PROVER_DEPTH,
            backtrack_limit=ATPG_BACKTRACK_LIMIT,
        )
        self.netlist = iscas.load_benchmark(self.circuit)

    def run(self) -> AtpgOutcome:
        cfg, circuit = self.config, self.netlist
        collapsed = self.faults.collapse_faults(circuit)
        # Full-universe mode, as ``python -m repro analyze --prove`` runs it.
        result = self.analysis.analyze_circuit(
            circuit, prove=True, prover_depth=cfg.prover_depth
        )
        random_result = self.random_atpg.generate_random_tests(
            circuit,
            result.screen(collapsed),
            target_coverage=cfg.random_coverage_target,
            max_patterns=cfg.max_random_patterns,
            seed=cfg.seed,
            word_width=cfg.word_width,
        )
        deterministic = self.podem.generate_deterministic_tests(
            circuit,
            random_result.undetected,
            backtrack_limit=cfg.backtrack_limit,
            untestable=result.untestable_faults(),
            scoap=result.scoap,
            learned=result.prover.learned,
        )
        return AtpgOutcome(result, random_result, deterministic)

    def check(self, out: AtpgOutcome) -> tuple[list[str], dict[str, float]]:
        from repro.analysis.check import check_certificates

        errors = []
        prover = out.analysis.prover
        n_ok, cert_errors = check_certificates(self.netlist, prover.certificates)
        errors.extend(cert_errors[:5])
        if n_ok != len(prover.proved):
            errors.append(
                f"{n_ok} valid certificates for {len(prover.proved)} proved faults"
            )
        det = out.podem
        skipped = set(det.skipped_untestable)
        targets = [f for f in out.random.undetected if f not in skipped]
        resolved = list(det.tested) + list(det.redundant) + list(det.aborted)
        if len(resolved) != len(targets) or set(resolved) != set(targets):
            errors.append(
                f"PODEM resolved {len(resolved)} faults "
                f"({len(set(resolved))} distinct) for {len(targets)} targets"
            )
        outputs = {
            "proved": len(prover.proved),
            "random_patterns": len(out.random.test_set),
            "podem_backtracks": det.backtracks,
            "podem_tested": len(det.tested),
            "podem_redundant": len(det.redundant),
            "podem_aborted": len(det.aborted),
        }
        return errors, outputs

    def fingerprint(self, out: AtpgOutcome) -> str:
        det = out.podem
        return _digest({
            "untestable": [str(f) for f in out.analysis.untestable_faults()],
            "random": list(out.random.test_set.patterns),
            "deterministic": list(det.test_set.patterns),
            "tested": [str(f) for f in det.tested],
            "redundant": [str(f) for f in det.redundant],
            "aborted": [str(f) for f in det.aborted],
            "backtracks": det.backtracks,
        })


class OutputProbe:
    """Digests of each campaign job's extraction and switch-sim outputs.

    Campaign workers return only a result record, so the check that jobs
    sharing a seed share these outputs needs them captured where they are
    made.  Wraps ``run_experiment`` (for the job's config),
    ``extract_faults`` and ``SwitchLevelFaultSimulator.run``; a worker
    appends one line per job to ``<spool>/probe-<pid>.jsonl``.  The digests
    cost a few milliseconds per job.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.record: dict[str, object] = {}

    def install(self) -> None:
        patch("repro.experiments.pipeline", "run_experiment", self._experiment)
        patch("repro.defects.extraction", "extract_faults", self._extraction)
        patch("repro.switchsim.simulator", "SwitchLevelFaultSimulator.run",
              self._switch)

    def _experiment(self, fn):
        probe = self

        def run_experiment(config=None, **kwargs):
            probe.record = {
                "seed": config.seed,
                "detection": config.detection,
                "target_yield": config.target_yield,
            }
            result = fn(config, **kwargs)
            probe.spool.mkdir(parents=True, exist_ok=True)
            path = probe.spool / f"probe-{os.getpid()}.jsonl"
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(probe.record) + "\n")
            return result

        return run_experiment

    def _extraction(self, fn):
        probe = self

        def extract_faults(*args, **kwargs):
            faults = fn(*args, **kwargs)
            probe.record["extraction"] = _digest(
                [(type(f).__name__, repr(f.key()), f.weight) for f in faults]
            )
            return faults

        return extract_faults

    def _switch(self, fn):
        probe = self

        def run(sim, faults):
            result = fn(sim, faults)
            index = {id(f): i for i, f in enumerate(result.faults)}
            probe.record["switchsim"] = _digest([
                sorted((index[k], v) for k, v in detections.items())
                for detections in (
                    result.first_detection,
                    result.first_detection_potential,
                    result.first_detection_iddq,
                )
            ])
            return result

        return run

    def records(self) -> list[dict]:
        out = []
        for path in sorted(self.spool.glob("probe-*.jsonl")):
            out.extend(
                json.loads(line)
                for line in path.read_text(encoding="utf-8").splitlines()
            )
        return out


@dataclass
class SweepOutcome:
    phase1: Any
    phase2: Any
    n_phase1: int
    n_phase2: int


class SweepWorkload(Workload):
    """Two campaign phases over one shared result store."""

    def __init__(
        self,
        circuit: str,
        seed: int,
        workdir: Path,
        detections: tuple[str, ...] = SWEEP_DETECTIONS,
        yields: tuple[float, ...] = SWEEP_YIELDS,
    ) -> None:
        super().__init__(circuit, seed, workdir)
        self.detections = detections
        self.yields = yields
        self.seeds = (seed, seed + 1)
        self.workers = min(2, os.cpu_count() or 1)

    def prepare(self) -> None:
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.supervisor import CampaignSupervisor
        from repro.experiments.pipeline import ExperimentConfig

        self.Supervisor = CampaignSupervisor
        base = ExperimentConfig(benchmark=self.circuit, seed=self.seed)

        def spec(yields: tuple[float, ...]) -> CampaignSpec:
            return CampaignSpec(
                name=f"sweep_{self.circuit}",
                base=base,
                grid={
                    "detection": self.detections,
                    "target_yield": yields,
                    "seed": self.seeds,
                },
            )

        self.spec1 = spec(self.yields)
        self.spec2 = spec(self.yields + (SWEEP_EXTRA_YIELD,))
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.dir1 = self.workdir / "phase1"
        self.dir2 = self.workdir / "phase2"
        self.probe = OutputProbe(self.workdir / "probe")
        self.probe.install()

    def run(self) -> SweepOutcome:
        phase1 = self.Supervisor(self.dir1, max_workers=self.workers)
        n1 = len(phase1.submit(self.spec1))
        report1 = phase1.run()
        phase2 = self.Supervisor(
            self.dir2, max_workers=self.workers, results_dir=self.dir1 / "results"
        )
        n2 = len(phase2.submit(self.spec2))
        report2 = phase2.run()
        return SweepOutcome(report1, report2, n1, n2)

    def check(self, out: SweepOutcome) -> tuple[list[str], dict[str, float]]:
        errors = []
        for label, report, n in (
            ("phase 1", out.phase1, out.n_phase1),
            ("phase 2", out.phase2, out.n_phase2),
        ):
            if report.n_done != n or not report.finished:
                errors.append(f"{label}: {report.n_done} of {n} jobs done")
            if report.jobs_quarantined:
                errors.append(f"{label}: {report.jobs_quarantined} quarantined")
        if out.phase2.jobs_cached != out.n_phase1:
            errors.append(
                f"phase 2 served {out.phase2.jobs_cached} jobs from cache, "
                f"expected {out.n_phase1}"
            )
        probes = self.probe.records()
        computed = out.phase1.jobs_computed + out.phase2.jobs_computed
        if len(probes) != computed:
            errors.append(f"{len(probes)} probe records for {computed} jobs")
        for key in ("extraction", "switchsim"):
            by_seed: dict[int, set] = {}
            for record in probes:
                by_seed.setdefault(record["seed"], set()).add(record.get(key))
            for seed, digests in sorted(by_seed.items()):
                if len(digests) != 1:
                    errors.append(
                        f"seed {seed}: {len(digests)} distinct {key} outputs "
                        "across technique and yield"
                    )
        outputs = {
            "jobs_submitted": out.n_phase1 + out.n_phase2,
            "jobs_computed": computed,
            "jobs_cached": out.phase1.jobs_cached + out.phase2.jobs_cached,
        }
        return errors, outputs

    def fingerprint(self, out: SweepOutcome) -> str:
        from repro.campaign.store import ResultStore, record_sha256

        store = ResultStore(self.dir1 / "results")
        return _digest(
            [(job, record_sha256(store.load(job))) for job in store.job_ids()]
        )

    def campaign_facts(self, out: SweepOutcome) -> dict:
        return {
            "jobs_run": out.phase1.jobs_computed + out.phase2.jobs_computed,
            "jobs_cached": out.phase1.jobs_cached + out.phase2.jobs_cached,
            "jobs_submitted": out.n_phase1 + out.n_phase2,
            "retries": out.phase1.jobs_retried + out.phase2.jobs_retried,
            "quarantined": out.phase1.jobs_quarantined
            + out.phase2.jobs_quarantined,
            "workers": self.workers,
        }


WORKLOADS = ("paper_c432", "atpg_c880", "sweep_dec4")


def make(name: str, seed: int, workdir: Path, small: bool = False):
    """Build workload ``name`` for ``seed``; ``small`` runs its c17 version."""
    if name == "paper_c432":
        return PaperWorkload("c17" if small else "c432", seed, workdir)
    if name == "atpg_c880":
        return AtpgWorkload("c17" if small else "c880", seed, workdir)
    if name == "sweep_dec4":
        if small:
            return SweepWorkload(
                "c17", seed, workdir, detections=("voltage",), yields=(0.75,)
            )
        return SweepWorkload("dec4", seed, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
