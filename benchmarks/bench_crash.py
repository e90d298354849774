"""Chaos-matrix bench: crash/resume equivalence on a synthetic domain.

Runs the DisQ offline phase once uninterrupted, then kills it at a
matrix of points — after N crowd interactions and at each phase
boundary — resumes every kill from its checkpoint directory, and
hard-fails unless each resumed run's plan formulas, budget allocation
and ledger are **bit-identical** to the uninterrupted reference with
zero re-purchased answers, and unless its checkpoint directory holds
one file, a final ``disq.checkpoint.json`` byte-identical to that of a
durable run that never crashed.

Artifacts under ``benchmarks/out/``:

* ``crash.txt`` — the matrix table (kill point, resumed-from phase,
  final checkpoint, verdict);
* ``crash.manifest.json`` — a run manifest of the last resumed run,
  carrying the ``durability`` provenance section CI uploads.

Usage: ``PYTHONPATH=src:. python benchmarks/bench_crash.py``
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from benchmarks.common import OUT_DIR, write_report
from repro.core.disq import DisQParams
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_synthetic_domain
from repro.durability import (
    CHECKPOINT_FILENAME,
    CrashInjector,
    SimulatedCrash,
    durability_summary,
    run_disq,
)
from repro.experiments import render_table
from repro.experiments.runner import make_query
from repro.obs import Observability
from repro.obs.manifest import build_manifest, write_manifest

B_OBJ = 4.0
B_PRC = 400.0

KILL_INTERACTIONS = (5, 30, 60, 200, 400)
KILL_PHASES = ("examples", "statistics", "dismantle", "allocate")


def _run(checkpoint_dir=None, resume=False, chaos=None):
    domain = make_synthetic_domain(n_objects=60, seed=3)
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    query = make_query(domain, (domain.attributes()[0],))
    return run_disq(
        platform, query, B_OBJ, B_PRC, DisQParams(n1=12),
        checkpoint_dir=checkpoint_dir, resume=resume, chaos=chaos,
    )


def _state(run):
    platform = run.planner.platform
    return {
        "formulas": {t: repr(f) for t, f in run.plan.formulas.items()},
        "budget_counts": dict(run.plan.budget.counts),
        "cost": run.plan.preprocessing_cost,
        "ledger": platform.ledger.snapshot(),
        "recorder": platform.recorder.to_dict(),
    }


def _final_checkpoint(directory: str) -> bytes | None:
    """The directory's one file, the checkpoint; ``None`` if anything else."""
    names = sorted(path.name for path in Path(directory).iterdir())
    if names != [CHECKPOINT_FILENAME]:
        return None
    return (Path(directory) / CHECKPOINT_FILENAME).read_bytes()


def main() -> int:
    reference = _state(_run())
    with tempfile.TemporaryDirectory() as scratch:
        _run(checkpoint_dir=scratch)
        reference_checkpoint = _final_checkpoint(scratch)
    kill_points = [("interactions", n) for n in KILL_INTERACTIONS]
    kill_points += [("phase", p) for p in KILL_PHASES]

    rows = []
    failures = 0
    last_resumed = None
    for mode, value in kill_points:
        chaos = (
            CrashInjector(at_interactions=value)
            if mode == "interactions"
            else CrashInjector(at_phase=value)
        )
        with tempfile.TemporaryDirectory() as scratch:
            try:
                _run(checkpoint_dir=scratch, chaos=chaos)
                raise AssertionError(f"kill point {mode}={value} never fired")
            except SimulatedCrash:
                pass
            resumed = _run(checkpoint_dir=scratch, resume=True)
            checkpoint = _final_checkpoint(scratch)
            same_checkpoint = (
                checkpoint is not None and checkpoint == reference_checkpoint
            )
            identical = _state(resumed) == reference and same_checkpoint
            failures += 0 if identical else 1
            last_resumed = durability_summary(resumed)
            rows.append(
                [
                    f"{mode}={value}",
                    resumed.resumed_from or "(fresh)",
                    "identical" if same_checkpoint else "DIFFERS",
                    "bit-identical" if identical else "MISMATCH",
                ]
            )

    write_report(
        "crash",
        render_table(
            ["kill point", "resumed from", "final checkpoint", "verdict"],
            rows,
            title=f"chaos matrix over {len(kill_points)} kill points "
            f"(synthetic domain, B_prc={B_PRC:g}c)",
        ),
    )

    # The resumed manifest CI uploads: provenance of the final resume.
    obs = Observability.collecting()
    manifest = build_manifest("bench-crash", obs, durability=last_resumed)
    OUT_DIR.mkdir(exist_ok=True)
    path = write_manifest(OUT_DIR / "crash.manifest.json", manifest)
    print(f"resumed manifest written to {path}")

    if failures:
        print(f"FAILED: {failures} kill point(s) not bit-identical")
        return 1
    print(f"all {len(kill_points)} kill points resumed bit-identically")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
