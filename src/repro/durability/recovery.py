"""The crash-safe DisQ entry point: :func:`run_disq`.

Given a checkpoint directory, :func:`run_disq` attaches a
:class:`~repro.durability.checkpoint.CheckpointStore` to one
:class:`~repro.core.disq.DisQPlanner` run.  The store keeps one file,
``<dir>/disq.checkpoint.json``, rewritten atomically at every phase
boundary with the complete deterministic state: planner bookkeeping,
statistics, allocation, and the platform's RNGs, cursors, budget,
ledger and recorder tapes.

* A fresh run owns its directory: it removes an earlier run's
  checkpoint before it asks its first question, so a crash can only
  ever leave this run's own state behind.
* With ``resume=True`` an interrupted run restores the checkpoint and
  re-executes only the remaining phases.  Answers bought after the
  last phase boundary were lost with the crash; the restored RNGs ask
  for exactly the same ones again, so the plan, model, ledger and
  final checkpoint are bit-identical to a run that never crashed.

Without a checkpoint directory the function is a plain planner run,
so callers can use one code path for both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.disq import DisQParams, DisQPlanner
from repro.core.model import PreprocessingPlan, Query
from repro.crowd.platform import CrowdPlatform
from repro.durability.checkpoint import CheckpointStore

#: The checkpoint's file name inside a checkpoint directory.
CHECKPOINT_FILENAME = "disq.checkpoint.json"

#: The write-ahead answer journal earlier builds kept beside the
#: checkpoint.  No build's resume reads it; every run removes it.
_OLD_JOURNAL = "journal.jsonl"


@dataclass
class RecoveredRun:
    """The outcome of one (possibly resumed) crash-safe planner run.

    Attributes
    ----------
    plan:
        The finished preprocessing plan.
    planner:
        The planner that produced it (its forked platform carries the
        ledger and recorder — useful for audits and the online phase).
    resumed_from:
        Phase name the run resumed from, or ``None`` for a fresh run.
    checkpoint_path:
        Where the checkpoint lives (``None`` without a checkpoint
        directory).
    """

    plan: PreprocessingPlan
    planner: DisQPlanner
    resumed_from: str | None = None
    checkpoint_path: Path | None = None

    @property
    def resumed(self) -> bool:
        """Whether this run continued an interrupted one."""
        return self.resumed_from is not None


def run_disq(
    platform: CrowdPlatform,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    params: DisQParams | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    chaos: object | None = None,
) -> RecoveredRun:
    """Run the DisQ offline phase with optional crash safety.

    With ``checkpoint_dir`` set, every phase boundary is checkpointed
    atomically; pass ``resume=True`` after a crash to continue from the
    saved state.  Without ``resume`` the run starts over: it first
    removes any checkpoint in ``checkpoint_dir``.  Either way it
    removes the answer journal an older build may have left there.
    ``chaos`` (a :class:`~repro.durability.chaos.CrashInjector`) kills
    the run at its configured point; the :class:`SimulatedCrash` it
    raises propagates to the caller exactly like a process death would.
    """
    checkpoints = None
    if checkpoint_dir is not None:
        checkpoints = CheckpointStore(Path(checkpoint_dir), CHECKPOINT_FILENAME)
        (checkpoints.directory / _OLD_JOURNAL).unlink(missing_ok=True)
        if not resume:
            checkpoints.path.unlink(missing_ok=True)
    planner = DisQPlanner(
        platform,
        query,
        b_obj_cents,
        b_prc_cents,
        params,
        checkpoints=checkpoints,
        chaos=chaos,
        resume=resume,
    )
    return RecoveredRun(
        plan=planner.preprocess(),
        planner=planner,
        resumed_from=planner.resumed_from,
        checkpoint_path=checkpoints.path if checkpoints is not None else None,
    )


def durability_summary(run: RecoveredRun) -> dict:
    """The manifest ``durability`` section for one run."""
    summary: dict = {"resumed": run.resumed}
    if run.resumed_from is not None:
        summary["resumed_from"] = run.resumed_from
    if run.checkpoint_path is not None:
        summary["checkpoint"] = str(run.checkpoint_path)
    return summary
