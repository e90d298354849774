"""Crash safety for the preprocessing pipeline and the serving engine.

The paper's crowd answers were "recorded in a database and reused in
following experiments" (Section 5) precisely because crowd answers are
expensive and slow to re-buy.  This package makes the in-memory
pipeline state durable:

* :mod:`~repro.durability.checkpoint` — atomic phase-boundary
  snapshots of the full DisQ planner state (statistics, frontier,
  allocation, platform RNGs, recorder tapes, ledger), written via
  temp-file + ``os.replace``.  The checkpoint is the planner's one
  durable artifact.
* :mod:`~repro.durability.journal` — the append-only JSONL record
  format of the serving engine's log, checksummed per record so a
  torn tail is detected and truncated, never double counted.
* :mod:`~repro.durability.chaos` — a :class:`CrashInjector` that
  raises :class:`SimulatedCrash` at configurable interaction counts or
  phase boundaries, for the crash/resume test matrix.
* :mod:`~repro.durability.recovery` — :func:`run_disq`, the
  crash-safe entry point: ``run_disq(..., checkpoint_dir=...,
  resume=True)`` continues an interrupted run and produces a
  bit-identical plan and ledger to an uninterrupted one.
"""

from repro.durability.chaos import CrashInjector, SimulatedCrash
from repro.durability.checkpoint import CheckpointStore, atomic_write_text
from repro.durability.journal import Journal, read_journal
from repro.durability.recovery import (
    CHECKPOINT_FILENAME,
    RecoveredRun,
    durability_summary,
    run_disq,
)

__all__ = [
    "CHECKPOINT_FILENAME",
    "CheckpointStore",
    "CrashInjector",
    "Journal",
    "RecoveredRun",
    "SimulatedCrash",
    "atomic_write_text",
    "durability_summary",
    "read_journal",
    "run_disq",
]
