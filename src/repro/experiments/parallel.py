"""The experiment engine: every averaged run and budget sweep.

The paper's methodology shares one :class:`~repro.crowd.recording.
AnswerRecorder` per repetition across every algorithm and every sweep
point, so the crowd answers any run sees depend on the *order* in which
earlier runs over the same recorder asked their questions.  That makes
the (point, algorithm) grid inherently sequential **within** one
repetition — but repetitions never share a recorder, a worker pool, or
a seed, so they are independent.

:func:`run_grid` therefore runs whole repetitions: each replays its
full (point, algorithm) grid in sweep order against its own fresh
recorder and ``base_seed + repetition`` seed, either in-process or in a
:class:`~concurrent.futures.ProcessPoolExecutor` worker.  Merging
averages per-(point, algorithm) errors in repetition order, so both
give the same floats (asserted in
``tests/integration/test_parallel_experiments.py`` and the perf
harness).

Every repetition collects its counters into its own registry, which the
caller's registry merges in repetition order; in-process and pool runs,
and resumed and uninterrupted runs, therefore report equal counters.
In-process repetitions trace into the caller's tracer; a worker
process's spans stay in the worker.

With a checkpoint directory, each finished repetition writes one
record, ``rep-<r>.grid.json``, holding its errors, its counters and the
sweep's configuration fingerprint.  The records are the sweep's only
resume state: resume reruns only the repetitions without one, and
refuses a record from another configuration, another version or an
unreadable file with :class:`~repro.errors.CheckpointError`.  A run
without resume first removes the directory's earlier records, so a
directory holds one sweep.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.model import Query
from repro.crowd.recording import AnswerRecorder
from repro.domains.base import Domain
from repro.durability.checkpoint import CheckpointStore
from repro.errors import CheckpointError, PlanningError
from repro.experiments.config import ExperimentConfig
from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
)

#: One sweep grid point: ``(b_obj_cents, b_prc_cents)``.
GridPoint = tuple[float, float]

#: One repetition's outcome: ``errors[point_index][algorithm_index]``
#: (``None`` where preprocessing was infeasible) and its counters.
Outcome = tuple[list[list[float | None]], dict]

#: The per-cell checkpoints older builds wrote; no build reads them.
_OLD_SWEEP_CHECKPOINTS = "*.sweep.json"


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan experiment repetitions across worker processes.

    Attributes
    ----------
    max_workers:
        Upper bound on worker processes.  ``0`` means "one per CPU";
        the effective pool never exceeds the number of repetitions.
        A resolved value of 1 short-circuits to in-process execution
        (no executor, no pickling) with identical results.
    """

    max_workers: int = 0

    def resolve(self, n_tasks: int) -> int:
        """Effective worker count for ``n_tasks`` parallel tasks."""
        limit = self.max_workers if self.max_workers > 0 else (os.cpu_count() or 1)
        return max(1, min(limit, n_tasks))


def _repetition_grid(
    task: tuple[
        Sequence[str], Domain, Query, Sequence[GridPoint], ExperimentConfig, int
    ],
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> Outcome:
    """One repetition's full grid, serially, on a fresh recorder.

    Returns the repetition's errors and its serialized
    :class:`~repro.obs.metrics.MetricsRegistry`.  Module-level so it
    pickles for the process pool; pool workers keep the default no-op
    ``tracer``.
    """
    # Imported lazily so worker processes pay the import once, and to
    # keep this module import-light for the executor bootstrap.
    from repro.experiments.runner import run_algorithm

    names, domain, query, points, config, repetition = task
    obs = Observability(tracer=tracer, metrics=MetricsRegistry())
    recorder = AnswerRecorder()
    errors: list[list[float | None]] = []
    for b_obj, b_prc in points:
        row: list[float | None] = []
        for name in names:
            try:
                result = run_algorithm(
                    name,
                    domain,
                    query,
                    b_obj,
                    b_prc,
                    config,
                    seed=config.base_seed + repetition,
                    recorder=recorder,
                    obs=obs,
                )
                row.append(result.error)
                obs.metrics.inc("runs.completed")
            except PlanningError:
                row.append(None)
                obs.metrics.inc("runs.infeasible")
        errors.append(row)
    return errors, obs.metrics.to_dict()


def _fingerprint(
    algorithms: Sequence[str],
    domain: Domain,
    query: Query,
    points: Sequence[GridPoint],
    config: ExperimentConfig,
) -> dict:
    """The sweep configuration a repetition record must match."""
    fingerprint = {
        "algorithms": list(algorithms),
        "domain": domain.name,
        "n_objects": int(domain.n_objects()),
        "targets": list(query.targets),
        "weights": [float(query.weight(t)) for t in query.targets],
        "points": [[float(b_obj), float(b_prc)] for b_obj, b_prc in points],
        # Default reprs embed object addresses, which differ across
        # processes; strip them as the planner checkpoint does.
        "config": re.sub(r" at 0x[0-9a-f]+", "", repr(config)),
    }
    # Compared in the form a record reads back as.
    return json.loads(json.dumps(fingerprint))


def _load_record(store: CheckpointStore, fingerprint: dict) -> Outcome:
    """A finished repetition's outcome, refusing any other sweep's."""
    document = store.load()
    if document.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"sweep record {store.path} was written by a sweep with another "
            "configuration (algorithms, domain, query, points or "
            "ExperimentConfig); refusing to resume"
        )
    errors, metrics = document.get("errors"), document.get("metrics")
    if not isinstance(errors, list) or not isinstance(metrics, dict):
        raise CheckpointError(f"sweep record {store.path} is damaged")
    return errors, metrics


def _merge_errors(per_repetition: list[float | None]) -> float:
    """Average one cell's repetition errors in repetition order.

    Infeasible repetitions are skipped; all-infeasible cells are
    ``inf`` (the paper never plots underfunded points).
    """
    errors = [error for error in per_repetition if error is not None]
    if not errors:
        return float("inf")
    return float(np.mean(errors))


def run_grid(
    algorithms: Sequence[str],
    domain: Domain,
    query: Query,
    points: Sequence[GridPoint],
    config: ExperimentConfig,
    parallel: ParallelConfig | None = None,
    obs: Observability | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> dict[tuple[int, str], float]:
    """Mean error per (point index, algorithm) over all repetitions.

    Repetitions run across processes per ``parallel`` (in-process when
    ``parallel`` is ``None`` or resolves to one worker); each keeps the
    paper's shared-recorder replay semantics internally, so the result
    does not depend on the worker count.  Runs whose preprocessing
    budget cannot even buy the example pools are skipped; a cell whose
    every repetition was skipped is ``inf``.

    ``obs`` receives every repetition's counters, merged in repetition
    order, and the spans of in-process repetitions.

    With ``checkpoint_dir``, each repetition's record is written
    atomically as soon as it finishes (in-process: after the
    repetition; in the pool: as its outcome is collected, in
    repetition order).  With ``resume``, recorded repetitions are read
    back instead of rerun and their counters merged as if they had run;
    a record from another configuration raises
    :class:`~repro.errors.CheckpointError`.  Without ``resume`` the
    directory's earlier records are removed first.  Either way the
    per-cell checkpoints of older builds are removed.
    """
    obs = obs if obs is not None else NULL_OBS
    tasks = [
        (tuple(algorithms), domain, query, tuple(points), config, repetition)
        for repetition in range(config.repetitions)
    ]
    outcomes: dict[int, Outcome] = {}
    stores: list[CheckpointStore] = []
    fingerprint: dict = {}
    if checkpoint_dir is not None:
        directory = Path(checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for old in directory.glob(_OLD_SWEEP_CHECKPOINTS):
            old.unlink()
        if not resume:
            for record in directory.glob("rep-*.grid.json"):
                record.unlink()
        fingerprint = _fingerprint(algorithms, domain, query, points, config)
        stores = [
            CheckpointStore(directory, f"rep-{repetition}.grid.json")
            for repetition in range(config.repetitions)
        ]
        for repetition, store in enumerate(stores):
            if resume and store.exists():
                outcomes[repetition] = _load_record(store, fingerprint)

    def finish(repetition: int, outcome: Outcome) -> None:
        outcomes[repetition] = outcome
        if stores:
            errors, metrics = outcome
            stores[repetition].save(
                {"fingerprint": fingerprint, "errors": errors, "metrics": metrics}
            )

    pending = [task for task in tasks if task[5] not in outcomes]
    workers = (parallel or ParallelConfig(max_workers=1)).resolve(
        max(1, len(pending))
    )
    if workers <= 1:
        for task in pending:
            finish(task[5], _repetition_grid(task, obs.tracer))
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            for task, outcome in zip(
                pending, executor.map(_repetition_grid, pending)
            ):
                finish(task[5], outcome)
    per_repetition = []
    for repetition in range(config.repetitions):
        errors, metrics = outcomes[repetition]
        obs.metrics.merge(metrics)
        per_repetition.append(errors)
    merged: dict[tuple[int, str], float] = {}
    for point_index in range(len(points)):
        for algorithm_index, name in enumerate(algorithms):
            merged[(point_index, name)] = _merge_errors(
                [grid[point_index][algorithm_index] for grid in per_repetition]
            )
    return merged
