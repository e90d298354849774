"""Running algorithms in equivalent settings.

The paper recorded all crowd answers and replayed them so different
algorithms faced identical data.  :func:`run_algorithm` does the same:
all algorithms of one repetition share an
:class:`~repro.crowd.recording.AnswerRecorder`, and each gets a fresh
platform fork (cursors reset) so it sees the same answer streams.
:func:`run_averaged` repeats over seeds and averages, as the paper's
30-run averages do, through the one experiment engine
(:func:`~repro.experiments.parallel.run_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import PreprocessingPlan, Query
from repro.core.online import OnlineEvaluator, default_weights, query_error
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains.base import Domain
from repro.experiments.config import ExperimentConfig, algorithm
from repro.obs import NULL_OBS, Observability


@dataclass(frozen=True)
class RunResult:
    """Outcome of one algorithm run.

    Attributes
    ----------
    error:
        Weighted query error over the evaluation objects.
    plans:
        The preprocessing plan(s) the offline phase produced.
    preprocessing_cost:
        Offline cents actually spent.
    online_cost_per_object:
        Online cents per database object under the plan.
    """

    error: float
    plans: tuple[PreprocessingPlan, ...]
    preprocessing_cost: float
    online_cost_per_object: float


def make_query(domain: Domain, targets: tuple[str, ...]) -> Query:
    """A query over ``targets`` with the paper's ``1/Var`` weights."""
    return Query(targets=targets, weights=default_weights(domain, targets))


def run_algorithm(
    name: str,
    domain: Domain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    seed: int,
    recorder: AnswerRecorder | None = None,
    obs: Observability | None = None,
) -> RunResult:
    """Run one algorithm once and measure its online query error.

    ``obs`` instruments the run (phase spans from the planner, crowd
    counters from the platform, online-phase skips); the default no-op
    bundle leaves the run byte-identical to an uninstrumented one.
    """
    obs = obs if obs is not None else NULL_OBS
    platform = CrowdPlatform(
        domain, recorder=recorder if recorder is not None else AnswerRecorder(),
        seed=seed, obs=obs,
    )
    plans = algorithm(name)(
        platform, query, b_obj_cents, b_prc_cents, config.make_params()
    )
    if isinstance(plans, PreprocessingPlan):
        plans = [plans]
    evaluator = OnlineEvaluator(platform.fork(), plans)
    object_ids = range(min(config.eval_objects, domain.n_objects()))
    with obs.tracer.span("online", algorithm=name):
        estimates = evaluator.evaluate(object_ids)
    error = query_error(domain, estimates, object_ids, query)
    return RunResult(
        error=error,
        plans=tuple(plans),
        preprocessing_cost=sum(plan.preprocessing_cost for plan in plans),
        online_cost_per_object=evaluator.per_object_cost(),
    )


def run_averaged(
    name: str,
    domain: Domain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    obs: Observability | None = None,
) -> float:
    """Mean query error over ``config.repetitions`` independent runs.

    Repetition ``r`` runs with seed ``config.base_seed + r``, so two
    experiments only share crowd randomness when they share a
    ``base_seed``.  Runs whose preprocessing budget cannot even buy the
    example pools are skipped (the paper never plots such underfunded
    points); if all repetitions are infeasible the result is ``inf``.
    This is :func:`~repro.experiments.parallel.run_grid` over one point
    and one algorithm.
    """
    from repro.experiments.parallel import run_grid

    point = (b_obj_cents, b_prc_cents)
    return run_grid([name], domain, query, [point], config, obs=obs)[(0, name)]
