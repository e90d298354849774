"""Experiment configuration and the algorithm registry.

The registry maps the paper's algorithm names to factories with the
uniform signature ``(platform, query, b_obj, b_prc, params) -> plan(s)``
so the runner and all sweeps are algorithm-agnostic.

Scaling note: the paper ran with ``N_1 = 200`` examples, 500 objects
and 30 repetitions per point against live CrowdFlower workers.  The
default :class:`ExperimentConfig` here is scaled down (documented in
EXPERIMENTS.md) so a full table/figure regenerates in seconds; pass
``paper_scale()`` for the full-size setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.baselines import (
    NaiveAverage,
    make_full_planner,
    make_naive_estimations_planner,
    make_one_connection_planner,
    make_only_query_attributes_planner,
    make_simple_disq_planner,
    run_totally_separated,
)
from repro.core.disq import DisQParams, DisQPlanner
from repro.core.model import PreprocessingPlan, Query
from repro.crowd.platform import CrowdPlatform
from repro.errors import ConfigurationError

#: Uniform algorithm factory signature.
AlgorithmFactory = Callable[
    [CrowdPlatform, Query, float, float, DisQParams],
    "PreprocessingPlan | list[PreprocessingPlan]",
]


def _run_disq(platform, query, b_obj, b_prc, params):
    return DisQPlanner(platform, query, b_obj, b_prc, params).preprocess()


def _run_simple(platform, query, b_obj, b_prc, params):
    return make_simple_disq_planner(platform, query, b_obj, b_prc, params).preprocess()


def _run_naive(platform, query, b_obj, b_prc, params):
    return NaiveAverage(platform, query, b_obj).preprocess()


def _run_only_query(platform, query, b_obj, b_prc, params):
    return make_only_query_attributes_planner(
        platform, query, b_obj, b_prc, params
    ).preprocess()


def _run_full(platform, query, b_obj, b_prc, params):
    return make_full_planner(platform, query, b_obj, b_prc, params).preprocess()


def _run_one_connection(platform, query, b_obj, b_prc, params):
    return make_one_connection_planner(
        platform, query, b_obj, b_prc, params
    ).preprocess()


def _run_naive_estimations(platform, query, b_obj, b_prc, params):
    return make_naive_estimations_planner(
        platform, query, b_obj, b_prc, params
    ).preprocess()


def _run_totally_separated(platform, query, b_obj, b_prc, params):
    return run_totally_separated(platform, query, b_obj, b_prc, params)


def _run_disq_split(platform, query, b_obj, b_prc, params):
    """DisQ restricted to split per-target example pools (Section 4's
    general case) — the configuration the Figure 4 variants compare to."""
    from repro.core.disq import with_params

    return DisQPlanner(
        platform, query, b_obj, b_prc, with_params(params, example_pooling="split")
    ).preprocess()


#: The paper's algorithm names -> factories.
ALGORITHMS: dict[str, AlgorithmFactory] = {
    "DisQ": _run_disq,
    "SimpleDisQ": _run_simple,
    "NaiveAverage": _run_naive,
    "OnlyQueryAttributes": _run_only_query,
    "Full": _run_full,
    "OneConnection": _run_one_connection,
    "NaiveEstimations": _run_naive_estimations,
    "TotallySeparated": _run_totally_separated,
    "DisQSplit": _run_disq_split,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of one experiment.

    Attributes
    ----------
    n_objects:
        Domain size (paper: 500).
    n1:
        Statistics examples per pool (paper: 200).
    repetitions:
        Runs averaged per point (paper: 30).
    eval_objects:
        Database objects processed by the online phase per run.
    base_seed:
        Offset added to the repetition index to form each run's crowd
        seed (repetition ``r`` runs with seed ``base_seed + r``).  Two
        experiments with different ``base_seed`` values therefore see
        independent crowds instead of silently reusing seeds
        ``0..repetitions-1``.
    params_overrides:
        Extra :class:`~repro.core.disq.DisQParams` fields merged into
        the parameters built by :meth:`make_params`.
    """

    n_objects: int = 300
    n1: int = 80
    repetitions: int = 3
    eval_objects: int = 80
    base_seed: int = 0
    params_overrides: dict = field(default_factory=dict)

    def make_params(self) -> DisQParams:
        """Planner parameters for this configuration."""
        return DisQParams(n1=self.n1, **self.params_overrides)

    def scaled(self, **changes) -> "ExperimentConfig":
        """Copy with overrides (convenience for benches)."""
        return replace(self, **changes)


def paper_scale() -> ExperimentConfig:
    """The paper's full-size setting (slow: minutes per figure point)."""
    return ExperimentConfig(
        n_objects=500, n1=200, repetitions=30, eval_objects=200
    )


def algorithm(name: str) -> AlgorithmFactory:
    """Look up a registry algorithm, with a friendly error."""
    if name not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[name]
