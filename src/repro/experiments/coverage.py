"""Gold-standard coverage of discovered attributes (Section 5.3.1).

The paper measured how much of an expert-provided attribute set the
crowd dismantling process discovers, versus a naive variant that only
dismantles the attributes explicitly in the query.  Reported result:
over 80% coverage for DisQ, under 50% for the naive variant, across
four domains (pictures, recipes, house prices, laptop prices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.domains.base import Domain
from repro.errors import ConfigurationError, PlanningError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_query, run_algorithm


@dataclass(frozen=True)
class CoverageResult:
    """Coverage of one (domain, target) pair.

    Attributes
    ----------
    coverage_disq / coverage_naive:
        Mean fraction of the gold-standard set discovered by full
        dismantling versus query-attributes-only dismantling, per run.
    discovered_disq / discovered_naive:
        Union of attributes discovered across repetitions.
    gold:
        The gold-standard attribute set itself.
    """

    domain: str
    target: str
    coverage_disq: float
    coverage_naive: float
    discovered_disq: frozenset[str]
    discovered_naive: frozenset[str]
    gold: frozenset[str]

    @property
    def union_coverage_disq(self) -> float:
        """Coverage of the union of discoveries across repetitions."""
        return len(self.discovered_disq & self.gold) / len(self.gold)

    @property
    def union_coverage_naive(self) -> float:
        """Union coverage of the query-attributes-only variant."""
        return len(self.discovered_naive & self.gold) / len(self.gold)


def _coverage(discovered: frozenset[str], gold: frozenset[str]) -> float:
    if not gold:
        raise ConfigurationError("gold standard set is empty")
    return len(discovered & gold) / len(gold)


def coverage_experiment(
    domain: Domain,
    target: str,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
) -> CoverageResult:
    """Measure gold-standard coverage for one query attribute.

    Both variants run the full planner (so discovery follows the real
    expression-8 scoring and budget management); coverage counts the
    attributes present in the final plan, excluding the target itself.
    """
    gold = domain.gold_standard(target)
    query = make_query(domain, (target,))
    per_run_disq: list[float] = []
    per_run_naive: list[float] = []
    all_disq: set[str] = set()
    all_naive: set[str] = set()
    for repetition in range(config.repetitions):
        seed = config.base_seed + repetition
        try:
            disq = run_algorithm(
                "DisQ", domain, query, b_obj_cents, b_prc_cents, config, seed
            )
            naive = run_algorithm(
                "OnlyQueryAttributes",
                domain,
                query,
                b_obj_cents,
                b_prc_cents,
                config,
                seed,
            )
        except PlanningError:
            continue
        found_disq = frozenset(disq.plans[0].attributes) - {target}
        found_naive = frozenset(naive.plans[0].attributes) - {target}
        per_run_disq.append(_coverage(found_disq, gold))
        per_run_naive.append(_coverage(found_naive, gold))
        all_disq |= found_disq
        all_naive |= found_naive
    if not per_run_disq:
        raise PlanningError(
            "coverage experiment infeasible: preprocessing budget too small"
        )
    return CoverageResult(
        domain=domain.name,
        target=target,
        coverage_disq=float(np.mean(per_run_disq)),
        coverage_naive=float(np.mean(per_run_naive)),
        discovered_disq=frozenset(all_disq),
        discovered_naive=frozenset(all_naive),
        gold=gold,
    )
