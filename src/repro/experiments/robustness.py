"""The Section 5.4 robustness experiments.

Each function perturbs one assumption and re-runs the core comparison,
so the benches can check the paper's claims:

* *Attributes quality* — inflate the irrelevant-answer rate of
  dismantling questions; trends must hold at a somewhat higher
  ``B_prc``.
* *Normalization mechanism* — run with imperfect or disabled synonym
  merging; same expectation.
* *Answer's correlation parameter* — vary the ``E[rho] ~ 0.5`` constant
  of expression 5; results should stay similar.
* *Crowd-task payment* — scale the price schedule; gradients change,
  trends stay.
* *Crowd faults* (beyond the paper) — inject worker timeouts, abandons
  and garbage answers at increasing rates; with retries and graceful
  degradation every algorithm must still return a usable plan and the
  DisQ-beats-baselines trend should survive moderate fault rates.

Plus an ablation (flagged in DESIGN.md) of the optimistic priors used
by the next-dismantle scorer.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.model import Query
from repro.core.online import OnlineEvaluator, query_error
from repro.core.model import PreprocessingPlan
from repro.crowd.faults import FaultProfile
from repro.crowd.normalization import AttributeNormalizer, NormalizationMode
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import PriceSchedule
from repro.crowd.recording import AnswerRecorder
from repro.domains.gaussian import GaussianDomain
from repro.errors import CrowdFaultError, PlanningError
from repro.experiments.config import ExperimentConfig, algorithm
from repro.obs import Observability

import numpy as np


def _run_on_platform(
    name: str,
    platform: CrowdPlatform,
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
) -> float:
    plans = algorithm(name)(
        platform, query, b_obj_cents, b_prc_cents, config.make_params()
    )
    if isinstance(plans, PreprocessingPlan):
        plans = [plans]
    evaluator = OnlineEvaluator(platform.fork(), plans)
    object_ids = range(min(config.eval_objects, domain.n_objects()))
    estimates = evaluator.evaluate(object_ids)
    return query_error(domain, estimates, object_ids, query)


def _averaged(
    name: str,
    make_platform,
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
) -> float:
    errors = []
    for repetition in range(config.repetitions):
        try:
            errors.append(
                _run_on_platform(
                    name,
                    make_platform(config.base_seed + repetition),
                    domain,
                    query,
                    b_obj_cents,
                    b_prc_cents,
                    config,
                )
            )
        except (PlanningError, CrowdFaultError):
            # A run the planner could not salvage (tiny budget, or a
            # fault-injection run without graceful degradation) is
            # skipped; the point averages the runs that completed.
            continue
    return float(np.mean(errors)) if errors else float("inf")


def with_degraded_taxonomy(
    algorithms: Sequence[str],
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    extra_irrelevant: float = 0.3,
    obs: Observability | None = None,
) -> dict[str, float]:
    """*Attributes quality*: more irrelevant dismantling answers."""
    degraded = domain.with_taxonomy(
        domain.spec.taxonomy.with_extra_irrelevant(extra_irrelevant)
    )

    def make_platform(seed: int) -> CrowdPlatform:
        return CrowdPlatform(degraded, recorder=AnswerRecorder(), seed=seed, obs=obs)

    return {
        name: _averaged(
            name, make_platform, degraded, query, b_obj_cents, b_prc_cents, config
        )
        for name in algorithms
    }


def with_normalization_mode(
    algorithms: Sequence[str],
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    mode: NormalizationMode = NormalizationMode.NONE,
    failure_rate: float = 0.3,
    obs: Observability | None = None,
) -> dict[str, float]:
    """*Normalization mechanism*: imperfect or absent synonym merging."""

    def make_platform(seed: int) -> CrowdPlatform:
        return CrowdPlatform(
            domain,
            recorder=AnswerRecorder(),
            normalizer=AttributeNormalizer(
                domain, mode=mode, failure_rate=failure_rate, seed=seed
            ),
            seed=seed,
            obs=obs,
        )

    return {
        name: _averaged(
            name, make_platform, domain, query, b_obj_cents, b_prc_cents, config
        )
        for name in algorithms
    }


def with_rho_constant(
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    rho_values: Sequence[float] = (0.3, 0.5, 0.7),
    obs: Observability | None = None,
) -> dict[float, float]:
    """*Answer's correlation parameter*: vary the expression-5 prior."""

    def make_platform(seed: int) -> CrowdPlatform:
        return CrowdPlatform(domain, recorder=AnswerRecorder(), seed=seed, obs=obs)

    results = {}
    for rho in rho_values:
        rho_config = config.scaled(
            params_overrides={**config.params_overrides, "rho_constant": rho}
        )
        results[rho] = _averaged(
            "DisQ", make_platform, domain, query, b_obj_cents, b_prc_cents, rho_config
        )
    return results


def with_fault_profile(
    algorithms: Sequence[str],
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    fault_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    latency_mean: float = 2.0,
    obs: Observability | None = None,
) -> dict[float, dict[str, float]]:
    """*Crowd faults*: query error per algorithm as faults intensify.

    Workers time out, abandon and answer garbage at each rate in
    ``fault_rates`` (rate 0.0 is the clean baseline); planners run with
    graceful degradation enabled so starved statistics salvage a
    partial plan instead of aborting.  Returns
    ``{fault_rate: {algorithm: error}}``.
    """
    fault_config = config.scaled(
        params_overrides={
            **config.params_overrides,
            "graceful_degradation": True,
        }
    )
    results: dict[float, dict[str, float]] = {}
    for rate in fault_rates:
        profile = (
            FaultProfile.uniform(rate, latency_mean=latency_mean)
            if rate > 0
            else FaultProfile.none()
        )

        def make_platform(seed: int) -> CrowdPlatform:
            return CrowdPlatform(
                domain, recorder=AnswerRecorder(), seed=seed, faults=profile,
                obs=obs,
            )

        results[rate] = {
            name: _averaged(
                name,
                make_platform,
                domain,
                query,
                b_obj_cents,
                b_prc_cents,
                fault_config,
            )
            for name in algorithms
        }
    return results


def with_price_scale(
    algorithms: Sequence[str],
    domain: GaussianDomain,
    query: Query,
    b_obj_cents: float,
    b_prc_cents: float,
    config: ExperimentConfig,
    scale: float = 2.0,
    obs: Observability | None = None,
) -> dict[str, float]:
    """*Crowd-task payment*: scale all prices (budgets scale with them,
    so trends — not absolute spend — are what should persist)."""

    prices = PriceSchedule().scaled(scale)

    def make_platform(seed: int) -> CrowdPlatform:
        return CrowdPlatform(
            domain, recorder=AnswerRecorder(), prices=prices, seed=seed, obs=obs
        )

    return {
        name: _averaged(
            name,
            make_platform,
            domain,
            query,
            b_obj_cents * scale,
            b_prc_cents * scale,
            config,
        )
        for name in algorithms
    }
