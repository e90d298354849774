"""The DisQ preprocessing planner (Algorithm 1 + Section 4).

Given a query, an online per-object budget ``B_obj`` and an offline
preprocessing budget ``B_prc``, the planner spends ``B_prc`` on the
crowd to produce a :class:`~repro.core.model.PreprocessingPlan`: the
discovered attribute set ``A_final``, the online budget distribution
``b`` and one linear estimation formula ``l`` per target.

The five inter-related components of Algorithm 1 map to:

========================  ============================================
finding attributes        :class:`~repro.core.dismantling.DismantleScorer`
collecting statistics     :class:`~repro.core.statistics.StatisticsStore`
budget distribution       :func:`~repro.core.budget.find_budget_distribution`
linear regression         :func:`~repro.core.regression.fit_linear_regression`
preprocessing budget      :class:`~repro.core.stopping.PreprocessingBudgetManager`
========================  ============================================

Every baseline of Section 5 is a configuration of this planner (see
:class:`DisQParams` and :mod:`repro.core.baselines`), which is also how
the paper describes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from repro.agg.base import (
    AGGREGATORS,
    UNATTRIBUTED,
    Aggregator,
    make_aggregator,
    validate_em_iterations,
    validate_huber_delta,
    validate_trim_fraction,
)
from repro.agg.reliability import ReliabilityModel
from repro.core.budget import TargetObjective, find_budget_distribution
from repro.core.dismantling import (
    DismantleScorer,
    probability_of_new_answer,
    ranking_key,
)
from repro.core.model import BudgetDistribution, PreprocessingPlan, Query
from repro.core.pairing import NaiveMeanEstimator, PairingRule
from repro.core.regression import (
    TrainingRow,
    fit_linear_regression,
    recommended_training_size,
)
from repro.core.sograph import SoGraphEstimator
from repro.core.statistics import SoFill, StatisticsStore
from repro.core.stopping import PreprocessingBudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.verification import SequentialVerifier
from repro.errors import (
    BudgetExhaustedError,
    CheckpointError,
    ConfigurationError,
    CrowdFaultError,
    PlanningError,
    UnknownAttributeError,
)

#: The planner's phases, in execution order.  A checkpoint names the
#: last phase whose boundary it captured; resume re-executes everything
#: after it ("train" re-runs from the "allocate" checkpoint, so no
#: checkpoint is written at the train boundary).
PHASES = ("examples", "statistics", "dismantle", "allocate", "train")

#: Consecutive crowd-fault failures after which a collection loop gives
#: up on its current goal (pool filling, attribute measurement) and the
#: degradation path takes over.
FAULT_STRIKE_LIMIT = 3

#: Total fault strikes after which the dismantling loop stops asking.
DISMANTLE_FAULT_LIMIT = 5


@dataclass(frozen=True)
class DisQParams:
    """Tunable knobs of the planner; defaults follow Section 5.1.

    Attributes
    ----------
    k:
        Value answers per example for statistics (paper: 2).
    n1:
        Statistics examples per target pool (paper: 200).
    rho_constant:
        Prior ``E[rho(a_j, ans_j)]`` of expression 5 (paper: 0.5).
    dismantling:
        Disable to obtain the *SimpleDisQ* baseline.
    candidate_policy:
        ``"all"`` — any discovered attribute may be dismantled (DisQ);
        ``"query_only"`` — only query attributes (the
        *OnlyQueryAttributes* baseline).
    pairing:
        Target-pairing rule (Section 4); swap for the *Full* /
        *OneConnection* baselines.
    s_o_estimator:
        Fill for missing ``S_o`` entries: ``"graph"`` (expr. 11) or
        ``"naive"`` (*NaiveEstimations* baseline).
    stop_on_nonpositive_score:
        Also stop dismantling when the best expression-8 score is <= 0.
    max_rounds:
        Hard safety cap on dismantling rounds (None = budget decides).
    verifier:
        Sequential verification configuration.
    example_pooling:
        ``"shared"`` — one example question supplies true values for
        *all* query targets at once (the paper's GetExamples extension:
        "ask for examples with multiple attribute values"), so every
        pool holds the same objects and value answers are shared across
        targets.  ``"split"`` — one independent example pool per target
        (Section 4's general case, Table 3), where the pairing rule and
        the graph estimation of missing ``S_o`` entries come into play.
        Both run one code path: shared pooling is split pooling over a
        single group of all targets.
    min_probability_new:
        Exhaustion floor: an attribute is no longer dismantled once
        ``Pr(new | a_j)`` drops below this (with the paper's
        Bernoulli-Bayes model, a floor of 0.02 means ~48 questions).
        The expression-8 score alone never retires an attribute,
        because its optimistic gain ignores the redundancy of answers
        with the already-discovered set; without a floor the argmax can
        grind thousands of questions out of one exhausted attribute.
    graceful_degradation:
        When True, a starved or fault-ridden preprocessing phase
        salvages a partial plan from whatever statistics were gathered
        (fewer attributes, smaller pools, an even query-attribute
        allocation as the last resort) instead of raising
        :class:`~repro.errors.PlanningError`; what was given up is
        recorded in the plan's
        :class:`~repro.crowd.faults.ResilienceReport`.  Off by default
        so the paper-faithful abort behavior is unchanged.
    aggregator:
        Answer-aggregation strategy for the online phase: ``"uniform"``
        (the paper's plain mean, default), ``"trimmed"``, ``"huber"``
        or ``"reliability"`` (per-worker precision weighting learned
        from the preprocessing tapes; also feeds effective-sample-size
        gains back into the budget allocator).
    trim_fraction, huber_delta, em_iterations:
        Knobs of the respective aggregation strategies; validated here
        regardless of which strategy is selected so a bad value fails
        at configuration time, not mid-run.
    """

    k: int = 2
    n1: int = 200
    rho_constant: float = 0.5
    dismantling: bool = True
    candidate_policy: str = "all"
    pairing: PairingRule = field(default_factory=PairingRule)
    s_o_estimator: str = "graph"
    stop_on_nonpositive_score: bool = False
    max_rounds: int | None = None
    verifier: SequentialVerifier = field(default_factory=SequentialVerifier)
    example_pooling: str = "shared"
    min_probability_new: float = 0.02
    graceful_degradation: bool = False
    aggregator: str = "uniform"
    trim_fraction: float = 0.1
    huber_delta: float = 1.5
    em_iterations: int = 5

    def __post_init__(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ConfigurationError(
                f"unknown aggregator {self.aggregator!r}; "
                f"choose from {AGGREGATORS}"
            )
        validate_trim_fraction(self.trim_fraction)
        validate_huber_delta(self.huber_delta)
        validate_em_iterations(self.em_iterations)
        if self.candidate_policy not in ("all", "query_only"):
            raise ConfigurationError(
                f"unknown candidate policy: {self.candidate_policy!r}"
            )
        if self.example_pooling not in ("shared", "split"):
            raise ConfigurationError(
                f"unknown example pooling: {self.example_pooling!r}"
            )
        if not 0.0 <= self.min_probability_new <= 0.5:
            raise ConfigurationError(
                f"min_probability_new must be in [0, 0.5]: {self.min_probability_new}"
            )
        if self.s_o_estimator not in ("graph", "naive"):
            raise ConfigurationError(
                f"unknown S_o estimator: {self.s_o_estimator!r}"
            )
        if self.k < 1 or self.n1 < 2:
            raise ConfigurationError("k must be >= 1 and n1 >= 2")

    def make_fill(self) -> SoFill:
        """Instantiate the configured missing-``S_o`` estimator."""
        if self.s_o_estimator == "graph":
            return SoGraphEstimator()
        return NaiveMeanEstimator()

    def build_aggregator(
        self, model: ReliabilityModel | None = None
    ) -> Aggregator | None:
        """Instantiate the configured aggregation strategy.

        Returns ``None`` for ``"uniform"`` so callers keep the
        historical fast paths without an extra indirection.  A shared
        ``model`` threads planner-learned precisions into the online
        phase; omitted, a reliability aggregator starts neutral.
        """
        if self.aggregator == "uniform":
            return None
        return make_aggregator(
            self.aggregator,
            trim_fraction=self.trim_fraction,
            huber_delta=self.huber_delta,
            em_iterations=self.em_iterations,
            model=model,
        )


class DisQPlanner:
    """Runs the offline preprocessing phase for one query.

    Parameters
    ----------
    platform:
        Crowd access; the planner forks it with a fresh ``B_prc``
        budget so replay cursors start at zero (one planner = one run).
    query:
        The query (targets + weights).
    b_obj_cents:
        Online per-object budget in cents.
    b_prc_cents:
        Offline preprocessing budget in cents.
    params:
        Planner configuration; defaults reproduce full DisQ.
    checkpoints:
        Optional duck-typed checkpoint store (a
        :class:`repro.durability.checkpoint.CheckpointStore`).  When
        set, the planner saves its full deterministic state at every
        phase boundary (atomically), which is what makes a resumed run
        bit-identical to an uninterrupted one.
    chaos:
        Optional duck-typed crash injector (a
        :class:`repro.durability.chaos.CrashInjector`) for the chaos
        test matrix; attached to the forked platform.
    resume:
        When True and ``checkpoints`` holds a saved checkpoint, restore
        it and continue from the checkpointed phase instead of starting
        fresh (a mismatched query/budget/seed configuration raises
        :class:`~repro.errors.CheckpointError`).
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        query: Query,
        b_obj_cents: float,
        b_prc_cents: float,
        params: DisQParams | None = None,
        checkpoints: object | None = None,
        chaos: object | None = None,
        resume: bool = False,
    ) -> None:
        if b_obj_cents <= 0 or b_prc_cents <= 0:
            raise ConfigurationError("both budgets must be positive")
        self.query = query
        self.b_obj_cents = float(b_obj_cents)
        self.b_prc_cents = float(b_prc_cents)
        self.params = params if params is not None else DisQParams()
        self.platform = platform.fork(budget=Budget(b_prc_cents))
        self.stats = StatisticsStore(query.targets, k=self.params.k)
        #: Targets that share one example pool, in query order: one
        #: group of every target with shared pooling, one group per
        #: target with split pooling.  An example question asks for a
        #: whole group's values, and an attribute's answers measured on
        #: a group's first pool serve the rest of the group.
        self._pool_groups: list[tuple[str, ...]] = (
            [tuple(query.targets)]
            if self.params.example_pooling == "shared"
            else [(target,) for target in query.targets]
        )
        self._fill = self.params.make_fill()
        self._scorer = DismantleScorer(rho_constant=self.params.rho_constant)
        self._question_counts: dict[str, int] = {}
        self._discovery_log: list[tuple[str, str, bool]] = []
        self._rejected: set[tuple[str, str]] = set()
        self._rounds = 0
        self._degradations: list[str] = []
        self._dismantle_fault_strikes = 0
        #: Reliability model fitted during the allocate phase (only
        #: with ``params.aggregator == "reliability"``); hand it to
        #: :meth:`DisQParams.build_aggregator` so the online phase
        #: weighs answers with the precisions the allocator planned by.
        self.reliability_model: ReliabilityModel | None = None

        # Durability hooks (duck-typed so this module never imports
        # repro.durability — that package imports this one).
        self._checkpoints = checkpoints
        if chaos is not None:
            self.platform.chaos = chaos
        #: Index into :data:`PHASES` of the last completed phase.
        self._completed_phase = -1
        self._restored_allocation: BudgetDistribution | None = None
        #: Phase name this run resumed from (None for a fresh run).
        self.resumed_from: str | None = None
        if resume and checkpoints is not None and checkpoints.exists():
            self._restore_checkpoint(checkpoints.load())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def preprocess(self) -> PreprocessingPlan:
        """Run the full offline phase and return the ``(l, b)`` plan.

        With a checkpoint store attached, each phase boundary persists
        the complete deterministic state; a resumed planner skips the
        phases its checkpoint already covers and re-executes the rest,
        which (same configuration, same seed) reproduces the
        uninterrupted run bit for bit.
        """
        manager = PreprocessingBudgetManager(
            budget=self.platform.budget,
            prices=self.platform.prices,
            b_obj_cents=self.b_obj_cents,
            n1=self.params.n1,
            k=self.params.k,
            n_targets=len(self._pool_groups),
            expected_verification_votes=self.params.verifier.expected_votes(True),
        )
        obs = self.platform.obs
        with obs.tracer.span("preprocess"):
            if self._needs("examples"):
                with obs.tracer.span("examples"):
                    self._collect_examples()
                self._phase_boundary("examples")
            if self._needs("statistics"):
                with obs.tracer.span("statistics"):
                    self._measure_query_attributes()
                self._phase_boundary("statistics")
            if self._needs("dismantle"):
                if self.params.dismantling:
                    with obs.tracer.span("dismantle"):
                        self._dismantle_loop(manager)
                self._phase_boundary("dismantle")
            if self._needs("allocate"):
                if self.params.graceful_degradation:
                    self._prune_unmeasured()
                with obs.tracer.span("allocate"):
                    budget = self._find_budget_distribution()
                    if self.params.graceful_degradation and not budget.counts:
                        budget = self._fallback_budget()
                self._phase_boundary("allocate", allocation=budget)
            else:
                if self._restored_allocation is None:
                    raise CheckpointError(
                        "checkpoint claims the allocate phase completed "
                        "but holds no allocation"
                    )
                budget = self._restored_allocation
                if self.params.aggregator == "reliability":
                    # Refit from the checkpointed tapes so a resumed run
                    # hands the online phase the same precisions an
                    # uninterrupted run would (the EM fit is a pure
                    # function of the recorded tapes).
                    self._reliability_gains(list(self.stats.attributes))
            with obs.tracer.span("train"):
                formulas = self._learn_regressions(budget)
            self._phase_boundary("train")
        report = self.platform.resilience_report()
        for event in self._degradations:
            report.add_degradation(event)
        obs.metrics.gauge("plan.attributes", len(self.stats.attributes))
        obs.metrics.gauge("plan.questions", budget.total_questions)
        return PreprocessingPlan(
            query=self.query,
            attributes=tuple(self.stats.attributes),
            budget=budget,
            formulas=formulas,
            dismantle_rounds=self._rounds,
            preprocessing_cost=self.platform.budget.spent,
            discovery_log=tuple(self._discovery_log),
            resilience=report,
        )

    def _degrade(self, event: str) -> None:
        """Record one graceful-degradation event for the final report."""
        self._degradations.append(event)
        self.platform.obs.metrics.inc("plan.degradations")
        self.platform.obs.tracer.event("plan.degradation", detail=event)

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def _needs(self, phase: str) -> bool:
        """Whether ``phase`` still has to run (False when checkpointed)."""
        return PHASES.index(phase) > self._completed_phase

    def _phase_boundary(
        self, phase: str, allocation: BudgetDistribution | None = None
    ) -> None:
        """Mark a phase complete: checkpoint, then fire the chaos hook.

        The checkpoint is written *before* the chaos hook so a crash at
        the boundary resumes from this phase, not the previous one.  The
        train boundary writes no checkpoint — training re-executes from
        the allocate checkpoint on resume.
        """
        self._completed_phase = PHASES.index(phase)
        if phase != "train":
            self._save_checkpoint(phase, allocation)
        if self.platform.chaos is not None:
            self.platform.chaos.phase_boundary(phase)

    def _config_fingerprint(self) -> dict:
        """The run configuration a checkpoint must match to be resumed."""
        # Default reprs embed object addresses (``<... object at 0x...>``)
        # which differ across processes; strip them so the fingerprint is
        # stable for equal configurations.
        params = re.sub(r" at 0x[0-9a-f]+", "", repr(self.params))
        return {
            "targets": list(self.query.targets),
            "weights": [self.query.weight(t) for t in self.query.targets],
            "b_obj_cents": self.b_obj_cents,
            "b_prc_cents": self.b_prc_cents,
            "seed": self.platform._seed,
            "params": params,
        }

    def _save_checkpoint(
        self, phase: str, allocation: BudgetDistribution | None
    ) -> None:
        if self._checkpoints is None:
            return
        sink = self.platform.obs.metrics_sink
        self._checkpoints.save(
            {
                "phase": phase,
                "config": self._config_fingerprint(),
                "planner": {
                    "question_counts": dict(self._question_counts),
                    "discovery_log": [list(e) for e in self._discovery_log],
                    "rejected": sorted(list(pair) for pair in self._rejected),
                    "rounds": self._rounds,
                    "degradations": list(self._degradations),
                    "dismantle_fault_strikes": self._dismantle_fault_strikes,
                },
                "statistics": self.stats.state_dict(),
                "platform": self.platform.capture_state(),
                "allocation": (
                    dict(allocation.counts) if allocation is not None else None
                ),
                "metrics": sink.to_dict() if sink is not None else None,
            }
        )
        self.platform.obs.tracer.event("checkpoint.saved", phase=phase)

    def _restore_checkpoint(self, payload: dict) -> None:
        if payload["config"] != self._config_fingerprint():
            raise CheckpointError(
                "checkpoint was written by a run with a different "
                "query/budget/seed/params configuration; refusing to resume"
            )
        phase = str(payload["phase"])
        if phase not in PHASES:
            raise CheckpointError(f"checkpoint names unknown phase {phase!r}")
        planner = payload["planner"]
        self._question_counts = {
            str(k): int(v) for k, v in planner["question_counts"].items()
        }
        self._discovery_log = [
            (str(a), str(b), bool(c)) for a, b, c in planner["discovery_log"]
        ]
        self._rejected = {(str(a), str(b)) for a, b in planner["rejected"]}
        self._rounds = int(planner["rounds"])
        self._degradations = [str(e) for e in planner["degradations"]]
        self._dismantle_fault_strikes = int(planner["dismantle_fault_strikes"])
        self.stats.restore_state(payload["statistics"])
        self.platform.restore_state(payload["platform"])
        if payload.get("allocation") is not None:
            self._restored_allocation = BudgetDistribution(
                {str(k): int(v) for k, v in payload["allocation"].items()}
            )
        # Metrics observed before the crash merge into this run's
        # registry, so a resumed manifest still matches its ledger.
        if payload.get("metrics") is not None:
            sink = self.platform.obs.metrics_sink
            if sink is not None:
                sink.merge(payload["metrics"])
        self._completed_phase = PHASES.index(phase)
        self.resumed_from = phase
        self.platform.obs.tracer.event("checkpoint.restored", phase=phase)

    # ------------------------------------------------------------------
    # Phase 1: example pools (GetExamples)
    # ------------------------------------------------------------------

    def _collect_examples(self) -> None:
        # One example question yields true values for a whole group (the
        # paper's GetExamples extension), so a group's pools hold the
        # same objects in the same order.
        for group in self._pool_groups:
            pools = [self.stats.pool(target) for target in group]
            strikes = 0
            for _ in range(self.params.n1):
                try:
                    object_id, values = self.platform.ask_example(group)
                except BudgetExhaustedError:
                    break
                except CrowdFaultError:
                    if not self.params.graceful_degradation:
                        raise
                    strikes += 1
                    if strikes >= FAULT_STRIKE_LIMIT:
                        self._degrade(
                            f"example collection for {'+'.join(group)!r} "
                            f"stopped after {strikes} consecutive crowd "
                            f"faults ({len(pools[0])} of {self.params.n1} "
                            f"examples)"
                        )
                        break
                    continue
                strikes = 0
                for pool in pools:
                    pool.add_example(object_id, values[pool.target])
        for target in self.query.targets:
            if len(self.stats.pool(target)) < 4:
                if self.params.graceful_degradation:
                    self._degrade(
                        f"only {len(self.stats.pool(target))} examples for "
                        f"{target!r} (need 4 for usable statistics); plan "
                        f"degrades toward the constant/fallback estimator"
                    )
                    continue
                raise PlanningError(
                    f"preprocessing budget too small to collect examples for "
                    f"{target!r} (got {len(self.stats.pool(target))}, need at "
                    f"least 4)"
                )

    # ------------------------------------------------------------------
    # Phase 2: statistics for the query attributes themselves
    # ------------------------------------------------------------------

    def _measure_query_attributes(self) -> None:
        # Query attributes are always informative for every target, so
        # they are measured on every pool (they are few: |A(Q)|).
        for attribute in self.query.targets:
            self._add_attribute(attribute, set(self.query.targets))

    def _add_attribute(self, attribute: str, paired_targets: set[str]) -> None:
        """Register an attribute and collect its k-answer statistics.

        The attribute is paired with every pool of each group that holds
        a paired target.  Groups are measured in query-target order (not
        set iteration order, which follows the string-hash seed), each
        on its first pool; the batches are copied for free to the
        group's other pools, which hold the same objects.
        """
        groups = [g for g in self._pool_groups if not paired_targets.isdisjoint(g)]
        self.stats.register_attribute(
            attribute, {target for group in groups for target in group}
        )
        self._question_counts.setdefault(attribute, 0)
        for group in groups:
            self._measure_on_pool(attribute, group[0])
            primary = self.stats.pool(group[0])
            measured = primary.n_measured(attribute)
            for target in group[1:]:
                pool = self.stats.pool(target)
                pool.record_answers(
                    attribute,
                    [
                        primary.batch(attribute, index)
                        for index in range(pool.n_measured(attribute), measured)
                    ],
                )

    def _measure_on_pool(self, attribute: str, target: str) -> None:
        pool = self.stats.pool(target)
        start = pool.n_measured(attribute)
        batches: list[list[float]] = []
        strikes = 0
        index = start
        # Answer batches must stay aligned with the example order, so a
        # crowd fault retries the *same* example instead of skipping it.
        while index < len(pool):
            object_id = pool.object_ids[index]
            try:
                answers = self.platform.ask_value(
                    object_id, attribute, self.params.k
                )
            except BudgetExhaustedError:
                break
            except CrowdFaultError:
                if not self.params.graceful_degradation:
                    raise
                strikes += 1
                if strikes >= FAULT_STRIKE_LIMIT:
                    self._degrade(
                        f"measurement of {attribute!r} on the {target!r} "
                        f"pool abandoned after {strikes} consecutive crowd "
                        f"faults ({len(batches)} of {len(pool) - start} "
                        f"examples measured)"
                    )
                    break
                continue
            strikes = 0
            batches.append(answers)
            index += 1
        pool.record_answers(attribute, batches)

    # ------------------------------------------------------------------
    # Phase 3: the dismantling loop (GetNextAttribute + UpdateStatistics)
    # ------------------------------------------------------------------

    def _candidates(self) -> list[str]:
        if self.params.candidate_policy == "query_only":
            names = [a for a in self.stats.attributes if a in self.query.targets]
        else:
            names = list(self.stats.attributes)
        return [
            attribute
            for attribute in names
            if probability_of_new_answer(self._question_counts.get(attribute, 0))
            >= self.params.min_probability_new
        ]

    def _expected_pools(self) -> float:
        return (1.0 + len(self._pool_groups)) / 2.0

    def _dismantle_loop(self, manager: PreprocessingBudgetManager) -> None:
        # The gain and loss terms of the expression-8/9 score depend only
        # on the statistics, which change only when a new attribute is
        # accepted; Pr(new | a_j) changes every round.  Caching gain/loss
        # between non-discovering rounds keeps each such round O(|A|).
        cached_gains: dict[str, float] | None = None
        cached_loss = 0.0
        while True:
            if (
                self.params.max_rounds is not None
                and self._rounds >= self.params.max_rounds
            ):
                break
            if not manager.should_continue(
                len(self.stats.attributes), self._expected_pools()
            ):
                break
            candidates = self._candidates()
            if not candidates:
                break
            if cached_gains is None:
                objectives, costs = self._objectives(self.stats.attributes)
                cached_loss = self._scorer.loss(
                    objectives,
                    costs,
                    self.b_obj_cents,
                    self.platform.prices.numeric_value,
                )
                cached_gains = {
                    attribute: sum(
                        self.query.weight(target)
                        * self._scorer.gain(self.stats, target, attribute, self._fill)
                        for target in self.query.targets
                    )
                    for attribute in candidates
                }
            gains = cached_gains
            loss = cached_loss

            def ranking(attribute: str) -> tuple[int, float]:
                return ranking_key(
                    probability_of_new_answer(
                        self._question_counts.get(attribute, 0)
                    ),
                    gains.get(attribute, 0.0),
                    loss,
                )

            best_attribute = max(candidates, key=ranking)
            if self.params.stop_on_nonpositive_score:
                positive, _ = ranking(best_attribute)
                if not positive:
                    break
            before = len(self.stats.attributes)
            if not self._dismantle_round(best_attribute):
                break
            if len(self.stats.attributes) != before:
                cached_gains = None

    def _dismantle_round(self, attribute: str) -> bool:
        """One dismantling question (+ verification + statistics).

        Returns False when the budget died mid-round.
        """
        try:
            answer = self.platform.ask_dismantle(attribute)
        except BudgetExhaustedError:
            return False
        except CrowdFaultError:
            if not self.params.graceful_degradation:
                raise
            return self._dismantle_fault(
                f"dismantling question on {attribute!r} lost to a crowd fault"
            )
        self._question_counts[attribute] = (
            self._question_counts.get(attribute, 0) + 1
        )
        self._rounds += 1

        is_new = (
            answer != attribute
            and answer not in self.stats.attributes
            and (attribute, answer) not in self._rejected
            and self.platform.knows(answer)
        )
        accepted = False
        if is_new:
            try:
                verdict = self.platform.verify_candidate(
                    attribute, answer, self.params.verifier
                )
            except BudgetExhaustedError:
                self._discovery_log.append((attribute, answer, False))
                return False
            except CrowdFaultError:
                if not self.params.graceful_degradation:
                    raise
                # The verdict is unknown; treat the candidate as rejected
                # so budget is not burned re-verifying a faulting pair.
                self._rejected.add((attribute, answer))
                self._discovery_log.append((attribute, answer, False))
                return self._dismantle_fault(
                    f"verification of candidate {answer!r} (from "
                    f"{attribute!r}) lost to a crowd fault; candidate set "
                    f"aside"
                )
            if not verdict.accepted:
                # Remember the refusal: re-verifying the same suggestion
                # would replay the same votes and waste budget.
                self._rejected.add((attribute, answer))
            if verdict.accepted:
                paired = self.params.pairing.targets_for(
                    self.stats, parent=attribute, candidate=answer
                )
                try:
                    self._add_attribute(answer, paired)
                    accepted = True
                except BudgetExhaustedError:
                    accepted = True  # registered; partial statistics kept
                    self._discovery_log.append((attribute, answer, accepted))
                    return False
        self._discovery_log.append((attribute, answer, accepted))
        return True

    def _dismantle_fault(self, event: str) -> bool:
        """Count one dismantling-phase fault; False once the cap is hit.

        Strikes are cumulative over the whole loop (not consecutive):
        under a persistent outage no budget is spent, so without a hard
        cap the loop would spin forever on retried questions.
        """
        self._degrade(event)
        self._dismantle_fault_strikes += 1
        if self._dismantle_fault_strikes >= DISMANTLE_FAULT_LIMIT:
            self._degrade(
                f"dismantling stopped early after "
                f"{self._dismantle_fault_strikes} crowd faults"
            )
            return False
        return True

    # ------------------------------------------------------------------
    # Phase 4: the online budget distribution (FindQuestionsDistribution)
    # ------------------------------------------------------------------

    def _objectives(
        self, attributes: list[str]
    ) -> tuple[list[TargetObjective], np.ndarray]:
        objectives = []
        for target in self.query.targets:
            s_o, s_a, s_c = self.stats.assemble(attributes, target, self._fill)
            objectives.append(
                TargetObjective(
                    weight=self.query.weight(target), s_o=s_o, s_a=s_a, s_c=s_c
                )
            )
        costs = np.array([self._value_price(a) for a in attributes], dtype=float)
        return objectives, costs

    def _value_price(self, attribute: str) -> float:
        try:
            return self.platform.value_price(attribute)
        except UnknownAttributeError:
            return self.platform.prices.numeric_value

    def _prune_unmeasured(self) -> None:
        """Drop accepted attributes that never yielded any statistics.

        When every value question for an attribute was lost to crowd
        faults (or the budget died before its first batch), the
        attribute contributes nothing but zero-filled rows to the
        objective; dropping it keeps the allocator honest about what
        was actually measured.
        """
        for attribute in list(self.stats.attributes):
            if attribute in self.query.targets:
                continue
            measured = any(
                self.stats.pool(target).n_measured(attribute) > 0
                for target in self.query.targets
            )
            if not measured:
                self.stats.drop_attribute(attribute)
                self._question_counts.pop(attribute, None)
                self._degrade(
                    f"dropped discovered attribute {attribute!r}: no value "
                    f"statistics could be collected for it"
                )

    def _reliability_gains(self, attributes: list[str]) -> np.ndarray | None:
        """Fit per-worker precisions on the preprocessing answer tapes.

        Every value answer bought during preprocessing carries its
        worker id, so the planner can run the batch EM fit over the
        complete recorded tapes and convert the learned precisions into
        one effective-sample-size gain per attribute — computed over
        the multiset of workers who actually answered that attribute.
        The fitted model is kept on :attr:`reliability_model` so the
        online phase aggregates with the same precisions the allocator
        planned with.  Returns ``None`` (no adjustment) when no
        attributed residuals exist, e.g. on tapes restored from an old
        provenance-free recorder snapshot.
        """
        groups: list[tuple[list[float], list[int]]] = []
        workers_by_attribute: dict[str, list[int]] = {}
        tapes = self.platform.recorder.attributed_value_tapes()
        for key, values, worker_ids in tapes:
            groups.append((values, worker_ids))
            workers_by_attribute.setdefault(key[1], []).extend(
                wid for wid in worker_ids if wid != UNATTRIBUTED
            )
        model = ReliabilityModel(em_iterations=self.params.em_iterations)
        model.fit(groups)
        self.reliability_model = model
        if model.observed_workers == 0:
            return None
        gains = np.array(
            [model.gain(workers_by_attribute.get(a, [])) for a in attributes],
            dtype=float,
        )
        obs = self.platform.obs
        obs.metrics.gauge("agg.workers", model.observed_workers)
        obs.metrics.gauge("agg.gain", float(np.mean(gains)))
        return gains

    def _find_budget_distribution(self) -> BudgetDistribution:
        attributes = list(self.stats.attributes)
        if not attributes:
            return BudgetDistribution({})
        objectives, costs = self._objectives(attributes)
        gains = None
        if self.params.aggregator == "reliability":
            gains = self._reliability_gains(attributes)
        return find_budget_distribution(
            objectives,
            attributes,
            costs,
            self.b_obj_cents,
            metrics=self.platform.obs.metrics_sink,
            gains=gains,
        )

    def _fallback_budget(self) -> BudgetDistribution:
        """Last-resort even allocation over the query attributes.

        Used (graceful degradation only) when the optimized distribution
        came back empty — typically because the statistics pools starved
        and every covariance collapsed.  Splitting ``B_obj`` evenly over
        the query attributes is the *SimpleDisQ*-style answer that needs
        no statistics at all; a plan that asks something always beats
        the constant predictor the empty budget would imply.
        """
        targets = list(self.query.targets)
        per_target = self.b_obj_cents / len(targets)
        counts: dict[str, int] = {}
        for target in targets:
            questions = int(per_target // self._value_price(target))
            if questions > 0:
                counts[target] = questions
        if counts:
            self._degrade(
                "no usable statistics for an optimized budget distribution; "
                "fell back to an even allocation over the query attributes"
            )
        return BudgetDistribution(counts)

    # ------------------------------------------------------------------
    # Phase 5: the regression training set and fit (FindRegression)
    # ------------------------------------------------------------------

    def _learn_regressions(self, budget: BudgetDistribution) -> dict:
        formulas = {}
        n2 = recommended_training_size(len(budget.attributes))
        rows_by_target: dict[str, list[TrainingRow]] = {}
        for group in self._pool_groups:
            rows_by_target.update(self._training_rows(group, budget, n2))
        for target in self.query.targets:
            rows = rows_by_target[target]
            # An under-determined fit (fewer rows than features) returns
            # the minimum-norm solution, which extrapolates wildly on
            # fresh objects; a starving budget degrades to the constant
            # predictor instead.
            if len(rows) >= len(budget.attributes) + 2:
                formulas[target] = fit_linear_regression(target, rows, budget)
            else:
                # Budget died before any training row: constant fallback
                # from the example pool (never leaves the online phase
                # without *some* estimator).
                pool_values = self.stats.pool(target).target_array()
                formulas[target] = fit_linear_regression(
                    target,
                    [({}, float(v)) for v in pool_values] or [({}, 0.0)],
                    BudgetDistribution({}),
                )
        return formulas

    def _training_rows(
        self, group: tuple[str, ...], budget: BudgetDistribution, n2: int
    ) -> dict[str, list[TrainingRow]]:
        """Assemble one group's training rows, mirroring the online phase.

        One feature vector per example serves every target of the group
        (its answers are about the same object), so value questions are
        paid once per group.  The first ``N_1`` examples reuse their
        ``k`` statistics answers (only ``b(a) - k`` extra answers are
        bought); further examples are freshly collected with full
        ``b(a)`` answers, exactly as in Section 3.1 / Table 1b.
        """
        rows: dict[str, list[TrainingRow]] = {target: [] for target in group}
        primary = self.stats.pool(group[0])
        support = budget.attributes
        try:
            for index in range(min(len(primary), n2)):
                object_id = primary.object_ids[index]
                means = {
                    attribute: self._answer_mean(
                        primary, index, object_id, attribute, budget[attribute]
                    )
                    for attribute in support
                }
                for target in group:
                    label = self.stats.pool(target).target_values[index]
                    rows[target].append((means, label))
            while len(rows[group[0]]) < n2:
                object_id, values = self.platform.ask_example(group)
                means = {
                    attribute: float(
                        np.mean(
                            self.platform.ask_value(
                                object_id, attribute, budget[attribute]
                            )
                        )
                    )
                    for attribute in support
                }
                for target in group:
                    rows[target].append((means, values[target]))
        except BudgetExhaustedError:
            pass  # train on the rows bought so far
        except CrowdFaultError:
            if not self.params.graceful_degradation:
                raise
            self._degrade(
                f"regression training for {'+'.join(group)!r} truncated at "
                f"{len(rows[group[0]])} of {n2} rows by persistent crowd faults"
            )
        return rows

    def _answer_mean(
        self,
        pool,
        index: int,
        object_id: int,
        attribute: str,
        wanted: int,
    ) -> float:
        """Mean of exactly ``wanted`` answers, reusing recorded ones."""
        existing: list[float] = []
        if pool.n_measured(attribute) > index:
            existing = pool.batch(attribute, index)
        if len(existing) >= wanted:
            return float(np.mean(existing[:wanted]))
        extra = self.platform.ask_value(
            object_id, attribute, wanted - len(existing)
        )
        combined = existing + list(extra)
        if not combined:
            raise PlanningError(
                f"no answers available for {attribute!r} on object {object_id}"
            )
        return float(np.mean(combined))


def with_params(planner_params: DisQParams | None, **overrides) -> DisQParams:
    """Copy params (or defaults) with field overrides (baseline helper)."""
    base = planner_params if planner_params is not None else DisQParams()
    return replace(base, **overrides)
