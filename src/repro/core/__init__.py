"""The paper's primary contribution: the DisQ planner and its pieces.

Layout mirrors Algorithm 1 and Section 4 of the paper:

* :mod:`~repro.core.model` — queries, budget distributions, estimation
  formulas, preprocessing plans;
* :mod:`~repro.core.statistics` — the ``(S_o, S_a, S_c)`` statistics
  store built from per-target example pools (Section 3.2.2);
* :mod:`~repro.core.objective` — the explained-variance objective and
  error formula (expression 2);
* :mod:`~repro.core.budget` — greedy forward selection of the online
  budget distribution ``b`` (expressions 2/10);
* :mod:`~repro.core.regression` — SVD least-squares learning of ``l``;
* :mod:`~repro.core.dismantling` — next-dismantle scoring
  (expressions 4–9);
* :mod:`~repro.core.sograph` — angular-distance completion of missing
  ``S_o`` entries (expression 11);
* :mod:`~repro.core.pairing` — the target/attribute pairing rule;
* :mod:`~repro.core.stopping` — the preprocessing budget manager;
* :mod:`~repro.core.disq` — the full planner (Algorithm 1 + Section 4);
* :mod:`~repro.core.online` — the online query-evaluation phase;
* :mod:`~repro.core.baselines` — every baseline the paper compares to.
"""

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.core.statistics import ExamplePool, StatisticsStore
from repro.core.objective import estimation_error, explained_variance
from repro.core.budget import find_budget_distribution
from repro.core.regression import fit_linear_regression
from repro.core.dismantling import DismantleScorer, probability_of_new_answer
from repro.core.sograph import SoGraphEstimator
from repro.core.pairing import NaiveMeanEstimator, PairingRule
from repro.core.stopping import PreprocessingBudgetManager
from repro.core.disq import DisQParams, DisQPlanner
from repro.core.online import OnlineEvaluator, query_error
from repro.core.metrics import (
    ClassificationReport,
    boolean_report,
    categorical_accuracy,
    precision_recall_curve,
)
from repro.core.tuning import BudgetSplit, optimize_budget_split
from repro.core.baselines import (
    NaiveAverage,
    make_full_planner,
    make_naive_estimations_planner,
    make_one_connection_planner,
    make_only_query_attributes_planner,
    make_simple_disq_planner,
    run_totally_separated,
)

__all__ = [
    "BudgetDistribution",
    "BudgetSplit",
    "ClassificationReport",
    "DismantleScorer",
    "DisQParams",
    "DisQPlanner",
    "EstimationFormula",
    "ExamplePool",
    "NaiveAverage",
    "NaiveMeanEstimator",
    "OnlineEvaluator",
    "PairingRule",
    "PreprocessingBudgetManager",
    "PreprocessingPlan",
    "Query",
    "SoGraphEstimator",
    "StatisticsStore",
    "boolean_report",
    "categorical_accuracy",
    "estimation_error",
    "explained_variance",
    "find_budget_distribution",
    "fit_linear_regression",
    "make_full_planner",
    "make_naive_estimations_planner",
    "make_one_connection_planner",
    "make_only_query_attributes_planner",
    "make_simple_disq_planner",
    "optimize_budget_split",
    "precision_recall_curve",
    "probability_of_new_answer",
    "query_error",
    "run_totally_separated",
]
