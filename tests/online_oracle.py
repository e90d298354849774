"""The naive online phase, the oracle of ``OnlineEvaluator.estimate_objects``.

:func:`estimate_naively` is the paper's online loop (PAPER.md §1, step
5) written the slow, obvious way: for each object, for each plan, for
each attribute of the plan's budget, fetch ``b(a)`` answers, reduce
them with ``np.mean`` (or the aggregator) and apply each target's
formula through ``formula.estimate``.  A dead budget ends the plan's
terms for that object; a crowd fault skips one term.
:class:`~repro.core.online.OnlineEvaluator` must return the same
estimates bit for bit, the same skip lists and counter totals, and make
the same source calls in the same order (``tests/unit/test_online.py``,
``tests/property/test_property_online_oracle.py`` and, through
``tests/serve_oracle.py``, the serve engine's differential property).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BudgetExhaustedError, CrowdFaultError


@dataclass
class NaiveOutcome:
    """What the oracle says one evaluation should come back as."""

    #: target -> one estimate per requested object, in order.
    estimates: dict[str, list[float]] = field(default_factory=dict)
    budget_skips: list[tuple[int, str]] = field(default_factory=list)
    fault_skips: list[tuple[int, str]] = field(default_factory=list)
    #: Expected ``online.objects`` and ``agg.missing_terms`` totals.
    objects: int = 0
    missing_terms: int = 0


def estimate_naively(plans, source, object_ids, aggregator=None) -> NaiveOutcome:
    """Estimate ``object_ids`` under ``plans``, one object at a time."""
    outcome = NaiveOutcome(
        estimates={target: [] for plan in plans for target in plan.query.targets}
    )
    attributed = aggregator is not None and aggregator.needs_workers
    for object_id in object_ids:
        outcome.objects += 1
        for plan in plans:
            means: dict[str, float] = {}
            for attribute in plan.budget.attributes:
                count = plan.budget[attribute]
                workers = None
                try:
                    if attributed:
                        answers, workers = source.fetch_attributed(
                            object_id, attribute, count
                        )
                        workers = list(workers)
                    else:
                        answers = source.fetch(object_id, attribute, count)
                except BudgetExhaustedError:
                    outcome.budget_skips.append((object_id, attribute))
                    break
                except CrowdFaultError:
                    outcome.fault_skips.append((object_id, attribute))
                    continue
                if len(answers) == 0:
                    continue
                if aggregator is None:
                    means[attribute] = float(np.mean(answers))
                else:
                    means[attribute] = aggregator.aggregate(answers, workers)
            for target in plan.query.targets:
                formula = plan.formulas[target]
                outcome.missing_terms += sum(
                    1 for term in formula.coefficients if term not in means
                )
                outcome.estimates[target].append(formula.estimate(means))
    return outcome
