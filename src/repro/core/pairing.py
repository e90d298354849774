"""Target/attribute pairing for multi-target queries (Section 4).

Collecting ``k`` value answers per example for *every* (target,
attribute) pair makes the preprocessing cost grow with
``|A_final| * |A(Q)|``; most of that is wasted on uncorrelated pairs
(the paper's example: *easy_to_make* tells you nothing about
*protein_amount*).  The paper's rule: when dismantling attribute
``a_i`` yields a new attribute ``a_j``, pair ``a_j`` with target
``a_t`` — i.e. spend value questions on pool ``E_{B,a_t}`` — iff

``rho(a_i, a_t) > factor * max_a rho_est(a_j, a)``

where ``rho_est(a_j, .) = rho_constant * rho(a_i, .)`` is the same
prior used by the dismantle scorer (expression 5).  The best target is
always paired so every attribute has at least one measured ``S_o``.

This module also hosts the two baseline policies of Section 5.3.2
(``Full``, ``OneConnection``) and the ``NaiveEstimations`` fill.
"""

from __future__ import annotations

import numpy as np

from repro.core.statistics import StatisticsStore
from repro.errors import ConfigurationError


class PairingRule:
    """Decides which example pools a newly discovered attribute joins.

    Parameters
    ----------
    factor:
        The paper's "half of the maximal value" threshold (0.5).
    rho_constant:
        The expression-5 prior on answer/parent correlation (0.5).
    mode:
        ``"disq"`` — the paper's rule;
        ``"full"`` — pair with every target (the *Full* baseline);
        ``"one"`` — pair only with the best target (*OneConnection*).
    """

    def __init__(
        self,
        factor: float = 0.5,
        rho_constant: float = 0.5,
        mode: str = "disq",
    ) -> None:
        if mode not in ("disq", "full", "one"):
            raise ConfigurationError(f"unknown pairing mode: {mode!r}")
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(f"factor must be in (0, 1], got {factor}")
        self.factor = factor
        self.rho_constant = rho_constant
        self.mode = mode

    def targets_for(
        self,
        stats: StatisticsStore,
        parent: str,
        candidate: str,
    ) -> set[str]:
        """Targets whose pools ``candidate`` should be measured on.

        ``parent`` is the attribute whose dismantling produced
        ``candidate``; its measured correlations are the only signal
        available before any answers about ``candidate`` exist.
        """
        targets = list(stats.targets)
        if self.mode == "full" or len(targets) == 1:
            return set(targets)

        parent_rho = {
            target: abs(stats.rho(target, parent) or 0.0) for target in targets
        }
        best_target = max(targets, key=lambda target: parent_rho[target])
        if self.mode == "one":
            return {best_target}

        # DisQ rule: rho(parent, t) > factor * max_t' rho_est(candidate, t')
        # with rho_est(candidate, .) = rho_constant * rho(parent, .).
        threshold = self.factor * self.rho_constant * max(parent_rho.values())
        paired = {
            target for target in targets if parent_rho[target] > threshold
        }
        paired.add(best_target)
        return paired


class NaiveMeanEstimator:
    """The *NaiveEstimations* baseline fill for missing ``S_o`` values.

    Instead of inferring each missing pair individually through the
    angular-distance graph, every missing entry gets the same default:
    the average of all measured ``S_o`` values.
    """

    def __call__(self, stats: StatisticsStore, target: str, attribute: str) -> float:
        measured: list[float] = []
        for some_target in stats.targets:
            for some_attribute in stats.attributes:
                value = stats.s_o_measured(some_target, some_attribute)
                if value is not None:
                    measured.append(abs(value))
        if not measured:
            return 0.0
        return float(np.mean(measured))

