"""The parallel experiment engine is bit-identical to serial runs."""

from repro.catalog import serialize_plan
from repro.core import budget
from repro.core.dismantling import DismantleScorer
from repro.core.disq import DisQParams, DisQPlanner
from repro.core.model import Query
from repro.core.online import default_weights
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.experiments import (
    ExperimentConfig,
    ParallelConfig,
    run_algorithm,
    run_averaged,
    sweep_b_obj,
    sweep_b_prc,
)
from tests.allocator_oracle import greedy_counts_oracle, greedy_counts_pair_oracle

SMALL = ExperimentConfig(n_objects=200, n1=12, repetitions=2, eval_objects=20)


def tiny_query(tiny_domain) -> Query:
    return Query(
        targets=("target",), weights=default_weights(tiny_domain, ("target",))
    )


class TestSweepBitIdentity:
    def test_b_prc_sweep_matches_serial(self, tiny_domain):
        query = tiny_query(tiny_domain)
        algos = ["DisQ", "NaiveAverage"]
        sweep = (150.0, 300.0)
        serial = sweep_b_prc(algos, tiny_domain, query, 2.0, sweep, SMALL)
        parallel = sweep_b_prc(
            algos,
            tiny_domain,
            query,
            2.0,
            sweep,
            SMALL,
            parallel=ParallelConfig(max_workers=2),
        )
        assert parallel == serial

    def test_b_obj_sweep_matches_serial(self, tiny_domain):
        query = tiny_query(tiny_domain)
        algos = ["DisQ"]
        sweep = (1.0, 2.0)
        serial = sweep_b_obj(algos, tiny_domain, query, sweep, 300.0, SMALL)
        parallel = sweep_b_obj(
            algos,
            tiny_domain,
            query,
            sweep,
            300.0,
            SMALL,
            parallel=ParallelConfig(max_workers=2),
        )
        assert parallel == serial

    def test_resolve_caps_workers(self):
        assert ParallelConfig(max_workers=8).resolve(3) == 3
        assert ParallelConfig(max_workers=2).resolve(10) == 2
        assert ParallelConfig(max_workers=0).resolve(1) == 1


class TestRunAveragedParallel:
    def test_base_seed_threads_through(self, tiny_domain):
        """Repetition r runs with seed base_seed + r (the old hard-coded
        seed=r behaviour is base_seed=0)."""
        query = tiny_query(tiny_domain)
        config = SMALL.scaled(repetitions=1, base_seed=5)
        averaged = run_averaged("DisQ", tiny_domain, query, 2.0, 300.0, config)
        direct = run_algorithm(
            "DisQ", tiny_domain, query, 2.0, 300.0, config, seed=5
        ).error
        assert averaged == direct
        shifted = run_averaged(
            "DisQ",
            tiny_domain,
            query,
            2.0,
            300.0,
            SMALL.scaled(repetitions=1, base_seed=6),
        )
        assert shifted != averaged


class TestAllocatorMethodsEndToEnd:
    def test_fast_and_reference_plans_identical(self, tiny_domain, monkeypatch):
        """On the same recorded answers, the incremental allocator and
        the naive oracle loop, patched in as the planner's allocator,
        drive the planner to byte-identical plans: at 300c the plan
        only allocates, at 600c it dismantles first."""
        query = tiny_query(tiny_domain)
        recorders = {300.0: AnswerRecorder(), 600.0: AnswerRecorder()}

        def plans():
            return [
                DisQPlanner(
                    CrowdPlatform(tiny_domain, recorder=recorder, seed=11),
                    query,
                    2.0,
                    b_prc,
                    DisQParams(n1=12),
                ).preprocess()
                for b_prc, recorder in recorders.items()
            ]

        fast = plans()
        loss_terms = []
        scored_loss = DismantleScorer.loss

        def counted_loss(objectives, costs, budget_cents, unit_cost):
            if objectives and len(costs):
                loss_terms.append(budget_cents)
            return scored_loss(objectives, costs, budget_cents, unit_cost)

        oracle_calls = []
        pair_calls = []

        def oracle(*args, **kwargs):
            oracle_calls.append(args)
            return greedy_counts_oracle(*args, **kwargs)

        def pair_oracle(*args):
            pair_calls.append(args)
            return greedy_counts_pair_oracle(*args)

        monkeypatch.setattr(DismantleScorer, "loss", staticmethod(counted_loss))
        monkeypatch.setattr(budget, "greedy_counts", oracle)
        monkeypatch.setattr(budget, "greedy_counts_pair", pair_oracle)
        reference = plans()
        # Both final distributions went through the naive loop, and
        # every dismantle loss term through two naive runs, once per
        # term.
        assert len(oracle_calls) == len(recorders)
        assert len(loss_terms) > 0
        assert len(pair_calls) == len(loss_terms)
        assert fast[1].dismantle_rounds > 0
        for ours, theirs in zip(fast, reference):
            assert ours.budget.counts == theirs.budget.counts
            assert ours.attributes == theirs.attributes
            assert ours.preprocessing_cost == theirs.preprocessing_cost
            assert ours.dismantle_rounds == theirs.dismantle_rounds
            assert serialize_plan(ours) == serialize_plan(theirs)
