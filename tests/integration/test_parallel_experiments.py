"""The parallel experiment engine is bit-identical to serial runs."""

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
    def test_fast_and_reference_plans_identical(self, tiny_domain):
        """On the same recorded answers, the fast allocator must drive
        the planner to byte-identical plans and budget distributions."""
        query = tiny_query(tiny_domain)
        recorder = AnswerRecorder()
        plans = {}
        for method in ("fast", "reference"):
            platform = CrowdPlatform(tiny_domain, recorder=recorder, seed=11)
            params = DisQParams(n1=12, allocator=method)
            plans[method] = DisQPlanner(
                platform, query, 2.0, 300.0, params
            ).preprocess()
        fast, reference = plans["fast"], plans["reference"]
        assert fast.budget.counts == reference.budget.counts
        assert fast.attributes == reference.attributes
        assert fast.preprocessing_cost == reference.preprocessing_cost
        assert fast.dismantle_rounds == reference.dismantle_rounds
