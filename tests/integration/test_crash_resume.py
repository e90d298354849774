"""Crash/resume equivalence: the chaos matrix.

The contract under test is the central guarantee of the durability
subsystem: for every kill point, resuming an interrupted DisQ run
produces a plan, model and ledger **bit-identical** to a run that never
crashed, with zero re-purchased answers, and leaves one file — a final
checkpoint byte-identical to that of a durable run that never crashed.
"""

import json

import pytest

from repro.core.disq import DisQParams
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_synthetic_domain
from repro.durability import (
    CHECKPOINT_FILENAME,
    CrashInjector,
    SimulatedCrash,
    durability_summary,
    run_disq,
)
from repro.errors import CheckpointError
from repro.experiments.runner import make_query

B_OBJ = 4.0
B_PRC = 400.0


def fresh():
    """A deterministic small world: same seeds -> same crowd answers."""
    domain = make_synthetic_domain(n_objects=60, seed=3)
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    query = make_query(domain, (domain.attributes()[0],))
    return domain, platform, query


def params():
    return DisQParams(n1=12)


def run_to_completion(checkpoint_dir=None, resume=False, chaos=None, b_prc=B_PRC):
    domain, platform, query = fresh()
    return run_disq(
        platform, query, B_OBJ, b_prc, params(),
        checkpoint_dir=checkpoint_dir, resume=resume, chaos=chaos,
    )


def state_of(run):
    """Everything that must be bit-identical between two runs."""
    planner = run.planner
    plan = run.plan
    return {
        "formulas": {
            target: repr(formula)
            for target, formula in plan.formulas.items()
        },
        "budget_counts": dict(plan.budget.counts),
        "preprocessing_cost": plan.preprocessing_cost,
        "dismantle_rounds": plan.dismantle_rounds,
        "attributes": tuple(plan.attributes),
        "ledger": planner.platform.ledger.snapshot(),
        "recorder": planner.platform.recorder.to_dict(),
    }


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference run: no checkpointing, no crashes."""
    return state_of(run_to_completion())


@pytest.fixture(scope="module")
def final_checkpoint(tmp_path_factory):
    """The final checkpoint bytes of a durable run that never crashed."""
    directory = tmp_path_factory.mktemp("uncrashed")
    run_to_completion(checkpoint_dir=directory)
    return (directory / CHECKPOINT_FILENAME).read_bytes()


def assert_one_final_checkpoint(directory, expected):
    """The checkpoint is, byte for byte, ``expected``, and the only file."""
    assert (directory / CHECKPOINT_FILENAME).read_bytes() == expected
    assert sorted(path.name for path in directory.iterdir()) == [CHECKPOINT_FILENAME]


KILL_INTERACTIONS = (5, 30, 200)
KILL_PHASES = ("examples", "statistics", "dismantle", "allocate")


class TestKillMatrix:
    @pytest.mark.parametrize("kill_at", KILL_INTERACTIONS)
    def test_resume_after_interaction_kill_is_bit_identical(
        self, tmp_path, uninterrupted, final_checkpoint, kill_at
    ):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=kill_at),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert state_of(resumed) == uninterrupted
        assert_one_final_checkpoint(tmp_path, final_checkpoint)

    @pytest.mark.parametrize("kill_phase", KILL_PHASES)
    def test_resume_after_phase_boundary_kill_is_bit_identical(
        self, tmp_path, uninterrupted, final_checkpoint, kill_phase
    ):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase=kill_phase),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert state_of(resumed) == uninterrupted
        assert resumed.resumed_from == kill_phase
        assert_one_final_checkpoint(tmp_path, final_checkpoint)

    def test_double_crash_then_resume(
        self, tmp_path, uninterrupted, final_checkpoint
    ):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=30),
            )
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path, resume=True,
                chaos=CrashInjector(at_interactions=200),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert state_of(resumed) == uninterrupted
        assert_one_final_checkpoint(tmp_path, final_checkpoint)

    def test_crash_before_first_checkpoint_resumes_fresh(
        self, tmp_path, uninterrupted, final_checkpoint
    ):
        # Interaction 1 is long before the first phase boundary: there
        # is no checkpoint yet, so --resume must start from scratch and
        # still reach the identical end state.
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=1),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert resumed.resumed_from is None
        assert state_of(resumed) == uninterrupted
        assert_one_final_checkpoint(tmp_path, final_checkpoint)


class TestUsedDirectory:
    """A fresh run owns its checkpoint directory.

    Each case finishes one run in the directory, then crashes a fresh
    run there at interaction 5 — before its first phase boundary — and
    resumes it.  Nothing of the finished run may leak into the resume.
    """

    def crash_fresh_run_over_finished_one(self, directory, b_prc):
        run_to_completion(checkpoint_dir=directory)
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=directory, b_prc=b_prc,
                chaos=CrashInjector(at_interactions=5),
            )
        # The finished run's checkpoint went before the first question.
        assert list(directory.iterdir()) == []
        return run_to_completion(checkpoint_dir=directory, resume=True, b_prc=b_prc)

    def test_other_budget_resumes_fresh(self, tmp_path):
        resumed = self.crash_fresh_run_over_finished_one(tmp_path, B_PRC + 100.0)
        assert resumed.resumed_from is None
        assert state_of(resumed) == state_of(run_to_completion(b_prc=B_PRC + 100.0))

    def test_same_budget_resumes_fresh(
        self, tmp_path, uninterrupted, final_checkpoint
    ):
        resumed = self.crash_fresh_run_over_finished_one(tmp_path, B_PRC)
        assert resumed.resumed_from is None
        assert state_of(resumed) == uninterrupted
        assert_one_final_checkpoint(tmp_path, final_checkpoint)


class TestOlderBuilds:
    """Directories written by builds that also kept an answer journal."""

    def test_checkpoint_with_journal_count_resumes(self, tmp_path, uninterrupted):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="dismantle"),
            )
        checkpoint = tmp_path / CHECKPOINT_FILENAME
        payload = json.loads(checkpoint.read_text())
        payload["journal_records"] = 630
        checkpoint.write_text(json.dumps(payload, sort_keys=True))
        (tmp_path / "journal.jsonl").write_text('{"seq": 0}\n')
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        assert resumed.resumed_from == "dismantle"
        assert state_of(resumed) == uninterrupted
        assert sorted(path.name for path in tmp_path.iterdir()) == [CHECKPOINT_FILENAME]

    def test_fresh_run_removes_the_answer_journal(self, tmp_path):
        (tmp_path / "journal.jsonl").write_text('{"seq": 0}\n')
        run_to_completion(checkpoint_dir=tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [CHECKPOINT_FILENAME]


class TestNoRepurchase:
    def test_ledger_totals_match_uninterrupted_exactly(
        self, tmp_path, uninterrupted
    ):
        """The central economics claim: the resumed ledger is exact.

        The resumed run's per-category question counts and spend equal
        the uninterrupted run's — every answer bought before the last
        checkpoint is replayed free from the restored recorder, and the
        answers the crash lost are asked again and counted once.
        """
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_interactions=200),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        ledger = resumed.planner.platform.ledger
        assert ledger.snapshot() == uninterrupted["ledger"]
        assert ledger.total_spent == uninterrupted["preprocessing_cost"]


class TestProvenance:
    def test_resumed_run_reports_provenance(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="dismantle"),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path, resume=True)
        summary = durability_summary(resumed)
        assert summary["resumed"] is True
        assert summary["resumed_from"] == "dismantle"
        assert summary["checkpoint"].endswith("disq.checkpoint.json")
        assert set(summary) == {"resumed", "resumed_from", "checkpoint"}

    def test_manifest_carries_durability_section(self, tmp_path):
        from repro.obs import Observability
        from repro.obs.manifest import build_manifest, load_manifest, write_manifest

        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path / "ck",
                chaos=CrashInjector(at_phase="statistics"),
            )
        resumed = run_to_completion(checkpoint_dir=tmp_path / "ck", resume=True)
        manifest = build_manifest(
            "crash-resume", Observability.collecting(),
            durability=durability_summary(resumed),
        )
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = load_manifest(path)
        assert loaded["durability"]["resumed"] is True
        assert loaded["durability"]["resumed_from"] == "statistics"


class TestGuards:
    def test_mismatched_config_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="statistics"),
            )
        domain, platform, query = fresh()
        with pytest.raises(CheckpointError):
            run_disq(
                platform, query, B_OBJ, B_PRC + 100.0, params(),
                checkpoint_dir=tmp_path, resume=True,
            )

    def test_torn_checkpoint_file_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_to_completion(
                checkpoint_dir=tmp_path,
                chaos=CrashInjector(at_phase="statistics"),
            )
        checkpoint = tmp_path / "disq.checkpoint.json"
        checkpoint.write_text(checkpoint.read_text()[:100])
        with pytest.raises(CheckpointError):
            run_to_completion(checkpoint_dir=tmp_path, resume=True)


class TestSweepResume:
    def test_interrupted_sweep_resumes_identically(self, tmp_path):
        from repro.experiments import ExperimentConfig, sweep_b_prc

        domain, _, query = fresh()
        config = ExperimentConfig(
            n_objects=60, n1=12, repetitions=1, eval_objects=20
        )
        algorithms = ["DisQ", "NaiveAverage"]
        values = [300.0, 400.0]
        reference = sweep_b_prc(
            algorithms, domain, query, B_OBJ, values, config
        )
        # Simulate an interrupted sweep: only the first cell completed.
        partial = sweep_b_prc(
            algorithms, domain, query, B_OBJ, values[:1], config,
            checkpoint_dir=tmp_path,
        )
        assert partial["DisQ"][0] == reference["DisQ"][0]
        resumed = sweep_b_prc(
            algorithms, domain, query, B_OBJ, values, config,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed == reference

    def test_repetition_mismatch_refused(self, tmp_path):
        from repro.experiments import ExperimentConfig, sweep_b_prc

        domain, _, query = fresh()
        config = ExperimentConfig(
            n_objects=60, n1=12, repetitions=1, eval_objects=20
        )
        sweep_b_prc(
            ["NaiveAverage"], domain, query, B_OBJ, [300.0], config,
            checkpoint_dir=tmp_path,
        )
        bigger = ExperimentConfig(
            n_objects=60, n1=12, repetitions=2, eval_objects=20
        )
        with pytest.raises(CheckpointError):
            sweep_b_prc(
                ["NaiveAverage"], domain, query, B_OBJ, [300.0], bigger,
                checkpoint_dir=tmp_path, resume=True,
            )
