"""Crash/resume equivalence: the chaos matrix.

The contract under test is the central guarantee of the durability
subsystem: for every kill point, resuming an interrupted DisQ run
produces a plan, model and ledger **bit-identical** to a run that never
crashed, with zero re-purchased answers, and leaves one file — a final
checkpoint byte-identical to that of a durable run that never crashed.
A durable sweep keeps one fingerprinted record per finished repetition:
a sweep crashed in any repetition resumes to the uninterrupted series
and counters without rerunning a finished repetition, and resume
refuses another configuration's records.
"""

import json
from collections import Counter

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
from repro.experiments import ExperimentConfig, ParallelConfig, runner, sweep_b_prc
from repro.experiments.runner import make_query
from repro.obs import Observability

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


SWEEP_ALGORITHMS = ("DisQ", "NaiveAverage")
SWEEP_VALUES = (300.0, 400.0)
SWEEP_CONFIG = ExperimentConfig(n_objects=60, n1=12, repetitions=3, eval_objects=20)
SWEEP_RECORDS = ["rep-0.grid.json", "rep-1.grid.json", "rep-2.grid.json"]


def sweep(
    directory=None, resume=False, parallel=None, obs=None, b_obj=B_OBJ,
    values=SWEEP_VALUES, algorithms=SWEEP_ALGORITHMS, config=SWEEP_CONFIG,
):
    domain, _, query = fresh()
    return sweep_b_prc(
        list(algorithms), domain, query, b_obj, list(values), config,
        parallel=parallel, obs=obs, checkpoint_dir=directory, resume=resume,
    )


def count_runs(monkeypatch, log, crash_seed=None):
    """Log every run's seed to ``log``; crash the run with ``crash_seed``.

    The log is a file so runs in pool workers are counted too.  Pool
    workers see the patch because the pool forks them after it is made
    (``fork`` is the default start method on Linux).
    """
    real = runner.run_algorithm

    def logged(*args, seed, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{seed}\n")
        if seed == crash_seed:
            raise RuntimeError(f"crash in the repetition with seed {seed}")
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(runner, "run_algorithm", logged)


def logged_seeds(log):
    return Counter(int(line) for line in log.read_text().split())


def records(directory):
    return sorted(path.name for path in directory.iterdir())


@pytest.fixture(scope="module")
def uninterrupted_sweep():
    """The reference sweep's series and counters: no directory, no crash."""
    obs = Observability.collecting()
    return sweep(obs=obs), obs.metrics.counters()


class TestSweepResume:
    """A durable sweep keeps one fingerprinted record per finished
    repetition, and those records are its only resume state."""

    def test_interrupted_sweep_resumes_identically(
        self, tmp_path, monkeypatch, uninterrupted_sweep
    ):
        count_runs(monkeypatch, tmp_path / "runs.log", crash_seed=1)
        with pytest.raises(RuntimeError, match="seed 1"):
            sweep(tmp_path / "ck")
        monkeypatch.undo()
        resumed = sweep(tmp_path / "ck", resume=True)
        assert resumed == uninterrupted_sweep[0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("crashed", [0, 1, 2])
    def test_crash_in_any_repetition_resumes_identically(
        self, tmp_path, monkeypatch, uninterrupted_sweep, workers, crashed
    ):
        series, counters = uninterrupted_sweep
        directory, log = tmp_path / "ck", tmp_path / "runs.log"
        parallel = ParallelConfig(max_workers=workers)
        base = SWEEP_CONFIG.base_seed
        count_runs(monkeypatch, log, crash_seed=base + crashed)
        with pytest.raises(RuntimeError, match="crash in the repetition"):
            sweep(directory, parallel=parallel)
        # Every repetition before the crashed one left its record.
        assert records(directory) == SWEEP_RECORDS[:crashed]

        monkeypatch.undo()
        log.unlink()
        count_runs(monkeypatch, log)
        obs = Observability.collecting()
        resumed = sweep(directory, resume=True, parallel=parallel, obs=obs)
        assert resumed == series
        assert obs.metrics.counters() == counters
        # Finished repetitions were read back, never run again.
        cells = len(SWEEP_VALUES) * len(SWEEP_ALGORITHMS)
        assert logged_seeds(log) == {
            base + repetition: cells
            for repetition in range(crashed, SWEEP_CONFIG.repetitions)
        }
        assert records(directory) == SWEEP_RECORDS

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


#: A cheap sweep for the refusal and directory-ownership cases.
QUICK = {
    "algorithms": ("NaiveAverage",),
    "config": ExperimentConfig(n_objects=60, n1=12, repetitions=1, eval_objects=20),
}


def _set_version(document):
    document["version"] = 0


def _edit_fingerprint(document):
    document["fingerprint"]["points"][0][0] = 2.0


def _drop_errors(document):
    del document["errors"]


class TestSweepRecordGuards:
    @pytest.mark.parametrize(
        "change",
        [
            {"b_obj": 2.0},
            {"values": (300.0, 500.0)},
            {"algorithms": ("NaiveAverage", "DisQ")},
            {"config": QUICK["config"].scaled(repetitions=2)},
        ],
        ids=["b_obj", "values", "algorithms", "repetitions"],
    )
    def test_resume_under_another_configuration_refused(self, tmp_path, change):
        sweep(tmp_path, **QUICK)
        with pytest.raises(CheckpointError, match="another"):
            sweep(tmp_path, resume=True, **{**QUICK, **change})

    @pytest.mark.parametrize(
        "tamper", [_set_version, _edit_fingerprint, _drop_errors, None],
        ids=["version", "fingerprint", "errors", "torn"],
    )
    def test_tampered_record_refused(self, tmp_path, tamper):
        sweep(tmp_path, **QUICK)
        record = tmp_path / "rep-0.grid.json"
        if tamper is None:
            record.write_text(record.read_text()[:60])
        else:
            document = json.loads(record.read_text())
            tamper(document)
            record.write_text(json.dumps(document))
        with pytest.raises(CheckpointError):
            sweep(tmp_path, resume=True, **QUICK)

    def test_fresh_sweep_over_used_dir_resumes_like_empty_one(
        self, tmp_path, monkeypatch
    ):
        used, empty = tmp_path / "used", tmp_path / "empty"
        sweep(used, **QUICK)
        resumed = {}
        for directory in (used, empty):
            count_runs(monkeypatch, tmp_path / "runs.log", crash_seed=0)
            with pytest.raises(RuntimeError):
                sweep(directory, b_obj=2.0, **QUICK)
            monkeypatch.undo()
            # The finished sweep's record went before the first run.
            assert records(directory) == []
            resumed[directory] = sweep(directory, b_obj=2.0, resume=True, **QUICK)
        assert resumed[used] == resumed[empty] == sweep(b_obj=2.0, **QUICK)

    @pytest.mark.parametrize("resume", [False, True])
    def test_older_builds_cell_checkpoint_removed(self, tmp_path, resume):
        (tmp_path / "b_prc.sweep.json").write_text('{"version": 1, "done": {}}')
        sweep(tmp_path, resume=resume, **QUICK)
        assert records(tmp_path) == ["rep-0.grid.json"]
