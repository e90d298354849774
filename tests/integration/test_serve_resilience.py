"""Integration: the resilient serving tier end to end, through the CLI.

The acceptance story of the resilience layer: a fault-injected serving
run killed by chaos *inside a wave* resumes with exit 0, re-purchases
**zero** answers (every answer index in the serve log's purchase
records is unique across the crashed and resumed runs combined), and
completes every admitted query exactly as the uncrashed run did —
answered or degraded, never silently dropped.  Admission-time
validation of money and fault knobs is covered alongside, since it
shares the same CLI surface.
"""

import json
from pathlib import Path

import pytest

from repro.cli import EXIT_CONFIGURATION_ERROR, EXIT_CRASH, main

from tests.conftest import rewrite_serve_header, rewrite_serve_result

pytestmark = [pytest.mark.serve, pytest.mark.faults, pytest.mark.load]

#: Tiny-but-real serve workload: three overlapping queries, 18 fresh
#: answers in one wave (planning replays recorded answers and pays no
#: crowd interactions, so ``--chaos-after N`` with ``N < 18`` lands
#: inside the wave's commit loop).
QUERIES = {
    "queries": [
        {"id": "qa", "targets": ["protein"], "objects": {"range": [0, 10]}},
        {"id": "qb", "targets": ["protein"], "objects": {"range": [5, 15]}},
        {"id": "qc", "targets": ["protein"], "objects": {"range": [8, 18]}},
    ]
}

BASE = [
    "serve",
    "--domain",
    "recipes",
    "--n-objects",
    "40",
    "--n1",
    "16",
    "--b-prc",
    "200",
    "--fault-profile",
    "0.2:0.1",
]


@pytest.fixture
def queries_path(tmp_path) -> Path:
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(QUERIES))
    return path


def run_cli(argv) -> int:
    return main([str(token) for token in argv])


def purchased_tuples(checkpoint_dir: Path) -> list[tuple]:
    """Every logged answer purchase as ``(object, attribute, index)``."""
    path = checkpoint_dir / "serve.journal.jsonl"
    tuples = []
    for line in path.read_bytes().splitlines():
        record = json.loads(line)
        if record["kind"] == "purchase":
            for offset in range(len(record["answers"])):
                tuples.append(
                    (record["object"], record["attribute"], record["start"] + offset)
                )
    return tuples


class TestChaosMidWaveResume:
    def test_crash_resume_repurchases_nothing(
        self, tmp_path, queries_path, capsys
    ):
        reference_out = tmp_path / "reference.json"
        assert (
            run_cli(
                BASE + ["--queries", queries_path, "--out", reference_out]
            )
            == 0
        )
        reference = json.loads(reference_out.read_text())
        capsys.readouterr()

        checkpoint_dir = tmp_path / "ckpt"
        code = run_cli(
            BASE
            + [
                "--queries",
                queries_path,
                "--checkpoint-dir",
                checkpoint_dir,
                "--chaos-after",
                7,
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CRASH
        assert "crashed: simulated crash" in captured.err
        assert "resume with:" in captured.err
        assert "--resume" in captured.err
        assert "--chaos-after" not in captured.err
        # The kill landed mid-wave: some but not all answers logged.
        crashed_tuples = purchased_tuples(checkpoint_dir)
        assert 0 < len(crashed_tuples) < reference["fresh_answers"]

        resumed_out = tmp_path / "resumed.json"
        code = run_cli(
            BASE
            + [
                "--queries",
                queries_path,
                "--checkpoint-dir",
                checkpoint_dir,
                "--resume",
                "--out",
                resumed_out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (
            f"resumed serving run: 0 cached answers restored, "
            f"{len(crashed_tuples)} more from the crashed wave" in captured.out
        )
        resumed = json.loads(resumed_out.read_text())

        # Zero re-purchase: across the crashed and resumed runs the log
        # holds each (object, attribute, index) exactly once, and the
        # union equals the uncrashed run's purchases.
        tuples = purchased_tuples(checkpoint_dir)
        assert len(tuples) == len(set(tuples))
        assert len(tuples) == reference["fresh_answers"]

        # No admitted query is lost, and the results — answers, spend
        # and savings — are the uncrashed run's.
        for payload in (resumed, reference):
            payload.pop("wall_seconds")
        assert resumed == reference


class TestTamperedCheckpoint:
    def refused(self, argv, capsys) -> str:
        """Run ``argv --resume``; assert exit 2 with no resume hint."""
        code = run_cli(argv + ["--resume"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIGURATION_ERROR
        assert "durability error:" in err
        # Re-running the same --resume would fail the same way.
        assert "resume with:" not in err
        return err

    def test_resume_over_bad_version_exits_2_without_hint(
        self, tmp_path, queries_path, capsys
    ):
        checkpoint_dir = tmp_path / "ckpt"
        argv = BASE + ["--queries", queries_path, "--checkpoint-dir", checkpoint_dir]
        assert run_cli(argv) == 0
        rewrite_serve_header(checkpoint_dir, version=0)
        capsys.readouterr()
        assert "version-2 header" in self.refused(argv, capsys)

    def test_resume_over_other_budget_exits_2_without_hint(
        self, tmp_path, queries_path, capsys
    ):
        checkpoint_dir = tmp_path / "ckpt"
        argv = BASE + ["--queries", queries_path, "--checkpoint-dir", checkpoint_dir]
        assert run_cli(argv) == 0
        rewrite_serve_header(checkpoint_dir, budget=25.0)
        capsys.readouterr()
        assert "25.0 cent budget" in self.refused(argv, capsys)

    def test_resume_over_per_shard_journal_exits_2_without_hint(
        self, tmp_path, queries_path, capsys
    ):
        checkpoint_dir = tmp_path / "ckpt"
        argv = BASE + ["--queries", queries_path, "--checkpoint-dir", checkpoint_dir]
        assert run_cli(argv) == 0
        journal = checkpoint_dir / "serve.journal.jsonl"
        (checkpoint_dir / "serve.shard00.journal.jsonl").write_bytes(
            journal.read_bytes()
        )
        capsys.readouterr()
        assert "serve.shard00.journal.jsonl" in self.refused(argv, capsys)

    def test_resume_over_cache_snapshot_checkpoint_exits_2_without_hint(
        self, tmp_path, queries_path, capsys
    ):
        checkpoint_dir = tmp_path / "ckpt"
        argv = BASE + ["--queries", queries_path, "--checkpoint-dir", checkpoint_dir]
        assert run_cli(argv) == 0
        # Builds that snapshotted the cache into a serve checkpoint.
        (checkpoint_dir / "serve.checkpoint.json").write_text(
            json.dumps({"cache": {"entries": []}})
        )
        capsys.readouterr()
        assert "serve.checkpoint.json" in self.refused(argv, capsys)

    # Builds with an admission front door logged cache-only queries
    # degraded for "admission" and refused ones shed as "rejected",
    # reasons this build does not have.
    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"status": "degraded", "degraded_reason": "admission"},
                "unknown degrade reason 'admission'",
            ),
            (
                {"status": "shed", "shed_reason": "rejected"},
                "unknown shed reason 'rejected'",
            ),
        ],
        ids=["degraded-admission", "shed-rejected"],
    )
    def test_resume_over_removed_reason_exits_2_without_hint(
        self, tmp_path, queries_path, capsys, fields, message
    ):
        checkpoint_dir = tmp_path / "ckpt"
        argv = BASE + ["--queries", queries_path, "--checkpoint-dir", checkpoint_dir]
        assert run_cli(argv) == 0
        rewrite_serve_result(checkpoint_dir, **fields)
        capsys.readouterr()
        code = run_cli(argv + ["--resume"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIGURATION_ERROR
        assert message in captured.err
        assert "resume with:" not in captured.err
        assert not captured.out


class TestBackpressure:
    def test_max_queue_sheds_overflow_in_report_and_manifest(
        self, tmp_path, queries_path, capsys
    ):
        """``--max-queue`` is the one backpressure bound: queries past it
        are shed as ``overflow`` in the report and the manifest."""
        manifest_path = tmp_path / "manifest.json"
        argv = BASE + ["--queries", queries_path, "--max-queue", "2"]
        assert run_cli(argv + ["--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "qc: 0 objects, 0.0c spent, 0.0c saved [shed: overflow]" in out
        serve = json.loads(manifest_path.read_text())["serve"]
        assert serve["queries"] == 3 and serve["shed"] == 1
        assert serve["shed_by_reason"] == {"overflow": 1}
        assert serve["peak_queue_depth"] == 2
        assert "admission" not in serve


class TestUsedCheckpointDir:
    def test_fresh_serve_over_used_dir_resumes_like_an_empty_one(
        self, tmp_path, queries_path, capsys
    ):
        def crash_then_resume(checkpoint_dir: Path) -> dict:
            argv = BASE + ["--queries", queries_path]
            argv += ["--checkpoint-dir", checkpoint_dir]
            assert run_cli(argv + ["--chaos-after", 7]) == EXIT_CRASH
            out = checkpoint_dir.with_suffix(".report.json")
            assert run_cli(argv + ["--resume", "--out", out]) == 0
            report = json.loads(out.read_text())
            report.pop("wall_seconds")
            return report

        used = tmp_path / "used"
        argv = BASE + ["--queries", queries_path, "--checkpoint-dir", used]
        assert run_cli(argv) == 0
        # A fresh run over the used directory starts empty, so its crash
        # resumes exactly as the same crash in an empty directory.
        assert crash_then_resume(used) == crash_then_resume(tmp_path / "empty")


class TestAdmissionValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--fault-profile", "bogus"],
            ["--fault-profile", "1.5"],
            ["--fault-profile", "0.2:-1"],
            ["--b-obj", "nan"],
            ["--b-obj", "inf"],
            ["--b-prc", "-100"],
        ],
    )
    def test_bad_knobs_rejected_at_admission(
        self, queries_path, capsys, flags
    ):
        argv = [
            "serve",
            "--domain",
            "recipes",
            "--queries",
            queries_path,
            *flags,
        ]
        assert run_cli(argv) == EXIT_CONFIGURATION_ERROR
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--queries", "q.json", "--workers", "2"],
            ["serve", "--queries", "q.json", "--shards", "2"],
            ["serve", "--queries", "q.json", "--shard-processes"],
            ["query", "--requests", "r.json", "--catalog", "c", "--workers", "2"],
        ],
    )
    def test_removed_concurrency_flags_exit_2(self, argv):
        # The engine is serial; its old concurrency flags are unknown
        # options, refused by the argument parser before any work.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv[:1] + ["--domain", "recipes"] + argv[1:])
        assert exit_info.value.code == 2
