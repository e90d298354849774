"""Integration tests for budget-split tuning and the CLI."""

import json
import math

import pytest

from repro.core.disq import DisQParams
from repro.core.tuning import candidate_splits, optimize_budget_split
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.errors import ConfigurationError
from repro.experiments.runner import make_query


class TestCandidateSplits:
    def test_infeasible_grid_points_dropped(self):
        splits = candidate_splits(1000.0, 100, b_obj_grid=(1.0, 5.0, 20.0))
        # 20c/object over 100 objects already exceeds the total.
        assert [s.b_obj_cents for s in splits] == [1.0, 5.0]
        assert splits[0].b_prc_cents == pytest.approx(900.0)

    def test_all_infeasible_rejected(self):
        with pytest.raises(ConfigurationError):
            candidate_splits(100.0, 1000, b_obj_grid=(1.0,))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            candidate_splits(0.0, 10, (1.0,))
        with pytest.raises(ConfigurationError):
            candidate_splits(100.0, 0, (1.0,))


class TestOptimizeBudgetSplit:
    def test_returns_best_of_grid(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        query = make_query(tiny_domain, ("target",))
        best, grid = optimize_budget_split(
            platform,
            tiny_domain,
            query,
            total_cents=2500.0,
            n_objects=150,
            params=DisQParams(n1=20, max_rounds=20),
            b_obj_grid=(1.0, 4.0),
            pilot_objects=20,
            repetitions=1,
        )
        assert math.isfinite(best.pilot_error)
        assert best.pilot_error == min(s.pilot_error for s in grid)
        assert len(grid) == 2


class TestCli:
    def test_plan_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "plan",
                "--domain", "recipes",
                "--target", "protein",
                "--n-objects", "150",
                "--n1", "25",
                "--b-obj", "2",
                "--b-prc", "700",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan for targets protein" in out

    def test_evaluate_command_with_compare(self, capsys):
        from repro.cli import main

        code = main(
            [
                "evaluate",
                "--domain", "pictures",
                "--target", "bmi",
                "--n-objects", "150",
                "--n1", "25",
                "--b-obj", "2",
                "--b-prc", "700",
                "--objects", "20",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DisQ weighted query error" in out
        assert "NaiveAverage query error" in out

    def test_sweep_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--domain", "pictures",
                "--target", "bmi",
                "--n-objects", "150",
                "--n1", "20",
                "--axis", "b_obj",
                "--values", "1,4",
                "--b-prc", "700",
                "--objects", "20",
                "--repetitions", "1",
                "--algorithms", "NaiveAverage",
            ]
        )
        assert code == 0
        assert "B_obj(c)" in capsys.readouterr().out

    def test_unknown_domain_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["plan", "--domain", "mars", "--target", "x"])

    def test_evaluate_with_reliability_aggregation(self, tmp_path):
        from repro.cli import main

        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "evaluate",
                "--domain", "synthetic",
                "--target", "attr_00",
                "--n-objects", "60",
                "--n1", "20",
                "--b-obj", "2",
                "--b-prc", "300",
                "--objects", "20",
                "--aggregator", "reliability",
                "--manifest", str(manifest),
            ]
        )
        assert code == 0
        payload = json.loads(manifest.read_text())
        assert payload["agg"]["workers_observed"] > 0

    def test_tune_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "tune",
                "--domain", "pictures",
                "--target", "bmi",
                "--n-objects", "150",
                "--n1", "20",
                "--total", "2000",
                "--objects", "200",
            ]
        )
        assert code == 0
        assert "best: B_obj=" in capsys.readouterr().out


class TestCliDurability:
    PLAN = [
        "plan",
        "--domain", "synthetic",
        "--target", "attr_00",
        "--n-objects", "60",
        "--n1", "12",
        "--b-obj", "4",
        "--b-prc", "400",
        "--seed", "3",
    ]

    def test_exit_codes_are_distinct_and_nonzero(self):
        from repro.cli import EXIT_CONFIGURATION_ERROR, EXIT_CRASH

        assert EXIT_CONFIGURATION_ERROR != 0
        assert EXIT_CRASH != 0
        assert EXIT_CONFIGURATION_ERROR != EXIT_CRASH

    def test_configuration_error_exit_code(self, capsys):
        from repro.cli import EXIT_CONFIGURATION_ERROR, main

        code = main(self.PLAN + ["--resume"])
        assert code == EXIT_CONFIGURATION_ERROR
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "--resume requires --checkpoint-dir" in err

    def test_crash_exit_code_and_resume_hint(self, tmp_path, capsys):
        from repro.cli import EXIT_CRASH, main

        argv = self.PLAN + [
            "--checkpoint-dir", str(tmp_path), "--chaos-after", "60",
        ]
        code = main(argv)
        assert code == EXIT_CRASH
        err = capsys.readouterr().err
        assert "crashed: simulated crash" in err
        assert "resume with: python -m repro plan" in err
        assert "--resume" in err
        # The hint must not re-inject the crash.
        assert "--chaos-after" not in err

    def test_tampered_checkpoint_exits_2_without_hint(self, tmp_path, capsys):
        from repro.cli import EXIT_CONFIGURATION_ERROR, main

        argv = self.PLAN + ["--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        checkpoint = tmp_path / "disq.checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["version"] = 0
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()

        code = main(argv + ["--resume"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIGURATION_ERROR
        assert "durability error:" in err
        assert "schema version 0" in err
        assert "resume with:" not in err

    def test_crash_without_checkpoint_state_prints_no_hint(self, capsys):
        from repro.cli import EXIT_CRASH, main

        code = main(self.PLAN + ["--chaos-after", "60"])
        assert code == EXIT_CRASH
        assert "resume with:" not in capsys.readouterr().err

    def test_crash_then_resume_completes(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = str(tmp_path / "ck")
        manifest = str(tmp_path / "manifest.json")
        assert main(self.PLAN + [
            "--checkpoint-dir", checkpoint, "--chaos-after", "60",
        ]) != 0
        capsys.readouterr()
        code = main(self.PLAN + [
            "--checkpoint-dir", checkpoint, "--resume",
            "--manifest", manifest,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint after phase:" in out
        assert "plan for targets attr_00" in out
        payload = json.loads(open(manifest).read())
        assert payload["durability"]["resumed"] is True
        assert payload["durability"]["resumed_from"] in (
            "examples", "statistics", "dismantle", "allocate"
        )
        assert [path.name for path in (tmp_path / "ck").iterdir()] == [
            "disq.checkpoint.json"
        ]

    def test_fresh_plan_over_used_dir_resumes(self, tmp_path, capsys):
        from repro.cli import EXIT_CRASH, main

        used = str(tmp_path / "used")
        assert main(self.PLAN + ["--checkpoint-dir", used]) == 0
        capsys.readouterr()
        # Another budget: the finished run's checkpoint would be refused.
        plan = list(self.PLAN)
        plan[plan.index("--b-prc") + 1] = "500"
        assert main(plan) == 0
        plain = capsys.readouterr().out
        code = main(plan + ["--checkpoint-dir", used, "--chaos-after", "5"])
        assert code == EXIT_CRASH
        # The crash came before the fresh run's first checkpoint, and
        # the finished run's went before its first question: nothing to
        # resume from, so no hint.
        assert "resume with:" not in capsys.readouterr().err
        assert list((tmp_path / "used").iterdir()) == []
        assert main(plan + ["--checkpoint-dir", used, "--resume"]) == 0
        assert capsys.readouterr().out == plain

    def test_sweep_checkpoint_resume(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep",
            "--domain", "synthetic",
            "--target", "attr_00",
            "--n-objects", "60",
            "--n1", "12",
            "--axis", "b_prc",
            "--values", "300,400",
            "--b-obj", "4",
            "--objects", "20",
            "--repetitions", "1",
            "--algorithms", "NaiveAverage",
            "--seed", "3",
            "--checkpoint-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        # All cells replayed from the checkpoint: identical series.
        assert capsys.readouterr().out == first

    def test_sweep_resume_under_another_budget_exits_2_without_hint(
        self, tmp_path, capsys
    ):
        from repro.cli import EXIT_CONFIGURATION_ERROR, main

        sweep = [
            "sweep",
            "--domain", "synthetic",
            "--target", "attr_00",
            "--n-objects", "60",
            "--n1", "12",
            "--axis", "b_prc",
            "--values", "300,400",
            "--objects", "20",
            "--repetitions", "2",
            "--algorithms", "NaiveAverage",
            "--checkpoint-dir", str(tmp_path),
        ]
        assert main(sweep + ["--b-obj", "4"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "rep-0.grid.json", "rep-1.grid.json"
        ]
        capsys.readouterr()
        code = main(sweep + ["--b-obj", "2", "--resume"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIGURATION_ERROR
        assert "durability error:" in err
        assert "resume with:" not in err


def _with(argv: list[str], flag: str, value: str) -> list[str]:
    """``argv`` with ``flag``'s value replaced (or the flag appended)."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


_PLAN = [
    "plan", "--domain", "synthetic", "--target", "attr_00",
    "--n-objects", "60", "--n1", "12", "--b-obj", "4", "--b-prc", "400",
]
_EVALUATE = ["evaluate"] + _PLAN[1:] + ["--objects", "20"]
_SWEEP = [
    "sweep", "--domain", "synthetic", "--target", "attr_00",
    "--n-objects", "60", "--n1", "12", "--axis", "b_prc",
    "--values", "300,400", "--b-obj", "4", "--objects", "20",
    "--repetitions", "1", "--algorithms", "NaiveAverage",
]
_COVERAGE = [
    "coverage", "--domain", "houses", "--target", "price",
    "--n-objects", "60", "--n1", "12", "--b-obj", "4", "--b-prc", "1500",
    "--repetitions", "1",
]


#: Aggregators, aggregation flags and admission flags the CLI no
#: longer has.
_REMOVED_OPTIONS = (
    "trimmed", "huber", "--trim-fraction", "--huber-delta", "--em-iterations",
    "--admit-reject-depth", "--admit-degrade-depth", "--admit-headroom",
)

#: ``@name`` arguments name files the test writes under its tmp_path: a
#: query file and a request spec per entry of :data:`_BAD_ENTRIES`, and
#: an empty plan catalog that must stay empty.
_SERVE = [
    "serve", "--domain", "recipes", "--queries", "@QUERIES",
    "--catalog", "@catalog", "--n-objects", "60", "--n1", "12",
    "--b-obj", "2", "--b-prc", "200",
]
_QUERY = [
    "query", "--domain", "recipes", "--requests", "@REQUESTS",
    "--catalog", "@catalog", "--n-objects", "60", "--n1", "12",
    "--b-obj", "2", "--b-prc", "200",
]


#: Query entries the serve and query doors must refuse before planning:
#: an object outside the 60-object domain, and fields of the wrong type
#: that were once read as something else (``1.5`` as object 1, ``"12"``
#: as objects 1 and 2, ``true`` as 1) or crashed mid-parse.
_BAD_ENTRIES = {
    "object-outside-domain": {"objects": [1, 60]},
    "object-float": {"objects": [1.5, 2]},
    "object-bool": {"objects": [True, 2]},
    "object-string": {"objects": "12"},
    "object-text": {"objects": ["abc"]},
    "object-null": {"objects": [None]},
    "range-float": {"objects": {"range": [0, 2.7]}},
    "range-zero-step": {"objects": {"range": [0, 3, 0]}},
    "targets-string": {"targets": "protein"},
    "deadline-bool": {"deadline_s": True},
    "deadline-text": {"deadline_s": "soon"},
    "threshold-bool": {
        "predicate": {"target": "protein", "op": ">=", "threshold": True}
    },
    "threshold-text": {
        "predicate": {"target": "protein", "op": ">=", "threshold": "high"}
    },
    "predicate-string": {"predicate": "protein>3"},
}


def _write_bad_requests(directory) -> None:
    for name, fields in _BAD_ENTRIES.items():
        entry = {"id": "r0", "targets": ["protein"], "objects": [1, 2], **fields}
        (directory / f"{name}.queries.json").write_text(
            json.dumps({"queries": [entry]})
        )
        if "predicate" in entry:
            entry["predicates"] = [entry.pop("predicate")]
        (directory / f"{name}.requests.json").write_text(json.dumps([entry]))
    (directory / "catalog").mkdir()


def _bad_serve(name: str) -> list[str]:
    return _with(_SERVE, "--queries", f"@{name}.queries.json")


def _bad_query(name: str) -> list[str]:
    return _with(_QUERY, "--requests", f"@{name}.requests.json")


class TestCliValidation:
    """Every door checks its cents, repetitions and evaluated objects
    before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            _with(_PLAN, "--b-obj", "nan"),
            _with(_PLAN, "--b-obj", "inf"),
            _with(_PLAN, "--b-prc", "-1"),
            _with(_EVALUATE, "--b-obj", "nan"),
            _with(_EVALUATE, "--b-prc", "inf"),
            _with(_EVALUATE, "--objects", "0"),
            _with(_EVALUATE, "--objects", "-3"),
            _with(_SWEEP, "--b-obj", "nan"),
            _with(_with(_SWEEP, "--axis", "b_obj"), "--b-prc", "inf"),
            _with(_with(_SWEEP, "--axis", "b_obj"), "--values", "inf,2"),
            _with(_SWEEP, "--values", "nan,300"),
            _with(_SWEEP, "--values", "300,-5"),
            _with(_SWEEP, "--values", "300,abc"),
            _with(_SWEEP, "--repetitions", "0"),
            _with(_SWEEP, "--objects", "0"),
            _with(_COVERAGE, "--b-obj", "nan"),
            _with(_COVERAGE, "--b-prc", "inf"),
            _with(_COVERAGE, "--repetitions", "0"),
            _with(_EVALUATE, "--aggregator", "trimmed"),
            _with(_EVALUATE, "--aggregator", "huber"),
            _with(_EVALUATE, "--trim-fraction", "0.1"),
            _with(_EVALUATE, "--huber-delta", "1.5"),
            _with(_EVALUATE, "--em-iterations", "5"),
            _with(_SERVE, "--admit-reject-depth", "4"),
            _with(_SERVE, "--admit-degrade-depth", "2"),
            _with(_SERVE, "--admit-headroom", "0.5"),
            *[_bad_serve(name) for name in _BAD_ENTRIES],
            *[_bad_query(name) for name in _BAD_ENTRIES],
        ],
        ids=[
            "plan-b_obj-nan",
            "plan-b_obj-inf",
            "plan-b_prc-negative",
            "evaluate-b_obj-nan",
            "evaluate-b_prc-inf",
            "evaluate-objects-0",
            "evaluate-objects-negative",
            "sweep-b_obj-nan",
            "sweep-b_prc-inf",
            "sweep-values-inf",
            "sweep-values-nan",
            "sweep-values-negative",
            "sweep-values-text",
            "sweep-repetitions-0",
            "sweep-objects-0",
            "coverage-b_obj-nan",
            "coverage-b_prc-inf",
            "coverage-repetitions-0",
            "evaluate-aggregator-trimmed",
            "evaluate-aggregator-huber",
            "evaluate-trim-fraction",
            "evaluate-huber-delta",
            "evaluate-em-iterations",
            "serve-admit-reject-depth",
            "serve-admit-degrade-depth",
            "serve-admit-headroom",
            *[f"serve-{name}" for name in _BAD_ENTRIES],
            *[f"query-{name}" for name in _BAD_ENTRIES],
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys, tmp_path):
        from repro.cli import EXIT_CONFIGURATION_ERROR, main

        _write_bad_requests(tmp_path)
        argv = [
            str(tmp_path / token[1:]) if token.startswith("@") else token
            for token in argv
        ]
        removed = [token for token in argv if token in _REMOVED_OPTIONS]
        if removed:
            # argparse refuses a removed flag or aggregator by name.
            with pytest.raises(SystemExit) as exited:
                main(argv)
            code, expected = exited.value.code, removed[0]
        else:
            code, expected = main(argv), "configuration error:"
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIGURATION_ERROR
        assert expected in err
        assert not out
        # Checked before any planning: no plan was bought or stored.
        assert not list((tmp_path / "catalog").iterdir())
