"""Integration tests: the plan catalog through the CLI.

The flow CI's catalog-smoke lane mirrors: build an entry with ``repro
plan --catalog``, serve a multi-target request spec cold (one hit from
the plan command, one fresh), then warm (all hits, zero preprocessing
spend), with manifests validating under schema v5 and lineage graphs on
disk.  Corruption paths must exit with code 2.
"""

import json

import pytest

from repro.cli import EXIT_CONFIGURATION_ERROR, main
from repro.obs.manifest import SCHEMA_VERSION, load_manifest

pytestmark = pytest.mark.catalog

COMMON = [
    "--domain", "recipes",
    "--n-objects", "120",
    "--n1", "25",
    "--b-obj", "2",
    "--b-prc", "700",
    "--seed", "3",
]


@pytest.fixture
def request_file(tmp_path):
    path = tmp_path / "requests.json"
    path.write_text(
        json.dumps(
            [
                {
                    "id": "r0",
                    "targets": ["protein", "calories"],
                    "objects": {"range": [0, 10]},
                    "predicates": [
                        {"target": "protein", "op": ">=", "threshold": 15}
                    ],
                }
            ]
        )
    )
    return path


def run_query(tmp_path, request_file, tag, lineage=False):
    argv = [
        "query",
        "--requests", str(request_file),
        "--catalog", str(tmp_path / "catalog"),
        "--manifest", str(tmp_path / f"{tag}.manifest.json"),
        "--out", str(tmp_path / f"{tag}.report.json"),
    ] + COMMON
    if lineage:
        argv += ["--lineage-dir", str(tmp_path / "lineage")]
    return main(argv)


class TestCatalogCli:
    def test_plan_query_cold_warm_flow(self, tmp_path, request_file, capsys):
        # 1. repro plan stores the protein entry.
        code = main(
            ["plan", "--target", "protein", "--catalog", str(tmp_path / "catalog")]
            + COMMON
        )
        assert code == 0
        assert "plan stored in catalog" in capsys.readouterr().out

        # 2. Cold query: protein hits (cross-command reuse), calories
        #    plans fresh.
        assert run_query(tmp_path, request_file, "cold") == 0
        out = capsys.readouterr().out
        assert "r0.protein" in out and "hit" in out
        assert "r0.calories" in out and "fresh" in out
        cold = load_manifest(tmp_path / "cold.manifest.json")
        assert cold["schema_version"] == SCHEMA_VERSION
        assert cold["catalog"]["hits"] == 1
        assert cold["catalog"]["routes"] == {"hit": 1, "fresh": 1}

        # 3. Warm query: every route hits; zero preprocessing spend.
        assert run_query(tmp_path, request_file, "warm", lineage=True) == 0
        capsys.readouterr()
        warm = load_manifest(tmp_path / "warm.manifest.json")
        assert warm["catalog"]["hits"] == 2
        assert warm["catalog"]["routes"] == {"hit": 2}
        assert warm["catalog"]["avoided_cents"] > 0
        questions = warm["spend"]["questions_by_category"]
        for category in ("example", "dismantle", "verification"):
            assert questions.get(category, 0) == 0
        # Warm answers are byte-identical to cold answers.
        cold_report = json.loads((tmp_path / "cold.report.json").read_text())
        warm_report = json.loads((tmp_path / "warm.report.json").read_text())
        assert cold_report["results"] == warm_report["results"]
        # Lineage graphs were exported for both routed tuples.
        lineage = sorted(p.name for p in (tmp_path / "lineage").iterdir())
        assert lineage == [
            "recipes.calories.lineage.json",
            "recipes.protein.lineage.json",
        ]
        document = json.loads(
            (tmp_path / "lineage" / "recipes.protein.lineage.json").read_text()
        )
        assert document["targets"] == ["protein"]
        assert any(node["kind"] == "target" for node in document["nodes"])

    def test_corrupt_entry_exits_2(self, tmp_path, request_file, capsys):
        assert run_query(tmp_path, request_file, "seed") == 0
        capsys.readouterr()
        for entry in (tmp_path / "catalog").glob("*.json"):
            entry.write_text(entry.read_text()[:100])
        code = run_query(tmp_path, request_file, "broken")
        assert code == EXIT_CONFIGURATION_ERROR
        captured = capsys.readouterr()
        assert "catalog error" in captured.err

    def test_serve_uses_the_catalog(self, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                [
                    {
                        "id": "q0",
                        "targets": ["protein"],
                        "objects": [0, 1, 2],
                    }
                ]
            )
        )
        argv = [
            "serve",
            "--queries", str(queries),
            "--catalog", str(tmp_path / "catalog"),
        ] + COMMON
        assert main(argv) == 0
        assert "fresh (spent" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hit (avoided" in out

    def test_query_requires_catalog_flag(self, request_file):
        with pytest.raises(SystemExit):
            main(["query", "--requests", str(request_file)] + COMMON)
