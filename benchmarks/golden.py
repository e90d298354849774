"""Diff the paper-shape reports against their committed copies.

The eight paper-shape benches (``bench_fig{1,2,3,4}.py``,
``bench_table{4,5}.py``, ``bench_coverage.py`` and
``bench_robustness.py``) write the 21 reports named in :data:`REPORTS`
to ``benchmarks/out/<name>.txt``, each ending in a wall-clock footer.
``benchmarks/golden/`` holds the same reports with the footer stripped,
so a change that moves any printed number shows up as a text diff.

Run the benches, then check or re-record, from the repo root::

    PYTHONPATH=src:. BENCH_WORKERS=2 python -m pytest \\
        benchmarks/bench_fig1.py benchmarks/bench_fig2.py \\
        benchmarks/bench_fig3.py benchmarks/bench_fig4.py \\
        benchmarks/bench_table4.py benchmarks/bench_table5.py \\
        benchmarks/bench_coverage.py benchmarks/bench_robustness.py \\
        -p no:cacheprovider
    python benchmarks/golden.py check     # exit 1 on any difference
    python benchmarks/golden.py record    # rewrite benchmarks/golden/

``check`` writes every difference, missing report included, as a
unified diff to ``benchmarks/out/golden.diff``.  ``record`` is for a
change that means to move a number: the move is then reviewed as the
diff of ``benchmarks/golden/``.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = BENCH_DIR / "golden"
DIFF_PATH = OUT_DIR / "golden.diff"

#: The reports the eight paper-shape benches write.
REPORTS = (
    "fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f",
    "fig2", "fig3a", "fig3b", "fig4a", "fig4b",
    "table4a", "table4b", "table5a", "table5b",
    "coverage", "ablation_optimism",
    "rob1_attribute_quality", "rob2_normalization", "rob3_rho_constant",
    "rob4_pricing",
)

#: The footer ``benchmarks.common.write_report`` appends to every report.
FOOTER = "[wall-clock: "


def stripped(path: Path) -> list[str]:
    """A report's lines without its wall-clock footer."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    while lines and lines[-1].startswith(FOOTER):
        lines.pop()
    return lines


def check() -> int:
    diff: list[str] = []
    for name in REPORTS:
        golden, out = GOLDEN_DIR / f"{name}.txt", OUT_DIR / f"{name}.txt"
        if not out.exists():
            diff.append(f"missing report {out}\n")
            continue
        diff.extend(
            difflib.unified_diff(
                golden.read_text(encoding="utf-8").splitlines(keepends=True),
                stripped(out),
                fromfile=f"golden/{name}.txt",
                tofile=f"out/{name}.txt",
            )
        )
    OUT_DIR.mkdir(exist_ok=True)
    DIFF_PATH.write_text("".join(diff), encoding="utf-8")
    if diff:
        sys.stdout.writelines(diff)
        print(f"\n{DIFF_PATH}: the reports differ from benchmarks/golden/")
        return 1
    print(f"{len(REPORTS)} reports equal benchmarks/golden/")
    return 0


def record() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in REPORTS:
        lines = stripped(OUT_DIR / f"{name}.txt")
        (GOLDEN_DIR / f"{name}.txt").write_text("".join(lines), encoding="utf-8")
    print(f"recorded {len(REPORTS)} reports in {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    commands = {"check": check, "record": record}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: python {sys.argv[0]} {{check,record}}")
    sys.exit(commands[sys.argv[1]]())
