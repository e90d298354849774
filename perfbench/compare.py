"""Per-layer deltas between two traced runs.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are either the ``<workload>-seed<n>.layers.json``
files a traced run writes to ``perfbench/out/``, or the saved standard
output of any run (its last line is the JSON result).  Every metric
present in either file is printed with both values, the difference and
the ratio; counts that differ are flagged, because for a fixed seed they
repeat exactly and a change means the program did different work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def load_metrics(path: Path) -> dict[str, dict]:
    text = path.read_text(encoding="utf-8").strip()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = json.loads(text.splitlines()[-1])
    return payload.get("metrics", payload)


def compare(base: dict[str, dict], new: dict[str, dict]) -> list[str]:
    lines = [f"{'metric':<34} {'base':>14} {'new':>14} {'delta':>14} {'new/base':>9}"]
    for name in sorted(set(base) | set(new)):
        if name not in base or name not in new:
            where = "base" if name in base else "new"
            lines.append(f"{name:<34} only in {where}")
            continue
        old, cur = base[name]["value"], new[name]["value"]
        unit = new[name]["unit"]
        ratio = f"{cur / old:>9.3f}" if old else f"{'-':>9}"
        flag = " count differs" if unit == "count" and not math.isclose(old, cur) else ""
        lines.append(
            f"{name:<34} {old:>14.6g} {cur:>14.6g} {cur - old:>+14.6g} {ratio} {unit}{flag}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for line in compare(load_metrics(args.base), load_metrics(args.new)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
