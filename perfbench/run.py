"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ``src/``.
Workloads are described in ``perfbench/README.md``.  With ``--trace 0``
the last line of standard output is a JSON object holding every gated
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
and the spans are written to ``perfbench/out/``.  The exit code is 0
when the run finished, even if an output check failed (the JSON then
says ``"correct": false``); it is non-zero when the run could not be
made at all, for example when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Environment the run executes under.  The layout of the program's
#: dicts and sets keyed by attribute names depends on the string-hash
#: seed, and a fresh random seed per process moved serve timings by
#: several percent from run to run.  Numeric libraries run one thread:
#: each workload is one process with one thread.
RUN_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: personality(2) flag that turns off address-space randomisation for
#: the re-executed image; a fresh memory layout per process moved serve
#: and catalog-hit timings by a few percent more.
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Ask the kernel for an unrandomised address space after ``exec``.

    Best effort: where the call is refused the run keeps the
    randomised layout.
    """
    import ctypes

    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def _import_paths() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {source}; run from a checkout")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(BENCH_DIR))


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/self/mountinfo", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            mount, fstype = fields[4], fields[fields.index("-") + 1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fstype
    return kind


def machine_block(workdir: Path, reference_s: float) -> list[str]:
    import numpy
    import scipy

    return [
        "machine:",
        f"  nproc                 {len(os.sched_getaffinity(0))}",
        f"  python                {platform.python_version()}",
        f"  numpy                 {numpy.__version__}",
        f"  scipy                 {scipy.__version__}",
        f"  reference slice       {reference_s * 1e3:.4f} ms (median sample)",
        f"  durable dir fs        {filesystem_of(workdir)}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if any(os.environ.get(key) != value for key, value in RUN_ENV.items()):
        # Re-execute in place (same process, new image) under RUN_ENV
        # and a fixed memory layout.
        os.environ.update(RUN_ENV)
        _fixed_layout()
        os.execv(sys.executable, [sys.executable, *sys.argv])

    _import_paths()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run(args, WORKLOADS[args.workload](args.seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args, workload, workdir: Path) -> None:
    import report
    import tracing
    from drift import DriftMeter

    recorder = None
    absent: list[str] = []
    if args.trace:
        recorder = tracing.SpanRecorder()
        absent = tracing.install(recorder)

    setups = []

    def set_up() -> None:
        with DriftMeter() as meter:
            setups.append(workload.setup(meter))

    for _ in range(workload.setups):
        set_up()

    units, traced_units = [], []
    errors = 0
    ends_at = time.perf_counter() + args.seconds
    index = 0
    # One more set-up after every unit spreads the set-up samples over
    # the whole run.  Traced runs alternate untraced and traced units,
    # so the tracing overhead is measured inside one run.
    while True:
        traced = recorder is not None and index % 2 == 1
        unit = None
        try:
            with DriftMeter() as meter:
                if traced:
                    recorder.start(meter.work_clock)
                unit = workload.unit(meter, index, recorder if traced else None)
        except Exception:  # noqa: BLE001 - a raised error is a failed operation
            traceback.print_exc()
            errors += 1
        finally:
            if recorder is not None:
                recorder.active = False
        if unit is not None and traced:
            unit.spans = list(recorder.spans)
            traced_units.append(unit)
        elif unit is not None:
            units.append(unit)
        index += 1
        enough = len(units) >= 2 and (recorder is None or traced_units)
        if (time.perf_counter() >= ends_at and enough) or errors > 2:
            break
        set_up()

    final_checks = []
    if units and not errors:
        try:
            final_checks = workload.final_checks()
        except Exception:  # noqa: BLE001 - a raised error is a failed operation
            traceback.print_exc()
            errors += 1

    result = report.assemble(workload, setups, units, traced_units, final_checks, errors, absent)
    for line in machine_block(workdir, result.reference_s) + result.lines:
        print(line)
    if traced_units:
        stem = f"{workload.name}-seed{args.seed}"
        spans_path = OUT_DIR / f"{stem}.spans.jsonl"
        tracing.write_spans(spans_path, traced_units[0].spans)
        (OUT_DIR / f"{stem}.layers.json").write_text(
            json.dumps({"metrics": result.per_layer}, indent=2, sort_keys=True) + "\n"
        )
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.per_layer if args.trace else result.end_to_end,
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
