"""Turns a run's set-ups and units into metrics, checks and printed lines."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

import tracing
from workloads import HITS_PER_SEGMENT, Check, nearest_rank

#: Gated end-to-end metrics, every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("plan_s", "s"),
    ("catalog_hit_ms", "ms"),
    ("prc_cents", "cents"),
    ("query_error", "wMSE"),
    ("serve_qps", "1/s"),
    ("wave_ms_p50", "ms"),
    ("wave_ms_p90", "ms"),
    ("cents_per_query", "cents"),
)

#: End-to-end metrics only the fault/deadline/durable serve defines.
#: Printed by every run of serve_durable; reported as per-layer metrics
#: of traced runs (every workload, 0 where undefined) because a gated
#: metric must exist, non-zero, on every workload.
DURABLE_END_TO_END = (
    ("degraded_share", "ratio"),
    ("deadline_hit_rate", "ratio"),
    ("sim_latency_p90_s", "s"),
    ("write_bytes_per_answer", "B"),
)

#: Per-layer metrics: (name, unit, source).  ``span:<name>:<field>``
#: reads the traced spans; ``counter:<name>`` the program's registry;
#: the rest are computed in :func:`per_layer_metrics`.
_SPAN_FIELDS = {"calls": ("calls", "count"), "s": ("busy_s", "s"), "self_s": ("self_s", "s")}
PER_LAYER = (
    ("domains.build_s", "s", "setup:build"),
    *(
        (f"{span}.{field}", _SPAN_FIELDS[field][1], f"span:{span}:{field}")
        for span in (
            "crowd.ask_value",
            "crowd.ask_dismantle",
            "crowd.verify_candidate",
            "crowd.ask_example",
        )
        for field in ("calls", "s")
    ),
    ("crowd.questions", "count", "counter_prefix:crowd.questions."),
    *(
        (f"core.phase.{phase}.s", "s", f"phase:preprocess/{phase}")
        for phase in ("examples", "statistics", "dismantle", "allocate", "train")
    ),
    ("core.preprocess.calls", "count", "span:core.preprocess:calls"),
    ("core.preprocess.s", "s", "span:core.preprocess:s"),
    ("core.greedy_counts.calls", "count", "span:core.greedy_counts:calls"),
    ("core.greedy_counts.s", "s", "span:core.greedy_counts:s"),
    ("core.estimate_objects.calls", "count", "span:core.estimate_objects:calls"),
    ("core.estimate_objects.s", "s", "span:core.estimate_objects:s"),
    ("core.estimate_object.calls", "count", "span:core.estimate_object:calls"),
    ("core.estimate_object.s", "s", "span:core.estimate_object:s"),
    ("catalog.acquire.calls", "count", "span:catalog.acquire:calls"),
    ("catalog.acquire.s", "s", "span:catalog.acquire:s"),
    ("catalog.store.calls", "count", "span:catalog.store:calls"),
    ("catalog.store.s", "s", "span:catalog.store:s"),
    ("catalog.store.bytes", "B", "span:catalog.store:extra"),
    ("catalog.lookup.calls", "count", "span:catalog.lookup:calls"),
    ("catalog.lookup.s", "s", "span:catalog.lookup:s"),
    ("catalog.route.fresh", "count", "counter:catalog.route.fresh"),
    ("catalog.route.hit", "count", "counter:catalog.route.hit"),
    ("serve.submit.calls", "count", "span:serve.submit:calls"),
    ("serve.submit.s", "s", "span:serve.submit:s"),
    ("serve.run.calls", "count", "span:serve.run:calls"),
    ("serve.run.s", "s", "span:serve.run:s"),
    ("serve.run.self_s", "s", "span:serve.run:self_s"),
    ("serve.coalesced", "count", "counter:serve.coalesced"),
    ("serve.queue.peak", "count", "counter:gauge:serve.peak_queue_depth"),
    ("serve.answers_many.calls", "count", "span:serve.answers_many:calls"),
    ("serve.answers_many.answers", "count", "span:serve.answers_many:extra"),
    ("serve.answers_many.s", "s", "span:serve.answers_many:s"),
    ("serve.purchase_batch.calls", "count", "span:serve.purchase_batch:calls"),
    ("serve.purchase_batch.s", "s", "span:serve.purchase_batch:s"),
    ("serve.faults.retries", "count", "counter:serve.faults.retries"),
    ("serve.faults.lost", "count", "counter:serve.faults.lost"),
    ("serve.cache.hits", "count", "counter:serve.cache.hits"),
    ("serve.cache.misses", "count", "counter:serve.cache.misses"),
    ("serve.cache.hit_ratio", "ratio", "hit_ratio"),
    ("durability.journal.appends", "count", "span:durability.journal:calls"),
    ("durability.journal.bytes", "B", "journal_bytes"),
    ("durability.journal.s", "s", "span:durability.journal:s"),
    ("durability.checkpoint.saves", "count", "span:durability.checkpoint:calls"),
    ("durability.checkpoint.bytes", "B", "span:durability.checkpoint:extra"),
    ("durability.checkpoint.s", "s", "span:durability.checkpoint:s"),
    ("agg.observe.calls", "count", "span:agg.observe:calls"),
    ("agg.observe.s", "s", "span:agg.observe:s"),
    *((f"share.{layer}", "ratio", f"share:{layer}") for layer in tracing.LAYERS),
    ("unattributed_share", "ratio", "unattributed"),
    ("obs.trace_overhead", "ratio", "overhead"),
    *((name, unit, f"output:{name}") for name, unit in DURABLE_END_TO_END),
)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    reference_s: float
    end_to_end: dict[str, dict] = field(default_factory=dict)
    per_layer: dict[str, dict] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def median(values) -> float:
    return statistics.median(list(values))


def _speed(phases, kind: str) -> float:
    """Median host speed (nominal ÷ reference) over one kind of segment."""
    speeds = [
        phase.meter.speed_of(i)
        for phase in phases
        for i in phase.segments.get(kind, [])
    ]
    return median(speeds)


def timed_metrics(workload, setups, units) -> dict[str, tuple[float, float, float]]:
    """Every timed end-to-end metric as (corrected, raw, host speed)."""
    out: dict[str, tuple[float, float, float]] = {}
    out["setup_s"] = (
        median(s.timed_s for s in setups),
        median(s.raw_s for s in setups),
        median(s.meter.speed() for s in setups),
    )
    # plan_cold plans and hits in its units; the serve workloads do so
    # in their set-ups.
    planned = units if workload.name == "plan_cold" else setups
    out["plan_s"] = (
        median(sum(p.corrected("plan")) for p in planned),
        median(sum(p.raw("plan")) for p in planned),
        _speed(planned, "plan"),
    )
    out["catalog_hit_ms"] = (
        1e3 * median(v for p in planned for v in p.corrected("hit", HITS_PER_SEGMENT)),
        1e3 * median(v for p in planned for v in p.raw("hit", HITS_PER_SEGMENT)),
        _speed(planned, "hit"),
    )
    queries = units[0].outputs["queries"]
    out["serve_qps"] = (
        median(queries / sum(u.corrected("wave")) for u in units),
        median(queries / sum(u.raw("wave")) for u in units),
        _speed(units, "wave"),
    )
    waves = [v for u in units for v in u.corrected("wave")]
    raw_waves = [v for u in units for v in u.raw("wave")]
    for q in (50, 90):
        out[f"wave_ms_p{q}"] = (
            1e3 * nearest_rank(waves, q),
            1e3 * nearest_rank(raw_waves, q),
            _speed(units, "wave"),
        )
    return out


def per_layer_metrics(setups, units, traced_units) -> tuple[dict[str, float], dict]:
    """Per-layer values from the traced units (counts from the first)."""
    first = traced_units[0]
    summaries = [tracing.summarize(u.spans) for u in traced_units]
    # Span seconds are scaled by their unit's drift correction.
    factors = [u.timed_s / u.raw_s for u in traced_units]
    layer_rows = [tracing.layer_table(s) for s in summaries]

    def span_value(name: str, fld: str) -> float:
        key = _SPAN_FIELDS.get(fld, (fld,))[0]
        if fld in ("calls", "extra"):
            return float(summaries[0].get(name, {}).get(key, 0))
        return median(f * s.get(name, {}).get(key, 0.0) for f, s in zip(factors, summaries))

    top = [sum(row["top_s"] for row in s.values()) for s in summaries]
    values: dict[str, float] = {}
    for name, _, source in PER_LAYER:
        kind, _, arg = source.partition(":")
        if kind == "setup":
            value = median(sum(s.corrected(arg)) for s in setups)
        elif kind == "span":
            span, fld = arg.rsplit(":", 1)
            value = span_value(span, fld)
        elif kind == "counter":
            value = float(first.counters.get(arg, 0))
        elif kind == "counter_prefix":
            value = float(sum(v for k, v in first.counters.items() if k.startswith(arg)))
        elif kind == "phase":
            value = median(
                f * u.phase_seconds.get(arg, 0.0) for f, u in zip(factors, traced_units)
            )
        elif kind == "hit_ratio":
            hits = first.counters.get("serve.cache.hits", 0)
            misses = first.counters.get("serve.cache.misses", 0)
            value = hits / (hits + misses) if hits + misses else 0.0
        elif kind == "journal_bytes":
            value = float(first.durable_bytes.get("serve.journal.jsonl", 0))
        elif kind == "share":
            value = median(rows[arg]["self_s"] / u.raw_s for rows, u in zip(layer_rows, traced_units))
        elif kind == "unattributed":
            value = median((u.raw_s - t) / u.raw_s for t, u in zip(top, traced_units))
        elif kind == "overhead":
            value = median(u.timed_s for u in traced_units) / median(u.timed_s for u in units)
        elif kind == "output":
            value = float(units[0].outputs.get(arg, 0.0))
        else:
            raise ValueError(f"unknown per-layer source {source!r}")
        values[name] = value
    table = {
        "layers": layer_rows[0],
        "timed_s": traced_units[0].raw_s,
        "top_s": top[0],
    }
    return values, table


def assemble(workload, setups, units, traced_units, final_checks, errors, absent) -> RunResult:
    checks = [c for p in (*setups, *units, *traced_units) for c in p.checks]
    checks.extend(final_checks)
    # Every unit does identical work: identical outputs, plans, reports
    # and ledgers, traced or not; every set-up builds the same plan.
    base = units[0] if units else None
    for phase in (*units[1:], *traced_units) if base is not None else ():
        checks.append(
            Check(
                "units.identical",
                phase.outputs == base.outputs and phase.digest == base.digest,
            )
        )
    for phase in setups[1:]:
        checks.append(
            Check(
                "setups.identical",
                phase.outputs == setups[0].outputs and phase.digest == setups[0].digest,
            )
        )
    failed_checks = [c for c in checks if not c.ok]
    attempted = sum(p.attempted for p in (*setups, *units, *traced_units))
    failed = sum(p.failed for p in (*setups, *units, *traced_units)) + errors + len(failed_checks)
    probes = [t for p in (*setups, *units) for t in p.meter.probes]
    result = RunResult(
        correct=not failed and base is not None,
        attempted=max(1, attempted),
        failed=failed,
        reference_s=median(probes),
    )
    lines = result.lines
    lines.append(
        f"workload {workload.name}: seed {workload.seed}, {len(setups)} set-ups, "
        f"{len(units)} timed units, {len(traced_units)} traced units"
    )
    if base is None:
        lines.append("no unit completed")
        return result

    outputs = dict(base.outputs)
    if workload.name != "plan_cold":
        outputs["prc_cents"] = setups[0].outputs["prc_cents"]
    timed = timed_metrics(workload, setups, units)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append("end-to-end metrics (times drift-corrected; raw and host speed beside):")
    for name, unit in END_TO_END:
        if name in timed:
            value, raw, speed = timed[name]
            note = f"raw {raw:.6g} {unit}, speed {speed:.3f}"
        elif name == "peak_rss_mb":
            value, note = peak_mb, "ru_maxrss"
        else:
            value, note = outputs[name], "deterministic"
        result.end_to_end[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")
    lines.append("fault, deadline and durability metrics:")
    for name, unit in DURABLE_END_TO_END:
        if name in outputs:
            lines.append(f"  {name:<24} {outputs[name]:>14.6g} {unit:<6} deterministic")
        else:
            lines.append(f"  {name:<24} {'n/a':>14} {unit:<6} not defined on this workload")

    if traced_units:
        values, table = per_layer_metrics(setups, units, traced_units)
        layer_of = {t.span: t.layer for t in tracing.WRAP_TARGETS}
        absent_layers = {layer_of[span] for span in absent}
        result.per_layer = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        timed_s = table["timed_s"]
        lines.append(
            f"per-layer (traced unit, raw seconds; timed phase {timed_s:.6f} s):"
        )
        lines.append(f"  {'layer':<16} {'calls':>8} {'busy_s':>11} {'self_s':>11} {'share':>7}")
        self_total = 0.0
        for layer, row in table["layers"].items():
            if layer in absent_layers and not row["calls"]:
                lines.append(f"  {layer:<16} absent (wrap target missing)")
                continue
            self_total += row["self_s"]
            lines.append(
                f"  {layer:<16} {row['calls']:>8d} {row['busy_s']:>11.6f} "
                f"{row['self_s']:>11.6f} {row['self_s'] / timed_s:>7.2%}"
            )
        remainder = timed_s - table["top_s"]
        lines.append(f"  {'unattributed':<16} {'':>8} {'':>11} {remainder:>11.6f} {remainder / timed_s:>7.2%}")
        lines.append(
            f"  layers' self time + unattributed = {self_total + remainder:.6f} s "
            f"of {timed_s:.6f} s timed"
        )
        lines.append(f"  tracing overhead (traced ÷ untraced unit) {values['obs.trace_overhead']:.4f}")
        if absent:
            lines.append(f"  absent wrap targets: {', '.join(absent)}")
        lines.append("per-layer metrics:")
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<32} {values[name]:>14.6g} {unit}")

    if failed_checks:
        lines.append(f"checks: {len(failed_checks)} of {len(checks)} FAILED")
        for check in failed_checks[:20]:
            lines.append(f"  FAILED {check.name}: {check.detail}")
    else:
        lines.append(f"checks: all {len(checks)} passed")
    return result
