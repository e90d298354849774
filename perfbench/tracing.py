"""Traced mode: spans around the calls into each layer's public functions.

Nothing inside the program changes.  :func:`install` replaces each
entry point named in :data:`WRAP_TARGETS` — a class method or a module
function — with a wrapper that records one span per call while a
:class:`SpanRecorder` is active, and is a plain pass-through otherwise.
Spans stay in memory (name, start, end, parent span, group) and are
written out when the run ends.

A target that no longer exists (renamed or deleted by a later change)
is reported as absent; the traced run does not crash on it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class WrapTarget:
    span: str
    layer: str
    module: str
    attribute: str
    #: How to count work items of one call beyond the call itself.
    extra: str | None = None


#: Layer boundaries, named as the per-layer metrics name them.
WRAP_TARGETS = (
    WrapTarget("crowd.ask_value", "crowd", "repro.crowd.platform", "CrowdPlatform.ask_value"),
    WrapTarget("crowd.ask_dismantle", "crowd", "repro.crowd.platform", "CrowdPlatform.ask_dismantle"),
    WrapTarget("crowd.verify_candidate", "crowd", "repro.crowd.platform", "CrowdPlatform.verify_candidate"),
    WrapTarget("crowd.ask_example", "crowd", "repro.crowd.platform", "CrowdPlatform.ask_example"),
    WrapTarget("core.preprocess", "core.planner", "repro.core.disq", "DisQPlanner.preprocess"),
    WrapTarget("core.greedy_counts", "core.planner", "repro.core.budget", "greedy_counts"),
    WrapTarget("core.estimate_objects", "core.online", "repro.core.online", "OnlineEvaluator.estimate_objects"),
    WrapTarget("core.estimate_object", "core.online", "repro.core.online", "OnlineEvaluator.estimate_object"),
    WrapTarget("catalog.acquire", "catalog", "repro.catalog.query", "PlanRouter.acquire"),
    WrapTarget("catalog.store", "catalog", "repro.catalog.store", "PlanCatalog.store", "bytes_of_returned_path"),
    WrapTarget("catalog.lookup", "catalog", "repro.catalog.store", "PlanCatalog.lookup"),
    WrapTarget("serve.submit", "serve.engine", "repro.serve.engine", "ServeEngine.submit"),
    WrapTarget("serve.run", "serve.engine", "repro.serve.engine", "ServeEngine.run"),
    WrapTarget("serve.answers_many", "serve.generate", "repro.serve.stream", "BatchedValueStream.answers_many", "answers_requested"),
    WrapTarget("serve.purchase_batch", "serve.faults", "repro.serve.faults", "ResilientValueStream.purchase_batch", "answers_requested"),
    WrapTarget("durability.journal", "durability", "repro.durability.journal", "Journal.append"),
    WrapTarget("durability.checkpoint", "durability", "repro.durability.checkpoint", "CheckpointStore.save", "bytes_of_checkpoint"),
    WrapTarget("agg.observe", "agg", "repro.agg.reliability", "ReliabilityModel.observe"),
)

LAYERS = tuple(dict.fromkeys(target.layer for target in WRAP_TARGETS))


def _extra_count(kind: str | None, args: tuple, result) -> int:
    if kind == "answers_requested":
        return int(sum(request[3] for request in args[1]))
    if kind == "bytes_of_returned_path":
        return os.path.getsize(result)
    if kind == "bytes_of_checkpoint":
        return os.path.getsize(args[0].path)
    return 0


class SpanRecorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.active = False
        self.group = ""
        #: [span name, start, end, parent index, group, extra count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def start(self, clock) -> None:
        """Record from now on, timing spans with ``clock``.

        The drift meter's work clock leaves out its own timer samples, so
        span times and the timed phase they are shares of agree.
        """
        self.spans = []
        self._stack = []
        self._clock = clock
        self.active = True

    def wrap(self, target: WrapTarget, original):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            parent = recorder._stack[-1] if recorder._stack else -1
            span = [target.span, recorder._clock(), 0.0, parent, recorder.group, 0]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = recorder._clock()
                recorder._stack.pop()
            if target.extra is not None:
                span[5] = _extra_count(target.extra, args, result)
            return result

        return traced


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target; returns the spans whose target is absent."""
    absent = []
    for target in WRAP_TARGETS:
        try:
            owner = importlib.import_module(target.module)
            *path, name = target.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            absent.append(target.span)
            continue
        setattr(owner, name, recorder.wrap(target, original))
    return absent


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds, extra count.

    Self time is busy time minus the time of direct child spans; the
    benchmark is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, _, extra) in enumerate(spans):
        row = out.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "extra": 0, "top_s": 0.0}
        )
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - child_time[index]
        row["extra"] += extra
        if parent < 0:
            row["top_s"] += end - start
    return out


def layer_table(per_span: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Fold span rows into layers (busy, self and top-level seconds)."""
    layer_of = {target.span: target.layer for target in WRAP_TARGETS}
    table = {
        layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "top_s": 0.0}
        for layer in LAYERS
    }
    for name, row in per_span.items():
        layer = table[layer_of[name]]
        for key in ("calls", "busy_s", "self_s", "top_s"):
            layer[key] += row[key]
    return table


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON line per span: name, start, end, parent, group."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, group, extra) in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "group": group,
                        "extra": extra,
                    }
                )
                + "\n"
            )
