"""Layer tracing from outside the program.

A :class:`LayerTracer` splits a traced interval into layers by timing calls
into the repo's public functions and by reading its public counters; the
program itself is not changed.  While a traced interval runs it has

* a span per tick (the load source's ``tick()``) and per pipeline stage
  call (through the public :class:`~repro.pipeline.PipelineHook` seam),
  each with the interval as parent;
* per-row public calls (``IncrementalClusterer.ingest``,
  ``MovingCluster.absorb``, ``ClusterGrid.refresh``,
  ``ClusterWorld.create_cluster`` / ``evict`` / ``dissolve``,
  ``TickBatch.materialize``) accumulated as time, call count and time
  covered by nested traced calls, per name under the enclosing stage.
  They are never stored as individual spans.

Self time is a call's time minus what its traced children cover.  The
wrappers are installed only for a traced interval and removed after it, so
untraced intervals run the unmodified program; alternating the two in one
run gives the tracing overhead.  Everything stays in memory until the run
ends.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clustering import MovingCluster
from repro.generator import TickBatch
from repro.pipeline import PipelineHook

__all__ = ["LayerTracer", "layer_metrics"]

#: (seconds, calls, seconds covered by traced children, work units)
CallRecord = List[Any]


class _StageHook(PipelineHook):
    def __init__(self, tracer: "LayerTracer") -> None:
        self.tracer = tracer

    def before_stage(self, stage: str, ctx: Any) -> None:
        tracer = self.tracer
        tracer.current = tracer.calls.setdefault(stage, {})
        tracer.stage_start = time.perf_counter()

    def after_stage(self, stage: str, ctx: Any) -> None:
        tracer = self.tracer
        tracer.stages.append((stage, tracer.stage_start, time.perf_counter()))
        tracer.current = tracer.calls.setdefault("", {})


class LayerTracer:
    """Spans and call accumulators for the traced intervals of one rig."""

    def __init__(self, rig) -> None:
        self.rig = rig
        self.intervals: List[Dict[str, Any]] = []
        self._hook = _StageHook(self)
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.calls: Dict[str, Dict[str, CallRecord]] = {}
        self.current: Dict[str, CallRecord] = {}
        self.stages: List[Tuple[str, float, float]] = []
        self.stage_start = 0.0

    # -- instrumentation -----------------------------------------------------

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        is_class = isinstance(owner, type)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            record = tracer.current.get(name)
            if record is None:
                record = tracer.current[name] = [0.0, 0, 0.0, 0]
            record[0] += elapsed
            record[1] += 1
            record[2] += child
            if units is not None:
                record[3] += units(args, result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original if is_class else None))

    def _install(self) -> None:
        rig = self.rig
        world = rig.operator.world
        self._wrap(TickBatch, "materialize", "TickBatch.materialize",
                   lambda args, rows: len(rows))
        self._wrap(rig.operator.clusterer, "ingest", "IncrementalClusterer.ingest")
        self._wrap(MovingCluster, "absorb", "MovingCluster.absorb")
        self._wrap(world.grid, "refresh", "ClusterGrid.refresh")
        self._wrap(world, "create_cluster", "ClusterWorld.create_cluster")
        # An eviction that empties its cluster dissolves it.
        self._wrap(world, "evict", "ClusterWorld.evict",
                   lambda args, _: int(args[0].is_empty))
        self._wrap(world, "dissolve", "ClusterWorld.dissolve")
        rig.engine.pipeline.add_hook(self._hook)
        rig.source.tick_spans = []

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.rig.engine.pipeline.hooks.remove(self._hook)
        self.rig.source.tick_spans = None

    # -- one traced interval ---------------------------------------------------

    def _counters(self) -> Dict[str, float]:
        operator = self.rig.operator
        counters = operator.join_counters()
        return {
            "processed": operator.clusterer.processed,
            "fast_path_hits": operator.clusterer.fast_path_hits,
            "refresh_skips": operator.world.grid.refresh_skips,
            "between_tests": operator.between_tests,
            "between_hits": operator.between_hits,
            "within_tests": operator.within_tests,
            **{
                key: counters[key]
                for key in (
                    "between_cache_hits",
                    "between_cache_misses",
                    "view_cache_hits",
                    "view_cache_misses",
                    "join_pairs_batched",
                    "join_segments",
                )
            },
        }

    def run_interval(self, run: Callable[[], Any]) -> Any:
        """Run one interval through ``run`` with tracing installed."""
        self.calls = {}
        self.current = self.calls.setdefault("", {})
        self.stages = []
        before = self._counters()
        self._install()
        try:
            start = time.perf_counter()
            sample = run()
            end = time.perf_counter()
            ticks = self.rig.source.tick_spans
        finally:
            self._uninstall()
        after = self._counters()
        world = self.rig.operator.world
        # Spans are kept relative to the interval start; the interval is
        # the parent of every tick and stage span.
        spans = [("generator.tick", s - start, e - start) for s, e in ticks]
        spans += [(stage, s - start, e - start) for stage, s, e in self.stages]
        self.intervals.append({
            "wall": end - start,
            "busy": sample.busy,
            "updates": sample.updates,
            "matches": sample.matches,
            "spans": spans,
            "calls": self.calls,
            "counters": {k: after[k] - before[k] for k in after},
            "clusters": world.cluster_count,
            "homed": len(world.home),
        })
        return sample


# -- metrics -------------------------------------------------------------------


def _call_total(interval: Dict[str, Any], name: str, field: int,
                stages: Optional[Tuple[str, ...]] = None) -> float:
    return sum(
        records[name][field]
        for stage, records in interval["calls"].items()
        if name in records and (stages is None or stage in stages)
    )


def _span_total(interval: Dict[str, Any], *names: str) -> float:
    return sum(e - s for name, s, e in interval["spans"] if name in names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


STAGE_LAYERS = {
    "ingest.s": ("ingest",),
    "join.s": ("join",),
    "maintenance.s": ("pre_join_maintenance", "shed", "post_join_maintenance"),
    "emit.s": ("emit",),
    "generator.tick_s": ("generator.tick",),
}


def layer_metrics(
    intervals: List[Dict[str, Any]],
    untraced_busy: List[float],
    regular: Dict[str, List[float]],
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics, as per-interval means over the traced intervals.

    Seconds and call counts are per interval; ratios pool every traced
    interval.  ``pipeline.unattributed_s`` is what the tick and stage spans
    leave of the interval wall time, so those spans and it add up to
    ``pipeline.interval_s``.
    """
    n = len(intervals)

    def mean(fn) -> float:
        return sum(fn(i) for i in intervals) / n

    def pooled(key: str) -> float:
        return sum(i["counters"][key] for i in intervals)

    out: Dict[str, Tuple[float, str]] = {}
    out["pipeline.interval_s"] = (mean(lambda i: i["wall"]), "s")
    for metric, names in STAGE_LAYERS.items():
        out[metric] = (mean(lambda i, names=names: _span_total(i, *names)), "s")
    covered = sum(out[m][0] for m in STAGE_LAYERS)
    out["pipeline.unattributed_s"] = (out["pipeline.interval_s"][0] - covered, "s")

    out["materialize.s"] = (mean(lambda i: _call_total(i, "TickBatch.materialize", 0)), "s")
    out["materialize.rows"] = (mean(lambda i: _call_total(i, "TickBatch.materialize", 3)), "count")
    updates = sum(i["updates"] for i in intervals)
    out["ingest.us_per_update"] = (
        _ratio(sum(_span_total(i, "ingest") for i in intervals), updates) * 1e6, "us"
    )
    out["ingest.admit_self_s"] = (mean(
        lambda i: _call_total(i, "IncrementalClusterer.ingest", 0)
        - _call_total(i, "IncrementalClusterer.ingest", 2)
    ), "s")

    out["clustering.fast_path_ratio"] = (
        _ratio(pooled("fast_path_hits"), pooled("processed")), "ratio"
    )
    out["clustering.absorb_s"] = (mean(lambda i: _call_total(i, "MovingCluster.absorb", 0)), "s")
    out["clustering.absorb_calls"] = (mean(lambda i: _call_total(i, "MovingCluster.absorb", 1)), "count")
    out["clustering.create_calls"] = (mean(lambda i: _call_total(i, "ClusterWorld.create_cluster", 1)), "count")
    out["clustering.evict_calls"] = (mean(lambda i: _call_total(i, "ClusterWorld.evict", 1)), "count")
    out["clustering.dissolve_calls"] = (mean(
        lambda i: _call_total(i, "ClusterWorld.evict", 3, ("ingest",))
        + _call_total(i, "ClusterWorld.dissolve", 1, ("ingest",))
    ), "count")
    out["clustering.clusters"] = (mean(lambda i: i["clusters"]), "count")
    out["clustering.members_per_cluster"] = (
        _ratio(sum(i["homed"] for i in intervals), sum(i["clusters"] for i in intervals)),
        "count",
    )

    out["index.grid_refresh_s"] = (mean(lambda i: _call_total(i, "ClusterGrid.refresh", 0)), "s")
    out["index.grid_refresh_calls"] = (mean(lambda i: _call_total(i, "ClusterGrid.refresh", 1)), "count")
    out["index.grid_refresh_skips"] = (mean(lambda i: i["counters"]["refresh_skips"]), "count")

    out["join.candidate_pairs"] = (mean(lambda i: i["counters"]["join_pairs_batched"]), "count")
    out["join.between_pass_ratio"] = (
        _ratio(pooled("between_hits"), pooled("between_tests")), "ratio"
    )
    out["join.within_tests"] = (mean(lambda i: i["counters"]["within_tests"]), "count")
    out["join.match_ratio"] = (
        _ratio(sum(i["matches"] for i in intervals), pooled("within_tests")), "ratio"
    )
    out["join.verdict_cache_hit_ratio"] = (_ratio(
        pooled("between_cache_hits"),
        pooled("between_cache_hits") + pooled("between_cache_misses"),
    ), "ratio")
    out["join.view_cache_hit_ratio"] = (_ratio(
        pooled("view_cache_hits"),
        pooled("view_cache_hits") + pooled("view_cache_misses"),
    ), "ratio")
    out["join.segments"] = (mean(lambda i: i["counters"]["join_segments"]), "count")

    out["maintenance.dissolve_calls"] = (mean(
        lambda i: _call_total(i, "ClusterWorld.dissolve", 1, ("post_join_maintenance",))
    ), "count")
    out["emit.matches"] = (mean(lambda i: i["matches"]), "count")

    traced_busy = statistics.median(i["busy"] for i in intervals)
    out["trace.overhead_ratio"] = (
        traced_busy / statistics.median(untraced_busy) - 1.0, "ratio"
    )
    out["regular.ingest_s"] = (statistics.fmean(regular["ingest_s"]), "s")
    out["regular.join_s"] = (statistics.fmean(regular["join_s"]), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
