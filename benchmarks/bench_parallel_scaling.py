"""Shard-count scaling — does spatial parallelism actually pay?

Sweeps the sharded engine over K ∈ {1, 2, 4, 8} shards with both
executors on one seeded workload and reports, per configuration, the
evaluate wall-clock (the parallel critical path), per-shard join totals,
load imbalance (max/mean shard join time) and the halo replication
factor, plus the speedup of every configuration against the K=1 serial
baseline.  Results export as JSON via ``ShardedRunStats.to_dict``.

Standalone (pytest-free) so CI can smoke it directly:

    python benchmarks/bench_parallel_scaling.py --dry-run
    python benchmarks/bench_parallel_scaling.py --scale 1.0 --out scaling.json

``--scale 1.0`` is the paper's full 10,000 + 10,000 population; the
default honours ``SCUBA_BENCH_SCALE`` (0.1 unless set).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import ScubaConfig                       # noqa: E402
from repro.experiments import WorkloadSpec, bench_scale, build_workload  # noqa: E402
from repro.parallel import ScubaShardFactory, ShardedEngine  # noqa: E402
from repro.streams import CountingSink, EngineConfig     # noqa: E402

SHARD_COUNTS = [1, 2, 4, 8]
EXECUTORS = ["serial", "process"]


def run_config(
    spec: WorkloadSpec, shards: int, executor: str, intervals: int, delta: float
) -> dict:
    """One (K, executor) cell: fresh workload, fresh shards, full stats."""
    _network, generator = build_workload(spec)
    factory = ScubaShardFactory(
        ScubaConfig(delta=delta), max_query_extent=spec.query_range
    )
    with ShardedEngine(
        generator,
        factory,
        shards=shards,
        sink=CountingSink(),
        config=EngineConfig(delta=delta, tick=1.0),
        executor=executor,
    ) as engine:
        stats = engine.run(intervals)
    data = stats.to_dict()
    data["config"] = {"shards": shards, "executor": executor}
    # Critical path: per interval, the slowest shard's join time — the
    # evaluate wall-clock a machine with >= K free cores would observe.
    data["critical_path_seconds"] = sum(
        max(i["shard_join_seconds"], default=0.0) for i in data["intervals"]
    )
    # Ingest's share of the operator work (ingest + join): the number
    # that says whether cluster maintenance or the Δ-join dominates this
    # configuration — sharding attacks the join, the column walk of
    # ingest_batch attacks the rest.
    ingest = data["totals"]["ingest_seconds"]
    busy = ingest + data["totals"]["join_seconds"]
    data["ingest_share"] = ingest / busy if busy > 0 else None
    return data


def sweep(
    spec: WorkloadSpec,
    shard_counts,
    executors,
    intervals: int,
    delta: float,
    verbose: bool = True,
) -> dict:
    """The full sweep, with speedups relative to the K=1 serial cell."""
    runs = []
    baseline_join = None
    for executor in executors:
        for shards in shard_counts:
            data = run_config(spec, shards, executor, intervals, delta)
            join = data["totals"]["join_seconds"]
            if executor == "serial" and shards == 1 and baseline_join is None:
                baseline_join = join
            runs.append(data)
            if verbose:
                p = data["parallel"]
                share = data["ingest_share"]
                print(
                    f"  K={shards:<2d} {executor:<8s} "
                    f"join {join:7.3f}s  "
                    f"critical-path {data['critical_path_seconds']:7.3f}s  "
                    f"ingest share "
                    + (f"{share:5.1%}  " if share is not None else "  n/a  ")
                    + f"imbalance {p['load_imbalance']:.2f}  "
                    f"replication {p['replication_factor']:.2f}  "
                    f"results {data['totals']['result_count']}"
                )
                # Per-stage breakdown from the shared evaluation pipeline
                # (also in the JSON as each run's "stage_seconds").
                stages = data.get("stage_seconds", {})
                if stages:
                    print("       stages: " + "  ".join(
                        f"{name} {secs:.3f}s" for name, secs in stages.items()
                    ))
    for data in runs:
        data["speedup_vs_serial_k1"] = (
            baseline_join / data["totals"]["join_seconds"]
            if baseline_join and data["totals"]["join_seconds"] > 0
            else None
        )
        # Speedup a K-core machine would see over the K=1 join: the
        # honest scalability number when the bench host has fewer cores
        # than shards (process workers then time-share one core and IPC
        # overhead dominates the measured wall-clock).
        data["critical_path_speedup_vs_serial_k1"] = (
            baseline_join / data["critical_path_seconds"]
            if baseline_join and data["critical_path_seconds"] > 0
            else None
        )
    return {
        "cpu_count": os.cpu_count(),
        "workload": {
            "num_objects": spec.num_objects,
            "num_queries": spec.num_queries,
            "skew": spec.skew,
            "seed": spec.seed,
            "city": [spec.city_rows, spec.city_cols],
            "intervals": intervals,
            "delta": delta,
        },
        "runs": runs,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=None,
                        help="population scale (default: SCUBA_BENCH_SCALE or 0.1)")
    parser.add_argument("--intervals", type=int, default=3,
                        help="Δ intervals per configuration")
    parser.add_argument("--delta", type=float, default=2.0)
    parser.add_argument("--skew", type=int, default=100,
                        help="entities per convoy")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, nargs="+", default=SHARD_COUNTS,
                        metavar="K", help="shard counts to sweep")
    parser.add_argument("--executors", nargs="+", default=EXECUTORS,
                        choices=EXECUTORS)
    parser.add_argument("--out", metavar="FILE", help="write JSON results here")
    parser.add_argument("--dry-run", action="store_true",
                        help="tiny smoke sweep (CI): K={1,2}, serial, ~100 entities")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dry_run:
        # Wide query windows keep the tiny population producing matches,
        # so the cross-configuration agreement check is not vacuous.
        spec = WorkloadSpec(
            seed=args.seed, skew=10, query_range=(600.0, 600.0)
        ).scaled(0.02)
        shard_counts, executors, intervals = [1, 2], ["serial"], 2
    else:
        scale = args.scale if args.scale is not None else bench_scale()
        if scale <= 0:
            raise SystemExit(f"--scale must be positive, got {scale}")
        spec = WorkloadSpec(seed=args.seed, skew=args.skew).scaled(scale)
        shard_counts, executors, intervals = args.shards, args.executors, args.intervals
    cores = os.cpu_count() or 1
    print(
        f"parallel scaling: {spec.num_objects} objects + {spec.num_queries} "
        f"queries, K={shard_counts}, executors={executors}, {cores} cores"
    )
    if cores < max(shard_counts) and "process" in executors:
        print(
            f"NOTE: only {cores} core(s) — process-executor wall-clock will "
            "not beat serial; compare critical-path times instead"
        )
    results = sweep(spec, shard_counts, executors, intervals, args.delta)
    counts = {d["totals"]["result_count"] for d in results["runs"]}
    if len(counts) > 1:
        print(f"WARNING: result counts differ across configurations: {counts}")
        results["result_counts_agree"] = False
    else:
        print(f"all configurations agree: {counts.pop()} matches")
        results["result_counts_agree"] = True
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=2))
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
