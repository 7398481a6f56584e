"""Columnar resting state vs the object-based path, end to end.

One dense convoy workload (10k entities by default: 5000 objects + 5000
queries in 1000-entity convoys, 70% parked — a traffic-jam regime where
clusters grow to hundreds of members, everyone reporting every tick)
driven through the SCUBA operator in four configurations — {plain,
incremental sweep} x {serial, sharded} — each run
twice: ``columnar=False`` (per-member Python objects, the reference)
and ``columnar=True`` (the array-backed member/table stores plus the
vectorized maintenance engine of :mod:`repro.columnar`).

The gated metric is the **combined pre/post-join maintenance stage
time** as the pipeline accounts it: the (empty, hookable) pre-join
maintenance seam plus the post-join maintenance stage — cluster expiry
classification, advance, flush / recentre / radius sweeps and grid
refresh — summed over the timed intervals.  (SCUBA's *per-tuple*
pre-join maintenance runs inside ingest as updates arrive; ingest time
is reported per run but not gated, since its per-update scalar cost is
storage-independent by design.)  For sharded runs the per-shard stage
timings are summed, so the metric is the actual maintenance work, not
the scatter/gather envelope.  The ``>= 1.3x`` floor is enforced on the
serial configurations when the columnar backend resolves to numpy, full
runs only; sharded speedups are reported but ungated (per-shard cluster
populations are smaller, so vectorized sweeps have less to chew on).

Every configuration also cross-checks, between the two modes, the
per-interval answer multisets *and* the canonical end-of-run state
digest (:func:`repro.serve.engine_state_digest` — sorted cluster
records plus sorted table rows).  The bench doubles as an equivalence
test at benchmark scale and **fails (exit 1) on any divergence**, dry
run included.

Standalone (pytest-free) so CI can smoke it directly:

    python benchmarks/bench_columnar.py --dry-run
    python benchmarks/bench_columnar.py --out BENCH_columnar.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.columnar import resolved_backend_name  # noqa: E402
from repro.core import Scuba, ScubaConfig  # noqa: E402
from repro.generator import GeneratorConfig, NetworkBasedGenerator  # noqa: E402
from repro.network import grid_city  # noqa: E402
from repro.parallel import ScubaShardFactory, ShardedEngine  # noqa: E402
from repro.serve import engine_state_digest  # noqa: E402
from repro.streams import CollectingSink, EngineConfig, StreamEngine  # noqa: E402

DELTA = 2.0

VARIANTS = [
    {"name": "plain", "kwargs": {}},
    {"name": "incremental", "kwargs": {"incremental": True}},
]

ENGINES = ["serial", "sharded"]


def make_generator(args, scale: float) -> NetworkBasedGenerator:
    city = grid_city(rows=args.city, cols=args.city)
    return NetworkBasedGenerator(
        city,
        GeneratorConfig(
            num_objects=max(1, int(args.objects * scale)),
            num_queries=max(1, int(args.queries * scale)),
            # Scale convoy size with the population so the convoy *count*
            # (and thus cluster structure) survives --dry-run shrinking.
            skew=max(1, int(args.skew * scale)),
            seed=args.seed,
            mixed_groups=True,
            query_range=(args.query_range, args.query_range),
            update_fraction=1.0,
            stopped_fraction=args.stopped_fraction,
        ),
    )


def make_engine(args, engine_kind: str, variant_kwargs: dict,
                columnar: bool, generator: NetworkBasedGenerator):
    config = ScubaConfig(
        grid_size=args.grid,
        delta=DELTA,
        theta_d=args.theta_d,
        kernel_backend=args.backend,
        columnar=columnar,
        columnar_backend=args.columnar_backend,
        **variant_kwargs,
    )
    engine_config = EngineConfig(delta=DELTA, tick=1.0)
    if engine_kind == "serial":
        return StreamEngine(generator, Scuba(config), CollectingSink(),
                            engine_config)
    return ShardedEngine(
        generator,
        ScubaShardFactory(
            config, max_query_extent=(args.query_range, args.query_range)
        ),
        shards=args.shards,
        sink=CollectingSink(),
        config=engine_config,
    )


def maintenance_stage_seconds(stats) -> float:
    """Combined pre/post-join maintenance stage seconds of one interval.

    Serial intervals report the pre-join seam + post-join stage under
    ``maintenance_seconds``.  Sharded intervals report only the merge
    envelope there; the shard-local stage work lives in ``shard_stats``,
    so sum it there instead.
    """
    shard_stats = getattr(stats, "shard_stats", None)
    if shard_stats:
        return sum(s.maintenance_seconds for s in shard_stats)
    return stats.maintenance_seconds


def run_mode(args, engine_kind: str, variant: dict, columnar: bool,
             scale: float, warmup: int, intervals: int) -> dict:
    """One seeded run: warm-up (untimed), then timed steady-state intervals."""
    generator = make_generator(args, scale)
    engine = make_engine(args, engine_kind, variant["kwargs"], columnar,
                         generator)
    for _ in range(warmup):
        engine.run_interval()
    warm_boundary = generator.time
    stage_seconds = 0.0
    ingest_seconds = 0.0
    started = time.perf_counter()
    for _ in range(intervals):
        stats = engine.run_interval()
        stage_seconds += maintenance_stage_seconds(stats)
        shard_stats = getattr(stats, "shard_stats", None)
        if shard_stats:
            ingest_seconds += sum(s.ingest_seconds for s in shard_stats)
        else:
            ingest_seconds += stats.ingest_seconds
    wall_seconds = time.perf_counter() - started
    timed = {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in engine.sink.by_interval.items()
        if t > warm_boundary
    }
    digest = engine_state_digest(engine)
    counters = dict(engine.stats.counters)
    if hasattr(engine, "close"):
        engine.close()
    return {
        "columnar": columnar,
        "maintenance_stage_seconds": stage_seconds,
        "ingest_seconds": ingest_seconds,
        "wall_seconds": wall_seconds,
        "result_count": sum(sum(c.values()) for c in timed.values()),
        "counters": counters,
        "_matches": timed,
        "_digest": digest,
    }


def bench_config(args, engine_kind: str, variant: dict, scale, warmup,
                 intervals, repeats, verbose=True) -> dict:
    """Best-of-``repeats`` comparison of the two modes on one configuration."""
    best = {}
    matches = {}
    digests = {}
    for columnar in (False, True):
        for _ in range(max(1, repeats)):
            run = run_mode(args, engine_kind, variant, columnar, scale,
                           warmup, intervals)
            if (columnar not in best
                    or run["maintenance_stage_seconds"]
                    < best[columnar]["maintenance_stage_seconds"]):
                best[columnar] = run
            if columnar not in matches:
                matches[columnar] = run["_matches"]
                digests[columnar] = run["_digest"]
    matches_agree = matches[False] == matches[True]
    digests_agree = digests[False] == digests[True]
    objects_run, columnar_run = best[False], best[True]
    speedup = (
        objects_run["maintenance_stage_seconds"]
        / columnar_run["maintenance_stage_seconds"]
        if columnar_run["maintenance_stage_seconds"] > 0
        else None
    )
    counters = columnar_run["counters"]
    name = f"{variant['name']}/{engine_kind}"
    if verbose:
        print(f"  {name}: maint "
              f"{objects_run['maintenance_stage_seconds']:.3f}s -> "
              f"[{counters.get('columnar_backend', '?')}] "
              f"{columnar_run['maintenance_stage_seconds']:.3f}s  "
              + (f"speedup {speedup:.2f}x  " if speedup else "")
              + f"ingest {objects_run['ingest_seconds']:.3f}s -> "
              f"{columnar_run['ingest_seconds']:.3f}s  "
              f"compactions {counters.get('store_compactions', 0)}"
              + ("" if matches_agree else "  MULTISETS DISAGREE")
              + ("" if digests_agree else "  DIGESTS DISAGREE"))
    for run in (objects_run, columnar_run):
        del run["_matches"]
        run["state_digest"] = run.pop("_digest")
    return {
        "variant": variant["name"],
        "engine": engine_kind,
        "objects": objects_run,
        "columnar": columnar_run,
        "maintenance_speedup": speedup,
        "matches_agree": matches_agree,
        "digests_agree": digests_agree,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=5000)
    parser.add_argument("--queries", type=int, default=5000)
    parser.add_argument("--skew", type=int, default=1000,
                        help="entities per convoy (scaled with --dry-run)")
    parser.add_argument("--stopped-fraction", type=float, default=0.7,
                        help="fraction of parked entities (dense regime)")
    parser.add_argument("--theta-d", type=float, default=600.0,
                        help="SCUBA cluster-size threshold Theta_D")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--city", type=int, default=11,
                        help="lattice size of the city (NxN nodes)")
    parser.add_argument("--grid", type=int, default=100,
                        help="spatial grid size (NxN cells)")
    parser.add_argument("--query-range", type=float, default=60.0)
    parser.add_argument("--backend", default="auto",
                        help="join kernel backend for every run")
    parser.add_argument("--columnar-backend", default="auto",
                        choices=["auto", "numpy", "array"],
                        help="columnar store backend for the columnar runs")
    parser.add_argument("--shards", type=int, default=2,
                        help="shard count for the sharded configurations")
    parser.add_argument("--warmup", type=int, default=2,
                        help="warm-up intervals (untimed)")
    parser.add_argument("--intervals", type=int, default=8,
                        help="timed steady-state intervals")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per mode (stage time is best-of)")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="serial maintenance-stage speedup gate "
                             "(full runs, numpy backend)")
    parser.add_argument("--out", metavar="FILE", default="BENCH_columnar.json",
                        help="write JSON results here")
    parser.add_argument("--dry-run", action="store_true",
                        help="tiny smoke sweep (CI): ~375 entities, "
                             "equivalence gates only")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dry_run:
        scale, warmup, intervals, repeats = 0.0375, 1, 3, 1
    else:
        scale, warmup = 1.0, args.warmup
        intervals, repeats = args.intervals, args.repeats
    backend = resolved_backend_name(args.columnar_backend)
    print(f"columnar maintenance bench [{backend}]: "
          f"{int(args.objects * scale)} objects + "
          f"{int(args.queries * scale)} queries, "
          f"skew {max(1, int(args.skew * scale))}, "
          f"{warmup} warm-up + {intervals} timed intervals, "
          f"best of {max(1, repeats)}")
    results = [
        bench_config(args, engine_kind, variant, scale, warmup, intervals,
                     repeats)
        for variant in VARIANTS
        for engine_kind in ENGINES
    ]
    matches_agree = all(r["matches_agree"] for r in results)
    digests_agree = all(r["digests_agree"] for r in results)
    gates = {
        "matches_agree": matches_agree,
        "digests_agree": digests_agree,
    }
    failed = not (matches_agree and digests_agree)
    if not matches_agree:
        print("ERROR: columnar answers diverge from the object-based path")
    if not digests_agree:
        print("ERROR: columnar state digests diverge")
    if not args.dry_run and backend == "numpy":
        serial = [r for r in results if r["engine"] == "serial"]
        speedup_ok = all(
            r["maintenance_speedup"] is not None
            and r["maintenance_speedup"] >= args.min_speedup
            for r in serial
        )
        gates["serial_speedup_ok"] = speedup_ok
        gates["min_speedup"] = args.min_speedup
        if not speedup_ok:
            for r in serial:
                if (r["maintenance_speedup"] is None
                        or r["maintenance_speedup"] < args.min_speedup):
                    print(f"ERROR: {r['variant']}/serial maintenance speedup "
                          f"{r['maintenance_speedup']} below gate "
                          f"{args.min_speedup}x")
            failed = True
    elif not args.dry_run:
        print(f"note: columnar backend is {backend!r}; "
              f"the speedup gate applies to numpy only")
    report = {
        "workload": {
            "num_objects": int(args.objects * scale),
            "num_queries": int(args.queries * scale),
            "skew": max(1, int(args.skew * scale)),
            "stopped_fraction": args.stopped_fraction,
            "theta_d": args.theta_d,
            "seed": args.seed,
            "city": [args.city, args.city],
            "grid_size": args.grid,
            "query_range": args.query_range,
            "delta": DELTA,
            "columnar_backend": backend,
            "shards": args.shards,
            "warmup_intervals": warmup,
            "timed_intervals": intervals,
            "repeats": max(1, repeats),
            "dry_run": args.dry_run,
        },
        "runs": results,
        "gates": gates,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
        print(f"results written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
