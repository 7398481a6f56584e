"""SCUBA benchmark: closed-loop throughput, answer latency and a layer split.

    python3 perfbench/run.py --workload crosstown --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One run measures one workload in this process (a fresh process per run, so
``peak_rss_mib`` is that workload's own).  With ``--trace 0`` it sets the
rig up, warms up, then runs whole Δ intervals for ``--seconds`` seconds, in
four parts, and reports the end-to-end metrics; between parts it sets the
rig up again in fresh child processes (``setup_s`` is the median of all
set-ups).  With ``--trace 1`` it alternates traced and untraced
intervals instead and reports the per-layer metrics (see ``tracing.py``).
Either way a helper process replays the identical stream through
``RegularGridJoin`` after each part, and every timed interval's answer
multiset is compared with it; the share that differs is
``answer_error_rate``, and ``failed`` in the last line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a record with the git sha and a host fingerprint under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rig import (  # noqa: E402
    TICKS_PER_INTERVAL,
    WORKLOADS,
    IntervalSample,
    Workload,
    run_interval,
    setup_rig,
)
from tracing import LayerTracer, layer_metrics  # noqa: E402

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.  The first
#: builds the measured rig; the others run between timed parts, each in a
#: fresh child process, so no discarded rig has churned the heap the timed
#: intervals run in (that made them slower and less steady).  At most
#: ``TIMED_PARTS + 1``: one set-up fits after each part.
SETUP_REPEATS = 3
#: Untimed intervals between the cold interval and the timed section.  The
#: first two or three intervals after a cold start run ~35% cheaper than
#: the steady state (clusters are still as compact as admission made them).
WARMUP_INTERVALS = 4
#: The timed section is split in this many parts.  Between two parts the
#: helper process computes the reference for the part just run, and the
#: extra set-ups run there too.  Spreading the measured seconds over the
#: whole run averages over more of the host's slow and fast phases.
TIMED_PARTS = 4
REFERENCE_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 120


def setup_in_child(workload: Workload, seed: int) -> float:
    """``setup_s`` of one set-up in a fresh process (``--setup-only``)."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload.name, "--seed", str(seed), "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class HelperReference:
    """``reference.Reference`` in a helper process, fed over a pipe.

    Started once the first timed part has run and kept, idle, while the
    next part runs, so the stream is rebuilt only once per run.
    """

    def __init__(self, workload: Workload, seed: int, skip_ticks: int,
                 every_interval: bool) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "reference.py"),
                "--workload", workload.name,
                "--seed", str(seed),
                "--skip-ticks", str(skip_ticks),
            ] + (["--every-interval"] if every_interval else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, intervals: int) -> Dict[str, List]:
        self.proc.stdin.write(f"{intervals}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"reference helper exited with code {self.proc.wait()}"
            )
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REFERENCE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Callable[..., Any] = HelperReference,
    fresh_setup: Callable[[Workload, int], float] = setup_in_child,
) -> Dict[str, Any]:
    """Measure one workload; returns the run record (see ``main``)."""
    phases = {"start": time.perf_counter()}
    rig, setup_s = setup_rig(workload, seed)
    setups: List[float] = [setup_s]
    phases["setup"] = time.perf_counter()
    for _ in range(WARMUP_INTERVALS):
        run_interval(rig)
    gc.collect()
    phases["warmup"] = time.perf_counter()

    tracer = LayerTracer(rig) if trace else None
    samples: List[IntervalSample] = []
    untraced_busy: List[float] = []
    ref: Dict[str, List] = {"stream": [], "answers": [], "ingest_s": [], "join_s": []}
    helper = None
    try:
        for part in range(TIMED_PARTS):
            first = len(samples)
            if helper is None:
                skip_ticks = rig.source.ticks_elapsed
            elapsed = 0.0
            # A traced run needs at least one traced and one untraced interval.
            while (elapsed < seconds / TIMED_PARTS
                   or len(samples) < (2 if trace else 1)):
                if tracer is not None and len(samples) % 2 == 0:
                    sample = tracer.run_interval(
                        lambda: run_interval(rig, check=True)
                    )
                else:
                    sample = run_interval(rig, check=True)
                    untraced_busy.append(sample.busy)
                samples.append(sample)
                elapsed += sample.wall
            if part == TIMED_PARTS - 1:
                peak_rss_mib = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
                del rig
                gc.collect()
            if helper is None:
                # The traced run times REGULAR on every interval; otherwise
                # repeated input (parked traffic) reuses the last answer.
                helper = reference(workload, seed, skip_ticks, trace)
            for key, values in helper.run(len(samples) - first).items():
                ref[key] += values
            # The measured process sleeps while a set-up child runs.
            if not trace and len(setups) < SETUP_REPEATS:
                setups.append(fresh_setup(workload, seed))
    finally:
        if helper is not None:
            helper.close()
    phases["timed_reference_setups"] = time.perf_counter()
    streams_match = [list(s.stream) for s in samples] == ref["stream"]
    mismatches = sum(
        s.answer != expected for s, expected in zip(samples, ref["answers"])
    )
    failed = len(samples) if not streams_match else mismatches
    latencies_ms = [s.latency * 1e3 for s in samples]
    busy = sum(s.busy for s in samples)
    end_to_end = {
        "updates_per_s": {
            "value": sum(s.updates for s in samples) / busy, "unit": "1/s",
        },
        "answer_latency_ms_p50": {
            "value": statistics.median(latencies_ms), "unit": "ms",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "params": {
            "objects": workload.objects,
            "queries": workload.queries,
            "skew": workload.skew,
            "city": workload.city,
            "query_range": workload.query_range,
            "stopped_fraction": workload.stopped_fraction,
            "age_ticks": workload.age_ticks,
            "ticks_per_interval": TICKS_PER_INTERVAL,
            "setup_repeats": len(setups),
            "warmup_intervals": WARMUP_INTERVALS,
        },
        "correct": streams_match and mismatches == 0,
        "attempted": len(samples),
        "failed": failed,
        "answer_error_rate": failed / len(samples),
        "streams_match": streams_match,
        "timed_intervals": len(samples),
        "setup_samples_s": setups,
        "interval_busy_s": [s.busy for s in samples],
        "interval_latency_ms": latencies_ms,
        "interval_matches": [s.matches for s in samples],
        "regular_ingest_s": ref["ingest_s"],
        "regular_join_s": ref["join_s"],
        "end_to_end": end_to_end,
        # Wall seconds of each phase of this run, for budgeting run length.
        "phase_wall_s": {
            name: phases[name] - phases[prev]
            for prev, name in zip(phases, list(phases)[1:])
        },
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer.intervals, untraced_busy, ref)
        record["trace_intervals"] = tracer.intervals
    return record


# -- provenance ------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host = {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    host["id"] = hashlib.sha1(
        json.dumps(host, sort_keys=True).encode()
    ).hexdigest()[:10]
    return host


def write_record(record: Dict[str, Any]) -> Path:
    """Store the run under ``perfbench/results/<sha12>/``."""
    mode = "trace" if record["trace"] else "e2e"
    out = (
        HERE / "results" / record["git_sha"][:12]
        / f"{record['workload']}-{mode}-seed{record['seed']}-{record['host']['id']}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return out


# -- command line ------------------------------------------------------------------


def report(record: Dict[str, Any]) -> None:
    """Human-readable lines for one run."""
    print(f"{record['workload']} seed {record['seed']}: "
          f"{record['timed_intervals']} timed intervals, "
          f"git {record['git_sha'][:12]}, host {record['host']['cpu']} "
          f"x{record['host']['nproc']}")
    phases = "  ".join(f"{k} {v:.1f}s" for k, v in record["phase_wall_s"].items())
    print(f"  run phases: {phases}")
    if record["trace"]:
        for name, metric in record["per_layer"].items():
            print(f"  {name:<32} {metric['value']:>14.6f} {metric['unit']}")
        return
    for name, metric in record["end_to_end"].items():
        extra = ""
        if name == "answer_latency_ms_p50":
            extra = f"  ({record['timed_intervals']} samples)"
        elif name == "setup_s":
            extra = f"  (median of {record['params']['setup_repeats']})"
        print(f"  {name:<24} {metric['value']:>14.4f} {metric['unit']}{extra}")
    print(f"  {'answer_error_rate':<24} {record['answer_error_rate']:>14.4f} ratio"
          f"  ({record['failed']} of {record['attempted']} intervals differ "
          f"from RegularGridJoin)")


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    names = list(rows[0][1]["metrics"])
    print("\n" + " ".join([f"{'workload':<10}"] + [f"{n:>24}" for n in names]
                          + [f"{'answer_error_rate':>18}"]))
    for name, result in rows:
        cells = [f"{result['metrics'][n]['value']:>18.4f} "
                 f"{result['metrics'][n]['unit']:>5}" for n in names]
        error_rate = result["failed"] / result["attempted"]
        print(" ".join([f"{name:<10}"] + cells + [f"{error_rate:>12.4f} ratio"]))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the rig up once and print only setup_s")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        print(setup_rig(WORKLOADS[args.workload], args.seed)[1])
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    path = write_record(record)
    report(record)
    print(f"  record: {path.relative_to(ROOT)}")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
