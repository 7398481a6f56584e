"""The exactness gate's reference: the same stream through an exact baseline.

Runs as a helper process that computes nothing while a timed interval
runs, so its time and memory stay out of every measured number:

    python3 perfbench/reference.py --workload convoy --seed 1 \
        --skip-ticks 50 [--every-interval]

It rebuilds the load source from the workload and seed, fast-forwards it
to the first checked interval and then reads interval counts from
standard input, one per line (0 or end of input stops it).  For each
count it feeds the next intervals of the stream to ``RegularGridJoin``,
the paper's REGULAR baseline (the tests also use ``NaiveJoin``), and
prints one JSON line: per interval, the digests of the stream it fed (so
the caller can prove both sides saw identical updates) and the answer
digest, plus the seconds spent in the baseline's ingest and join.

Every entity reports every tick in the benchmark's workloads, so the
baselines' state after an interval depends only on that interval's
updates; one extra interval is still ingested unjoined before the first
checked one, so the timed baseline starts warm.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import NaiveJoin, RegularGridJoin  # noqa: E402

from rig import (  # noqa: E402
    TICK,
    TICKS_PER_INTERVAL,
    WORKLOADS,
    Workload,
    answer_digest,
    stream_digest,
)

OPERATORS = {"regular": RegularGridJoin, "naive": NaiveJoin}


class Reference:
    """An exact baseline fed the benchmark's stream, interval by interval.

    Starts ``skip_ticks`` ticks into the stream of ``workload`` at
    ``seed``; each :meth:`run` continues where the previous one stopped.
    With ``memo``, an interval whose updates equal the previous interval's
    (parked traffic) reuses that answer instead of re-running the
    baseline; timings then cover only the intervals actually run.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        skip_ticks: int,
        memo: bool = True,
        operator: str = "regular",
    ) -> None:
        if skip_ticks < TICKS_PER_INTERVAL:
            raise ValueError(
                f"skip_ticks must leave room for one warm interval, got {skip_ticks}"
            )
        self.memo = memo
        self.generator = workload.generator(seed)
        self.generator.fast_forward(skip_ticks - TICKS_PER_INTERVAL, TICK)
        self.baseline = OPERATORS[operator]()
        for _ in range(TICKS_PER_INTERVAL):
            self.baseline.ingest_batch(self.generator.tick(TICK))
        self._previous = None
        self._answer = ""

    def run(self, intervals: int) -> Dict[str, List]:
        """Stream digests, answer digests and baseline seconds of the next
        ``intervals`` intervals."""
        generator = self.generator
        baseline = self.baseline
        out: Dict[str, List] = {"stream": [], "answers": [], "ingest_s": [], "join_s": []}
        for _ in range(intervals):
            batches = [generator.tick(TICK) for _ in range(TICKS_PER_INTERVAL)]
            out["stream"].append([stream_digest(batch) for batch in batches])
            content = [stream_digest(batch, with_time=False) for batch in batches]
            if self.memo and content == self._previous:
                # Both baselines keep each entity's last report and nothing
                # else, so feeding ticks equal to the previous interval's
                # leaves their state, and so the answer, exactly as it was.
                out["answers"].append(self._answer)
                continue
            self._previous = content
            start = time.perf_counter()
            for batch in batches:
                baseline.ingest_batch(batch)
            out["ingest_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            matches = baseline.join_phase(generator.time)
            out["join_s"].append(time.perf_counter() - start)
            self._answer = answer_digest(matches)
            out["answers"].append(self._answer)
        return out

    def close(self) -> None:
        """Nothing to release in process (the helper's interface)."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--skip-ticks", type=int, required=True)
    parser.add_argument("--every-interval", action="store_true",
                        help="run the baseline on every interval (REGULAR "
                             "timings), even where the input repeats")
    args = parser.parse_args(argv)
    reference = Reference(
        WORKLOADS[args.workload],
        args.seed,
        args.skip_ticks,
        memo=not args.every_interval,
    )
    for line in sys.stdin:
        intervals = int(line)
        if intervals <= 0:
            break
        print(json.dumps(reference.run(intervals)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
