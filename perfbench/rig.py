"""Workloads, the closed-loop rig, and the digests the exactness gate compares.

The rig is one process on one thread.  Each tick the engine pulls the next
tick from :class:`TimedSource`, which wraps the repo's
``NetworkBasedGenerator`` (the load source) and times every ``tick()``
call, so the generator's cost can be taken out of every measurement.  The
system under test is ``StreamEngine`` driving ``Scuba`` with the default
config.  The engine ingests a tick before it asks for the next one, so the
loop is closed: a slower system is offered load at a lower rate.

Import this module with ``<repo>/src`` on ``sys.path`` (``run.py``,
``reference.py`` and the tests arrange that).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core import Scuba, ScubaConfig
from repro.generator import GeneratorConfig, NetworkBasedGenerator, TickBatch
from repro.network import grid_city
from repro.streams import EngineConfig, StreamEngine
from repro.streams.results import MatchBlock
from repro.streams.sink import ResultSink

__all__ = [
    "DELTA",
    "WORKLOADS",
    "IntervalSample",
    "Rig",
    "Workload",
    "answer_digest",
    "run_interval",
    "setup_rig",
    "stream_digest",
]

#: Δ, the evaluation period, in ticks of one time unit (the paper's setting).
DELTA = 2.0
TICK = 1.0
TICKS_PER_INTERVAL = int(DELTA / TICK)
GRID = 100


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Every entity reports every tick (100% updates)."""

    name: str
    why: str
    city: int
    query_range: float
    stopped_fraction: float
    #: Ticks the load source is fast-forwarded before the engine sees it.
    #: Convoys start bunched at their origins and spread as members cross
    #: connection nodes; on 11x11 blocks that takes a few dozen ticks, and
    #: without aging the cluster count (and the per-interval cost) keeps
    #: rising through the timed section.  Aging is generator work, so it
    #: stays outside every timing, ``setup_s`` included.
    age_ticks: int
    objects: int = 15_000
    queries: int = 15_000
    skew: int = 50

    def generator(self, seed: int) -> NetworkBasedGenerator:
        """The load source: this mix on its city, seeded."""
        return NetworkBasedGenerator(
            grid_city(rows=self.city, cols=self.city),
            self.generator_config(seed),
        )

    def generator_config(self, seed: int) -> GeneratorConfig:
        return GeneratorConfig(
            num_objects=self.objects,
            num_queries=self.queries,
            skew=self.skew,
            seed=seed,
            mixed_groups=True,
            query_range=(self.query_range, self.query_range),
            update_fraction=1.0,
            stopped_fraction=self.stopped_fraction,
        )

    def scaled(self, entities: int) -> "Workload":
        """The same mix at a smaller population (tests)."""
        half = entities // 2
        return dataclasses.replace(
            self, objects=half, queries=entities - half, skew=min(self.skew, 10)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "convoy",
            "all-moving convoys on an 11x11 city: the paper's default regime; "
            "admission is ~95% fast path and the verdict cache never hits",
            city=11,
            query_range=60.0,
            stopped_fraction=0.0,
            age_ticks=40,
        ),
        Workload(
            "parked",
            "every convoy stopped, 200-unit windows: join, verdict cache and "
            "emit do their most work; admission is all fast path",
            city=11,
            query_range=200.0,
            stopped_fraction=1.0,
            age_ticks=0,
        ),
        Workload(
            "crosstown",
            "convoy traffic on a 41x41 lattice: 4x shorter blocks send ~1 row "
            "in 4 through find-cluster/evict/create and churn clusters",
            city=41,
            query_range=60.0,
            stopped_fraction=0.0,
            # Blocks 4x shorter: members cross nodes, and spread, 4x as often.
            age_ticks=10,
        ),
    )
}


class TimedSource:
    """The load source as the engine sees it.

    Times every ``tick()`` so callers can subtract generator cost, stamps
    the moment each tick returns (the start of answer latency), and, when
    asked, digests each tick's stream inside that same excluded window.
    ``tick_spans`` collects ``(start, end)`` pairs while a tracer wants them.
    """

    def __init__(self, generator: NetworkBasedGenerator) -> None:
        self.generator = generator
        self.tick_seconds = 0.0
        self.last_return = 0.0
        self.digests: Optional[List[str]] = None
        self.tick_spans: Optional[List[Tuple[float, float]]] = None

    @property
    def time(self) -> float:
        return self.generator.time

    @property
    def ticks_elapsed(self) -> int:
        return self.generator.ticks_elapsed

    def tick(self, dt: float):
        start = time.perf_counter()
        batch = self.generator.tick(dt)
        if self.digests is not None:
            self.digests.append(stream_digest(batch))
        end = time.perf_counter()
        self.tick_seconds += end - start
        self.last_return = end
        if self.tick_spans is not None:
            self.tick_spans.append((start, end))
        return batch


class StampingSink(ResultSink):
    """Stamps the moment answers arrive and keeps the latest answer.

    The stamp is the first thing ``accept`` does; the answer is digested
    only after ``run_interval`` returns, outside every timing.
    """

    def __init__(self) -> None:
        self.accepted_at = 0.0
        self.matches: Any = None

    def accept(self, matches, t: float) -> None:
        self.accepted_at = time.perf_counter()
        self.matches = matches


@dataclass
class Rig:
    workload: Workload
    generator: NetworkBasedGenerator
    source: TimedSource
    operator: Scuba
    sink: StampingSink
    engine: StreamEngine


@dataclass
class IntervalSample:
    """One interval as the benchmark saw it."""

    wall: float
    #: Wall time minus the load source's ``tick()`` calls.
    busy: float
    #: Last tick's return from the generator -> the sink's ``accept``.
    latency: float
    updates: int
    matches: int
    answer: Optional[str] = None
    stream: Tuple[str, ...] = ()


def _assemble(workload: Workload, generator: NetworkBasedGenerator) -> Rig:
    source = TimedSource(generator)
    operator = Scuba(ScubaConfig(grid_size=GRID, delta=DELTA))
    sink = StampingSink()
    engine = StreamEngine(
        source, operator, sink, EngineConfig(delta=DELTA, tick=TICK)
    )
    return Rig(workload, generator, source, operator, sink, engine)


def setup_rig(workload: Workload, seed: int) -> Tuple[Rig, float]:
    """Build a rig and run its cold interval; returns ``(rig, setup_s)``.

    ``setup_s`` covers network, generator, operator and engine construction
    plus the busy time of the first interval, in which every entity is
    admitted from scratch.  Source aging and the cold interval's
    ``tick()`` calls are load-source work and are left out.
    """
    start = time.perf_counter()
    generator = workload.generator(seed)
    built = time.perf_counter()
    generator.fast_forward(workload.age_ticks, TICK)
    aged = time.perf_counter()
    rig = _assemble(workload, generator)
    assembled = time.perf_counter()
    cold = run_interval(rig)
    return rig, (built - start) + (assembled - aged) + cold.busy


def run_interval(rig: Rig, check: bool = False) -> IntervalSample:
    """Run one Δ interval; with ``check``, digest its stream and answer."""
    source = rig.source
    source.tick_seconds = 0.0
    source.digests = [] if check else None
    start = time.perf_counter()
    stats = rig.engine.run_interval()
    wall = time.perf_counter() - start
    sample = IntervalSample(
        wall=wall,
        busy=wall - source.tick_seconds,
        latency=rig.sink.accepted_at - source.last_return,
        updates=stats.tuple_count,
        matches=stats.result_count,
    )
    if check:
        sample.answer = answer_digest(rig.sink.matches)
        sample.stream = tuple(source.digests)
        source.digests = None
    rig.sink.matches = None
    return sample


# -- digests ------------------------------------------------------------------

_STREAM_COLUMNS = (
    "ids", "kinds", "xs", "ys", "speeds", "cns", "cn_xs", "cn_ys", "ws", "hs",
)


def stream_digest(batch: TickBatch, with_time: bool = True) -> str:
    """Hash of one tick's update stream, column by column, in row order."""
    h = hashlib.blake2b(digest_size=16)
    if with_time:
        h.update(np.float64(batch.t).tobytes())
    for name in _STREAM_COLUMNS:
        h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    if batch.attrs_list is not None:
        h.update(repr(batch.attrs_list).encode())
    return h.hexdigest()


_U64 = np.uint64
_CHUNK = 1 << 16
_QID = itemgetter(0)
_OID = itemgetter(1)


def _mix64(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, elementwise (uint64 arithmetic wraps by design)."""
    z = keys + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


class _MultisetHash:
    """Order-independent 128-bit hash of a multiset of uint64 keys.

    Sums of two independent mixes of each key, plus the count: equal
    multisets always give equal digests, and a dropped, added or changed
    pair leaves both sums unchanged only with probability ~2^-128.  Works
    chunk by chunk, so its memory stays small however big the answer.
    """

    def __init__(self) -> None:
        self.count = 0
        self.lane_a = _U64(0)
        self.lane_b = _U64(0)

    def add(self, keys: np.ndarray) -> None:
        if not len(keys):
            return
        self.count += len(keys)
        with np.errstate(over="ignore"):
            self.lane_a += _mix64(keys).sum(dtype=_U64)
            self.lane_b += _mix64(keys ^ _U64(0x5851F42D4C957F2D)).sum(dtype=_U64)

    def hexdigest(self) -> str:
        return f"{self.count}:{int(self.lane_a):016x}{int(self.lane_b):016x}"


def answer_digest(matches) -> str:
    """Digest of an answer as a multiset of ``(qid, oid)`` pairs.

    Reads columnar ``MatchBlock`` runs as arrays and row-form matches in
    chunks, so neither side of the gate builds a row per match.
    """
    acc = _MultisetHash()
    rows: List[Any] = []

    def flush_rows() -> None:
        n = len(rows)
        qids = np.fromiter(map(_QID, rows), dtype=_U64, count=n)
        oids = np.fromiter(map(_OID, rows), dtype=_U64, count=n)
        acc.add((qids << _U64(32)) | oids)
        rows.clear()

    # list.__iter__ walks a MatchList's raw entries (whole blocks and rows)
    # instead of flattening every block into rows.
    for entry in list.__iter__(matches):
        if type(entry) is MatchBlock:
            qids = np.asarray(entry.qids, dtype=_U64)
            oids = np.asarray(entry.oids, dtype=_U64)
            for lo in range(0, len(qids), _CHUNK):
                acc.add((qids[lo:lo + _CHUNK] << _U64(32)) | oids[lo:lo + _CHUNK])
        else:
            rows.append(entry)
            if len(rows) >= _CHUNK:
                flush_rows()
    if rows:
        flush_rows()
    return acc.hexdigest()
