"""Tests of the benchmark itself, at small populations.

    python3 -m pytest perfbench -q

They pin the exactness gate (the REGULAR reference agrees with the naive
oracle, SCUBA passes, a single dropped match fails), the digests, and the
tracer's span coverage and clean removal.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from repro.clustering import MovingCluster  # noqa: E402
from repro.core import Scuba  # noqa: E402
from repro.generator import TickBatch  # noqa: E402
from repro.pipeline.context import STAGES  # noqa: E402
from repro.streams.results import MatchList, QueryMatch  # noqa: E402

from reference import Reference  # noqa: E402
from rig import (  # noqa: E402
    TICKS_PER_INTERVAL,
    WORKLOADS,
    answer_digest,
    setup_rig,
    stream_digest,
)
from run import run_workload  # noqa: E402

ENTITIES = 600
SEED = 3


def small(name: str):
    return WORKLOADS[name].scaled(ENTITIES)


def in_process(workload, seed, skip_ticks, every_interval):
    return Reference(workload, seed, skip_ticks, memo=not every_interval)


def setup_in_process(workload, seed):
    return setup_rig(workload, seed)[1]


def measure(workload, trace):
    return run_workload(workload, SEED, 0.3, trace, reference=in_process,
                        fresh_setup=setup_in_process)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_regular_reference_agrees_with_naive(name):
    workload = small(name)
    skip = workload.age_ticks + 2 * TICKS_PER_INTERVAL
    # The naive oracle runs every interval; REGULAR may reuse the answer
    # of a repeated interval (parked), so this also pins that shortcut.
    regular = Reference(workload, SEED, skip).run(3)
    naive = Reference(workload, SEED, skip, memo=False, operator="naive").run(3)
    assert regular["stream"] == naive["stream"]
    assert regular["answers"] == naive["answers"]
    # Non-vacuous: the digests are "<count>:<hash>".
    assert all(int(a.split(":")[0]) > 0 for a in regular["answers"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scuba_passes_the_gate(name):
    record = measure(small(name), False)
    assert record["streams_match"]
    assert record["attempted"] >= 1
    assert record["failed"] == 0
    assert record["answer_error_rate"] == 0.0
    assert record["correct"]


def test_one_dropped_match_fails_the_gate(monkeypatch):
    join_phase = Scuba.join_phase

    def lossy_join(self, now):
        matches = list(join_phase(self, now))
        return matches[1:]

    monkeypatch.setattr(Scuba, "join_phase", lossy_join)
    record = measure(small("convoy"), False)
    assert record["streams_match"]
    assert record["failed"] == record["attempted"] >= 1
    assert record["answer_error_rate"] > 0
    assert not record["correct"]


def test_answer_digest_is_a_multiset_hash():
    rows = [QueryMatch(q, o, 4.0) for q, o in [(1, 2), (1, 3), (7, 2), (9, 9)]]
    blocks = MatchList()
    blocks.append(rows[3])
    blocks.append_block([1, 1], [3, 2], 4.0)
    blocks.append_block([7], [2], 4.0)
    assert answer_digest(rows) == answer_digest(blocks)
    assert answer_digest(rows) == answer_digest(rows[::-1])
    assert answer_digest(rows) != answer_digest(rows[1:])
    assert answer_digest(rows) != answer_digest(rows + rows[:1])
    assert answer_digest(rows) != answer_digest(
        rows[:3] + [QueryMatch(9, 8, 4.0)]
    )


def test_stream_digest_sees_every_column():
    batch = TickBatch(
        1.0, [1, 2], [True, False], [0.0, 1.0], [2.0, 3.0], [1.0, 1.0],
        [5, 6], [0.0, 0.0], [1.0, 1.0], [0.0, 60.0], [0.0, 60.0],
    )
    base = stream_digest(batch)
    assert stream_digest(TickBatch.from_updates(1.0, list(batch))) == base
    moved = TickBatch(
        1.0, [1, 2], [True, False], [0.0, 1.5], [2.0, 3.0], [1.0, 1.0],
        [5, 6], [0.0, 0.0], [1.0, 1.0], [0.0, 60.0], [0.0, 60.0],
    )
    assert stream_digest(moved) != base


def test_trace_spans_cover_each_interval_and_are_removed():
    absorb = MovingCluster.__dict__["absorb"]
    materialize = TickBatch.__dict__["materialize"]
    record = measure(small("crosstown"), True)
    assert record["correct"]
    assert MovingCluster.__dict__["absorb"] is absorb
    assert TickBatch.__dict__["materialize"] is materialize
    for interval in record["trace_intervals"]:
        names = [name for name, _, _ in interval["spans"]]
        assert names.count("generator.tick") == TICKS_PER_INTERVAL
        assert names.count("ingest") == TICKS_PER_INTERVAL
        assert set(STAGES) <= set(names)
        spans = sorted((s, e) for _, s, e in interval["spans"])
        # Children lie inside the interval and never overlap, so what they
        # leave uncovered (pipeline.unattributed_s) is never negative.
        assert spans[0][0] >= 0.0 and spans[-1][1] <= interval["wall"]
        assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
    layers = record["per_layer"]
    parts = ("ingest.s", "join.s", "maintenance.s", "emit.s",
             "generator.tick_s", "pipeline.unattributed_s")
    total = sum(layers[name]["value"] for name in parts)
    assert total == pytest.approx(layers["pipeline.interval_s"]["value"])
    assert layers["pipeline.unattributed_s"]["value"] >= 0.0
    assert 0.0 < layers["clustering.fast_path_ratio"]["value"] <= 1.0
    assert layers["materialize.rows"]["value"] == ENTITIES * TICKS_PER_INTERVAL


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record = measure(small("parked"), True)
    assert [m["name"] for m in spec["end_to_end"]] == list(record["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(record["per_layer"])
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            assert record[kind][metric["name"]]["unit"] == metric["unit"]
    # convoy stays runnable by name but is not one of the benchmark's
    # workloads (see README.md, "Budget").
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
