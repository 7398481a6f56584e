"""``Scuba.ingest_batch``: the column walk against the scalar loop.

The exactness sweep and the targeted corner cases live in
``test_ingest_walk.py``; this module keeps the entry-point checks: heartbeat
commits of a parked group, version stability, the grid's version early-out,
a scalar row interleaved into a group, mixed-timestamp row lists, the
counters, and serial/sharded equivalence with the per-row loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ingest_walk import (
    QUERY_RANGE,
    RowLoopScuba,
    fingerprint,
    interval_multisets,
    make_config,
    obj,
    serial_run,
    sharded_run,
    tick,
)

from repro.core import Scuba
from repro.network import grid_city
from repro.parallel import ScubaShardFactory


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=9, cols=9)


def parked_operator(ticks=1):
    """An operator warmed with one parked 2-object cluster, then ``ticks``
    heartbeat ticks (t = 1, 2, ...)."""
    op = Scuba(make_config())
    op.ingest_batch(tick(0.0, obj(1, 500, 500), obj(2, 505, 500)))
    for k in range(1, ticks + 1):
        t = float(k)
        op.ingest_batch(tick(t, obj(1, 500, 500, t=t), obj(2, 505, 500, t=t)))
    return op


class TestHeartbeatBulkCommit:
    def test_parked_group_commits_batched(self, monkeypatch):
        op = parked_operator(ticks=0)
        grid = op.world.grid
        calls = []
        refresh = grid.refresh
        monkeypatch.setattr(grid, "refresh", lambda c: calls.append(c) or refresh(c))
        op.ingest_batch(tick(1.0, obj(1, 500, 500, t=1.0), obj(2, 505, 500, t=1.0)))
        assert op.ingest_fast_rows == 2
        assert len(calls) == 1  # one refresh for the group's two heartbeats
        [cluster] = op.world.storage
        assert all(member.last_t == 1.0 for member in cluster.members())

    def test_heartbeats_keep_version_stable(self):
        op = parked_operator(ticks=0)
        [cluster] = op.world.storage
        version = cluster.version
        op.ingest_batch(tick(1.0, obj(1, 500, 500, t=1.0), obj(2, 505, 500, t=1.0)))
        assert cluster.version == version

    def test_grid_refresh_version_early_out(self):
        op = parked_operator(ticks=2)
        assert op.world.grid.refresh_skips > 0
        assert op.join_counters()["grid_refresh_skips"] > 0


class TestSlowPathInterleaving:
    def test_hook_flush_matches_scalar(self):
        """A homeless row in the middle of a parked group takes the scalar
        path, changing the group's cluster under the walk: the walk must
        drop its refresh record for that cluster and still reproduce the
        scalar mutation order."""
        warm = [obj(1, 500, 500), obj(2, 505, 500)]
        rows = [
            obj(1, 500, 500, t=1.0),
            obj(3, 502, 500, t=1.0),  # homeless: joins mid-group
            obj(2, 505, 500, t=1.0),
        ]
        walk, oracle = Scuba(make_config()), RowLoopScuba(make_config())
        for op in (walk, oracle):
            op.ingest_batch(tick(0.0, *warm))
            op.ingest_batch(tick(1.0, *rows))
        assert walk.ingest_fallback_rows == 3  # two cold rows + the joiner
        assert fingerprint(walk) == fingerprint(oracle)


class TestMixedTimestamps:
    def test_batch_splits_into_uniform_runs(self):
        """A row list spanning two timestamps (no TickBatch) takes the
        per-row loop and matches feeding the rows one by one."""
        rows = [
            obj(1, 500, 500, t=0.0),
            obj(2, 505, 500, t=0.0),
            obj(1, 500, 500, t=1.0),
            obj(2, 505, 500, t=1.0),
        ]
        batched, scalar = Scuba(make_config()), Scuba(make_config())
        batched.ingest_batch(rows)
        for update in rows:
            scalar.on_update(update)
        assert fingerprint(batched) == fingerprint(scalar)
        assert batched.clusterer.processed == 4


class TestCounters:
    def test_join_counters_expose_ingest(self, city):
        op = Scuba(make_config())
        serial_run(city, op, 3, intervals=3, stopped_fraction=1.0)
        counters = op.join_counters()
        assert counters["ingest_fast_rows"] > 0
        assert counters["ingest_fallback_rows"] > 0  # the cold tick
        assert (
            counters["ingest_fast_rows"] + counters["ingest_fallback_rows"]
            == op.clusterer.processed
        )


class TestEquivalence:
    """Column walk vs per-row loop: identical answers AND identical state."""

    @pytest.mark.parametrize("stopped", [0.0, 0.5, 1.0])
    def test_serial_answers_and_state(self, city, stopped):
        walk, oracle = Scuba(make_config()), RowLoopScuba(make_config())
        sink = serial_run(city, walk, 11, stopped_fraction=stopped)
        ref_sink = serial_run(city, oracle, 11, stopped_fraction=stopped)
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert fingerprint(walk) == fingerprint(oracle)

    def test_composes_with_incremental_and_shedding(self, city):
        config = dict(incremental=True, eta=0.3)
        walk = Scuba(make_config(**config))
        oracle = RowLoopScuba(make_config(**config))
        sink = serial_run(city, walk, 5, stopped_fraction=0.5)
        ref_sink = serial_run(city, oracle, 5, stopped_fraction=0.5)
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert fingerprint(walk) == fingerprint(oracle)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_batched_matches_serial_scalar(self, city, shards):
        reference = serial_run(
            city, RowLoopScuba(make_config()), 7, stopped_fraction=0.5
        )
        sink, operators = sharded_run(
            city, ScubaShardFactory(make_config(), QUERY_RANGE), 7, shards,
            stopped_fraction=0.5,
        )
        assert interval_multisets(sink) == interval_multisets(reference)
        assert sum(op.ingest_fast_rows for op in operators) > 0

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        stopped=st.sampled_from([0.0, 0.5, 1.0]),
        eta=st.sampled_from([0.0, 0.3]),
        incremental=st.booleans(),
    )
    def test_randomized_sweep(self, seed, stopped, eta, incremental):
        city = grid_city(rows=9, cols=9)
        walk = Scuba(make_config(eta=eta, incremental=incremental))
        oracle = RowLoopScuba(make_config(eta=eta, incremental=incremental))
        sink = serial_run(city, walk, seed, intervals=3, stopped_fraction=stopped)
        ref_sink = serial_run(
            city, oracle, seed, intervals=3, stopped_fraction=stopped
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert fingerprint(walk) == fingerprint(oracle)
