"""Column-walk admission: equivalence with the per-row scalar loop.

``Scuba.ingest_batch`` admits a :class:`TickBatch` straight from its
columns; only rows that leave the §3.2 stay case become ``Update`` objects
and run the scalar Leader-Follower path.  The walk visits rows in arrival
order, so its answers, cluster state, grid registrations and clustering
counters must equal the per-row ``on_update`` loop over the materialized
rows exactly.  The sweep below crosses seed × stopped fraction × splitting
× shedding × storage × sharding; the targeted cases pin the corners of the
stay predicate and the refresh-skip bookkeeping, and the boundary tests
pin validate-then-mutate for non-finite coordinates.
"""

import copy
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import print_cache_footer
from repro.core import Scuba, ScubaConfig
from repro.generator import (
    EntityKind,
    GeneratorConfig,
    LocationUpdate,
    NetworkBasedGenerator,
    QueryUpdate,
    TickBatch,
)
from repro.geometry import Point
from repro.network import grid_city
from repro.parallel import ScubaShardFactory, ShardedEngine
from repro.serve import state_digest
from repro.shedding import NoShedding, policy_for_eta
from repro.streams import CollectingSink, EngineConfig, StreamEngine

QUERY_RANGE = (120.0, 120.0)


class RowLoopScuba(Scuba):
    """The oracle: every row materialized and fed to ``on_update``."""

    def ingest_batch(self, updates):
        for update in list(updates):
            self.on_update(update)


class RowLoopShardFactory(ScubaShardFactory):
    def __call__(self, bounds):
        return RowLoopScuba(super().__call__(bounds).config)


def obj(oid, x, y, t=0.0, speed=0.0, cn=1, cn_loc=Point(1000, 0)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry(qid, x, y, t=0.0, speed=0.0, cn=1, cn_loc=Point(1000, 0)):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, 50.0, 50.0)


def tick(t, *updates):
    return TickBatch.from_updates(t, list(updates))


def make_generator(city, seed, stopped_fraction=0.0, update_fraction=1.0):
    return NetworkBasedGenerator(
        city,
        GeneratorConfig(
            num_objects=80,
            num_queries=80,
            skew=20,
            seed=seed,
            mixed_groups=True,
            query_range=QUERY_RANGE,
            update_fraction=update_fraction,
            stopped_fraction=stopped_fraction,
        ),
    )


def make_config(eta=0.0, split=False, columnar=False, incremental=False):
    return ScubaConfig(
        delta=2.0,
        shedding=policy_for_eta(eta, 100.0),
        split_at_destination=split,
        columnar=columnar,
        incremental=incremental,
    )


def interval_multisets(sink):
    return {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in sink.by_interval.items()
    }


def fingerprint(op):
    """Everything the walk must leave exactly as the row loop does."""
    return (
        state_digest(op),
        {c.cid: c.grid_cells for c in op.world.storage},
        op.clusterer.processed,
        op.clusterer.fast_path_hits,
        op.split_joins,
    )


def serial_run(city, op, seed, intervals=4, **gen_kwargs):
    sink = CollectingSink()
    StreamEngine(
        make_generator(city, seed, **gen_kwargs), op, sink, EngineConfig(delta=2.0)
    ).run(intervals)
    return sink


def sharded_run(city, factory, seed, shards, intervals=4, **gen_kwargs):
    sink = CollectingSink()
    with ShardedEngine(
        make_generator(city, seed, **gen_kwargs),
        factory,
        shards=shards,
        sink=sink,
        config=EngineConfig(delta=2.0),
    ) as engine:
        engine.run(intervals)
        operators = list(engine.executor.operators)
    return sink, operators


def assert_walk_matches_row_loop(
    seed, stopped, split, eta, columnar, shards, update_fraction=1.0
):
    city = grid_city(rows=9, cols=9)
    config = make_config(eta=eta, split=split, columnar=columnar)
    gen = dict(stopped_fraction=stopped, update_fraction=update_fraction)
    if shards == 1:
        walk, oracle = Scuba(copy.deepcopy(config)), RowLoopScuba(config)
        walk_sink = serial_run(city, walk, seed, **gen)
        oracle_sink = serial_run(city, oracle, seed, **gen)
        pairs = [(walk, oracle)]
    else:
        walk_sink, walks = sharded_run(
            city, ScubaShardFactory(config, QUERY_RANGE), seed, shards, **gen
        )
        oracle_sink, oracles = sharded_run(
            city, RowLoopShardFactory(config, QUERY_RANGE), seed, shards, **gen
        )
        pairs = list(zip(walks, oracles))
    assert interval_multisets(walk_sink) == interval_multisets(oracle_sink)
    for walk, oracle in pairs:
        assert fingerprint(walk) == fingerprint(oracle)
        assert (
            walk.ingest_fast_rows + walk.ingest_fallback_rows
            == walk.clusterer.processed
        )
        if eta == 0.0:
            # The walk misses no stay: every row the scalar path would
            # have kept in its cluster was committed without an Update.
            assert walk.ingest_fast_rows == walk.clusterer.fast_path_hits
    return pairs


class TestEquivalenceSweep:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("stopped", [0.0, 0.5, 1.0])
    def test_walk_matches_row_loop(self, stopped, split, eta, columnar, shards):
        seed = 3 + int(10 * stopped) + 2 * split + shards
        assert_walk_matches_row_loop(seed, stopped, split, eta, columnar, shards)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=63),
        stopped=st.sampled_from([0.0, 0.5, 1.0]),
        split=st.booleans(),
        eta=st.sampled_from([0.0, 0.3]),
        columnar=st.booleans(),
        shards=st.sampled_from([1, 2]),
        update_fraction=st.sampled_from([1.0, 0.6]),
    )
    def test_randomized_sweep(
        self, seed, stopped, split, eta, columnar, shards, update_fraction
    ):
        assert_walk_matches_row_loop(
            seed, stopped, split, eta, columnar, shards, update_fraction
        )


def run_both(config, *ticks, between=None):
    """Feed the same ticks to a walking operator and the row-loop oracle.

    ``between(op, k)`` runs on both after tick ``k`` (retracts,
    maintenance).  Returns ``(walk, oracle)``.
    """
    walk, oracle = Scuba(copy.deepcopy(config)), RowLoopScuba(copy.deepcopy(config))
    for op in (walk, oracle):
        for k, batch in enumerate(ticks):
            op.ingest_batch(TickBatch.from_updates(batch.t, list(batch)))
            if between is not None:
                between(op, k)
    assert fingerprint(walk) == fingerprint(oracle)
    return walk, oracle


class TestTargetedCases:
    def test_singleton_refresh(self):
        walk, _ = run_both(
            make_config(),
            tick(0.0, obj(1, 500, 500)),
            tick(1.0, obj(1, 530, 510, t=1.0, speed=3.0)),
        )
        [cluster] = walk.world.storage
        assert (cluster.cx, cluster.cy, cluster.radius) == (530.0, 510.0, 0.0)
        assert walk.ingest_fast_rows == 1
        assert walk.ingest_fallback_rows == 1  # the creating row

    def test_node_crossing_into_split_successor(self):
        ahead = Point(1000, 1000)
        walk, _ = run_both(
            make_config(split=True),
            tick(0.0, obj(1, 500, 500), obj(2, 505, 500), obj(3, 510, 500)),
            tick(
                1.0,
                obj(1, 500, 500, t=1.0, cn=2, cn_loc=ahead),
                obj(2, 505, 500, t=1.0, cn=2, cn_loc=ahead),
                obj(3, 510, 500, t=1.0),
            ),
        )
        assert walk.split_joins == 1
        assert walk.ingest_fast_rows == 1  # only the member that stayed

    def test_radius_growth_forces_reregistration(self):
        warm = tick(0.0, obj(1, 500, 500), obj(2, 502, 500))
        first = Scuba(make_config())
        first.ingest_batch(warm)
        [cluster] = first.world.storage
        cells_before = cluster.grid_cells
        walk, _ = run_both(
            make_config(),
            warm,
            # Row 2 stays (within Θ_D × slack of the centroid) but lands
            # outside the half-cell registration slack: the footprint
            # grows and the cluster must be re-registered.
            tick(1.0, obj(1, 500, 500, t=1.0), obj(2, 590, 500, t=1.0)),
        )
        [cluster] = walk.world.storage
        assert walk.ingest_fast_rows == 2
        assert cluster.radius > 80.0
        assert cluster.grid_cells != cells_before

    def test_retract_between_ticks(self):
        def retract(op, k):
            if k == 0:
                op.retract(2, EntityKind.OBJECT)

        walk, _ = run_both(
            make_config(),
            tick(0.0, obj(1, 500, 500), obj(2, 505, 500), qry(1, 503, 500)),
            tick(1.0, obj(1, 500, 500, t=1.0), qry(1, 503, 500, t=1.0)),
            between=retract,
        )
        assert len(walk.objects_table) == 1

    def test_heartbeat_after_flush_transform(self):
        def maintain(op, k):
            op.post_join_phase(float(k))

        walk, _ = run_both(
            make_config(),
            tick(0.0, obj(1, 500, 500), obj(2, 505, 500)),
            tick(1.0, obj(1, 500, 500, t=1.0), obj(2, 505, 500, t=1.0)),
            tick(2.0, obj(1, 500, 500, t=2.0), obj(2, 505, 500, t=2.0)),
            between=maintain,
        )
        [cluster] = walk.world.storage
        assert walk.ingest_fast_rows == 4
        assert all(m.last_t == 2.0 for m in cluster.members())

    def test_shed_members_refresh_after_policy_switch(self):
        """Members shed under a live policy are restamped (and un-shed) by
        the walk once the policy goes back to no shedding."""
        first = tick(0.0, obj(1, 500, 500), obj(2, 505, 500), qry(1, 503, 500))
        second = tick(1.0, obj(1, 501, 500, t=1.0), obj(2, 505, 500, t=1.0),
                      qry(1, 503, 500, t=1.0))

        def relax(op, k):
            if k == 0:
                op.set_shedding_policy(NoShedding())

        walk, _ = run_both(make_config(eta=1.0), first, second, between=relax)
        assert walk.ingest_fast_rows == 3

    def test_list_input_takes_row_loop(self):
        op = Scuba(make_config())
        op.ingest_batch([obj(1, 500, 500), obj(2, 505, 500, t=1.0)])
        assert op.ingest_fast_rows == 0
        assert op.ingest_fallback_rows == 2 == op.clusterer.processed


class TestCounters:
    def test_counters_sum_to_processed_and_parked_is_all_fast(self):
        city = grid_city(rows=9, cols=9)
        op = Scuba(make_config())
        engine = StreamEngine(
            make_generator(city, 7, stopped_fraction=1.0),
            op,
            CollectingSink(),
            EngineConfig(delta=2.0),
        )
        engine.run(1)  # cold interval: every entity joins a cluster
        cold_fallback = op.ingest_fallback_rows
        engine.run(3)
        counters = op.join_counters()
        assert (
            counters["ingest_fast_rows"] + counters["ingest_fallback_rows"]
            == op.clusterer.processed
        )
        assert counters["ingest_fallback_rows"] == cold_fallback
        assert counters["ingest_fast_rows"] > 0
        assert counters["rejected_updates.nonfinite"] == 0
        for removed in ("fast_path_batched", "bulk_absorbs",
                        "grid_refresh_deduped", "batch_fallbacks",
                        "batched_ingest"):
            assert removed not in counters

    def test_cli_footer_reports_ingest_rows(self, capsys):
        op = Scuba(make_config())
        op.ingest_batch(tick(0.0, obj(1, 500, 500), obj(2, 505, 500)))
        op.ingest_batch(tick(1.0, obj(1, 500, 500, t=1.0)))
        print_cache_footer(op.join_counters())
        out = capsys.readouterr().out
        assert "ingest: fast rows 1 | fallback rows 2 | rejected non-finite 0" in out


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["x", "y", "speed"])
    def test_rejected_row_leaves_no_trace(self, bad, column):
        warm = tick(0.0, obj(1, 500, 500), obj(2, 505, 500), qry(1, 503, 500))
        fields = {"x": 510.0, "y": 500.0, "speed": 0.0}
        fields[column] = bad
        poisoned = obj(3, fields["x"], fields["y"], t=1.0, speed=fields["speed"])
        good = [obj(1, 501, 500, t=1.0), qry(1, 503, 500, t=1.0)]
        with_bad = Scuba(make_config())
        without = Scuba(make_config())
        for op, rows in ((with_bad, good[:1] + [poisoned] + good[1:]),
                         (without, good)):
            op.ingest_batch(warm)
            op.ingest_batch(tick(1.0, *rows))
        assert state_digest(with_bad) == state_digest(without)
        assert 3 not in with_bad.objects_table
        assert with_bad.join_counters()["rejected_updates.nonfinite"] == 1
        assert with_bad.clusterer.processed == without.clusterer.processed

    def test_on_update_rejects_before_recording(self):
        op = Scuba(make_config())
        op.on_update(obj(1, 500, 500))
        before = state_digest(op)
        op.on_update(obj(2, math.nan, 500))
        op.on_update(obj(1, 500, math.inf, t=1.0))
        assert state_digest(op) == before
        assert op.rejected_nonfinite == 2
        assert op.clusterer.processed == 1

    def test_finite_overflowing_sum_rejects_nothing(self):
        op = Scuba(make_config())
        op.ingest_batch(tick(0.0, obj(1, 1e308, 0.0), obj(2, 1e308, 0.0)))
        assert op.rejected_nonfinite == 0
        assert op.clusterer.processed == 2
