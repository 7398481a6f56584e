"""Columnar-first storage: equivalence and mechanics.

The load-bearing guarantee of ``ScubaConfig(columnar=True)`` is that the
array-backed resting representation is invisible in the results: every
interval's match multiset — and the full cluster state (memberships,
member fields, centroids, version counters) — is bit-identical to the
object-based path, for any composition of shedding, splitting,
incremental replay and sharded execution, under both the
numpy backend and the stdlib-``array`` scalar fallback.  The mechanics
tested alongside: member-position reconstruction across
``flush_transform``, slot reuse after eviction, store compaction,
copy-on-grow under exported views, the columnar attribute tables, stale
eviction, and pickling.
"""

import math
import pickle
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnarEntityAttributeTable,
    ColumnarMovingCluster,
    MaintenanceEngine,
    MemberColumnStore,
    columnar_numpy_available,
)
from repro.core import Scuba, ScubaConfig
from repro.core.tables import EntityAttributeTable
from repro.generator import (
    EntityKind,
    GeneratorConfig,
    LocationUpdate,
    NetworkBasedGenerator,
    QueryUpdate,
)
from repro.geometry import Point
from repro.network import grid_city
from repro.parallel import ScubaShardFactory, ShardedEngine
from repro.shedding import policy_for_eta
from repro.streams import CollectingSink, EngineConfig, StreamEngine

QUERY_RANGE = (120.0, 120.0)


def obj_update(oid, x, y, t=0.0, speed=0.0, cn=1, cn_loc=Point(1000, 0)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry_update(qid, x, y, t=0.0, speed=0.0, cn=1, cn_loc=Point(1000, 0)):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, 50.0, 50.0)


def make_generator(city, seed, update_fraction=1.0, stopped_fraction=0.0):
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


def make_config(columnar, backend="auto", incremental=False, eta=0.0,
                split=False, stale_after=None):
    return ScubaConfig(
        delta=2.0,
        incremental=incremental,
        shedding=policy_for_eta(eta, 100.0),
        kernel_backend="auto",
        split_at_destination=split,
        columnar=columnar,
        columnar_backend=backend,
        stale_after=stale_after,
    )


def serial_run(city, config, seed, intervals=4, **gen_kwargs):
    sink = CollectingSink()
    operator = Scuba(config)
    StreamEngine(
        make_generator(city, seed, **gen_kwargs),
        operator,
        sink,
        EngineConfig(delta=2.0),
    ).run(intervals)
    return sink, operator


def interval_multisets(sink):
    return {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in sink.by_interval.items()
    }


def full_state(op):
    """Everything the columnar path could possibly disturb, exact."""
    clusters = {}
    for c in op.world.storage.clusters():
        members = tuple(
            (bit, eid, m.abs_x, m.abs_y, m.tr_x, m.tr_y, m.speed,
             m.last_t, m.cn_node, m.cn_x, m.cn_y, m.half_diag,
             m.range_width if bit == 0 else None, m.position_shed)
            for bit, table in ((1, c.objects), (0, c.queries))
            for eid, m in sorted(table.items())
        )
        clusters[c.cid] = (
            c.cx, c.cy, c.radius, c.avespeed, c.cn_node, c.trans_x,
            c.trans_y, c.version, c.struct_version, c.shed_count, members,
        )
    return clusters, dict(op.world.home.key_map())


def member_order(cluster):
    """Member iteration order — must match the dict path's insertion order."""
    return [m.entity_id for m in cluster.members()]


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=9, cols=9)


ROW = dict(abs_x=1.0, abs_y=2.0, tr_x=0.0, tr_y=0.0, speed=3.0,
           range_w=0.0, range_h=0.0, half_diag=0.0, last_t=0.0,
           cn_node=1, cn_x=9.0, cn_y=9.0)


class TestMemberColumnStore:
    def test_insert_and_proxy_roundtrip(self):
        store = MemberColumnStore(EntityKind.OBJECT)
        store.insert(7, **ROW)
        m = store.proxy(7)
        assert (m.abs_x, m.abs_y, m.speed) == (1.0, 2.0, 3.0)
        assert isinstance(m.abs_x, float) and not m.position_shed
        m.abs_x = 5.5
        assert store.abs_x[0] == 5.5

    def test_slot_reuse_after_eviction(self):
        store = MemberColumnStore(EntityKind.OBJECT)
        for eid in (1, 2, 3):
            store.insert(eid, **ROW)
        store.discard(2)
        assert not store.ordered and store.free == [1]
        store.insert(4, **{**ROW, "abs_x": 44.0})
        # Reused the freed middle slot; no column growth.
        assert store.capacity == 3
        assert store.index[4] == 1
        assert store.proxy(4).abs_x == 44.0

    def test_tail_removal_keeps_ordered(self):
        store = MemberColumnStore(EntityKind.OBJECT)
        for eid in (1, 2, 3):
            store.insert(eid, **ROW)
        store.discard(3)  # last slot: still 0..n-1
        assert store.ordered
        store.insert(4, **ROW)  # reuses slot 2 == len(index): stays ordered
        assert store.ordered and store.index[4] == 2

    def test_compaction_restores_order_preserving_values(self):
        store = MemberColumnStore(EntityKind.OBJECT)
        for eid in range(6):
            store.insert(eid, **{**ROW, "abs_x": float(eid)})
        for eid in (0, 2, 4):
            store.discard(eid)
        proxy = store.proxy(3)
        before = [(eid, store.proxy(eid).abs_x) for eid in store.index]
        assert store.compact() is True
        assert store.ordered and not store.free and store.capacity == 3
        assert [(eid, store.proxy(eid).abs_x) for eid in store.index] == before
        # Proxies resolve slots per access: the pre-compaction proxy
        # still reads the right row.
        assert proxy.abs_x == 3.0
        assert store.compact() is False  # already tight

    def test_detach_returns_faithful_snapshot(self):
        store = MemberColumnStore(EntityKind.QUERY)
        store.insert(9, **{**ROW, "range_w": 10.0, "range_h": 20.0,
                           "half_diag": 11.18, "shed": True})
        member = store.detach(9)
        assert 9 not in store.index
        assert member.range_width == 10.0 and member.range_height == 20.0
        assert member.half_diag == 11.18  # copied verbatim, not recomputed
        assert member.position_shed is True
        assert store.shed_count == 0

    @pytest.mark.skipif(not columnar_numpy_available(), reason="needs numpy")
    def test_copy_on_grow_under_exported_view(self):
        import numpy as np

        store = MemberColumnStore(EntityKind.OBJECT)
        store.insert(1, **ROW)
        view = np.frombuffer(store.abs_x, dtype=np.float64)
        store.insert(2, **{**ROW, "abs_x": 2.0})  # append hits BufferError
        assert view.tolist() == [1.0]  # frozen buffer untouched
        assert store.abs_x.tolist() == [1.0, 2.0]  # fresh column grew

    def test_pickle_drops_proxies(self):
        store = MemberColumnStore(EntityKind.OBJECT)
        store.insert(1, **ROW)
        store.proxy(1)
        clone = pickle.loads(pickle.dumps(store))
        assert clone._proxies == {}
        assert clone.proxy(1).abs_x == 1.0
        assert clone.index == store.index


class TestColumnarTables:
    def test_matches_dict_table_semantics(self):
        ref = EntityAttributeTable()
        col = ColumnarEntityAttributeTable()
        for table in (ref, col):
            table.record(1, {"a": 1}, t=1.0)
            table.record(2, None, t=2.0)
            table.record(3, {"b": 2}, t=3.0)
            table.record(1, None, t=4.0)  # refresh last_seen only
        for eid in (1, 2, 3):
            assert col.last_seen(eid) == ref.last_seen(eid)
            assert col.attrs(eid) == ref.attrs(eid)
        assert col.evict(2) is ref.evict(2) is True
        assert col.evict(99) is ref.evict(99) is False
        assert col.last_seen(2) is None
        assert len(col) == len(ref) == 2

    @pytest.mark.parametrize("backend", ["auto", "array"])
    def test_evict_stale_one_comparison(self, backend):
        ref = EntityAttributeTable()
        col = ColumnarEntityAttributeTable(backend)
        for table in (ref, col):
            for eid in range(40):
                table.record(eid, None, t=float(eid))
        assert col.evict_stale(20.0) == ref.evict_stale(20.0) == 20
        assert sorted(dict(col)) == sorted(dict(ref))
        assert col.evict_stale(20.0) == 0  # freed slots sit at +inf
        # Reuse a freed slot, then age it out again.
        col.record(5, None, t=15.0)
        assert col.last_seen(5) == 15.0
        assert col.evict_stale(16.0) == 1

    def test_base_evict_stale_early_exit_and_rebuild(self):
        table = EntityAttributeTable()
        for eid in range(10):
            table.record(eid, {"v": eid}, t=float(eid))
        assert table.evict_stale(0.0) == 0  # nothing stale: allocation-free
        assert table.evict_stale(5.0) == 5
        assert sorted(eid for eid, _ in table) == [5, 6, 7, 8, 9]
        assert table.attrs(7) == {"v": 7}
        assert table.last_seen(3) is None


class TestColumnarCluster:
    def _build(self, backend="auto"):
        op = Scuba(make_config(columnar=True, backend=backend))
        ref = Scuba(make_config(columnar=False))
        updates = [
            obj_update(1, 500.0, 500.0, speed=5.0),
            obj_update(2, 505.0, 500.0, speed=5.0),
            qry_update(1, 502.0, 501.0, speed=5.0),
        ]
        for u in updates:
            op.on_update(u)
            ref.on_update(u)
        return op, ref

    @pytest.mark.parametrize("backend", ["auto", "array"])
    def test_flush_reconstruction_bit_identity(self, backend):
        op, ref = self._build(backend)
        for o in (op, ref):
            [c] = o.world.storage.clusters()
            assert isinstance(c, ColumnarMovingCluster) is (o is op)
            c.advance_to(3.7)
            recon = [(m.entity_id, m.abs_x + (c.trans_x - m.tr_x),
                      m.abs_y + (c.trans_y - m.tr_y)) for m in c.members()]
            c.flush_transform()
            flushed = [(m.entity_id, m.abs_x, m.abs_y) for m in c.members()]
            assert flushed == recon  # flush IS the reconstruction
            assert c.trans_x == 0.0 and c.trans_y == 0.0
        assert full_state(op) == full_state(ref)

    def test_iteration_order_matches_dict_path(self, city):
        _, op = serial_run(city, make_config(columnar=True), seed=3)
        _, ref = serial_run(city, make_config(columnar=False), seed=3)
        for c_col, c_ref in zip(op.world.storage.clusters(),
                                ref.world.storage.clusters()):
            assert member_order(c_col) == member_order(c_ref)

    def test_maintenance_sweeps_bit_identical(self, backend_pair=("auto", "array")):
        op_a, ref = self._build(backend_pair[0])
        op_b, _ = self._build(backend_pair[1])
        for o in (op_a, op_b, ref):
            [c] = o.world.storage.clusters()
            c.advance_to(2.0)
            c.flush_transform()
            c.recentre()
            c.recompute_radius()
        assert full_state(op_a) == full_state(ref) == full_state(op_b)

    def test_unordered_store_sweep_matches_scalar(self):
        # The fused sweep must not require compaction: an unordered store
        # (mid-store removal + slot reuse) is swept through a gather of
        # the live slots in insertion order, bit-identical to the scalar
        # flush/recentre/radius trio.
        if not columnar_numpy_available():
            pytest.skip("numpy not installed")
        from repro.columnar.backend import columnar_numpy

        np = columnar_numpy("numpy")

        def build():
            op = Scuba(make_config(columnar=True, backend="numpy"))
            for i in range(1, 25):
                op.on_update(
                    obj_update(i, 500.0 + i * 0.5, 500.0 + i % 5, speed=4.0)
                )
            op.on_update(qry_update(1, 505.0, 501.0, speed=4.0))
            [c] = op.world.storage.clusters()
            c.discard(7, EntityKind.OBJECT)
            op.on_update(obj_update(40, 506.0, 502.0, t=0.5, speed=4.0))
            return op

        op_vec, op_scalar = build(), build()
        for op, vector in ((op_vec, True), (op_scalar, False)):
            [c] = op.world.storage.clusters()
            assert not c.obj_store.ordered
            c.advance_to(2.0)
            if vector:
                c.maintenance_sweep(np)
            else:
                c.flush_transform()
                c.recentre()
                c.recompute_radius()
        assert full_state(op_vec) == full_state(op_scalar)


class TestMaintenanceEngine:
    def test_expiry_classification_matches_scalar(self, city):
        # Drive a real world for a few intervals, then compare the
        # vectorized verdicts against the exact per-cluster predicates.
        _, op = serial_run(city, make_config(columnar=True), seed=9)
        engine = op.maintenance_engine
        clusters = list(op.world.storage)
        assert len(clusters) >= 2
        now = 8.0 + op.config.delta
        expected = [
            c.has_expired(now) or c.will_pass_destination(op.config.delta)
            for c in clusters
        ]
        import repro.columnar.engine as eng_mod

        np = eng_mod.columnar_numpy("auto")
        assert engine._classify_expired(clusters, now, op.config.delta, np) == expected
        assert engine._classify_expired(clusters, now, op.config.delta, None) == expected

    def test_engine_is_picklable_with_counters(self):
        engine = MaintenanceEngine("auto")
        engine.compactions = 3
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.backend_name == "auto" and clone.compactions == 3


class TestStaleEviction:
    def test_counter_and_parity(self, city):
        kwargs = dict(seed=3, intervals=3, update_fraction=0.3)
        _, ref = serial_run(
            city, make_config(columnar=False, stale_after=2.0), **kwargs
        )
        _, op = serial_run(
            city, make_config(columnar=True, stale_after=2.0), **kwargs
        )
        assert op.evicted_stale == ref.evicted_stale > 0
        assert len(op.objects_table) == len(ref.objects_table)
        assert op.join_counters()["evicted_stale"] == op.evicted_stale


class TestEquivalence:
    """Columnar vs object path: identical answers AND identical state."""

    @pytest.mark.parametrize("stopped", [0.0, 0.5, 1.0])
    def test_serial_answers_and_state(self, city, stopped):
        seed = 11
        ref_sink, ref_op = serial_run(
            city, make_config(columnar=False), seed, stopped_fraction=stopped
        )
        sink, op = serial_run(
            city, make_config(columnar=True), seed, stopped_fraction=stopped
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)

    def test_array_fallback_matches(self, city):
        ref_sink, ref_op = serial_run(city, make_config(columnar=False), 7)
        sink, op = serial_run(
            city, make_config(columnar=True, backend="array"), 7
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)

    def test_composes_with_everything(self, city):
        cfg = dict(incremental=True, eta=0.3, split=True)
        ref_sink, ref_op = serial_run(
            city, make_config(columnar=False, **cfg), 5, stopped_fraction=0.5
        )
        sink, op = serial_run(
            city, make_config(columnar=True, **cfg), 5, stopped_fraction=0.5
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_columnar_matches_serial_object(self, city, shards):
        seed = 7
        reference, _ = serial_run(
            city, make_config(columnar=False), seed, stopped_fraction=0.5
        )
        sink = CollectingSink()
        factory = ScubaShardFactory(
            make_config(columnar=True), max_query_extent=QUERY_RANGE
        )
        with ShardedEngine(
            make_generator(city, seed, stopped_fraction=0.5),
            factory,
            shards=shards,
            sink=sink,
            config=EngineConfig(delta=2.0),
        ) as engine:
            engine.run(4)
            counters = engine.stats.counters
        assert interval_multisets(sink) == interval_multisets(reference)
        assert counters["columnar"] is True

    def test_pickle_roundtrip_preserves_state(self, city):
        _, op = serial_run(city, make_config(columnar=True), seed=5)
        clone = pickle.loads(pickle.dumps(op))
        assert full_state(clone) == full_state(op)
        assert clone.maintenance_engine is not None

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        stopped=st.sampled_from([0.0, 0.5, 1.0]),
        eta=st.sampled_from([0.0, 0.3]),
        incremental=st.booleans(),
    )
    def test_randomized_sweep(self, seed, stopped, eta, incremental):
        city = grid_city(rows=9, cols=9)
        ref_sink, ref_op = serial_run(
            city,
            make_config(columnar=False, incremental=incremental, eta=eta),
            seed, intervals=3, stopped_fraction=stopped,
        )
        sink, op = serial_run(
            city,
            make_config(columnar=True, incremental=incremental, eta=eta),
            seed, intervals=3, stopped_fraction=stopped,
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)
