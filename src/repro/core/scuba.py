"""The SCUBA continuous operator (paper §4.2, Algorithm 1).

Execution cycles through three phases:

1. **Cluster pre-join maintenance** — runs continuously between
   evaluations: every incoming location update is clustered incrementally
   (:meth:`Scuba.on_update`), and the configured load-shedding policy may
   immediately discard the member's relative position.
2. **Cluster-based joining** — fires every Δ time units
   (:meth:`Scuba.join_phase`): a sweep over the occupied ClusterGrid cells
   joins co-located cluster pairs with the lossless join-between filter,
   descending into join-within only for surviving pairs; mixed clusters
   additionally self-join.
3. **Cluster post-join maintenance** — :meth:`Scuba.post_join_phase`:
   clusters that have reached (or will pass) their destination connection
   node are dissolved, survivors are advanced along their velocity vectors
   to their expected position at the next evaluation and re-registered in
   the grid.

Between joining and post-join maintenance sits the **shed** boundary
(:meth:`Scuba.shed_phase`): with ``ScubaConfig.adaptive_shedding`` the
§5 feedback controller observes memory pressure there and walks η along
its ladder.  The phases run either individually under the staged
:class:`~repro.pipeline.EvaluationPipeline` or back-to-back through the
inherited :meth:`evaluate` facade (used by off-process shard workers).

Instrumentation counters (`between_tests`, `within_tests`, ...) are part of
the public surface: the paper's figures report exactly these costs.

Evaluation is **incremental across Δ-cycles**: join views and join-between
verdicts are cached keyed on cluster version counters (see
:class:`~repro.core.joins.ClusterJoinView`), so clusters that did not
change between evaluations are snapshotted and pre-filtered exactly once.
The caches are pure memoisation — logical test counters and emitted
matches are identical with and without them.

With ``ScubaConfig(incremental=True)`` the sweep additionally **replays**
memoized join-within answers instead of re-running the kernels.  The key
observation (shared with MOIST's co-moving "schools"): between two
evaluations most clusters either translate rigidly or do not move at all,
so their member geometry — and therefore their match set against any
partner with the same displacement — is unchanged.  ``MovingCluster``
separates *structural* change (membership churn, shed transitions, split
hand-offs; tracked by ``struct_version``) from *rigid translation*
(tracked by the cumulative displacement ``disp_x``/``disp_y``); a
pair-level memo records the between verdict, the logical within-test
count and the matched ``(qid, oid)`` pairs, and is replayed with
re-stamped timestamps whenever both clusters are structurally clean,
shed-free and their displacement deltas since the memo cancel exactly.
Cells untouched by any dirty cluster replay their whole pair list
wholesale via the grid's dirty-cell set.  Replay is answer-preserving
(multiset-equal to full recompute): structurally-clean stationary
clusters present bitwise-identical member positions to the kernels, and
the memoized matches came from a real kernel run over those positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import hypot, isfinite
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..clustering import (
    ClusteringSpec,
    ClusterWorld,
    IncrementalClusterer,
    MovingCluster,
    split_cluster,
)
from ..generator import EntityKind, LocationUpdate, QueryUpdate, TickBatch, Update
from ..geometry import Point, Rect
from ..kernels import BACKEND_CHOICES, resolve_backend
from ..network import DEFAULT_BOUNDS
from ..shedding import AdaptiveShedder, NoShedding, SheddingPolicy
from ..streams import MatchList, QueryMatch, StagedJoinOperator
from .joins import ClusterJoinView, join_between, join_within_pair, join_within_self
from .pairsweep import BatchJoinState, resolve_sweep_numpy
from .tables import ObjectsTable, QueriesTable

__all__ = ["ScubaConfig", "Scuba"]


@dataclass
class ScubaConfig:
    """Tuning knobs of the SCUBA operator.

    Defaults reproduce the paper's experimental settings (§6.1): a 100×100
    ClusterGrid, ``Θ_D = 100`` spatial units, ``Θ_S = 10`` units/time-unit,
    Δ = 2 time units, no load shedding.
    """

    bounds: Rect = field(default_factory=lambda: DEFAULT_BOUNDS)
    grid_size: int = 100
    theta_d: float = 100.0
    theta_s: float = 10.0
    #: Δ — the evaluation period, used by post-join maintenance to advance
    #: clusters to their expected next-evaluation position.
    delta: float = 2.0
    #: Load-shedding policy (η knob of §5/Fig. 13).  Under adaptive
    #: shedding this is the *live* policy, re-pointed by the controller at
    #: every shed phase.
    shedding: SheddingPolicy = field(default_factory=NoShedding)
    #: Enable the §5 feedback loop: an
    #: :class:`~repro.shedding.AdaptiveShedder` observes retained member
    #: positions at the shed stage of every interval and walks η up or
    #: down ``shed_ladder`` against ``shed_budget``.
    adaptive_shedding: bool = False
    #: Retained-position budget the adaptive controller defends.
    shed_budget: int = 10_000
    #: Escalation ladder for η; ``None`` uses the controller's default
    #: ``(0.0, 0.25, 0.5, 0.75, 1.0)``.
    shed_ladder: Optional[Sequence[float]] = None
    #: Require identical destination connection node for cluster admission.
    #: Disabled only by the direction-predicate ablation.
    require_same_destination: bool = True
    #: Tighten cluster radii during post-join maintenance.  The paper's
    #: pseudocode only ever grows radii; recomputation keeps long-lived
    #: clusters compact.  Disabled by the deterioration ablation.
    recompute_radius: bool = True
    #: Dissolve clusters at their destination (paper behaviour).  Disabled
    #: by the deterioration ablation.
    expire_clusters: bool = True
    #: Apply the join-between pre-filter.  Disabled by the two-step-join
    #: ablation, which joins-within every co-located cluster pair.
    use_between_filter: bool = True
    #: Split clusters at their destination node instead of dissolving them
    #: outright — the paper's §3.1 future-work option.  Members that have
    #: already reported their next destination are regrouped into
    #: successor clusters without re-clustering churn.
    split_at_destination: bool = False
    #: Join-kernel backend: ``"auto"`` picks NumPy when installed (the
    #: ``perf`` extra) and the batched pure-Python backend otherwise;
    #: ``"scalar"`` is the seed-faithful reference path.
    kernel_backend: str = "auto"
    #: Delta-driven incremental sweep: memoize per-pair and per-cluster
    #: join-within answers and replay them (with re-stamped timestamps)
    #: for structurally-clean, relatively-unmoved cluster pairs instead of
    #: re-running the kernels; clean grid cells replay their pair lists
    #: wholesale.  Answers stay multiset-identical to the full recompute.
    incremental: bool = False
    #: Macro-batched join sweep: enumerate this tick's candidate cluster
    #: pairs from the whole grid at once (packed-key dedup), run one
    #: batched join-between over all of them, and evaluate shed-free
    #: surviving pairs as fused exact×exact segments (DESIGN.md §15).
    #: ``None`` (default) turns it on whenever the incremental sweep is
    #: not active — vectorized under the NumPy kernel backend, stdlib
    #: batch fallback otherwise; ``False`` forces the per-pair driver.
    #: Answers and counters stay identical to the per-pair sweep.
    batched_join: Optional[bool] = None
    #: Columnar-first storage: cluster members and table last-seen stamps
    #: rest in parallel arrays (:mod:`repro.columnar`) and post-join
    #: maintenance runs as whole-world vectorized sweeps.  Cluster state
    #: and answers stay bit-identical to the object path (DESIGN.md §12).
    columnar: bool = False
    #: Columnar sweep backend: ``"auto"`` uses NumPy when installed,
    #: ``"array"`` forces the exact stdlib scalar fallback.
    columnar_backend: str = "auto"
    #: Evict table rows for entities silent for longer than this many time
    #: units, checked once per post-join maintenance pass.  ``None``
    #: (default) keeps rows forever (seed behaviour).
    stale_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.adaptive_shedding and self.shed_budget < 1:
            raise ValueError(
                f"shed_budget must be >= 1, got {self.shed_budget}"
            )
        if self.kernel_backend not in BACKEND_CHOICES:
            raise ValueError(
                f"kernel_backend must be one of {BACKEND_CHOICES}, "
                f"got {self.kernel_backend!r}"
            )
        if self.columnar_backend not in ("auto", "numpy", "array"):
            raise ValueError(
                "columnar_backend must be one of ('auto', 'numpy', 'array'), "
                f"got {self.columnar_backend!r}"
            )
        if self.stale_after is not None and self.stale_after <= 0:
            raise ValueError(
                f"stale_after must be positive, got {self.stale_after}"
            )
        if self.batched_join and self.incremental:
            raise ValueError(
                "batched_join and incremental are mutually exclusive sweep "
                "drivers (leave batched_join unset to let incremental win)"
            )

    @property
    def batched_join_active(self) -> bool:
        """Whether the macro-batched sweep drives the joining phase."""
        return self.batched_join is not False and not self.incremental

    def clustering_spec(self) -> ClusteringSpec:
        return ClusteringSpec(
            theta_d=self.theta_d,
            theta_s=self.theta_s,
            require_same_destination=self.require_same_destination,
            enable_splitting=self.split_at_destination,
        )


class Scuba(StagedJoinOperator):
    """Shared cluster-based execution of continuous spatio-temporal queries."""

    def __init__(self, config: Optional[ScubaConfig] = None) -> None:
        self.config = config if config is not None else ScubaConfig()
        self._init_state()

    def _init_state(self) -> None:
        """(Re)build all mutable state from ``self.config``.

        Shared by :meth:`__init__` and :meth:`reset` so resetting cannot
        drift from construction (the seed re-called ``__init__``, which
        breaks under subclassing and re-validates config needlessly).
        """
        if self.config.columnar:
            # Imported lazily: repro.columnar depends on repro.clustering /
            # repro.core, so a module-level import would be circular.
            from ..columnar import (
                ColumnarClusterFactory,
                ColumnarObjectsTable,
                ColumnarQueriesTable,
                MaintenanceEngine,
            )

            backend = self.config.columnar_backend
            self.world = ClusterWorld(
                self.config.bounds,
                self.config.grid_size,
                cluster_factory=ColumnarClusterFactory(backend),
            )
            self.objects_table = ColumnarObjectsTable(backend)
            self.queries_table = ColumnarQueriesTable(backend)
            self.maintenance_engine: Optional[Any] = MaintenanceEngine(backend)
        else:
            self.world = ClusterWorld(self.config.bounds, self.config.grid_size)
            self.objects_table = ObjectsTable()
            self.queries_table = QueriesTable()
            self.maintenance_engine = None
        self.clusterer = IncrementalClusterer(
            self.world, self.config.clustering_spec()
        )
        #: Table rows dropped by ``stale_after`` garbage collection.
        self.evicted_stale = 0
        self._shed_is_noop = isinstance(self.config.shedding, NoShedding)
        # Sticky never-shed marker: flips the moment a real shedding policy
        # goes live and never flips back — shed members can outlive a later
        # policy switch, so the vectorised batched driver (which assumes
        # exact member columns) keys off the whole run's history, not the
        # current policy.
        self._ever_shed = not self._shed_is_noop
        if self.config.adaptive_shedding:
            ladder = self.config.shed_ladder
            self.shedder: Optional[AdaptiveShedder] = (
                AdaptiveShedder(self.config.theta_d, self.config.shed_budget)
                if ladder is None
                else AdaptiveShedder(
                    self.config.theta_d, self.config.shed_budget, ladder
                )
            )
            # Start from the controller's current rung so config and
            # controller never disagree about the live policy.
            self.set_shedding_policy(self.shedder.policy)
        else:
            self.shedder = None
        self.kernels = resolve_backend(self.config.kernel_backend)
        #: Rows the column walk admitted as stays (no ``Update`` built) vs
        #: rows that took the scalar path; together they equal
        #: ``clusterer.processed``.
        self.ingest_fast_rows = 0
        self.ingest_fallback_rows = 0
        #: Updates rejected at the ingest boundary for a NaN or infinite
        #: coordinate or speed (they leave no trace in any structure).
        self.rejected_nonfinite = 0
        # Cross-evaluation caches, all keyed on cluster version counters
        # (cids are never reused, so a stale cid can only miss or be
        # pruned, never alias).  Dropped on pickling and rebuilt lazily.
        self._view_cache: Dict[int, ClusterJoinView] = {}
        self._between_cache: Dict[Tuple[int, int], Tuple[int, int, bool]] = {}
        # Reused across sweeps to avoid re-growing a large set every Δ.
        self._seen_pairs: Set[Tuple[int, int]] = set()
        # Full between-cache scans only fire once the cache outgrows this
        # watermark (doubled past the live size after every prune), so
        # stable runs skip the per-interval scan entirely.
        self._between_watermark = 64
        # Incremental-sweep state (config.incremental): match memos keyed on
        # structural marks, the previous sweep's marks, and per-cell pair
        # lists for wholesale cell replay.  A mark is the immutable triple
        # ``(struct_version, disp_x, disp_y)``.  All are dropped on
        # pickling; an empty mark table just makes the next sweep a full
        # recompute.
        self._pair_memo: Dict[
            Tuple[int, int],
            Tuple[
                Tuple[int, float, float],
                Tuple[int, float, float],
                bool,
                int,
                Tuple[Tuple[int, int], ...],
            ],
        ] = {}
        self._pair_memo_watermark = 64
        self._self_memo: Dict[int, Tuple[int, int, Tuple[Tuple[int, int], ...]]] = {}
        self._sweep_marks: Dict[int, Tuple[int, float, float]] = {}
        self._cell_pairs: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        # Macro-batched sweep state (config.batched_join): cluster SoA
        # registry, array between-cache, pair templates.  Built lazily on
        # the first batched sweep and dropped on pickling, so shards
        # re-resolve the numpy-vs-stdlib path per process.
        self._batch_state: Optional[BatchJoinState] = None
        if self.config.incremental:
            self.world.grid.enable_dirty_tracking()
        # Phase timings of the most recent evaluate().
        self.last_join_seconds = 0.0
        self.last_maintenance_seconds = 0.0
        # Cumulative instrumentation.
        self.between_tests = 0
        self.between_hits = 0
        self.within_tests = 0
        self.evaluations = 0
        self.view_cache_hits = 0
        self.view_cache_misses = 0
        self.between_cache_hits = 0
        self.between_cache_misses = 0
        # Macro-batched sweep instrumentation: candidate mixed pairs that
        # went through the whole-tick batched between filter, and shed-free
        # join units fused into join_segments kernel calls.
        self.join_pairs_batched = 0
        self.join_segments = 0
        # Incremental-sweep instrumentation: replayed vs freshly-computed
        # join units (self joins + surviving pairs), wholesale-replayed vs
        # fully-enumerated cells, and per-sweep clean vs dirty clusters.
        # The hits/misses naming lets RunStats derive ``*_hit_rate``s.
        self.replay_hits = 0
        self.replay_misses = 0
        self.cell_replay_hits = 0
        self.cell_replay_misses = 0
        self.cluster_clean_hits = 0
        self.cluster_clean_misses = 0

    # -- phase 1: pre-join maintenance ------------------------------------------

    def on_update(self, update: Update) -> None:
        """Cluster one incoming update (and maybe shed its position).

        Validate-then-mutate: an update with a NaN or infinite coordinate
        or speed is counted and dropped before any structure is touched.
        """
        loc = update.loc
        if not (isfinite(loc.x) and isfinite(loc.y) and isfinite(update.speed)):
            self.rejected_nonfinite += 1
            return
        if update.kind is EntityKind.OBJECT:
            self.objects_table.record(update.entity_id, update.attrs, update.t)
        else:
            self.queries_table.record(update.entity_id, update.attrs, update.t)
        self._admit(update)

    def _admit(self, update: Update) -> MovingCluster:
        """The scalar Leader-Follower path for one recorded row (the oracle)."""
        self.ingest_fallback_rows += 1
        cluster = self.clusterer.ingest(update)
        if not self._shed_is_noop:
            dist = hypot(update.loc.x - cluster.cx, update.loc.y - cluster.cy)
            self.config.shedding.apply(cluster, update, dist)
        return cluster

    def ingest_batch(self, updates: Sequence[Update]) -> None:
        """Ingest one tick's updates in arrival order.

        A :class:`TickBatch` is admitted by the column walk
        (:meth:`_walk_columns`) while no shedding policy is live; any other
        sequence, and every row under live shedding, takes the per-row
        :meth:`on_update` loop.
        """
        if isinstance(updates, TickBatch) and self._shed_is_noop:
            self._walk_columns(updates)
            return
        on_update = self.on_update
        for update in updates:
            on_update(update)

    def _walk_columns(self, batch: TickBatch) -> None:
        """Column-walk admission: one in-order pass over a tick's columns.

        Each row is recorded in its table, its home cluster is advanced to
        the tick time (once per tick), and the §3.2 stay predicate of
        :meth:`IncrementalClusterer._qualifies` — same destination,
        singleton rule, distance and speed within the eviction slack — is
        evaluated inline.  A stay commits through
        :meth:`MovingCluster.restamp`, the refresh arithmetic ``absorb``
        itself calls, without building an ``Update``.  Every other row (no
        home, or the predicate fails) is materialized and runs the
        unchanged scalar path (:meth:`_admit`) at its own position, so the
        mutation sequence is the per-row loop's by construction.

        The grid refresh of a stay runs only when the cluster's
        ``(cx, cy, radius, max_query_half_diag)`` differs from its value
        at the cluster's previous refresh in this tick — a repeat refresh
        of an unchanged footprint cannot change its cells.  Scalar rows
        mutate clusters outside that bookkeeping, so they drop the entries
        of the clusters they touch (their home and the cluster they join).
        Rows with a non-finite x, y or speed are rejected up front.
        """
        xs, ys, speeds, cn_xs, cn_ys, _, _ = batch.scalar_columns()
        bad = _nonfinite_rows(xs, ys, speeds)
        if bad:
            self.rejected_nonfinite += len(bad)
            batch = batch.select(i for i in range(len(batch)) if i not in bad)
            xs, ys, speeds, cn_xs, cn_ys, _, _ = batch.scalar_columns()
        t = batch.t
        attrs_list = batch.attrs_list
        home_get = self.world.home.key_map().get
        cluster_of = self.world.storage.get
        grid_refresh = self.world.grid.refresh
        obj_record = self.objects_table.record
        qry_record = self.queries_table.record
        admit = self._admit
        clusterer = self.clusterer
        spec = clusterer.spec
        same_dest = spec.require_same_destination
        max_d = spec.theta_d * spec.eviction_slack
        max_d_sq = max_d * max_d
        max_s = spec.theta_s * spec.eviction_slack
        refreshed: Dict[int, Tuple[float, float, float, float]] = {}
        fast = 0
        try:
            for i, (key, x, y, speed, cn, cn_x, cn_y, attrs) in enumerate(
                zip(
                    batch.keys,
                    xs,
                    ys,
                    speeds,
                    batch.cns,
                    cn_xs,
                    cn_ys,
                    repeat(None) if attrs_list is None else attrs_list,
                )
            ):
                eid = key >> 1
                is_object = key & 1
                if is_object:
                    obj_record(eid, attrs, t)
                else:
                    qry_record(eid, attrs, t)
                cid = home_get(key)
                if cid is not None:
                    cluster = cluster_of(cid)
                    if t > cluster.last_moved:
                        cluster.advance_to(t)
                    if not same_dest or cn == cluster.cn_node:
                        # Within slack of the centroid and the average
                        # speed — or the cluster's only member, which is
                        # its own average and always stays.
                        dx = x - cluster.cx
                        dy = y - cluster.cy
                        if (
                            not (dx * dx + dy * dy > max_d_sq)
                            and abs(speed - cluster.avespeed) <= max_s
                        ) or len(cluster.objects) + len(cluster.queries) == 1:
                            fast += 1
                            if (
                                cluster.restamp(
                                    eid, is_object, x, y, speed, cn, cn_x, cn_y, t
                                )
                                or cid not in refreshed
                            ):
                                state = (
                                    cluster.cx,
                                    cluster.cy,
                                    cluster.radius,
                                    cluster.max_query_half_diag,
                                )
                                if refreshed.get(cid) != state:
                                    grid_refresh(cluster)
                                    refreshed[cid] = state
                            continue
                    refreshed.pop(cid, None)
                refreshed.pop(admit(batch[i]).cid, None)
        finally:
            self.ingest_fast_rows += fast
            clusterer.processed += fast
            clusterer.fast_path_hits += fast

    def retract(self, entity_id: int, kind: EntityKind) -> None:
        """Forget one entity: evict it from its cluster and its table.

        Used by sharded execution when an entity's reported position leaves
        this operator's halo region.  Eviction reuses the clusterer's
        membership pathway, so cluster invariants (home/grid consistency,
        dissolution of emptied clusters) hold exactly as for re-clustering.
        """
        cid = self.world.home.cluster_of(entity_id, kind)
        if cid is not None:
            self.world.evict(self.world.storage.get(cid), entity_id, kind)
        table = (
            self.objects_table if kind is EntityKind.OBJECT else self.queries_table
        )
        table.evict(entity_id)

    def export_entity_updates(self, keys: Sequence[Tuple[int, EntityKind]]) -> Dict[str, Any]:
        """Serialize entity state as replayable updates (shard migration).

        For each ``(entity_id, kind)`` key this shard holds, synthesize the
        update that reconstructs the entity in another shard: best-known
        absolute position (the reported position carried by any rigid
        translation since — bit-identical to what this shard would join
        with), the member's speed/heading, the query window, the table
        attributes, stamped with the member's last report time so table
        bookkeeping (``last_seen``, staleness) transfers unchanged.
        Members whose position was load shed fall back to the cluster
        centroid — the same nucleus approximation their join uses here.

        Reads only the shared member API (``get_member`` /
        ``member_location``), so the object-backed and columnar storage
        paths export identically, without touching columnar slot proxies.
        Entities this shard no longer holds are skipped.  Returns
        ``{"updates": [...], "clusters": N}`` with ``N`` the distinct
        source clusters touched.
        """
        updates: List[Update] = []
        touched: Set[int] = set()
        cluster_of = self.world.home.cluster_of
        storage = self.world.storage
        for entity_id, kind in keys:
            cid = cluster_of(entity_id, kind)
            if cid is None:
                continue
            cluster = storage.get(cid)
            member = cluster.get_member(entity_id, kind)
            if member is None:
                continue
            loc = cluster.member_location(member)
            if loc is None:
                loc = cluster.centroid
            table = (
                self.objects_table
                if kind is EntityKind.OBJECT
                else self.queries_table
            )
            attrs = table.attrs(entity_id) if entity_id in table else None
            cn_loc = Point(member.cn_x, member.cn_y)
            if kind is EntityKind.OBJECT:
                updates.append(
                    LocationUpdate(
                        entity_id,
                        loc,
                        member.last_t,
                        member.speed,
                        member.cn_node,
                        cn_loc,
                        attrs,
                    )
                )
            else:
                updates.append(
                    QueryUpdate(
                        entity_id,
                        loc,
                        member.last_t,
                        member.speed,
                        member.cn_node,
                        cn_loc,
                        member.range_width,
                        member.range_height,
                        attrs,
                    )
                )
            touched.add(cid)
        return {"updates": updates, "clusters": len(touched)}

    # -- phases 2 + 3: joining, shedding control, post-join maintenance -----------

    def join_phase(self, now: float) -> List[QueryMatch]:
        """The Δ-triggered cluster join; returns the current query answers.

        The macro-batched driver answers into a :class:`MatchList` so its
        segmented kernel can splice whole columnar match runs in at their
        canonical positions; the per-pair and incremental drivers keep the
        plain list (their kernels emit row by row either way).
        """
        self.evaluations += 1
        results: List[QueryMatch] = (
            MatchList() if self.config.batched_join_active else []
        )
        self._joining_phase(now, results)
        return results

    def shed_phase(self, now: float) -> None:
        """Adaptive shedding control boundary (§5's feedback reaction).

        With ``adaptive_shedding`` enabled, the controller inspects the
        retained-position count and may step η along its ladder; the
        resulting policy becomes the live one for the next interval's
        pre-join maintenance.  A fixed policy makes this a no-op.
        """
        if self.shedder is not None:
            self.set_shedding_policy(self.shedder.observe(self.world.storage, now))

    def post_join_phase(self, now: float) -> None:
        """Dissolve arrivals, advance survivors, refresh the grid."""
        self._post_join_maintenance(now)

    def set_shedding_policy(self, policy: SheddingPolicy) -> None:
        """Swap the live shedding policy (keeps the no-op fast path honest)."""
        self.config.shedding = policy
        self._shed_is_noop = isinstance(policy, NoShedding)
        if not self._shed_is_noop:
            self._ever_shed = True

    def escalate_shedding(self, now: float) -> bool:
        """External overload signal: force η one rung up the ladder.

        The service front-end calls this when ingest outruns evaluation
        (queue pressure), independent of the retained-position feedback.
        No-op (False) without ``adaptive_shedding``.
        """
        if self.shedder is None or not self.shedder.escalate(now):
            return False
        self.set_shedding_policy(self.shedder.policy)
        return True

    def relax_shedding(self, now: float) -> bool:
        """Release one rung of forced shedding escalation (pressure gone)."""
        if self.shedder is None or not self.shedder.relax(now):
            return False
        self.set_shedding_policy(self.shedder.policy)
        return True

    def _view_of(self, cluster: MovingCluster) -> ClusterJoinView:
        """Cached join view of ``cluster``, rebuilt only when it changed."""
        view = self._view_cache.get(cluster.cid)
        if view is not None and view.version == cluster.version:
            self.view_cache_hits += 1
            return view
        self.view_cache_misses += 1
        view = ClusterJoinView(cluster)
        self._view_cache[cluster.cid] = view
        return view

    def _joining_phase(self, now: float, results: List[QueryMatch]) -> None:
        """Algorithm 1, lines 8-21: the cell sweep."""
        if self.config.incremental:
            self._joining_phase_incremental(now, results)
            return
        if self.config.batched_join is not False:
            self._joining_phase_batched(now, results)
            return
        storage = self.world.storage
        view_of = self._view_of
        backend = self.kernels

        # Self join-within for every mixed cluster (Algorithm 1, line 15).
        for cluster in storage.clusters():
            if cluster.is_mixed:
                self.within_tests += join_within_self(
                    view_of(cluster), now, results, backend
                )

        # Pairwise joins for clusters sharing a grid cell.  A pair may share
        # several cells; the seen-set makes it join exactly once.
        seen_pairs = self._seen_pairs
        seen_pairs.clear()
        between_cache = self._between_cache
        use_filter = self.config.use_between_filter
        grid = self.world.grid
        for cell, members in grid.occupied_cells():
            if len(members) < 2:
                continue
            cids = grid.sorted_members(cell)
            for i, cid_l in enumerate(cids):
                left = storage.get(cid_l)
                for cid_r in cids[i + 1 :]:
                    pair = (cid_l, cid_r)
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    right = storage.get(cid_r)
                    # Join only pairs that can mix types (line 18).
                    if not (
                        (left.objects and right.queries)
                        or (left.queries and right.objects)
                    ):
                        continue
                    if use_filter:
                        # between_tests counts the *logical* filter
                        # applications (the paper's cost metric); the memo
                        # only skips recomputing the geometry for pairs
                        # whose clusters are both unchanged.
                        self.between_tests += 1
                        cached = between_cache.get(pair)
                        if (
                            cached is not None
                            and cached[0] == left.version
                            and cached[1] == right.version
                        ):
                            self.between_cache_hits += 1
                            verdict = cached[2]
                        else:
                            self.between_cache_misses += 1
                            verdict = join_between(left, right)
                            between_cache[pair] = (
                                left.version,
                                right.version,
                                verdict,
                            )
                        if not verdict:
                            continue
                        self.between_hits += 1
                    self.within_tests += join_within_pair(
                        view_of(left), view_of(right), now, results, backend
                    )

    # -- macro-batched sweep (config.batched_join) --------------------------------

    def _joining_phase_batched(self, now: float, results: List[QueryMatch]) -> None:
        """The macro-batched sweep: same visit order, whole-tick batches.

        Observationally identical to :meth:`_joining_phase`'s per-pair
        loop — the candidate pairs, the logical counter increments
        (``between_tests``/``within_tests``/cache hits and misses) and the
        QueryMatch multiset all match — but the work is restructured into
        three whole-tick batch operations: vectorised pair enumeration
        over the grid cells (:class:`BatchJoinState`), one
        ``pairs_between`` kernel call over every uncached candidate pair,
        and fused ``join_segments`` runs over consecutive shed-free
        surviving pairs.  Shed clusters flush the pending segment run and
        take the per-pair path, so emission stays grouped in the canonical
        per-unit order.
        """
        storage = self.world.storage
        backend = self.kernels
        state = self._batch_state
        if state is None:
            state = self._batch_state = BatchJoinState(
                resolve_sweep_numpy(backend.name)
            )
        clusters = storage.clusters()
        state.soa.sync(clusters)

        pending: List[Tuple[ClusterJoinView, ClusterJoinView]] = []
        pending_append = pending.append
        # The view cache probe is inlined (vs _view_of) in both driver
        # loops: at tens of thousands of probes per tick the method-call
        # frame is measurable.  Hit/miss tallies accumulate in locals and
        # fold into the counters once per phase.
        view_cache = self._view_cache
        view_get = view_cache.get
        view_hits = 0
        view_misses = 0

        def flush() -> None:
            if pending:
                self.join_segments += len(pending)
                self.within_tests += backend.join_segments(pending, now, results)
                pending.clear()

        # Self join-within (Algorithm 1, line 15): a shed-free mixed
        # cluster queues an exact×exact segment; shed members force the
        # per-case kernel sequencing, so those clusters flush and run the
        # per-pair path in place.
        for cluster in clusters:
            if not (cluster.objects and cluster.queries):  # is_mixed
                continue
            cid = cluster.cid
            view = view_get(cid)
            if view is not None and view.version == cluster.version:
                view_hits += 1
            else:
                view_misses += 1
                view = ClusterJoinView(cluster)
                view_cache[cid] = view
            if cluster.shed_count:
                flush()
                self.within_tests += join_within_self(view, now, results, backend)
            else:
                # Shed-free and mixed: both member columns are non-empty.
                pending_append((view, view))

        use_filter = self.config.use_between_filter
        (survivor_l, survivor_r), mixed, cache_hits, cache_misses = state.sweep(
            self.world.grid, use_filter, self._between_cache, backend
        )
        self.join_pairs_batched += mixed
        if use_filter:
            self.between_tests += mixed
            self.between_cache_hits += cache_hits
            self.between_cache_misses += cache_misses
            self.between_hits += len(survivor_l)
        get = storage.get
        np_mod = state.np
        if (
            np_mod is not None
            and not self._ever_shed
            and not isinstance(survivor_l, list)
        ):
            # Vectorised segment assembly (numpy sweep, never-shed run).
            # Views resolve once per unique survivor cid; the per-pair
            # driver would probe the cache once per *occurrence*, and
            # every repeat occurrence would hit (the version cannot move
            # mid-phase), so the repeats fold into one synthetic tally.
            n_pairs = int(survivor_l.size)
            uniq = np_mod.unique(np_mod.concatenate((survivor_l, survivor_r)))
            for cid in uniq.tolist():
                cl = get(cid)
                view = view_get(cid)
                if view is not None and view.version == cl.version:
                    view_hits += 1
                else:
                    view_misses += 1
                    view_cache[cid] = ClusterJoinView(cl)
            view_hits += 2 * n_pairs - int(uniq.size)
            # Never-shed makes the registry's member-table truthiness
            # columns exact-column truthiness, so direction validity
            # (objects on one side, queries on the other) is two masked
            # gathers.  Interleaved even/odd slots keep the canonical
            # emission order: per pair L→R then R→L, pairs in first-seen
            # sweep order.
            has_obj, has_qry = state.soa.arrays(np_mod)[5:]
            il = survivor_l - state.soa.base
            ir = survivor_r - state.soa.base
            slot_o = np_mod.empty(2 * n_pairs, dtype=np_mod.int64)
            slot_q = np_mod.empty(2 * n_pairs, dtype=np_mod.int64)
            valid = np_mod.empty(2 * n_pairs, dtype=bool)
            slot_o[0::2] = survivor_l
            slot_q[0::2] = survivor_r
            valid[0::2] = has_obj[il] & has_qry[ir]
            slot_o[1::2] = survivor_r
            slot_q[1::2] = survivor_l
            valid[1::2] = has_obj[ir] & has_qry[il]
            o_cids = slot_o[valid]
            q_cids = slot_q[valid]
            # Never-shed also means the self loop above never flushed:
            # ``pending`` holds exactly the self segments, in cluster
            # order, ahead of the pair segments — the canonical per-unit
            # order.  All referenced views are fresh in the cache (self
            # loop + uniq loop), so the segment table indexes it directly.
            nseg = len(pending) + int(o_cids.size)
            if nseg:
                scids = np_mod.asarray(
                    [seg[0].cid for seg in pending], dtype=np_mod.int64
                )
                all_cids = np_mod.unique(np_mod.concatenate((scids, uniq)))
                view_table = [view_cache[cid] for cid in all_cids.tolist()]
                self_pos = np_mod.searchsorted(all_cids, scids)
                o_pos = np_mod.concatenate(
                    (self_pos, np_mod.searchsorted(all_cids, o_cids))
                )
                q_pos = np_mod.concatenate(
                    (self_pos, np_mod.searchsorted(all_cids, q_cids))
                )
                pending.clear()
                self.join_segments += nseg
                self.within_tests += backend.join_segments_indexed(
                    view_table, o_pos, q_pos, now, results
                )
            self.view_cache_hits += view_hits
            self.view_cache_misses += view_misses
            return
        # Per-tick cid resolution: a survivor cluster recurs across many
        # pairs, so the (view, shed, column-presence) lookup resolves once
        # per cid and later occurrences are one dict probe.  A repeat
        # occurrence tallies a view-cache hit — after the first probe the
        # view is cached and the version cannot move mid-phase, so the
        # per-pair driver's per-occurrence probe would hit too.
        resolved: Dict[int, Tuple[ClusterJoinView, bool, bool, bool]] = {}
        res_get = resolved.get
        for cid_l, cid_r in zip(survivor_l, survivor_r):
            info = res_get(cid_l)
            if info is None:
                cl = get(cid_l)
                left = view_get(cid_l)
                if left is not None and left.version == cl.version:
                    view_hits += 1
                else:
                    view_misses += 1
                    left = ClusterJoinView(cl)
                    view_cache[cid_l] = left
                info = resolved[cid_l] = (
                    left,
                    bool(cl.shed_count),
                    bool(left.obj_ids),
                    bool(left.query_ids),
                )
            else:
                view_hits += 1
            left, shed_l, obj_l, qry_l = info
            info = res_get(cid_r)
            if info is None:
                cr = get(cid_r)
                right = view_get(cid_r)
                if right is not None and right.version == cr.version:
                    view_hits += 1
                else:
                    view_misses += 1
                    right = ClusterJoinView(cr)
                    view_cache[cid_r] = right
                info = resolved[cid_r] = (
                    right,
                    bool(cr.shed_count),
                    bool(right.obj_ids),
                    bool(right.query_ids),
                )
            else:
                view_hits += 1
            right, shed_r, obj_r, qry_r = info
            if shed_l or shed_r:
                flush()
                self.within_tests += join_within_pair(
                    left, right, now, results, backend
                )
            else:
                if obj_l and qry_r:
                    pending_append((left, right))
                if obj_r and qry_l:
                    pending_append((right, left))
        flush()
        self.view_cache_hits += view_hits
        self.view_cache_misses += view_misses

    # -- incremental sweep (config.incremental) -----------------------------------

    def _refresh_sweep_marks(
        self,
    ) -> Tuple[Dict[int, Tuple[int, float, float]], Set[int]]:
        """Snapshot every cluster's structural mark; classify clean vs dirty.

        A cluster is *clean* when its mark — ``(struct_version, disp_x,
        disp_y)`` — is unchanged since the previous sweep and it has no
        shed members (shed answers depend on nucleus geometry the marks do
        not cover).  Replacing the mark table wholesale also prunes marks
        of dissolved clusters for free.
        """
        prev = self._sweep_marks
        marks: Dict[int, Tuple[int, float, float]] = {}
        clean: Set[int] = set()
        for cluster in self.world.storage:
            cid = cluster.cid
            mark = (cluster.struct_version, cluster.disp_x, cluster.disp_y)
            marks[cid] = mark
            if cluster.shed_count == 0 and prev.get(cid) == mark:
                clean.add(cid)
        self._sweep_marks = marks
        self.cluster_clean_hits += len(clean)
        self.cluster_clean_misses += len(marks) - len(clean)
        return marks, clean

    def _compute_pair_fresh(
        self,
        pair: Tuple[int, int],
        left: MovingCluster,
        right: MovingCluster,
        now: float,
        results: List[QueryMatch],
        marks: Dict[int, Tuple[int, float, float]],
    ) -> None:
        """Compute one pair with the kernels and memoize the answer.

        Mirrors the full sweep's per-pair logic (between filter + cache,
        then join-within), then records the verdict, the logical test count
        and the matched ``(qid, oid)`` pairs under the clusters' current
        structural marks.  Shed clusters are never memoized: their answers
        depend on nucleus geometry the marks do not cover.
        """
        self.replay_misses += 1
        verdict = True
        if self.config.use_between_filter:
            self.between_tests += 1
            between_cache = self._between_cache
            cached = between_cache.get(pair)
            if (
                cached is not None
                and cached[0] == left.version
                and cached[1] == right.version
            ):
                self.between_cache_hits += 1
                verdict = cached[2]
            else:
                self.between_cache_misses += 1
                verdict = join_between(left, right)
                between_cache[pair] = (left.version, right.version, verdict)
            if verdict:
                self.between_hits += 1
        start = len(results)
        tests = 0
        if verdict:
            tests = join_within_pair(
                self._view_of(left), self._view_of(right), now, results, self.kernels
            )
            self.within_tests += tests
        if left.shed_count == 0 and right.shed_count == 0:
            self._pair_memo[pair] = (
                marks[pair[0]],
                marks[pair[1]],
                verdict,
                tests,
                tuple(m.pair for m in results[start:]),
            )
        else:
            self._pair_memo.pop(pair, None)

    def _joining_phase_incremental(
        self, now: float, results: List[QueryMatch]
    ) -> None:
        """The delta-driven sweep: same visit order, replayed answers.

        Self joins and the cell sweep run in exactly the full sweep's
        order, so fresh computations interleave with replays exactly where
        the full recompute would have produced the same matches.  Cells
        whose membership is untouched (grid dirty set) and whose residents
        are all clean replay their memoized pair list wholesale without
        enumerating cluster combinations.

        Pair replay requires both clusters structurally unchanged since
        the memo *and* their displacement deltas to cancel exactly — then
        every member position the kernels would see is bitwise identical
        to the memoized run (memos are never recorded for shed clusters,
        and a shed transition bumps ``struct_version``, so shed geometry
        can never be replayed).  The memoized between verdict stays sound
        even though maintenance may since have recentred or re-tightened
        the clusters: the verdict was lossless with respect to the member
        positions, and those are unchanged.  The replay counters are
        kept in locals through the sweep (hot path) and flushed at the
        end.
        """
        storage = self.world.storage
        marks, clean = self._refresh_sweep_marks()
        self_memo = self._self_memo
        use_filter = self.config.use_between_filter
        replay_hits = 0
        replayed_tests = 0
        replayed_between = 0
        replayed_between_hits = 0

        for cluster in storage.clusters():
            if not cluster.is_mixed:
                continue
            cid = cluster.cid
            memo = self_memo.get(cid)
            if (
                memo is not None
                and memo[0] == cluster.struct_version
                and cluster.shed_count == 0
            ):
                # A cluster co-moves with itself: rigid translation cannot
                # change its self-join answer, so struct-clean suffices.
                replay_hits += 1
                replayed_tests += memo[1]
                if memo[2]:
                    results.extend(
                        [QueryMatch(qid, oid, now) for qid, oid in memo[2]]
                    )
                continue
            self.replay_misses += 1
            start = len(results)
            tests = join_within_self(
                self._view_of(cluster), now, results, self.kernels
            )
            self.within_tests += tests
            if cluster.shed_count == 0:
                self_memo[cid] = (
                    cluster.struct_version,
                    tests,
                    tuple(m.pair for m in results[start:]),
                )
            else:
                self_memo.pop(cid, None)

        seen_pairs = self._seen_pairs
        seen_pairs.clear()
        grid = self.world.grid
        dirty_cells = grid.dirty_cells()
        cell_pairs = self._cell_pairs
        pair_memo = self._pair_memo
        compute_fresh = self._compute_pair_fresh
        clean_superset = clean.issuperset
        for cell, members in grid.occupied_cells():
            if len(members) < 2:
                continue
            cids = grid.sorted_members(cell)
            if cell not in dirty_cells:
                cached = cell_pairs.get(cell)
                if cached is not None and clean_superset(cids):
                    # Membership untouched and every resident clean: the
                    # cached pair list is exactly what enumeration would
                    # find, and every memo on it is valid.
                    self.cell_replay_hits += 1
                    for pair in cached:
                        if pair in seen_pairs:
                            continue
                        seen_pairs.add(pair)
                        memo = pair_memo.get(pair)
                        if memo is not None:
                            lm = marks.get(pair[0])
                            rm = marks.get(pair[1])
                            ml = memo[0]
                            mr = memo[1]
                            if (
                                lm is not None
                                and rm is not None
                                and lm[0] == ml[0]
                                and rm[0] == mr[0]
                                and lm[1] - ml[1] == rm[1] - mr[1]
                                and lm[2] - ml[2] == rm[2] - mr[2]
                            ):
                                replay_hits += 1
                                replayed_tests += memo[3]
                                if use_filter:
                                    replayed_between += 1
                                    if memo[2]:
                                        replayed_between_hits += 1
                                if memo[4]:
                                    results.extend(
                                        [
                                            QueryMatch(qid, oid, now)
                                            for qid, oid in memo[4]
                                        ]
                                    )
                                continue
                        compute_fresh(
                            pair,
                            storage.get(pair[0]),
                            storage.get(pair[1]),
                            now,
                            results,
                            marks,
                        )
                    continue
            self.cell_replay_misses += 1
            # Full enumeration; rebuild this cell's mixed-pair list.  Pairs
            # already handled in an earlier cell are *not* listed here —
            # the sweep's deterministic cell order makes the earlier cell
            # replay them first next time too.
            mixed_pairs: List[Tuple[int, int]] = []
            for i, cid_l in enumerate(cids):
                left = storage.get(cid_l)
                for cid_r in cids[i + 1 :]:
                    pair = (cid_l, cid_r)
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    right = storage.get(cid_r)
                    if not (
                        (left.objects and right.queries)
                        or (left.queries and right.objects)
                    ):
                        continue
                    mixed_pairs.append(pair)
                    memo = pair_memo.get(pair)
                    if memo is not None:
                        lm = marks.get(cid_l)
                        rm = marks.get(cid_r)
                        ml = memo[0]
                        mr = memo[1]
                        if (
                            lm is not None
                            and rm is not None
                            and lm[0] == ml[0]
                            and rm[0] == mr[0]
                            and lm[1] - ml[1] == rm[1] - mr[1]
                            and lm[2] - ml[2] == rm[2] - mr[2]
                        ):
                            replay_hits += 1
                            replayed_tests += memo[3]
                            if use_filter:
                                replayed_between += 1
                                if memo[2]:
                                    replayed_between_hits += 1
                            if memo[4]:
                                results.extend(
                                    [
                                        QueryMatch(qid, oid, now)
                                        for qid, oid in memo[4]
                                    ]
                                )
                            continue
                    compute_fresh(pair, left, right, now, results, marks)
            cell_pairs[cell] = tuple(mixed_pairs)
        grid.clear_dirty()
        self.replay_hits += replay_hits
        self.within_tests += replayed_tests
        self.between_tests += replayed_between
        self.between_hits += replayed_between_hits

    def _post_join_maintenance(self, now: float) -> None:
        """Dissolve arrivals, advance survivors, refresh the grid."""
        cfg = self.config
        if cfg.stale_after is not None:
            cutoff = now - cfg.stale_after
            self.evicted_stale += self.objects_table.evict_stale(cutoff)
            self.evicted_stale += self.queries_table.evict_stale(cutoff)
        engine = self.maintenance_engine
        if engine is not None:
            # Columnar path: same per-cluster semantics, restructured into
            # whole-world vectorized passes (see repro.columnar.engine).
            engine.run(self, now)
            return
        for cluster in list(self.world.storage):
            if cfg.expire_clusters and (
                cluster.has_expired(now) or cluster.will_pass_destination(cfg.delta)
            ):
                if cfg.split_at_destination:
                    # Regroup any members whose reported next destination
                    # already diverged (stragglers under partial update
                    # fractions); the common case — members peeling off one
                    # by one as they cross — is handled at eviction time by
                    # the clusterer's successor links.
                    split_cluster(self.world, cluster, now)
                else:
                    self.world.dissolve(cluster)
                continue
            # Clusters untouched since their last update (shed members,
            # partial update fractions) still move by their velocity.
            cluster.advance_to(now)
            if cfg.recompute_radius:
                # Per-interval compaction: bake the transformation vector,
                # re-centre on the true member mean (per-tuple refreshes do
                # not touch the centroid), and tighten the radius.
                cluster.flush_transform()
                cluster.recentre()
                cluster.recompute_radius()
            cluster.update_expiry(now)
            self.world.grid.refresh(cluster)
        self._prune_caches()

    def _prune_caches(self) -> None:
        """Drop cache entries for clusters that no longer exist.

        cids are allocated monotonically and never reused, so dead entries
        can never produce stale hits — pruning is purely to bound memory
        across long runs with cluster churn.
        """
        storage = self.world.storage
        view_cache = self._view_cache
        if len(view_cache) > len(storage):
            dead = [cid for cid in view_cache if cid not in storage]
            for cid in dead:
                del view_cache[cid]
        self_memo = self._self_memo
        if len(self_memo) > len(storage):
            dead = [cid for cid in self_memo if cid not in storage]
            for cid in dead:
                del self_memo[cid]
        # Pair-keyed caches have no cheap live-size reference, so the full
        # scan only fires past a watermark that doubles beyond the live
        # size after each prune: stable runs never scan, and memory stays
        # within 2x of the live pair population.
        self._between_watermark = self._prune_pair_cache(
            self._between_cache, self._between_watermark
        )
        self._pair_memo_watermark = self._prune_pair_cache(
            self._pair_memo, self._pair_memo_watermark
        )
        cell_pairs = self._cell_pairs
        grid = self.world.grid
        if len(cell_pairs) > 2 * grid.occupied_cell_count + 64:
            vacant = [cell for cell in cell_pairs if not grid.members(cell)]
            for cell in vacant:
                del cell_pairs[cell]
        state = self._batch_state
        if state is not None:
            state.prune(storage)

    def _prune_pair_cache(
        self, cache: Dict[Tuple[int, int], Any], watermark: int
    ) -> int:
        """Drop dead-cid entries from a pair-keyed cache past ``watermark``.

        Returns the next watermark: twice the surviving size (floor 64),
        so prune cost is amortised against actual growth.
        """
        if len(cache) <= watermark:
            return watermark
        storage = self.world.storage
        dead_pairs = [
            pair
            for pair in cache
            if pair[0] not in storage or pair[1] not in storage
        ]
        for pair in dead_pairs:
            del cache[pair]
        return max(64, 2 * len(cache))

    # -- introspection ---------------------------------------------------------------

    @property
    def cluster_count(self) -> int:
        return self.world.cluster_count

    @property
    def split_joins(self) -> int:
        """Node crossings resolved through successor links (splitting on)."""
        return self.clusterer.split_joins

    def join_counters(self) -> Dict[str, Any]:
        """Kernel/cache instrumentation folded into run statistics."""
        counters: Dict[str, Any] = {
            "kernel_backend": self.kernels.name,
            "incremental": self.config.incremental,
            "batched_join": self.config.batched_join_active,
            "columnar": self.config.columnar,
            "join_pairs_batched": self.join_pairs_batched,
            "join_segments": self.join_segments,
            "evicted_stale": self.evicted_stale,
            "store_compactions": (
                self.maintenance_engine.compactions
                if self.maintenance_engine is not None
                else 0
            ),
            "store_compaction_seconds": (
                self.maintenance_engine.compaction_seconds
                if self.maintenance_engine is not None
                else 0.0
            ),
            "ingest_fast_rows": self.ingest_fast_rows,
            "ingest_fallback_rows": self.ingest_fallback_rows,
            "rejected_updates.nonfinite": self.rejected_nonfinite,
            "grid_refresh_skips": self.world.grid.refresh_skips,
        }
        if self.maintenance_engine is not None:
            counters["columnar_backend"] = self.maintenance_engine.resolved_name
        counters.update(self._join_cache_counters())
        return counters

    def _join_cache_counters(self) -> Dict[str, Any]:
        return {
            "view_cache_hits": self.view_cache_hits,
            "view_cache_misses": self.view_cache_misses,
            "between_cache_hits": self.between_cache_hits,
            "between_cache_misses": self.between_cache_misses,
            "replay_hits": self.replay_hits,
            "replay_misses": self.replay_misses,
            "cell_replay_hits": self.cell_replay_hits,
            "cell_replay_misses": self.cell_replay_misses,
            "cluster_clean_hits": self.cluster_clean_hits,
            "cluster_clean_misses": self.cluster_clean_misses,
        }

    def state_roots(self) -> List[object]:
        """The five in-memory structures of §4.1 (for memory accounting)."""
        return [
            self.objects_table,
            self.queries_table,
            self.world.home,
            self.world.storage,
            self.world.grid,
        ]

    def reset(self) -> None:
        """Drop all clusters and tables, keeping configuration."""
        self._init_state()

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without caches or the backend instance.

        Views hold backend scratch data (ndarray mirrors, sort
        permutations) that must not cross process boundaries; the backend
        itself is re-resolved from config on the other side, so a shard
        shipped to a worker without NumPy degrades gracefully.
        """
        state = self.__dict__.copy()
        for transient in (
            "kernels",
            "_view_cache",
            "_between_cache",
            "_seen_pairs",
            "_pair_memo",
            "_self_memo",
            "_sweep_marks",
            "_cell_pairs",
            "_batch_state",
        ):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.kernels = resolve_backend(self.config.kernel_backend)
        self._view_cache = {}
        self._between_cache = {}
        self._seen_pairs = set()
        # Empty memos and an empty mark table make the first post-unpickle
        # sweep a plain full recompute; replay resumes from there.
        self._pair_memo = {}
        self._self_memo = {}
        self._sweep_marks = {}
        self._cell_pairs = {}
        # Rebuilt lazily so the numpy-vs-stdlib sweep path is resolved in
        # the receiving process, not the one that pickled us.
        self._batch_state = None

    def __repr__(self) -> str:
        return (
            f"Scuba({self.cluster_count} clusters, "
            f"{len(self.objects_table)} objects, "
            f"{len(self.queries_table)} queries, "
            f"shedding={self.config.shedding!r})"
        )


def _nonfinite_rows(
    xs: Sequence[float], ys: Sequence[float], speeds: Sequence[float]
) -> Set[int]:
    """Positions of rows whose x, y or speed is NaN or infinite.

    A column sum is finite only if every entry is (NaN and ±inf propagate),
    so the clean common case costs three C-level sums; only a non-finite
    sum (or a finite overflow) pays the per-row scan.
    """
    if isfinite(sum(xs)) and isfinite(sum(ys)) and isfinite(sum(speeds)):
        return set()
    return {
        i
        for i, (x, y, speed) in enumerate(zip(xs, ys, speeds))
        if not (isfinite(x) and isfinite(y) and isfinite(speed))
    }
