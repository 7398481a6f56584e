"""Column-backed :class:`MovingCluster` (the resting SoA representation).

``ColumnarMovingCluster`` keeps its members in two
:class:`~repro.columnar.store.MemberColumnStore` instances and exposes
them through dict-compatible :class:`MemberTableView` mappings, so every
existing consumer — the incremental clusterer, shedding policies, join
views, splitting, checkpoint digests — sees the unchanged
``objects``/``queries``/``members()`` API.

The exactness contract of the object-based cluster carries over
verbatim (see ``clustering/cluster.py``): all overridden methods are
bit-identical replicas of the originals, with the member sweeps
(``flush_transform``/``recentre``/``recompute_radius``) running as numpy
array expressions over the column buffers when the store is ordered and
large enough.  Vectorization preserves bitwise results by construction:

* elementwise ``+ - * /`` on float64 arrays round identically to the
  scalar ops, so position reconstruction ``abs + (trans - tr)`` is
  bit-identical;
* the recentre running sum uses ``cumsum`` (sequential by definition),
  never ``sum`` (pairwise — different rounding);
* ``math.hypot`` has no bit-equal numpy counterpart, so radius
  recomputation vectorizes only the order-independent squared-distance
  maximum, then rechecks the tiny candidate band (relative slack 1e-12,
  orders of magnitude beyond the 1-ulp hypot error) with exact scalar
  ``math.hypot``;
* shed members are excluded with ``where=`` masks rather than adding a
  masked zero, avoiding the ``-0.0 + 0.0 → +0.0`` sign flip.
"""

from __future__ import annotations

import math

from ..generator import EntityKind
from ..geometry import Point
from ..network import NodeId
from ..clustering.cluster import MovingCluster
from .backend import columnar_numpy
from .store import MemberColumnStore, MemberTableView

__all__ = ["ColumnarMovingCluster", "ColumnarClusterFactory"]

#: Member count below which the maintenance sweeps and view builders use
#: the exact scalar column loops — per-cluster numpy dispatch overhead
#: beats the arithmetic saved on tiny clusters.
VECTOR_MIN_MEMBERS = 16


class ColumnarMovingCluster(MovingCluster):
    """A moving cluster whose member state rests in parallel columns."""

    __slots__ = ("obj_store", "qry_store", "backend_name")

    def __init__(
        self,
        cid: int,
        centroid: Point,
        cn_node: NodeId,
        cn_loc: Point,
        now: float,
        backend_name: str = "auto",
    ) -> None:
        super().__init__(
            cid=cid, centroid=centroid, cn_node=cn_node, cn_loc=cn_loc, now=now
        )
        self.backend_name = backend_name
        self.obj_store = MemberColumnStore(EntityKind.OBJECT)
        self.qry_store = MemberColumnStore(EntityKind.QUERY)
        self.objects = MemberTableView(self.obj_store)
        self.queries = MemberTableView(self.qry_store)

    def _np(self):
        return columnar_numpy(self.backend_name)

    # -- membership maintenance (bit-identical absorb over columns) ---------
    #
    # ``absorb`` is inherited; it files and refreshes members through the
    # two column overrides below.

    def _file_member(
        self,
        entity_id,
        is_object,
        x,
        y,
        speed,
        t,
        range_width,
        range_height,
        cn_node,
        cn_x,
        cn_y,
    ) -> float:
        half_diag = 0.5 * math.hypot(range_width, range_height)
        (self.obj_store if is_object else self.qry_store).insert(
            entity_id,
            abs_x=x,
            abs_y=y,
            tr_x=self.trans_x,
            tr_y=self.trans_y,
            speed=speed,
            range_w=range_width,
            range_h=range_height,
            half_diag=half_diag,
            last_t=t,
            cn_node=cn_node,
            cn_x=cn_x,
            cn_y=cn_y,
        )
        return half_diag

    def restamp(self, entity_id, is_object, x, y, speed, cn_node, cn_x, cn_y, t) -> bool:
        store = self.obj_store if is_object else self.qry_store
        slot = store.index[entity_id]
        shed = store.shed[slot]
        if (
            not shed
            and speed == store.speed[slot]
            and cn_node == store.cn_node[slot]
            and x == store.abs_x[slot] + (self.trans_x - store.tr_x[slot])
            and y == store.abs_y[slot] + (self.trans_y - store.tr_y[slot])
        ):
            # Heartbeat: identical report, no version bumps (see the
            # object-based restamp for the full rationale).
            store.last_t[slot] = t
            return False
        self.version += 1
        self.struct_version += 1
        if shed:
            store.shed[slot] = 0
            store.shed_count -= 1
            self.shed_count -= 1
        self._speed_sum += speed - store.speed[slot]
        n = len(self.obj_store.index) + len(self.qry_store.index)
        self.avespeed = self._speed_sum / n
        store.speed[slot] = speed
        store.abs_x[slot] = x
        store.abs_y[slot] = y
        store.tr_x[slot] = self.trans_x
        store.tr_y[slot] = self.trans_y
        store.last_t[slot] = t
        if store.cn_node[slot] != cn_node:
            store.cn_node[slot] = cn_node
            store.cn_x[slot] = cn_x
            store.cn_y[slot] = cn_y
        if n == 1:
            self.cx = x
            self.cy = y
            self.radius = 0.0
            self._update_expiry(t)
            return True
        dx = x - self.cx
        dy = y - self.cy
        dist_sq = dx * dx + dy * dy
        if dist_sq > self.radius * self.radius:
            self.radius = math.sqrt(dist_sq)
        return True

    # ``remove`` is inherited: MemberTableView.pop returns a detached
    # ClusterMember snapshot, so the post-pop field reads keep working.

    def adopt(self, member) -> None:
        """Bulk split hand-off: copy ``member``'s row in, translation reset."""
        is_object = member.kind is EntityKind.OBJECT
        store = self.obj_store if is_object else self.qry_store
        shed = member.position_shed
        store.insert(
            member.entity_id,
            abs_x=member.abs_x,
            abs_y=member.abs_y,
            tr_x=0.0,
            tr_y=0.0,
            speed=member.speed,
            range_w=member.range_width,
            range_h=member.range_height,
            half_diag=member.half_diag,
            last_t=member.last_t,
            cn_node=member.cn_node,
            cn_x=member.cn_x,
            cn_y=member.cn_y,
            shed=shed,
        )
        if shed:
            self.shed_count += 1
        self._speed_sum += member.speed
        if not is_object and member.half_diag > self.max_query_half_diag:
            self.max_query_half_diag = member.half_diag

    def discard(self, entity_id: int, kind: EntityKind) -> None:
        """Drop a member row without re-balancing (split detach)."""
        store = self.obj_store if kind is EntityKind.OBJECT else self.qry_store
        if entity_id in store.index:
            store.discard(entity_id)

    # -- member sweeps ------------------------------------------------------

    def flush_transform(self) -> None:
        tx, ty = self.trans_x, self.trans_y
        np = self._np()
        for store in (self.obj_store, self.qry_store):
            n = len(store.index)
            if not n:
                continue
            if np is not None and store.ordered and n >= VECTOR_MIN_MEMBERS:
                self._flush_vector(store, tx, ty, n, np)
            else:
                self._flush_scalar(store, tx, ty)
        if tx != 0.0 or ty != 0.0:
            self.trans_x = 0.0
            self.trans_y = 0.0

    @staticmethod
    def _flush_scalar(store: MemberColumnStore, tx: float, ty: float) -> None:
        tr_x, tr_y = store.tr_x, store.tr_y
        if tx == 0.0 and ty == 0.0:
            for slot in store.index.values():
                tr_x[slot] = 0.0
                tr_y[slot] = 0.0
            return
        abs_x, abs_y, shed = store.abs_x, store.abs_y, store.shed
        for slot in store.index.values():
            if not shed[slot]:
                abs_x[slot] += tx - tr_x[slot]
                abs_y[slot] += ty - tr_y[slot]
            tr_x[slot] = 0.0
            tr_y[slot] = 0.0

    @staticmethod
    def _flush_vector(
        store: MemberColumnStore, tx: float, ty: float, n: int, np
    ) -> None:
        trx = np.frombuffer(store.tr_x, dtype=np.float64)[:n]
        trY = np.frombuffer(store.tr_y, dtype=np.float64)[:n]
        if tx != 0.0 or ty != 0.0:
            absx = np.frombuffer(store.abs_x, dtype=np.float64)[:n]
            absy = np.frombuffer(store.abs_y, dtype=np.float64)[:n]
            dx = np.subtract(tx, trx)
            dy = np.subtract(ty, trY)
            if store.shed_count:
                keep = np.frombuffer(store.shed, dtype=np.int8)[:n] == 0
                # where= leaves shed slots untouched in place — exactly the
                # scalar skip, with no -0.0 + 0.0 sign hazard.
                np.add(absx, dx, out=absx, where=keep)
                np.add(absy, dy, out=absy, where=keep)
            else:
                np.add(absx, dx, out=absx)
                np.add(absy, dy, out=absy)
        trx[:] = 0.0
        trY[:] = 0.0

    def recentre(self) -> None:
        np = self._np()
        stores = (self.obj_store, self.qry_store)
        total = len(stores[0].index) + len(stores[1].index)
        if (
            np is not None
            and total >= VECTOR_MIN_MEMBERS
            and stores[0].ordered
            and stores[1].ordered
        ):
            sum_x, sum_y, known = self._recentre_vector(np, stores)
        else:
            sum_x = 0.0
            sum_y = 0.0
            known = 0
            tx, ty = self.trans_x, self.trans_y
            for store in stores:
                abs_x, abs_y = store.abs_x, store.abs_y
                tr_x, tr_y, shed = store.tr_x, store.tr_y, store.shed
                for slot in store.index.values():
                    if shed[slot]:
                        continue
                    sum_x += abs_x[slot] + (tx - tr_x[slot])
                    sum_y += abs_y[slot] + (ty - tr_y[slot])
                    known += 1
        if known:
            cx = sum_x / known
            cy = sum_y / known
            if cx != self.cx or cy != self.cy:
                self.version += 1
                self.cx = cx
                self.cy = cy

    def _recentre_vector(self, np, stores):
        tx, ty = self.trans_x, self.trans_y
        parts_x = []
        parts_y = []
        for store in stores:
            n = len(store.index)
            if not n:
                continue
            vx = np.subtract(tx, np.frombuffer(store.tr_x, dtype=np.float64)[:n])
            np.add(np.frombuffer(store.abs_x, dtype=np.float64)[:n], vx, out=vx)
            vy = np.subtract(ty, np.frombuffer(store.tr_y, dtype=np.float64)[:n])
            np.add(np.frombuffer(store.abs_y, dtype=np.float64)[:n], vy, out=vy)
            if store.shed_count:
                keep = np.frombuffer(store.shed, dtype=np.int8)[:n] == 0
                vx = vx[keep]
                vy = vy[keep]
            if len(vx):
                parts_x.append(vx)
                parts_y.append(vy)
        if not parts_x:
            return 0.0, 0.0, 0
        all_x = parts_x[0] if len(parts_x) == 1 else np.concatenate(parts_x)
        all_y = parts_y[0] if len(parts_y) == 1 else np.concatenate(parts_y)
        # cumsum is sequential left-to-right — bit-identical to the scalar
        # running sum.  np.sum would use pairwise summation and drift.
        return (
            float(np.cumsum(all_x)[-1]),
            float(np.cumsum(all_y)[-1]),
            len(all_x),
        )

    def recompute_radius(self) -> None:
        radius = min(self.nucleus_radius, self.radius) if self.shed_count else 0.0
        np = self._np()
        stores = (self.obj_store, self.qry_store)
        total = len(stores[0].index) + len(stores[1].index)
        if (
            np is not None
            and total >= VECTOR_MIN_MEMBERS
            and stores[0].ordered
            and stores[1].ordered
        ):
            radius = self._radius_vector(np, stores, radius)
        else:
            cx, cy = self.cx, self.cy
            tx, ty = self.trans_x, self.trans_y
            for store in stores:
                abs_x, abs_y = store.abs_x, store.abs_y
                tr_x, tr_y, shed = store.tr_x, store.tr_y, store.shed
                for slot in store.index.values():
                    if shed[slot]:
                        continue
                    dist = math.hypot(
                        abs_x[slot] + (tx - tr_x[slot]) - cx,
                        abs_y[slot] + (ty - tr_y[slot]) - cy,
                    )
                    if dist > radius:
                        radius = dist
        if radius != self.radius:
            self.version += 1
            self.radius = radius

    def _radius_vector(self, np, stores, radius: float) -> float:
        cx, cy = self.cx, self.cy
        tx, ty = self.trans_x, self.trans_y
        parts = []
        max_d2 = -1.0
        for store in stores:
            n = len(store.index)
            if not n:
                continue
            dx = np.subtract(tx, np.frombuffer(store.tr_x, dtype=np.float64)[:n])
            np.add(np.frombuffer(store.abs_x, dtype=np.float64)[:n], dx, out=dx)
            np.subtract(dx, cx, out=dx)
            dy = np.subtract(ty, np.frombuffer(store.tr_y, dtype=np.float64)[:n])
            np.add(np.frombuffer(store.abs_y, dtype=np.float64)[:n], dy, out=dy)
            np.subtract(dy, cy, out=dy)
            d2 = dx * dx
            d2 += dy * dy
            if store.shed_count:
                keep = np.frombuffer(store.shed, dtype=np.int8)[:n] == 0
                if not keep.any():
                    continue
                store_max = float(d2[keep].max())
            else:
                keep = None
                store_max = float(d2.max())
            if store_max > max_d2:
                max_d2 = store_max
            parts.append((d2, dx, dy, keep))
        if max_d2 < 0.0:
            return radius
        # The true farthest member (by exact math.hypot) always sits within
        # a few ulp of the squared-distance argmax; a 1e-12 relative band
        # provably contains it.  Recheck the band with exact scalar hypot —
        # float max is order-independent, so only the value matters.
        threshold = max_d2 * (1.0 - 1e-12)
        for d2, dx, dy, keep in parts:
            cand = d2 >= threshold
            if keep is not None:
                cand &= keep
            for i in np.nonzero(cand)[0]:
                dist = math.hypot(dx[i], dy[i])
                if dist > radius:
                    radius = dist
        return radius

    def maintenance_sweep(self, np=None) -> None:
        """Fused flush → recentre → recompute_radius over shared columns.

        The maintenance engine's per-cluster fast path: the three member
        sweeps read each column buffer once and share the reconstructed
        positions, cutting per-cluster numpy dispatch to a handful of
        calls.  Results are bit-identical to running the three methods in
        sequence — the arithmetic is the same expressions in the same
        order, only the redundant re-reads are gone.  Falls back to the
        sequential methods for tiny, unordered, or numpy-less stores.
        """
        stores = (self.obj_store, self.qry_store)
        if (
            np is None
            or len(stores[0].index) + len(stores[1].index) < VECTOR_MIN_MEMBERS
        ):
            self.flush_transform()
            self.recentre()
            self.recompute_radius()
            return
        tx, ty = self.trans_x, self.trans_y
        moved = tx != 0.0 or ty != 0.0
        parts = []
        for store in stores:
            n = len(store.index)
            if not n:
                continue
            # Unordered stores (slot reuse / mid-store removals) are swept
            # through a gather of the live slots in insertion order;
            # ordered stores use the zero-copy ``[:n]`` prefix.  The
            # elementwise flush runs over the *whole* column either way —
            # free slots hold stale junk that nothing reads, so updating
            # it is harmless and cheaper than scattering.
            gather = (
                None
                if store.ordered
                else np.fromiter(store.index.values(), dtype=np.intp, count=n)
            )
            live = n if gather is None else len(store.abs_x)
            absx = np.frombuffer(store.abs_x, dtype=np.float64)[:live]
            absy = np.frombuffer(store.abs_y, dtype=np.float64)[:live]
            trx = np.frombuffer(store.tr_x, dtype=np.float64)[:live]
            trY = np.frombuffer(store.tr_y, dtype=np.float64)[:live]
            shed = (
                np.frombuffer(store.shed, dtype=np.int8)[:live]
                if store.shed_count
                else None
            )
            if moved:
                dx = np.subtract(tx, trx)
                dy = np.subtract(ty, trY)
                if shed is not None:
                    keep = shed == 0
                    np.add(absx, dx, out=absx, where=keep)
                    np.add(absy, dy, out=absy, where=keep)
                else:
                    np.add(absx, dx, out=absx)
                    np.add(absy, dy, out=absy)
                trx[:] = 0.0
                trY[:] = 0.0
            else:
                # Values are already zero in the common resting case; the
                # scalar flush writes zeros over zeros, so skipping the
                # writes changes nothing.
                if trx.any():
                    trx[:] = 0.0
                if trY.any():
                    trY[:] = 0.0
            # Post-flush reconstruction: trans and tr are now zero, so the
            # scalar ``abs + (tx - tr)`` is ``abs + 0.0`` (kept for the
            # -0.0 + 0.0 -> +0.0 normalisation the scalar path performs).
            if gather is None:
                rx = absx + 0.0
                ry = absy + 0.0
                keep_live = None if shed is None else shed == 0
            else:
                rx = absx[gather] + 0.0
                ry = absy[gather] + 0.0
                keep_live = None if shed is None else shed[gather] == 0
            if keep_live is not None:
                rx = rx[keep_live]
                ry = ry[keep_live]
            if len(rx):
                parts.append((rx, ry))
        if moved:
            self.trans_x = 0.0
            self.trans_y = 0.0
        # -- recentre (cumsum = the scalar running sum, bit-identical) ------
        if parts:
            all_x = parts[0][0] if len(parts) == 1 else np.concatenate(
                [p[0] for p in parts]
            )
            all_y = parts[0][1] if len(parts) == 1 else np.concatenate(
                [p[1] for p in parts]
            )
            known = len(all_x)
            cx = float(np.cumsum(all_x)[-1]) / known
            cy = float(np.cumsum(all_y)[-1]) / known
            if cx != self.cx or cy != self.cy:
                self.version += 1
                self.cx = cx
                self.cy = cy
        # -- recompute_radius (squared-distance max + exact band recheck) ---
        radius = min(self.nucleus_radius, self.radius) if self.shed_count else 0.0
        if parts:
            cx, cy = self.cx, self.cy
            max_d2 = -1.0
            dists = []
            for rx, ry in parts:
                dx = rx - cx
                dy = ry - cy
                d2 = dx * dx
                d2 += dy * dy
                store_max = float(d2.max())
                if store_max > max_d2:
                    max_d2 = store_max
                dists.append((d2, dx, dy))
            threshold = max_d2 * (1.0 - 1e-12)
            for d2, dx, dy in dists:
                for i in np.nonzero(d2 >= threshold)[0]:
                    dist = math.hypot(dx[i], dy[i])
                    if dist > radius:
                        radius = dist
        if radius != self.radius:
            self.version += 1
            self.radius = radius

    # -- zero-copy view hooks ----------------------------------------------

    def join_view_columns(self):
        """Prebuilt SoA columns for :class:`ClusterJoinView`, or None.

        Called right after ``flush_transform`` (tr = 0, abs current).
        Offered whenever neither store has shed members.  Large ordered
        stores under numpy get zero-copy ndarray slices over the column
        buffers with vector-reduction bounding boxes; everything else
        (small clusters below ``VECTOR_MIN_MEMBERS``, fragmented stores,
        no numpy) gets list-mode direct column gathers — still far
        cheaper than the generic builder, which walks a ``ColumnMember``
        proxy per member paying a dict probe and slot indirection per
        attribute read.  The buffers can only change after a version
        bump, which also invalidates the cached view.
        """
        so, sq = self.obj_store, self.qry_store
        if so.shed_count or sq.shed_count:
            return None
        n_o = len(so.index)
        n_q = len(sq.index)
        np = self._np()
        if (
            np is None
            or not (so.ordered and sq.ordered)
            or n_o + n_q < VECTOR_MIN_MEMBERS
        ):
            return self._join_view_columns_lists(so, sq, n_o, n_q)
        obj_ids = list(so.index)
        if n_o:
            obj_xs = np.frombuffer(so.abs_x, dtype=np.float64)[:n_o]
            obj_ys = np.frombuffer(so.abs_y, dtype=np.float64)[:n_o]
            min_x = float(obj_xs.min())
            max_x = float(obj_xs.max())
            min_y = float(obj_ys.min())
            max_y = float(obj_ys.max())
        else:
            obj_xs = np.frombuffer(so.abs_x, dtype=np.float64)
            obj_ys = obj_xs
            min_x = min_y = math.inf
            max_x = max_y = -math.inf
        query_ids = list(sq.index)
        query_xs = np.frombuffer(sq.abs_x, dtype=np.float64)[:n_q]
        query_ys = np.frombuffer(sq.abs_y, dtype=np.float64)[:n_q]
        # x * 0.5 and x / 2.0 round identically (exact power-of-two scale).
        query_hws = np.frombuffer(sq.range_w, dtype=np.float64)[:n_q] * 0.5
        query_hhs = np.frombuffer(sq.range_h, dtype=np.float64)[:n_q] * 0.5
        return (
            obj_ids,
            obj_xs,
            obj_ys,
            min_x,
            min_y,
            max_x,
            max_y,
            query_ids,
            query_xs,
            query_ys,
            query_hws,
            query_hhs,
        )

    @staticmethod
    def _join_view_columns_lists(so, sq, n_o: int, n_q: int):
        """List-mode join view columns: direct store gathers.

        Same values the generic builder reads through member proxies —
        float ``min``/``max`` agree with its comparison loop, and
        ``* 0.5`` rounds identically to ``/ 2.0`` (exact power-of-two
        scale) — at one C-level column pass per attribute instead of a
        Python proxy property call per member per attribute.
        """
        obj_ids = list(so.index)
        obj_xs = so.gather("abs_x")
        obj_ys = so.gather("abs_y")
        if n_o:
            min_x = min(obj_xs)
            max_x = max(obj_xs)
            min_y = min(obj_ys)
            max_y = max(obj_ys)
        else:
            min_x = min_y = math.inf
            max_x = max_y = -math.inf
        query_ids = list(sq.index)
        query_xs = sq.gather("abs_x")
        query_ys = sq.gather("abs_y")
        query_hws = [w * 0.5 for w in sq.gather("range_w")]
        query_hhs = [h * 0.5 for h in sq.gather("range_h")]
        return (
            obj_ids,
            obj_xs,
            obj_ys,
            min_x,
            min_y,
            max_x,
            max_y,
            query_ids,
            query_xs,
            query_ys,
            query_hws,
            query_hhs,
        )

    # -- maintenance support ------------------------------------------------

    def ensure_compact(self, np=None) -> int:
        """Compact any store that lost slot order or wastes capacity.

        Called by the maintenance engine before the vectorized sweeps; a
        pure reorder (no value changes, no version bumps).  Returns the
        number of stores rebuilt.

        Disorder alone only matters to the vectorized paths — the
        ordered-prefix sweeps and the zero-copy join views all bail
        below :data:`VECTOR_MIN_MEMBERS` anyway, and the gather fallback
        sweeps unordered stores exactly — so small clusters skip the
        rebuild and only compact to reclaim wasted capacity.  Churning
        convoys at the scale-ladder rungs otherwise pay a full column
        rebuild every interval for order no fast path ever reads.
        """
        rebuilt = 0
        so, sq = self.obj_store, self.qry_store
        small = len(so.index) + len(sq.index) < VECTOR_MIN_MEMBERS
        for store in (so, sq):
            if store.wasteful() or (not store.ordered and not small):
                if store.compact(np):
                    rebuilt += 1
        return rebuilt


class ColumnarClusterFactory:
    """``ClusterWorld`` factory producing column-backed clusters.

    Carries only the backend *name*, so pickled worlds (sharded workers,
    checkpoints) re-resolve numpy lazily on the other side.
    """

    def __init__(self, backend_name: str = "auto") -> None:
        self.backend_name = backend_name

    def __call__(
        self,
        cid: int,
        centroid: Point,
        cn_node: NodeId,
        cn_loc: Point,
        now: float,
    ) -> ColumnarMovingCluster:
        return ColumnarMovingCluster(
            cid=cid,
            centroid=centroid,
            cn_node=cn_node,
            cn_loc=cn_loc,
            now=now,
            backend_name=self.backend_name,
        )
