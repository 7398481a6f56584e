"""Array-backed cluster member storage.

A :class:`MemberColumnStore` keeps one kind's members (objects *or*
queries) of one cluster in parallel ``array.array`` columns — the resting
representation is Struct-of-Arrays, so per-tick maintenance and the SoA
join views read the columns directly instead of rebuilding them
from per-member Python objects.

Layout and invariants:

* one slot per member across all columns; ``index`` maps entity id →
  slot **in insertion order** (the dict's key order is the member order
  the object-based path iterates in);
* removed slots go on a ``free`` list and are reused by later inserts;
* ``ordered`` is True while the live slots are exactly ``0..n-1`` *and*
  ascending slot number equals insertion order — the precondition for
  zero-copy ``[:n]`` slicing and for order-sensitive vector reductions
  (the recentre running sum).  Slot reuse and mid-store removals clear
  it; :meth:`compact` restores it by rebuilding the columns in insertion
  order (pure reorder: no value changes, no version bumps);
* columns never resize in place while a numpy view is exported over
  them: growth that hits the buffer-protocol ``BufferError`` falls back
  to copy-on-grow (a fresh column object), leaving the frozen buffer
  alive under any cached view.  Cached views are version-gated by their
  consumers, and every member-value mutation bumps the cluster version
  first, so a frozen buffer is only ever read while its values are
  still current.

Members are exposed through :class:`ColumnMember` proxies carrying the
exact ``ClusterMember`` attribute API.  A proxy resolves its slot through
``index`` on every access, so compaction cannot invalidate it, and every
getter returns plain Python ``float``/``int``/``bool`` (state digests and
JSON emission rely on native types).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from ..clustering.cluster import ClusterMember
from ..generator import EntityKind

__all__ = ["ColumnMember", "MemberColumnStore", "MemberTableView"]

#: Float64 columns, in canonical order (mirrors ClusterMember fields;
#: ``range_w``/``range_h`` back ``range_width``/``range_height``).
FLOAT_COLUMNS = (
    "abs_x",
    "abs_y",
    "tr_x",
    "tr_y",
    "speed",
    "range_w",
    "range_h",
    "half_diag",
    "last_t",
    "cn_x",
    "cn_y",
)


class MemberColumnStore:
    """Parallel columns for one cluster's members of one kind."""

    __slots__ = FLOAT_COLUMNS + (
        "cn_node",
        "shed",
        "kind",
        "index",
        "free",
        "ordered",
        "shed_count",
        "compactions",
        "_proxies",
    )

    def __init__(self, kind: EntityKind) -> None:
        self.kind = kind
        for name in FLOAT_COLUMNS:
            setattr(self, name, array("d"))
        self.cn_node = array("q")
        self.shed = array("b")
        #: entity id -> slot, in member insertion order.
        self.index: Dict[int, int] = {}
        #: Reusable slots of removed members.
        self.free: List[int] = []
        #: True while live slots are 0..n-1 in insertion order.
        self.ordered = True
        #: Members whose position is load-shed (mirrors the shed column).
        self.shed_count = 0
        #: Times compact() actually rebuilt the columns (diagnostics).
        self.compactions = 0
        # entity id -> ColumnMember, lazily built; never pickled.
        self._proxies: Dict[int, "ColumnMember"] = {}

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    @property
    def capacity(self) -> int:
        return len(self.abs_x)

    def proxy(self, entity_id: int) -> "ColumnMember":
        """The member proxy for ``entity_id`` (must be present)."""
        member = self._proxies.get(entity_id)
        if member is None:
            member = ColumnMember(self, entity_id, self.kind)
            self._proxies[entity_id] = member
        return member

    def gather(self, name: str) -> List[float]:
        """Column ``name`` for the live members, in member order.

        Ordered stores convert the column prefix in one C-level
        ``tolist``; fragmented stores gather slot by slot through
        ``index``.  Either way the result matches what walking the
        member proxies would read, without the per-access dict probe
        and slot indirection of the proxy protocol.
        """
        col = getattr(self, name)
        if self.ordered:
            return col[: len(self.index)].tolist()
        return [col[slot] for slot in self.index.values()]

    # -- slot management ----------------------------------------------------

    def _append_value(self, name: str, typecode: str, value) -> None:
        col = getattr(self, name)
        try:
            col.append(value)
        except BufferError:
            # An exported numpy view pins the buffer (cached join
            # views).  Copy-on-grow: the old buffer stays alive — and
            # valid, by version gating — under the view.
            fresh = array(typecode, col.tobytes())
            fresh.append(value)
            setattr(self, name, fresh)

    def insert(
        self,
        entity_id: int,
        *,
        abs_x: float,
        abs_y: float,
        tr_x: float,
        tr_y: float,
        speed: float,
        range_w: float,
        range_h: float,
        half_diag: float,
        last_t: float,
        cn_node: int,
        cn_x: float,
        cn_y: float,
        shed: bool = False,
    ) -> int:
        """Add a member row; returns its slot.  Id must not be present."""
        if entity_id in self.index:
            raise ValueError(f"duplicate member id {entity_id}")
        if self.free:
            slot = self.free.pop()
            if self.ordered and slot != len(self.index):
                self.ordered = False
            self.abs_x[slot] = abs_x
            self.abs_y[slot] = abs_y
            self.tr_x[slot] = tr_x
            self.tr_y[slot] = tr_y
            self.speed[slot] = speed
            self.range_w[slot] = range_w
            self.range_h[slot] = range_h
            self.half_diag[slot] = half_diag
            self.last_t[slot] = last_t
            self.cn_x[slot] = cn_x
            self.cn_y[slot] = cn_y
            self.cn_node[slot] = cn_node
            self.shed[slot] = 1 if shed else 0
        else:
            slot = self.capacity
            self._append_value("abs_x", "d", abs_x)
            self._append_value("abs_y", "d", abs_y)
            self._append_value("tr_x", "d", tr_x)
            self._append_value("tr_y", "d", tr_y)
            self._append_value("speed", "d", speed)
            self._append_value("range_w", "d", range_w)
            self._append_value("range_h", "d", range_h)
            self._append_value("half_diag", "d", half_diag)
            self._append_value("last_t", "d", last_t)
            self._append_value("cn_x", "d", cn_x)
            self._append_value("cn_y", "d", cn_y)
            self._append_value("cn_node", "q", cn_node)
            self._append_value("shed", "b", 1 if shed else 0)
        self.index[entity_id] = slot
        if shed:
            self.shed_count += 1
        return slot

    def discard(self, entity_id: int) -> None:
        """Free a member's slot (raises KeyError when absent)."""
        slot = self.index.pop(entity_id)
        self._proxies.pop(entity_id, None)
        if self.shed[slot]:
            self.shed_count -= 1
        if self.ordered and slot != len(self.index):
            self.ordered = False
        self.free.append(slot)

    def detach(self, entity_id: int) -> ClusterMember:
        """Remove a member, returning a plain ``ClusterMember`` snapshot.

        The object-based ``MovingCluster.remove`` reads the popped
        member's fields *after* removal; detaching preserves that
        contract for columnar storage.
        """
        member = self.snapshot(entity_id)
        self.discard(entity_id)
        return member

    def snapshot(self, entity_id: int) -> ClusterMember:
        """A detached ``ClusterMember`` copy of the stored row."""
        slot = self.index[entity_id]
        member = ClusterMember(
            entity_id=entity_id,
            kind=self.kind,
            abs_x=self.abs_x[slot],
            abs_y=self.abs_y[slot],
            tr_x=self.tr_x[slot],
            tr_y=self.tr_y[slot],
            speed=self.speed[slot],
            last_t=self.last_t[slot],
            range_width=self.range_w[slot],
            range_height=self.range_h[slot],
            cn_node=self.cn_node[slot],
            cn_x=self.cn_x[slot],
            cn_y=self.cn_y[slot],
        )
        # The constructor recomputes half_diag from the ranges; copy the
        # stored value verbatim so the snapshot is bit-faithful even so.
        member.half_diag = self.half_diag[slot]
        member.position_shed = bool(self.shed[slot])
        return member

    def clear(self) -> None:
        """Drop all members and reset the columns."""
        for name in FLOAT_COLUMNS:
            setattr(self, name, array("d"))
        self.cn_node = array("q")
        self.shed = array("b")
        self.index.clear()
        self.free.clear()
        self.ordered = True
        self.shed_count = 0
        self._proxies.clear()

    # -- compaction ---------------------------------------------------------

    def wasteful(self) -> bool:
        """True when free slots justify reclaiming the columns."""
        return len(self.free) > 16 and len(self.free) > len(self.index)

    def compact(self, np=None) -> bool:
        """Rebuild columns in insertion order; restores ``ordered``.

        A pure reorder: member values, insertion order, and proxies are
        untouched, so no version bump is needed and cached digests stay
        valid.  Fresh column objects are allocated (never an in-place
        resize), which sidesteps exported-buffer pinning entirely.
        Returns True when a rebuild actually happened.
        """
        if self.ordered and not self.free:
            return False
        slots = list(self.index.values())
        if np is not None and slots:
            gather = np.fromiter(slots, dtype=np.intp, count=len(slots))
            for name in FLOAT_COLUMNS:
                col = np.frombuffer(getattr(self, name), dtype=np.float64)
                setattr(self, name, array("d", col[gather].tobytes()))
            cn = np.frombuffer(self.cn_node, dtype=np.int64)
            self.cn_node = array("q", cn[gather].tobytes())
            sh = np.frombuffer(self.shed, dtype=np.int8)
            self.shed = array("b", sh[gather].tobytes())
        else:
            for name in FLOAT_COLUMNS:
                col = getattr(self, name)
                setattr(self, name, array("d", (col[s] for s in slots)))
            self.cn_node = array("q", (self.cn_node[s] for s in slots))
            self.shed = array("b", (self.shed[s] for s in slots))
        self.index = {eid: i for i, eid in enumerate(self.index)}
        self.free.clear()
        self.ordered = True
        self.compactions += 1
        return True

    # -- pickling -----------------------------------------------------------

    def __getstate__(self):
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_proxies"
        }
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._proxies = {}


class ColumnMember:
    """``ClusterMember``-compatible proxy over one store row.

    Resolves its slot through the store index on every access (immune to
    compaction) and returns native Python scalars only.
    """

    __slots__ = ("_store", "entity_id", "kind")

    def __init__(
        self, store: MemberColumnStore, entity_id: int, kind: EntityKind
    ) -> None:
        self._store = store
        self.entity_id = entity_id
        self.kind = kind

    def __repr__(self) -> str:
        shed = ", shed" if self.position_shed else ""
        return (
            f"ClusterMember({self.kind.value} {self.entity_id}, "
            f"abs=({self.abs_x:g}, {self.abs_y:g}){shed})"
        )

    @property
    def position_shed(self) -> bool:
        s = self._store
        return bool(s.shed[s.index[self.entity_id]])

    @position_shed.setter
    def position_shed(self, value: bool) -> None:
        s = self._store
        slot = s.index[self.entity_id]
        flag = 1 if value else 0
        if flag != s.shed[slot]:
            s.shed[slot] = flag
            s.shed_count += 1 if flag else -1

    @property
    def range_width(self) -> float:
        s = self._store
        return s.range_w[s.index[self.entity_id]]

    @range_width.setter
    def range_width(self, value: float) -> None:
        s = self._store
        s.range_w[s.index[self.entity_id]] = value

    @property
    def range_height(self) -> float:
        s = self._store
        return s.range_h[s.index[self.entity_id]]

    @range_height.setter
    def range_height(self, value: float) -> None:
        s = self._store
        s.range_h[s.index[self.entity_id]] = value


def _column_property(name: str):
    def getter(self):
        s = self._store
        return getattr(s, name)[s.index[self.entity_id]]

    def setter(self, value):
        s = self._store
        getattr(s, name)[s.index[self.entity_id]] = value

    return property(getter, setter)


for _name in (
    "abs_x",
    "abs_y",
    "tr_x",
    "tr_y",
    "speed",
    "half_diag",
    "last_t",
    "cn_node",
    "cn_x",
    "cn_y",
):
    setattr(ColumnMember, _name, _column_property(_name))
del _name


class MemberTableView:
    """Dict-compatible read/mutate view over a :class:`MemberColumnStore`.

    Presents the ``objects``/``queries`` mapping API the rest of the
    system iterates (insertion-ordered keys, ``items``/``values`` of
    member proxies, ``pop`` with dict semantics).
    """

    __slots__ = ("store",)

    def __init__(self, store: MemberColumnStore) -> None:
        self.store = store

    def __len__(self) -> int:
        return len(self.store.index)

    def __bool__(self) -> bool:
        return bool(self.store.index)

    def __iter__(self) -> Iterator[int]:
        return iter(self.store.index)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self.store.index

    def keys(self):
        return self.store.index.keys()

    def get(self, entity_id: int, default=None) -> Optional[ColumnMember]:
        if entity_id in self.store.index:
            return self.store.proxy(entity_id)
        return default

    def __getitem__(self, entity_id: int) -> ColumnMember:
        if entity_id not in self.store.index:
            raise KeyError(entity_id)
        return self.store.proxy(entity_id)

    def values(self) -> Iterator[ColumnMember]:
        store = self.store
        for entity_id in store.index:
            yield store.proxy(entity_id)

    def items(self) -> Iterator[Tuple[int, ColumnMember]]:
        store = self.store
        for entity_id in store.index:
            yield entity_id, store.proxy(entity_id)

    _MISSING = object()

    def pop(self, entity_id: int, default=_MISSING):
        if entity_id not in self.store.index:
            if default is MemberTableView._MISSING:
                raise KeyError(entity_id)
            return default
        return self.store.detach(entity_id)

    def clear(self) -> None:
        self.store.clear()
