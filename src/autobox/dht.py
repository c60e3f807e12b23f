"""In-vehicle distributed hash table with XOR-distance ownership.

Desk-scale model of the level-1 store: each module hosts one node, node
ids are digests of module serial numbers, and a record key is owned by the
node whose id minimizes the XOR distance to it. The modules share one
closed bus on which every module addresses every other directly, so
placement is one hop: a scan of the live table picks the closest live
node. Membership is two id tables, live and failed, each mapping a node
id to its integer value; a node is in exactly one of them. A failed node
loses its storage role only; its module still speaks on the bus, and what
it emits lands on the closest live node instead.

Node stores are byte-bounded. A record's accounted size is the length of
``AuditRecord.line``: the bytes the same record takes on a parity-cluster
device. A record becomes eviction-eligible only once a checkpoint covers it
(each capture calls ``cover``); filling a store with uncovered records
raises CheckpointRequired instead of silently dropping data.

Each node keeps its covered records in a heap by (sim_time, record_key),
the eviction order, with their byte count. Records enter a store only at
the end, a re-put is a no-op and only covered records leave, so the
covered records are always the first ``len(_queue)`` in insertion order,
and a cover pushes only the records past them.

The replicated vehicle data and its vote are ``vehiclesim``'s, not the table's.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import NamedTuple

from .auditcore import AuditRecord, sha256_hex

DEFAULT_STORE_LIMIT_BYTES = 2048  # fits the constrained-ROM budget per node


class NodeUnavailable(RuntimeError):
    """The named node is unknown, or no live node can serve the request."""


class CheckpointRequired(RuntimeError):
    """A store is full of records no checkpoint covers yet.

    The caller must capture a meta-hash (covering the stored records)
    before the write can proceed; nothing was evicted.
    """

    def __init__(self, node_id: str, needed_bytes: int):
        super().__init__(
            f"node {node_id[:12]}… needs {needed_bytes} bytes but only holds "
            "records no checkpoint covers yet"
        )
        self.node_id = node_id
        self.needed_bytes = needed_bytes


def node_id_for_serial(serial_number: str) -> str:
    """Derive a node id from the hosting module's serial number."""
    return sha256_hex(serial_number.encode("utf-8"))


class StoreReceipt(NamedTuple):
    stored_at: str
    hops: int
    fallback: bool
    evicted: tuple[str, ...] = ()
    stored: bool = True  # False when ``stored_at`` already held the key


class DhtNode:
    """One module's slice of the table: a bounded record store."""

    def __init__(self, node_id: str, store_limit_bytes: int = DEFAULT_STORE_LIMIT_BYTES):
        self.node_id = node_id
        self.store_limit_bytes = store_limit_bytes
        self._store: dict[str, AuditRecord] = {}
        self._used = 0
        # The covered records as (sim_time, record_key), a heap, and their bytes.
        self._queue: list[tuple[int, str]] = []
        self._covered_bytes = 0

    def cover(self) -> None:
        """Mark every stored record covered, so evictable."""
        for record in islice(self._store.values(), len(self._queue), None):
            heappush(self._queue, (record.sim_time, record.record_key))
            self._covered_bytes += len(record.line)

    def evict(self, needed_bytes: int) -> list[str]:
        """Free space by dropping the oldest checkpoint-covered records.

        Eviction order is (sim_time, record_key): a total, reproducible
        order, the order of the covered-record heap, so each eviction pops
        one record. Atomic: if even evicting every covered record cannot
        free needed_bytes, raises CheckpointRequired and evicts nothing.
        """
        if needed_bytes > self.store_limit_bytes:
            raise ValueError("needed_bytes exceeds the store limit")
        free = self.store_limit_bytes - self._used
        if free + self._covered_bytes < needed_bytes:
            raise CheckpointRequired(self.node_id, needed_bytes)
        evicted = []
        while free < needed_bytes:
            record_key = heappop(self._queue)[1]
            size = len(self._store.pop(record_key).line)
            self._used -= size
            self._covered_bytes -= size
            free += size
            evicted.append(record_key)
        return evicted

    def insert(self, record: AuditRecord) -> list[str] | None:
        """Store a record at the end, evicting covered records first if
        space demands; returns the evicted keys. A stored key stays as it
        is, and returns None."""
        if record.record_key in self._store:
            return None
        evicted = self.evict(len(record.line))
        self._store[record.record_key] = record
        self._used += len(record.line)
        return evicted


class DhtNetwork:
    """The closed in-vehicle network of DHT nodes.

    Single-threaded by contract: the simulator's event loop serializes all
    operations.
    """

    def __init__(self, store_limit_bytes: int = DEFAULT_STORE_LIMIT_BYTES):
        self.store_limit_bytes = store_limit_bytes
        self._nodes: dict[str, DhtNode] = {}
        # node id -> its integer value, for the live and the failed nodes
        self._live: dict[str, int] = {}
        self._failed: dict[str, int] = {}

    # -- membership ------------------------------------------------------

    def add_node(self, node_id: str) -> DhtNode:
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        node = DhtNode(node_id, self.store_limit_bytes)
        self._nodes[node_id] = node
        self._live[node_id] = int(node_id, 16)
        return node

    def remove_node(self, node_id: str) -> None:
        self._nodes.pop(node_id)
        self._live.pop(node_id, None)
        self._failed.pop(node_id, None)

    def fail_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NodeUnavailable(f"unknown node {node_id}")
        if node_id in self._live:
            self._failed[node_id] = self._live.pop(node_id)

    def recover_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NodeUnavailable(f"unknown node {node_id}")
        if node_id in self._failed:
            self._live[node_id] = self._failed.pop(node_id)

    def is_live(self, node_id: str) -> bool:
        return node_id in self._live

    # -- lookups ---------------------------------------------------------

    def locate(self, origin: str, key: str) -> tuple[str, int]:
        """The live node closest to the key, and the bus hops to reach it.

        One scan of the live table, which holds no failed node; hops is 0
        when origin is that node and 1 otherwise. Origin may be any member
        node, failed or not.
        """
        if origin not in self._nodes:
            raise NodeUnavailable(f"unknown origin {origin}")
        key_int = int(key, 16)
        target, best = None, None
        for node_id, value in self._live.items():
            if best is None or value ^ key_int < best:
                target, best = node_id, value ^ key_int
        if target is None:
            raise NodeUnavailable("no live node")
        return target, int(target != origin)

    # -- operations ------------------------------------------------------

    def put(self, origin: str, record: AuditRecord) -> StoreReceipt:
        """Place a record at the owner of its key (or closest live node).

        Raises NodeUnavailable for an unknown origin or when no node is live.
        May raise CheckpointRequired from the target store; the caller is
        expected to capture a checkpoint and retry. Re-putting a key its
        target already stores is idempotent: the stored record, and whether
        it is covered, stay, and the receipt says ``stored=False``.
        """
        target, hops = self.locate(origin, record.record_key)
        # Placed away from its owner exactly when a failed node is closer.
        fallback = False
        if self._failed:
            key_int = int(record.record_key, 16)
            distance = self._live[target] ^ key_int
            fallback = any(value ^ key_int < distance for value in self._failed.values())
        evicted = self._nodes[target].insert(record)
        if evicted is None:
            return StoreReceipt(target, hops, fallback, stored=False)
        return StoreReceipt(target, hops, fallback, tuple(evicted))

    def cover(self) -> None:
        """Mark every stored record covered by a checkpoint, so evictable."""
        for node in self._nodes.values():
            node.cover()
