"""In-vehicle distributed hash table with XOR-distance ownership.

Desk-scale model of the level-1 store: each module hosts one node, node
ids are digests of module serial numbers, and a record key is owned by the
node whose id minimizes the XOR distance to it. The modules share one
closed bus on which every module addresses every other directly, so
placement is one hop: a scan of the live ids picks the closest live node.
A failed node loses its storage role only; its module still speaks on the
bus, and what it emits lands on the closest live node instead.

Node stores are byte-bounded. A record's accounted size is the byte length
of its dump line plus the newline: the bytes the same record takes on a
parity-cluster device. A record becomes eviction-eligible only once a
checkpoint covers it (each capture calls ``cover`` on every stored record);
filling a store with uncovered records raises CheckpointRequired instead of
silently dropping data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

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


def owner_of(key: str, nodes: Iterable[str]) -> str:
    """Exhaustive min-XOR-distance scan; the placement oracle.

    Ties are impossible for distinct ids: equal XOR distance to the same
    key implies equal ids.
    """
    node_list = list(nodes)
    if not node_list:
        raise ValueError("node set must be non-empty")
    key_int = int(key, 16)
    return min(node_list, key=lambda n: int(n, 16) ^ key_int)


def detect_discrepancy(readings: Mapping[str, Hashable]) -> frozenset[str]:
    """Modules whose replica of a shared field departs from the majority.

    Empty when every replica agrees. An exact tie between leading values is
    still evidence of interference, so a tie returns every participant
    rather than designating a minority.
    """
    if len(readings) < 2:
        raise ValueError("need readings from at least 2 modules")
    groups: dict[Hashable, set[str]] = {}
    for module_id, value in readings.items():
        groups.setdefault(value, set()).add(module_id)
    best = max(len(g) for g in groups.values())
    if sum(len(g) == best for g in groups.values()) > 1:
        return frozenset(readings)
    return frozenset(m for g in groups.values() if len(g) < best for m in g)


@dataclass(frozen=True)
class StoreReceipt:
    stored_at: str
    hops: int
    fallback: bool
    evicted: tuple[str, ...] = ()


@dataclass
class _Stored:
    record: AuditRecord
    size: int
    covered: bool = False


class DhtNode:
    """One module's slice of the table: a bounded record store."""

    def __init__(self, node_id: str, store_limit_bytes: int = DEFAULT_STORE_LIMIT_BYTES):
        self.node_id = node_id
        self.store_limit_bytes = store_limit_bytes
        self._store: dict[str, _Stored] = {}
        self._used = 0

    @staticmethod
    def record_size(record: AuditRecord) -> int:
        return len(record.dump_line().encode("utf-8")) + 1

    @property
    def store_bytes(self) -> int:
        return self._used

    @property
    def record_count(self) -> int:
        return len(self._store)

    def get(self, record_key: str) -> AuditRecord | None:
        entry = self._store.get(record_key)
        return entry.record if entry else None

    def records(self) -> Iterator[AuditRecord]:
        for entry in self._store.values():
            yield entry.record

    def evict(self, needed_bytes: int) -> list[str]:
        """Free space by dropping the oldest checkpoint-covered records.

        Eviction order is (sim_time, record_key): a total, reproducible
        order. Atomic: if even evicting every eligible record cannot free
        needed_bytes, raises CheckpointRequired and evicts nothing.
        """
        if needed_bytes > self.store_limit_bytes:
            raise ValueError("needed_bytes exceeds the store limit")
        free = self.store_limit_bytes - self._used
        if free >= needed_bytes:
            return []
        eligible = sorted(
            (e for e in self._store.values() if e.covered),
            key=lambda e: (e.record.sim_time, e.record.record_key),
        )
        if free + sum(e.size for e in eligible) < needed_bytes:
            raise CheckpointRequired(self.node_id, needed_bytes)
        evicted = []
        for entry in eligible:
            if free >= needed_bytes:
                break
            del self._store[entry.record.record_key]
            self._used -= entry.size
            free += entry.size
            evicted.append(entry.record.record_key)
        return evicted

    def insert(self, record: AuditRecord) -> list[str]:
        """Store a record, evicting covered records first if space demands."""
        size = self.record_size(record)
        evicted = self.evict(size)
        self._store[record.record_key] = _Stored(record, size)
        self._used += size
        return evicted


class DhtNetwork:
    """The closed in-vehicle network of DHT nodes.

    Single-threaded by contract: the simulator's event loop serializes all
    operations.
    """

    def __init__(self, store_limit_bytes: int = DEFAULT_STORE_LIMIT_BYTES):
        self.store_limit_bytes = store_limit_bytes
        self._nodes: dict[str, DhtNode] = {}
        self._ints: dict[str, int] = {}
        self._failed: set[str] = set()

    # -- membership ------------------------------------------------------

    def add_node(self, node_id: str) -> DhtNode:
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        node = DhtNode(node_id, self.store_limit_bytes)
        self._nodes[node_id] = node
        self._ints[node_id] = int(node_id, 16)
        return node

    def remove_node(self, node_id: str) -> None:
        self._nodes.pop(node_id)
        self._ints.pop(node_id)
        self._failed.discard(node_id)

    def fail_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NodeUnavailable(f"unknown node {node_id}")
        self._failed.add(node_id)

    def recover_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NodeUnavailable(f"unknown node {node_id}")
        self._failed.discard(node_id)

    def node(self, node_id: str) -> DhtNode:
        return self._nodes[node_id]

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def is_live(self, node_id: str) -> bool:
        return node_id in self._nodes and node_id not in self._failed

    # -- lookups ---------------------------------------------------------

    def locate(self, origin: str, key: str) -> tuple[str, int]:
        """The live node closest to the key, and the bus hops to reach it.

        One scan of the live ids; hops is 0 when origin is that node and 1
        otherwise. Origin may be any member node, failed or not.
        """
        if origin not in self._nodes:
            raise NodeUnavailable(f"unknown origin {origin}")
        key_int = int(key, 16)
        target = min(
            (n for n in self._ints if n not in self._failed),
            key=lambda n: self._ints[n] ^ key_int,
            default=None,
        )
        if target is None:
            raise NodeUnavailable("no live node")
        return target, int(target != origin)

    # -- operations ------------------------------------------------------

    def put(self, origin: str, record: AuditRecord) -> StoreReceipt:
        """Place a record at the owner of its key (or closest live node).

        Raises NodeUnavailable for an unknown origin or when no node is live.
        May raise CheckpointRequired from the target store; the caller is
        expected to capture a checkpoint and retry. Re-putting a stored key
        is idempotent: the stored record, and whether it is covered, stay.
        """
        target, hops = self.locate(origin, record.record_key)
        # Placed away from its owner exactly when a failed node is closer.
        key_int = int(record.record_key, 16)
        distance = self._ints[target] ^ key_int
        fallback = any(self._ints[n] ^ key_int < distance for n in self._failed)
        node = self._nodes[target]
        if node.get(record.record_key) is not None:
            return StoreReceipt(target, hops, fallback)
        return StoreReceipt(target, hops, fallback, tuple(node.insert(record)))

    def cover(self) -> None:
        """Mark every stored record covered by a checkpoint, so evictable."""
        for node in self._nodes.values():
            for entry in node._store.values():
                entry.covered = True
