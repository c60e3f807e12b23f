"""Master unit: full mirror, checkpoint meta-hashes, buffered uplink.

The master mirrors, captures, queues and drains. When to checkpoint (each
interval, each mileage stride, each service or reflash event, and a store
too full of uncovered records to take the next one) is the vehicle
timeline's call; ``capture_meta_hash`` captures whenever asked.

Every record enters the in-vehicle table through ``MasterNode.put``, which
mirrors what the table accepts, so the mirror never lags the table and a
checkpoint is a pure function of the mirror: the meta digest folds the
(record key, payload hash) pairs in key order, making it independent of
insertion order and reproducible from any node dump. It is a two-level
hash (``meta_digest``): the pairs fall into 64 buckets by the top six bits
of their key, each bucket hashes its pairs, and the top level hashes the
digests of the non-empty buckets. The mirror holds each bucket as raw
64-byte ``key‖payload_hash`` strings in sorted order, and keeps each
bucket's digest, so a capture re-hashes only the buckets that gained a
pair since the last capture. Capturing a checkpoint is also what unlocks
eviction down in the node stores: the capture covers every record stored
so far, and only covered records may be dropped.

Outbound, the master feeds a light client buffer. Each checkpoint queues
as the Submission the full node will receive, stamped with the vehicle key
the caller passes to that capture. A Submission is a ``NamedTuple``, an
immutable value. This module owns its wire grammar: one table of field
patterns gives ``WIRE_LINE``, one admissible line, which the full node
fullmatches on append, and ``ENTRY_LINES``, all the entry lines of a
ledger record, which ``ledger`` matches on read. ``Submission.from_line``
builds the value from line bytes the grammar has checked:
``ledger.load_ledger`` builds one for every entry it loads,
``ledger.history_from_file`` only for the asked key's entries.
Submissions queue while connectivity is down and drain strictly in order
once it returns: each drain returns the whole backlog to the vehicle,
which delivers it as one batch, so nothing is dropped or reordered. What
the full node then refuses is reported by the scenario run, not retried
here.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .auditcore import HEX_DIGEST, NUMBER, POSITIVE_NUMBER, AuditRecord, EventType
from .dht import DhtNetwork, StoreReceipt


@dataclass(frozen=True, slots=True)
class MetaHash:
    """One checkpoint: a digest over the entire mirrored table."""

    digest: str
    covered_records: int
    checkpoint_seq: int
    sim_time: int
    trigger: EventType


class Submission(NamedTuple):
    """Wire unit delivered to the full node, one per checkpoint.

    Encoding: ``vehicle_key|seq|digest|trigger|sim_time``, see ``WIRE_LINE``;
    ``from_line`` reads it back.
    """

    vehicle_key: str
    checkpoint_seq: int
    meta_digest: str
    trigger: EventType
    sim_time: int

    def wire_line(self) -> str:
        return (
            f"{self.vehicle_key}|{self.checkpoint_seq}|{self.meta_digest}"
            f"|{self.trigger.value}|{self.sim_time}"
        )

    @classmethod
    def from_line(cls, line: bytes) -> "Submission":
        """The submission whose wire line ``WIRE_LINE`` fullmatches ``line``."""
        key, seq, digest, trigger, sim_time = line.split(b"|")
        return cls(key.decode(), int(seq), digest.decode(), _TRIGGERS[trigger], int(sim_time))


_TRIGGERS = {t.value.encode(): t for t in EventType}

# The wire grammar, in the one spelling ``wire_line`` writes: 64-hex key,
# checkpoint_seq >= 1, 64-hex digest, trigger, sim_time >= 0.
_FIELDS = (
    HEX_DIGEST, POSITIVE_NUMBER, HEX_DIGEST, b"|".join(map(re.escape, _TRIGGERS)), NUMBER
)


def _wire_pattern(captured: int) -> bytes:
    """The wire line's pattern, with its first ``captured`` fields as groups."""
    return rb"\|".join(
        (b"(%s)" if n < captured else b"(?:%s)") % f for n, f in enumerate(_FIELDS)
    )


# One admissible wire line; its groups are the five fields.
WIRE_LINE = re.compile(_wire_pattern(5))
# A ledger record's entry lines, one or more, each ended by a newline; the
# groups are the first entry's line, key and checkpoint_seq.
ENTRY_LINES = re.compile(rb"(%s)\n(?:%s\n)*" % (_wire_pattern(2), _wire_pattern(0)))


@dataclass
class LightClientBuffer:
    """Outbound queue between the master unit and the external full node."""

    pending: list[Submission] = field(default_factory=list)


BUCKETS = 64  # a pair's bucket is the top six bits of its raw key


def meta_digest(pairs: Iterable[tuple[str, str]]) -> str:
    """Fold (record_key, payload_hash) pairs into one order-free digest.

    Each pair goes, as its raw 64 bytes, to bucket ``key[0] >> 2``. A
    bucket's digest is the SHA-256 of its pairs sorted by key; the meta
    digest is the SHA-256 of the 32-byte digests of the non-empty buckets,
    in bucket order. The empty set hashes to SHA-256 of the empty byte
    string. This is the reference definition; ``MasterNode`` computes the
    same value incrementally.
    """
    buckets: list[list[bytes]] = [[] for _ in range(BUCKETS)]
    for key, payload in pairs:
        pair = bytes.fromhex(key + payload)
        buckets[pair[0] >> 2].append(pair)
    top = hashlib.sha256()
    for bucket in buckets:
        if bucket:
            top.update(hashlib.sha256(b"".join(sorted(bucket))).digest())
    return top.hexdigest()


class MasterNode:
    """The head unit of one vehicle: mirror, checkpoints and their backlog."""

    def __init__(self, network: DhtNetwork):
        self.network = network
        self.buffer = LightClientBuffer()
        self.online = True  # uplink state; offline, the backlog waits
        self.captures: list[MetaHash] = []  # every checkpoint taken, in order
        # Raw key‖payload_hash pairs per bucket, sorted by key; each bucket's
        # digest as of the last capture (b"" while empty), and the buckets
        # that gained a pair since.
        self._buckets: list[list[bytes]] = [[] for _ in range(BUCKETS)]
        self._digests: list[bytes] = [b""] * BUCKETS
        self._dirty: set[int] = set()

    # -- mirror -----------------------------------------------------------

    def put(self, origin: str, record: AuditRecord) -> StoreReceipt:
        """The one way into the table: store from ``origin``, then mirror."""
        receipt = self.network.put(origin, record)
        self.mirror_update(record)
        return receipt

    def mirror_update(self, record: AuditRecord) -> None:
        """Fold one accepted record into the full mirror (idempotent).

        Keys are fixed-length lowercase hex, so raw-byte order is the key
        order ``meta_digest`` sorts by; a key already mirrored is kept.
        """
        pair = bytes.fromhex(record.record_key + record.payload_hash)
        key = pair[:32]
        n = pair[0] >> 2
        bucket = self._buckets[n]
        i = bisect_left(bucket, key)
        if i == len(bucket) or bucket[i][:32] != key:
            bucket.insert(i, pair)
            self._dirty.add(n)

    @property
    def mirror_size(self) -> int:
        return sum(map(len, self._buckets))

    def mirrored(self, record_key: str) -> str | None:
        """Payload hash mirrored under a record key, or None."""
        key = bytes.fromhex(record_key)
        bucket = self._buckets[key[0] >> 2]
        i = bisect_left(bucket, key)
        if i < len(bucket) and bucket[i][:32] == key:
            return bucket[i][32:].hex()
        return None

    # -- checkpoints --------------------------------------------------------

    def capture_meta_hash(self, trigger: EventType, sim_time: int, vehicle_key: str) -> MetaHash:
        """Checkpoint the mirror, unlock eviction of everything covered and
        queue the checkpoint for the full node, stamped with ``vehicle_key``."""
        for n in self._dirty:
            self._digests[n] = hashlib.sha256(b"".join(self._buckets[n])).digest()
        self._dirty.clear()
        digest = hashlib.sha256(b"".join(self._digests)).hexdigest()
        mh = MetaHash(
            digest=digest,
            covered_records=self.mirror_size,
            checkpoint_seq=len(self.captures) + 1,
            sim_time=sim_time,
            trigger=trigger,
        )
        self.captures.append(mh)
        self.network.cover()
        self.buffer.pending.append(
            Submission(vehicle_key, mh.checkpoint_seq, digest, trigger, sim_time)
        )
        return mh

    # -- uplink ------------------------------------------------------------

    def submit_pending(self) -> list[Submission]:
        """Drain the backlog, in checkpoint order, for delivery.

        Offline returns ``[]``: the backlog waits, in order, for the next drain.
        """
        if not self.online:
            return []
        drained, self.buffer.pending = self.buffer.pending, []
        return drained
