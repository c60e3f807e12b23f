"""Master unit: full mirror, checkpoint meta-hashes, buffered uplink.

The master mirrors, captures, queues and drains. When to checkpoint (each
interval, each mileage stride, each service or reflash event) is the
vehicle timeline's call; ``capture_meta_hash`` captures whenever asked.

Every record enters the in-vehicle table through ``MasterNode.put``, which
mirrors what the table accepts, so the mirror never lags the table and a
checkpoint is a pure function of the mirror: the meta digest folds the
(record key, payload hash) pairs sorted by key, making it independent of
insertion order and reproducible from any node dump. The mirror holds
exactly those pairs as raw 64-byte ``key‖payload_hash`` strings in sorted
order, so a capture is one join and one hash. Capturing a
checkpoint is also what unlocks eviction down in the node stores: the
capture covers every record stored so far, and only covered records may
be dropped.

Outbound, the master feeds a light client buffer. Each checkpoint queues
as the Submission the full node will receive, stamped with the vehicle key
the caller passes to that capture. Submissions queue while connectivity is
down and drain strictly in order once it returns: each drain returns the
whole backlog to the vehicle, which delivers it as one batch, so nothing
is dropped or reordered. What the full node then refuses is reported by
the scenario run, not retried here.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from .auditcore import AuditRecord, EventType
from .dht import DhtNetwork, StoreReceipt


@dataclass(frozen=True)
class MetaHash:
    """One checkpoint: a digest over the entire mirrored table."""

    digest: str
    covered_records: int
    checkpoint_seq: int
    sim_time: int
    trigger: EventType


@dataclass(frozen=True)
class Submission:
    """Wire unit delivered to the full node, one per checkpoint.

    Encoding: ``vehicle_key|seq|digest|trigger|sim_time``, see ``WIRE_LINE``.
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
    def from_match(cls, line: re.Match[bytes]) -> "Submission":
        """The submission whose wire line ``WIRE_LINE`` matched."""
        key, seq, digest, trigger, sim_time = line.groups()
        return cls(key.decode(), int(seq), digest.decode(), _TRIGGERS[trigger], int(sim_time))


_TRIGGERS = {t.value.encode(): t for t in EventType}

# The admissible wire line in the one spelling ``wire_line`` writes: 64-hex
# key, checkpoint_seq >= 1, 64-hex digest, trigger, sim_time >= 0.
WIRE_LINE = re.compile(
    rb"([0-9a-f]{64})\|([1-9][0-9]*)\|([0-9a-f]{64})\|(%s)\|(0|[1-9][0-9]*)"
    % b"|".join(map(re.escape, _TRIGGERS))
)


@dataclass
class LightClientBuffer:
    """Outbound queue between the master unit and the external full node."""

    pending: list[Submission] = field(default_factory=list)


def meta_digest(pairs: Iterable[tuple[str, str]]) -> str:
    """Fold (record_key, payload_hash) pairs into one order-free digest.

    Pairs are sorted by record key and concatenated as raw digest bytes.
    The empty set hashes to SHA-256 of the empty byte string. This is the
    reference definition; ``MasterNode`` keeps its mirror in this order
    already and hashes it directly.
    """
    h = hashlib.sha256()
    for key, payload in sorted(pairs):
        h.update(bytes.fromhex(key))
        h.update(bytes.fromhex(payload))
    return h.hexdigest()


class MasterNode:
    """The head unit of one vehicle: mirror, checkpoints and their backlog."""

    def __init__(self, network: DhtNetwork):
        self.network = network
        self.buffer = LightClientBuffer()
        self.online = True  # uplink state; offline, the backlog waits
        self.captures: list[MetaHash] = []  # every checkpoint taken, in order
        self._pairs: list[bytes] = []  # raw key‖payload_hash, sorted by key

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
        i = bisect_left(self._pairs, key)
        if i == len(self._pairs) or self._pairs[i][:32] != key:
            self._pairs.insert(i, pair)

    @property
    def mirror_size(self) -> int:
        return len(self._pairs)

    def mirrored(self, record_key: str) -> str | None:
        """Payload hash mirrored under a record key, or None."""
        key = bytes.fromhex(record_key)
        i = bisect_left(self._pairs, key)
        if i < len(self._pairs) and self._pairs[i][:32] == key:
            return self._pairs[i][32:].hex()
        return None

    # -- checkpoints --------------------------------------------------------

    def capture_meta_hash(self, trigger: EventType, sim_time: int, vehicle_key: str) -> MetaHash:
        """Checkpoint the mirror, unlock eviction of everything covered and
        queue the checkpoint for the full node, stamped with ``vehicle_key``."""
        digest = hashlib.sha256(b"".join(self._pairs)).hexdigest()
        mh = MetaHash(
            digest=digest,
            covered_records=len(self._pairs),
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
