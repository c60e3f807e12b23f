"""Master unit: mirror, chained checkpoint meta-hashes, buffered uplink.

The master mirrors, captures, queues and drains. When to checkpoint (each
interval, each mileage stride, each service or reflash event, and a store
too full of uncovered records to take the next one) is the vehicle
timeline's call; ``capture_meta_hash`` captures whenever asked.

Every record enters the in-vehicle table through ``MasterNode.put``,
which mirrors the (record key, payload hash) pair of each record a store
takes as new (``StoreReceipt.stored``): a re-put that finds its key in its
target store mirrors nothing, one that lands on another store is mirrored
again. The checkpoints chain the mirror's increments: capture s hashes
capture s-1's raw digest (nothing before the first) and the pairs mirrored
since, as raw 64-byte ``key‖payload_hash`` strings in sorted order
(``meta_digest``). A capture thus costs its own segment, not the history,
and the master keeps only the chain head, the pairs since and a count,
``covered_records``. Capturing also unlocks eviction in the node stores:
only covered records may be dropped, so an evicted record is always
vouched for by a checkpoint already queued.

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
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .auditcore import HEX_DIGEST, NUMBER, POSITIVE_NUMBER, AuditRecord, EventType
from .dht import DhtNetwork, StoreReceipt


@dataclass(frozen=True, slots=True)
class MetaHash:
    """One checkpoint: a link of the chain over the mirror's increments."""

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


def meta_digest(pairs: Iterable[tuple[str, str]], prev: bytes = b"") -> str:
    """One link of the checkpoint chain: the SHA-256 of ``prev``, then the
    (record_key, payload_hash) pairs as raw 64-byte strings in sorted order.

    ``prev`` is the previous link's 32-byte digest, or empty for the first.
    Keys and payload hashes are 64 lowercase hex characters, so the pairs'
    text order is their byte order. With no pairs and no ``prev`` this is
    the SHA-256 of the empty byte string.
    """
    raw = bytes.fromhex("".join(k + p for k, p in sorted(pairs)))
    return hashlib.sha256(prev + raw).hexdigest()


class MasterNode:
    """The head unit of one vehicle: mirror, checkpoints and their backlog."""

    def __init__(self, network: DhtNetwork):
        self.network = network
        self.buffer = LightClientBuffer()
        self.online = True  # uplink state; offline, the backlog waits
        self.captures: list[MetaHash] = []  # every checkpoint taken, in order
        # The chain head (b"" before the first capture), the pairs mirrored
        # since, and how many pairs the captures so far cover.
        self._head = b""
        self._pending: list[tuple[str, str]] = []
        self._covered = 0

    # -- mirror -----------------------------------------------------------

    def put(self, origin: str, record: AuditRecord) -> StoreReceipt:
        """The one way into the table: store from ``origin``, then mirror
        the record if its store took it as new."""
        receipt = self.network.put(origin, record)
        if receipt.stored:
            self._pending.append((record.record_key, record.payload_hash))
        return receipt

    # -- checkpoints --------------------------------------------------------

    def capture_meta_hash(self, trigger: EventType, sim_time: int, vehicle_key: str) -> MetaHash:
        """Checkpoint the mirror, unlock eviction of everything covered and
        queue the checkpoint for the full node, stamped with ``vehicle_key``."""
        digest = meta_digest(self._pending, self._head)
        self._head = bytes.fromhex(digest)
        self._covered += len(self._pending)
        self._pending.clear()
        mh = MetaHash(
            digest=digest,
            covered_records=self._covered,
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
