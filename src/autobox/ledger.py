"""Simulated OEM full node: hash-chained block ledger plus verdict policy.

The verdict policy is one method, ``FullNode.evaluate``, which decides
every outcome of a checkpoint in one chain of branches: a missing library,
registration or variant raises, and otherwise it gives one ``Verdict``.

The chain is the local stand-in for a public ledger, with the same
submission interface a real chain client would sit behind; swapping in an
external chain means replacing FullNode while keeping Submission and the
wire format. What is testable locally is the tamper evidence of the chain
structure itself: every byte of a persisted block is covered by either the
block's Merkle root or its header hash, so verification pinpoints the
first block whose bytes no longer recompute.

Block layout on disk (append-only, one record per block):

    <decimal byte length of payload>\\n
    <index>|<prev_hash>|<entries_root>|<block_hash>\\n
    <submission wire line>\\n        (one or more)

block_hash covers ``index|prev_hash|entries_root``; entries_root is a
binary Merkle root over the entry lines (leaf = SHA-256 of the line,
duplicate-last when a level is odd), so the root of a one-entry block is
its line's SHA-256. Block 0 links from 64 zero hex chars.

One walker, ``_walk``, reads the file and makes every check in place,
without parsing and re-encoding, at the cost of two matches and the
block's SHA-256s: ``RECORD_HEAD``, beside ``LedgerBlock.file_record``,
matches the length and header lines, and ``masternode.ENTRY_LINES``, built
from the fields of ``WIRE_LINE`` beside ``Submission.wire_line``, all the
entry lines at once, numbers only as ``auditcore.NUMBER`` spells them
(canonical, at most 18 digits). The entries match is bounded by the
length line and must end exactly there: a record needs an entry line, and
its length line counts the payload exactly. The header must equal the one
``_seal`` formats from the raw entry bytes, the seal ``LedgerBlock.build``
writes. Per vehicle key, checkpoint_seq must strictly increase along the
chain, as on append: that rejects a duplicated last entry line, which
keeps the Merkle root. An empty file is a valid chain of 0 blocks, the
truncation at boundary 0. The walker stops at the first block that fails,
with one error, ``LedgerFormatError``, whose ``broken_at`` names that
block. Each reader drives the walker, which yields the checked header and
entry-line bytes: ``verify_chain`` builds no object and turns the error
into its verdict, ``history_from_file`` builds a ``Submission``
(``Submission.from_line``) only for the lines whose first 64 bytes are
the asked key, and ``load_ledger`` every ``LedgerBlock`` and entry; those
two raise the walker's error as it is. ``LedgerBlock`` and ``Submission``
are ``NamedTuple``s: immutable and hashable like a frozen dataclass, but
built by one tuple allocation instead of a setattr per field.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .auditcore import POSITIVE_NUMBER, is_hex_digest
from .masternode import ENTRY_LINES, WIRE_LINE, Submission

GENESIS_PREV = "0" * 64


class LedgerFormatError(ValueError):
    """The ledger file breaks at block ``broken_at``: that block fails a
    check, or is cut off, so no reader goes past it."""

    def __init__(self, path: str | Path, broken_at: int):
        super().__init__(f"{path}: chain broken-at {broken_at}")
        self.broken_at = broken_at


class UnknownVariantError(ValueError):
    """The approved library has no entry for this variant (library gap)."""


class UnknownVehicleError(ValueError):
    """No variant registration exists for this vehicle key."""


class VerdictStatus(str, Enum):
    APPROVED = "Approved"
    SERVICE_NEEDED = "ServiceNeeded"
    EMERGENCY_OTA = "EmergencyOta"
    IMMOBILIZE = "Immobilize"


@dataclass(frozen=True, slots=True)
class Verdict:
    status: VerdictStatus
    reason: str
    vehicle_key: str
    checkpoint_seq: int

    def output_line(self) -> str:
        return "\t".join(
            (self.vehicle_key, str(self.checkpoint_seq), self.status.value, self.reason)
        )


def read_library(text: str) -> dict[str, tuple[str, ...]]:
    """Parse an approved-library file: one ``variant<TAB>digest`` per line.

    Blank lines are skipped; any other line that is not two tab-separated
    fields with a hex digest raises ValueError naming the line.
    """
    library: dict[str, list[str]] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"library line {n}: expected variant<TAB>digest")
        variant, digest = fields
        if not is_hex_digest(digest):
            raise ValueError(f"library line {n}: not a hex digest: {digest!r}")
        library.setdefault(variant, []).append(digest)
    return {variant: tuple(digests) for variant, digests in library.items()}


def library_text(library: Mapping[str, Iterable[str]]) -> str:
    """The approved-library file: variants, then digests, in sorted order."""
    return "".join(
        f"{variant}\t{digest}\n"
        for variant in sorted(library)
        for digest in sorted(set(library[variant]))
    )


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Binary Merkle root; odd levels duplicate their last node, so the
    root of one leaf is the leaf."""
    if not leaves:
        raise ValueError("merkle root of zero leaves is undefined")
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


def _seal(index: int, prev_hash: str, lines: Sequence[bytes]) -> bytes:
    """A block's header line, ``index|prev_hash|entries_root|block_hash``,
    over its entry lines, at least one. The root of one line is its leaf,
    the line's SHA-256, so ``merkle_root`` runs for two or more."""
    if len(lines) == 1:
        root = hashlib.sha256(lines[0]).hexdigest()
    else:
        root = merkle_root([hashlib.sha256(line).digest() for line in lines]).hex()
    sealed = f"{index}|{prev_hash}|{root}"
    return f"{sealed}|{hashlib.sha256(sealed.encode()).hexdigest()}".encode()


class LedgerBlock(NamedTuple):
    index: int
    prev_hash: str
    entries: tuple[Submission, ...]
    entries_root: str
    block_hash: str

    @classmethod
    def build(cls, index: int, prev_hash: str, entries: Sequence[Submission]) -> "LedgerBlock":
        """Seal entries, at least one, into a block over their wire lines."""
        lines = [s.wire_line().encode("utf-8") for s in entries]
        root, block_hash = _seal(index, prev_hash, lines).decode().rsplit("|", 2)[1:]
        return cls(index, prev_hash, tuple(entries), root, block_hash)

    def header(self) -> str:
        return f"{self.index}|{self.prev_hash}|{self.entries_root}|{self.block_hash}"

    def file_record(self) -> bytes:
        lines = [self.header()] + [s.wire_line() for s in self.entries]
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        return str(len(payload)).encode("ascii") + b"\n" + payload


# A record's length line (the payload's byte count, canonical decimal) and
# header line; the walker compares the header with the one ``_seal`` gives.
RECORD_HEAD = re.compile(rb"(%s)\n([^\n]*)\n" % POSITIVE_NUMBER)


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    broken_at: int | None = None

    def describe(self) -> str:
        return "valid" if self.valid else f"broken-at {self.broken_at}"


@dataclass(frozen=True)
class AppendResult:
    block: LedgerBlock | None
    rejected: tuple[tuple[Submission, str], ...]

    @property
    def accepted(self) -> tuple[Submission, ...]:
        return self.block.entries if self.block else ()


def _advance(last_seq: dict[Any, int], vehicle_key: str | bytes, seq: int) -> str | None:
    """Record ``seq`` as the vehicle's latest, or say why it is a replay.

    With the wire grammar (``WIRE_LINE`` on append, ``ENTRY_LINES`` on
    read) this is the admission rule.
    """
    last = last_seq.get(vehicle_key, 0)
    if seq <= last:
        return f"replay: checkpoint_seq {seq} <= {last}"
    last_seq[vehicle_key] = seq
    return None


def _walk(path: str | Path) -> Iterator[tuple[int, bytes, list[bytes]]]:
    """Make the module docstring's checks on every record of the file,
    building no block or entry. Yields each accepted block's index, header
    line and entry lines; raises ``LedgerFormatError`` at the first block
    that fails."""
    blob = Path(path).read_bytes()
    last_seq: dict[bytes, int] = {}
    prev, pos, index, size = GENESIS_PREV, 0, 0, len(blob)
    while pos < size:
        head = RECORD_HEAD.match(blob, pos)
        if head is None:
            raise LedgerFormatError(path, index)
        pos, end = head.end(), head.start(2) + int(head[1])
        # Bounded by the length line, so it cannot run on into the next record.
        entries = ENTRY_LINES.match(blob, pos, end)
        if (
            entries is None
            or entries.end() != end
            or _advance(last_seq, entries[2], int(entries[3]))
        ):
            raise LedgerFormatError(path, index)
        if entries.end(1) + 1 == end:  # one entry: its line ends the record
            lines = [entries[1]]
        else:  # the grammar is checked: read each later key and seq by position
            lines = blob[pos : end - 1].split(b"\n")
            for line in lines[1:]:
                if _advance(last_seq, line[:64], int(line[65 : line.index(b"|", 65)])):
                    raise LedgerFormatError(path, index)
        header = _seal(index, prev, lines)
        if header != head[2]:
            raise LedgerFormatError(path, index)
        yield index, header, lines
        prev, pos, index = header[-64:].decode(), end, index + 1


def verify_chain(path: str | Path) -> VerifyResult:
    """Check every block of a persisted ledger; report the first broken.

    An empty file is a valid chain of 0 blocks. Builds no block or entry.
    """
    try:
        for _ in _walk(path):
            pass
    except LedgerFormatError as broken:
        return VerifyResult(valid=False, broken_at=broken.broken_at)
    return VerifyResult(valid=True)


def load_ledger(path: str | Path) -> list[LedgerBlock]:
    """Load a persisted ledger; any broken block raises LedgerFormatError."""
    blocks = []
    for index, header, lines in _walk(path):
        _, prev, root, block_hash = header.decode().split("|")
        blocks.append(
            LedgerBlock(index, prev, tuple(map(Submission.from_line, lines)), root, block_hash)
        )
    return blocks


class FullNode:
    """Append-only ledger authority with per-vehicle sequence tracking, and
    the one judge of a checkpoint: ``evaluate`` reads the approved library,
    the critical variants and each key's registered variants held here.

    Appends are serialized (single writer).
    """

    def __init__(
        self,
        library: Mapping[str, Iterable[str]] | None = None,
        critical_variants: frozenset[str] = frozenset(),
    ):
        # Variant -> approved meta digests, frozen once for every lookup.
        self.library = (
            None if library is None else {v: frozenset(d) for v, d in library.items()}
        )
        self.critical_variants = critical_variants
        self.chain: list[LedgerBlock] = []
        self._last_seq: dict[str, int] = {}
        # Vehicle key -> its registered variants, sorted; two mean a clone.
        self._variants: dict[str, tuple[str, ...]] = {}

    # -- registration ------------------------------------------------------

    def register_vehicle(self, vehicle_key: str, variant: str) -> str | None:
        """Register a vehicle key for a variant, never replacing one: a key
        registered for a second variant keeps both, and the alert naming the
        conflict is returned. Otherwise returns None."""
        held = self._variants.get(vehicle_key, ())
        if variant in held:
            return None
        variants = self._variants[vehicle_key] = tuple(sorted((*held, variant)))
        if len(variants) == 1:
            return None
        return f"vehicle key {vehicle_key[:12]}… registered for variants {' and '.join(variants)}"

    # -- appends -----------------------------------------------------------

    def append_submissions(self, submissions: Sequence[Submission]) -> AppendResult:
        """Append one block of validated submissions.

        Malformed or replayed (non-increasing per-vehicle sequence)
        submissions are rejected individually and never enter the chain.
        """
        accepted: list[Submission] = []
        rejected: list[tuple[Submission, str]] = []
        for sub in submissions:
            problem = "malformed: not a canonical wire line"
            try:  # an int past its digit limit, unencodable text, or no EventType
                if WIRE_LINE.fullmatch(sub.wire_line().encode("utf-8")):
                    problem = _advance(self._last_seq, sub.vehicle_key, sub.checkpoint_seq)
            except (ValueError, AttributeError):
                pass
            if problem:
                rejected.append((sub, problem))
            else:
                accepted.append(sub)
        if not accepted:
            return AppendResult(block=None, rejected=tuple(rejected))
        prev = self.chain[-1].block_hash if self.chain else GENESIS_PREV
        block = LedgerBlock.build(len(self.chain), prev, accepted)
        self.chain.append(block)
        return AppendResult(block=block, rejected=tuple(rejected))

    # -- verdicts ------------------------------------------------------------

    def evaluate(self, submission: Submission, *, tamper_flag: bool = False) -> Verdict:
        """The OEM verdict on a submission: the one place each outcome is
        decided, one branch each, in the order they are tried.

        With no library, no registration for the key, or no approved
        digests for its one variant, there is nothing to judge against, and
        it raises. A conflicted key is judged against none of its variants:
        ``ServiceNeeded``, or ``Immobilize`` with the tamper flag set,
        whatever the digest. Otherwise an approved digest is ``Approved``,
        and a failed check escalates: a tamper-flagged vehicle immobilizes,
        a critical variant warrants an emergency update, anything else is
        routed to service.
        """
        variants = self._variants.get(submission.vehicle_key, ())
        if self.library is None:
            raise UnknownVariantError("no approved library configured")
        elif not variants:
            raise UnknownVehicleError(
                f"vehicle key {submission.vehicle_key[:12]}… has no registered variant"
            )
        elif len(variants) > 1:
            status = VerdictStatus.IMMOBILIZE if tamper_flag else VerdictStatus.SERVICE_NEEDED
            reason = f"vehicle key registered for variants {' and '.join(variants)}"
        elif (variant := variants[0]) not in self.library:
            raise UnknownVariantError(f"no approved digests on file for variant {variant!r}")
        elif submission.meta_digest in self.library[variant]:
            status, reason = VerdictStatus.APPROVED, f"meta digest approved for variant {variant}"
        elif tamper_flag:
            status = VerdictStatus.IMMOBILIZE
            reason = f"tamper flag set and meta digest not approved for variant {variant}"
        elif variant in self.critical_variants:
            status = VerdictStatus.EMERGENCY_OTA
            reason = f"meta digest not approved for critical variant {variant}"
        else:
            status = VerdictStatus.SERVICE_NEEDED
            reason = f"meta digest not in approved set for variant {variant}"
        return Verdict(status, reason, submission.vehicle_key, submission.checkpoint_seq)


def history_from_file(path: str | Path, vehicle_key: str) -> list[tuple[int, Submission]]:
    """One vehicle's (block index, entry) pairs from a persisted ledger, in
    chain order, which is checkpoint order: the admission rule makes its
    sequence numbers strictly increase. Checks the whole chain, but builds
    only this key's entries: none for an unknown or non-ASCII (``?``) key."""
    want = vehicle_key.encode("ascii", "replace")
    return [
        (index, Submission.from_line(line))
        for index, _, lines in _walk(path)
        for line in lines
        if line[:64] == want
    ]
