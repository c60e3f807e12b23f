"""Redundant storage clusters: d data devices plus one XOR parity device.

Byte-wise even parity over right-zero-extended stores: for every byte
position, the XOR across all data devices and the parity device is zero,
so any single device's content is the XOR of all the others. Plain parity
detects a fault but cannot locate it; the cluster therefore also indexes
every stored record with a digest of its bytes, which pins a corruption to
the device whose records stop verifying. Locate via record hashes, repair
via XOR.

Checking every record at every scrub costs a hash call per record, so a
live cluster also keeps what its appends wrote: a copy of every device,
data and parity, that only appends update and that no device is ever
copied into. A data device equal to its copy holds no stale record; only
the devices that differ get the per-record check. When every data device
equals its copy, their XOR is the parity copy, so the parity invariant is
one comparison of the parity device with that copy. A cluster loaded from
a snapshot has no write history: all of its devices take the per-record
check, and parity is checked by folding every device.

Loading a snapshot checks its record index in bulk. A shape match (the
line grammar with any 64 bytes but a newline in each digest field) must
reach the end of the blob, and one byte-class check must find that those
lines hold only hex digits, tabs and newlines, four tabs a line, which
makes each of them a line of the grammar. The index is built from slices
of the fields of all lines at once, and repeated keys and spans outside
their device are checked over all lines at once too. When any of these
checks fails, one walk matches the strict grammar a line at a time and
refuses the first line that is malformed or names no record.

One device list holds the data devices at 0..d-1 and parity at d, where
the PARITY sentinel resolves; lists beside it hold recorded lengths and
the written copies. XOR folds stores read as little-endian ints: zero
bytes on the right of a store are high-order zero digits, so unequal
stores need no padding.

Single-fault model throughout: two devices disagreeing at once is reported
as uncorrectable, never silently "fixed".

Devices are append-only. The recorded length of a device survives erasure
of its content, which is what makes reconstruction of a wholly lost device
well-defined.
"""

from __future__ import annotations

import hashlib
import re
from itertools import repeat
from operator import add, le
from typing import Iterable, NamedTuple, NoReturn, Union

from .auditcore import HEX_DIGEST, NUMBER

PARITY = "parity"

DeviceRef = Union[int, str]  # data device index, or the PARITY sentinel


class ClusterError(ValueError):
    """Structurally invalid cluster operation (bad device, bad sizes)."""


class MultiFaultError(RuntimeError):
    """More than one device is corrupt; single-parity cannot repair this."""


def _xor(stores: Iterable[bytes]) -> int:
    acc = 0
    for store in stores:
        acc ^= int.from_bytes(store, "little")
    return acc


def _fold_in(parity: bytearray, offset: int, payload: bytes) -> None:
    """XOR payload into parity's own bytes at offset, zero-extending it."""
    if offset >= len(parity):  # XOR with zeros: zero-fill up to offset, then append
        parity.extend(bytes(offset - len(parity)))
        parity.extend(payload)
        return
    end = offset + len(payload)
    if len(parity) < end:
        parity.extend(bytes(end - len(parity)))
    mixed = int.from_bytes(parity[offset:end], "little") ^ int.from_bytes(payload, "little")
    parity[offset:end] = mixed.to_bytes(len(payload), "little")


class RecordLocation(NamedTuple):
    device: int
    offset: int
    length: int
    record_hash: str


class ScrubReport(NamedTuple):
    clean: bool
    device: DeviceRef | None = None
    records: frozenset[str] = frozenset()


class ParityCluster:
    """d append-only data stores, one parity store, one record index."""

    def __init__(self, device_count: int):
        if device_count < 2:
            raise ClusterError("cluster needs at least 2 data devices")
        self.device_count = device_count
        self._devices = [bytearray() for _ in range(device_count + 1)]
        self._lengths = [0] * (device_count + 1)  # recorded lengths survive erasure
        self._index: dict[str, RecordLocation] = {}
        # The devices as appended, never copied from one; None when unknown.
        self._written: list[bytearray] | None = [bytearray() for _ in range(device_count + 1)]

    def _resolve(self, device: DeviceRef) -> int:
        """Position of a device in the device list; parity sits at d."""
        if device == PARITY:
            return self.device_count
        if type(device) is not int:
            raise ClusterError(f"no device {device!r}")
        if not 0 <= device < self.device_count:  # an index too long for str() stays unprinted
            raise ClusterError(f"no device at that index of {self.device_count} data devices")
        return device

    def _data_index(self, device: DeviceRef) -> int:
        idx = self._resolve(device)
        if idx == self.device_count:
            raise ClusterError("parity is not a data device")
        return idx

    # -- views -----------------------------------------------------------

    def recorded_length(self, device: DeviceRef) -> int:
        return self._lengths[self._resolve(device)]

    def has_record(self, record_key: str) -> bool:
        return record_key in self._index

    def is_erased(self, device: DeviceRef) -> bool:
        idx = self._resolve(device)
        return len(self._devices[idx]) != self._lengths[idx]

    # -- writes ----------------------------------------------------------

    def append_record(self, device: int, record_key: str, payload: bytes) -> RecordLocation:
        """Append record bytes to a device and fold them into parity.

        Incremental: only the parity bytes under the appended range change,
        so a latent corruption elsewhere is never absorbed by a write.
        """
        idx = self._data_index(device)
        if record_key in self._index:
            raise ClusterError(f"record {record_key[:12]}… already indexed")
        store = self._devices[idx]
        if len(store) != self._lengths[idx]:
            raise ClusterError(f"device {idx} is erased; repair before appending")
        offset, end = len(store), len(store) + len(payload)
        store.extend(payload)
        _fold_in(self._devices[self.device_count], offset, payload)
        if (written := self._written) is not None:
            written[idx].extend(payload)
            _fold_in(written[self.device_count], offset, payload)
        self._lengths[idx] = end
        self._lengths[self.device_count] = max(self._lengths[self.device_count], end)
        loc = RecordLocation(idx, offset, len(payload), hashlib.sha256(payload).hexdigest())
        self._index[record_key] = loc
        return loc

    # -- fault injection and repair ---------------------------------------

    def corrupt_byte(self, device: DeviceRef, offset: int) -> tuple[int, int]:
        """Invert a stored byte in place, bypassing parity maintenance.

        Models bit rot or direct memory modification. Returns (pre, post)
        byte values for ground-truth bookkeeping.
        """
        target = self._devices[self._resolve(device)]
        if not 0 <= offset < len(target):
            raise ClusterError(f"offset outside the {len(target)} bytes of device {device!r}")
        pre = target[offset]
        target[offset] ^= 0xFF
        return pre, target[offset]

    def erase_device(self, device: DeviceRef) -> None:
        """Discard a device's content; its recorded length is kept."""
        self._devices[self._resolve(device)] = bytearray()

    def write_back(self, device: DeviceRef, content: bytes) -> None:
        idx = self._resolve(device)
        if len(content) != self._lengths[idx]:
            raise ClusterError(
                f"device {device!r} expects {self._lengths[idx]} bytes, got {len(content)}"
            )
        self._devices[idx] = bytearray(content)


def _suspects(cluster: ParityCluster, contents: dict[int, bytes]) -> dict[int, bytes]:
    """The entries of contents (data device -> content) that may hold a
    stale record: every one when the write history is unknown, otherwise
    those that differ from the bytes appended to them."""
    if (written := cluster._written) is None:
        return contents
    return {i: content for i, content in contents.items() if content != written[i]}


def _stale_records(cluster: ParityCluster, suspect: dict[int, bytes]) -> dict[int, list[str]]:
    """Device -> keys of its records whose bytes in suspect[device] miss
    their hash, for the suspect devices that have any, in one walk of the
    record index."""
    stale: dict[int, list[str]] = {}
    sha256, content_of = hashlib.sha256, suspect.get
    for key, (device, offset, length, record_hash) in cluster._index.items() if suspect else ():
        content = content_of(device)
        if content is None:
            continue
        if sha256(content[offset : offset + length]).hexdigest() != record_hash:
            stale.setdefault(device, []).append(key)
    return stale


def scrub(cluster: ParityCluster) -> ScrubReport:
    """Check every data device's records and the parity invariant.

    A data device equal to what was appended to it is intact as a whole;
    any other device has each record hash checked. Record-hash mismatches
    locate the corrupt data device; a parity mismatch with all records
    intact indicts the parity device itself.
    """
    d = cluster.device_count
    suspect = _suspects(cluster, dict(enumerate(cluster._devices[:d])))
    stale = _stale_records(cluster, suspect)
    if len(stale) > 1:
        raise MultiFaultError(f"record-hash mismatches on devices {sorted(stale)}; uncorrectable")
    if stale:
        device, keys = stale.popitem()
        return ScrubReport(clean=False, device=device, records=frozenset(keys))
    # Appends keep the parity device exactly as long as the longest data
    # device, so a length drift is itself a parity fault (e.g. erasure whose
    # true parity happened to be all zeroes).
    if cluster.is_erased(PARITY):
        return ScrubReport(clean=False, device=PARITY)
    if suspect:
        faulty = _xor(cluster._devices) != 0
    else:
        # No suspect device: the history is known and every data device holds
        # what was appended, so their XOR is the parity as written, and the
        # fold is zero exactly when the parity device equals that copy.
        faulty = cluster._devices[d] != cluster._written[d]
    return ScrubReport(clean=False, device=PARITY) if faulty else ScrubReport(clean=True)


def reconstruct(cluster: ParityCluster, device: DeviceRef) -> bytes:
    """Rebuild one device as the XOR of all the others.

    The result is checked against the device's records (parity holds
    none); a residual mismatch means a second device is also bad.
    """
    idx = cluster._resolve(device)
    length = cluster._lengths[idx]
    others = [store for i, store in enumerate(cluster._devices) if i != idx]
    content = (_xor(others) & ((1 << 8 * length) - 1)).to_bytes(length, "little")
    if stale := _stale_records(cluster, _suspects(cluster, {idx: content})):
        raise MultiFaultError(
            f"reconstruction of device {idx} fails verification for "
            f"record {stale[idx][0][:12]}…; a second device must be corrupt"
        )
    return content


def repair(cluster: ParityCluster, device: DeviceRef) -> bytes:
    """Reconstruct a device and write the content back."""
    content = reconstruct(cluster, device)
    cluster.write_back(device, content)
    return content


# -- snapshot persistence --------------------------------------------------
#
# Format: one header line with device count and byte lengths, the raw store
# bytes in device order followed by the parity bytes, then the record index
# as tab-separated lines. The header's exact byte counts are what make the
# mixed text/binary layout parseable.


def save_snapshot(cluster: ParityCluster) -> bytes:
    d = cluster.device_count
    for i in range(d):
        if cluster.is_erased(i):
            raise ClusterError(f"device {i} is erased; snapshot requires intact stores")
    header = "d={} lengths={} parity_len={}\n".format(
        d, ",".join(str(n) for n in cluster._lengths[:d]), len(cluster._devices[d])
    )
    index = "".join(
        f"{key}\t{loc.device}\t{loc.offset}\t{loc.length}\t{loc.record_hash}\n"
        for key, loc in sorted(cluster._index.items())
    )
    return b"".join([header.encode("utf-8"), *cluster._devices, index.encode("utf-8")])


# The header and index lines in the one spelling save_snapshot writes:
# auditcore's canonical numbers, and 64-hex record keys and hashes.
# INDEX_SHAPE matches up to INDEX_CHUNK index lines with any 64 bytes but a
# newline in each digest field, a repeat the engine runs in one tight loop
# with the backtracking state of one chunk. A run of shaped lines is a run
# of index lines exactly when it holds no byte but INDEX_BYTES (the hex
# alphabet, tab and newline) and four tabs a line. INDEX_LINE, one strict
# line with its key, device, offset and length as groups, runs only to
# name the first failing line of an index those checks refuse.
SNAPSHOT_HEADER = re.compile(
    rb"d=(%s) lengths=(%s(?:,%s)*) parity_len=(%s)\n" % ((NUMBER,) * 4)
)
INDEX_CHUNK = 4096
INDEX_SHAPE = re.compile(
    rb"(?:.{64}\t%s\t%s\t%s\t.{64}\n){0,%d}" % (NUMBER, NUMBER, NUMBER, INDEX_CHUNK)
)
INDEX_BYTES = b"0123456789abcdef\t\n"
INDEX_LINE = re.compile(
    rb"(%s)\t(%s)\t(%s)\t(%s)\t%s\n" % (HEX_DIGEST, NUMBER, NUMBER, NUMBER, HEX_DIGEST)
)


def _lines_end(blob: bytes, pos: int) -> int:
    """End of the run of shaped lines from pos, one match per INDEX_CHUNK
    lines: the start of the first line off the shape, or the blob's end."""
    while pos < len(blob) and (end := INDEX_SHAPE.match(blob, pos).end()) > pos:
        pos = end
    return pos


def _refuse_index(blob: bytes, pos: int, lengths: list[int]) -> NoReturn:
    """Refuse the first index line from pos that is off the grammar, or
    whose key repeats or whose span lies outside its data device."""
    seen: set[bytes] = set()
    while line := INDEX_LINE.match(blob, pos):
        key, device, offset, length = line.groups()
        device = int(device)
        if key in seen or device >= len(lengths) or int(offset) + int(length) > lengths[device]:
            raise ClusterError(f"snapshot index line names no record {blob[pos : pos + 80]!r}")
        seen.add(key)
        pos = line.end()
    raise ClusterError(f"malformed snapshot index line {blob[pos : pos + 80]!r}")


def load_snapshot(blob: bytes) -> ParityCluster:
    header = SNAPSHOT_HEADER.match(blob)
    if header is None:
        raise ClusterError("malformed snapshot header")
    device_count = int(header[1])
    lengths = [int(n) for n in header[2].split(b",")]
    if len(lengths) != device_count:
        raise ClusterError("snapshot header lengths disagree with device count")
    cluster = ParityCluster(device_count)
    pos = header.end()
    with memoryview(blob) as view:
        for i, n in enumerate(lengths + [int(header[3])]):
            cluster._devices[i] = bytearray(view[pos : pos + n])
            if len(cluster._devices[i]) != n:
                raise ClusterError(f"snapshot truncated inside device {i}")
            pos += n
    cluster._lengths = lengths + [max(lengths)]
    cluster._written = None
    end = _lines_end(blob, pos)
    lines = blob[pos:end]
    if (
        end < len(blob)
        or lines.translate(None, INDEX_BYTES)
        or lines.count(b"\t") != 4 * lines.count(b"\n")
    ):
        _refuse_index(blob, pos, lengths)
    fields = lines.decode().split()
    keys, hashes = fields[0::5], fields[4::5]
    devices, offsets, sizes = (list(map(int, fields[i::5])) for i in (1, 2, 3))
    if (
        len(set(keys)) != len(keys)
        or max(devices, default=0) >= device_count
        or not all(map(le, map(add, offsets, sizes), map(lengths.__getitem__, devices)))
    ):
        _refuse_index(blob, pos, lengths)
    # RecordLocation._make, less its Python-level call per line.
    records = map(tuple.__new__, repeat(RecordLocation), zip(devices, offsets, sizes, hashes))
    cluster._index = dict(zip(keys, records))
    return cluster
