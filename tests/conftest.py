from __future__ import annotations

import hashlib
import importlib.util
import re
import sys
from datetime import date
from pathlib import Path
from typing import Iterable

import pytest

from autobox.auditcore import (
    HEX_DIGEST,
    NUMBER,
    AuditRecord,
    EventType,
    ModuleMetadata,
    is_hex_digest,
)
from autobox.dht import DhtNetwork, DhtNode
from autobox.ledger import GENESIS_PREV, LedgerBlock, VerifyResult
from autobox.masternode import Submission
from autobox.parity import (
    SNAPSHOT_HEADER,
    ClusterError,
    ParityCluster,
    RecordLocation,
    save_snapshot,
)

DATA_DIR = Path(__file__).parent / "data"
DEMO_SCENARIO = Path(__file__).parent.parent / "scenarios" / "demo.json"

# Frozen digests, computed once with coreutils sha256sum over the documented
# canonical byte strings (see data/hash_vectors.txt for the exact bytes).
ECU_PAYLOAD_DIGEST = "9e5afc1b1d8f50e68e76a2eb327f224826e2711d7ad13d4c3bde4096ef44e0c7"
BCM_PAYLOAD_DIGEST = "53bf23f8cb0ea5f2f4f38c6c0e5b5d2a2d35b382b173f748210fdf1a5f13558f"
ECU_REFLASH_T42_KEY = "091bc9fcaefbe87950dd741e28734f9a76a59b7eb748a7bbf88841520eeb18fe"
TWO_SERIAL_VEHICLE_KEY = "98b43d1ea0b23f6430dd654c9c311de75e1e7c3587a5f48ce5f0cb33842f7b42"
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

VIN = "1HGBH41JXMN109186"


def make_metadata(module_id: str = "ECU", **overrides) -> ModuleMetadata:
    base = dict(
        module_id=module_id,
        design_date=date(2019, 3, 14),
        manufacture_date=date(2019, 8, 2),
        manufacture_location="Stuttgart",
        supplier_id="SUP-042",
        production_lot="LOT-7731",
        software_version="1.4.2",
        variant_code="EU-BASE",
        serial_number=f"{module_id}-SN-0001",
        vin=VIN,
    )
    base.update(overrides)
    return ModuleMetadata(**base)


@pytest.fixture
def ecu_metadata() -> ModuleMetadata:
    return make_metadata("ECU")


@pytest.fixture
def bcm_metadata() -> ModuleMetadata:
    return make_metadata(
        "BCM",
        design_date=date(2018, 11, 5),
        manufacture_date=date(2019, 7, 21),
        manufacture_location="Ostrava",
        supplier_id="SUP-017",
        production_lot="LOT-0088",
        software_version="3.0.1",
        serial_number="BCM-SN-0002",
    )


JUNKYARD_VIN = "JH4TB2H26CC000000"
FLEET_VIN_2 = "2HGBH41JXMN109187"


def make_vehicle_config(vin: str = VIN, **overrides):
    """Four-module desk vehicle: ECU+BCM data devices, TCM hosts parity."""
    from autobox.vehiclesim import VehicleConfig

    modules = tuple(
        make_metadata(
            module_id,
            serial_number=f"{module_id}-SN-{vin[-4:]}",
            vin=vin,
        )
        for module_id in ("ECU", "BCM", "TCM", "HeadUnit")
    )
    base = dict(
        vin=vin,
        variant_code="EU-BASE",
        modules=modules,
        dht_store_limit_bytes=2048,
        parity_clusters=(("ECU", "BCM", "TCM"),),
        capture_interval_s=3600,
        mileage_stride_km=1000,
    )
    base.update(overrides)
    return VehicleConfig(**base)


def make_scenario(events=(), duration_s=3600, library=None, vin=VIN, **config_overrides):
    from autobox.vehiclesim import Scenario, VehicleLane

    return Scenario(
        scenario_id="test",
        seed=0,
        duration_s=duration_s,
        lanes=(
            VehicleLane(
                config=make_vehicle_config(vin=vin, **config_overrides),
                events=tuple(events),
            ),
        ),
        approved_library=library,
    )


def seeded_library(scenario):
    """Golden-run seeding: execute without verdicts, collect the digests."""
    from dataclasses import replace

    from autobox.vehiclesim import run_scenario

    builder = replace(scenario, approved_library=None)
    result = run_scenario(builder)
    return result.observed_library()


def load_from_file(name, path):
    """Import a module outside the package, such as a perfbench script, from its file."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# -- DHT placement and node state, read where DhtNetwork keeps it -----------


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


def node_ids(network: DhtNetwork) -> list[str]:
    """Every member node, live or failed, in the order it joined."""
    return list(network._nodes)


def dht_node(network: DhtNetwork, node_id: str) -> DhtNode:
    return network._nodes[node_id]


def stored_records(node: DhtNode) -> dict[str, AuditRecord]:
    """A node's records by key, in the order they were stored."""
    return dict(node._store)


def store_bytes(node: DhtNode) -> int:
    return node._used


# -- the checkpoint chain, folded from its capture segments ------------------


def chain_digests(segments: Iterable[Iterable[tuple[str, str]]]) -> list[str]:
    """The meta digest of each capture, from the (record_key, payload_hash)
    pairs mirrored in each capture segment: every link hashes the previous
    link's raw digest, then its segment's raw 64-byte pairs in byte order."""
    digests, head = [], b""
    for pairs in segments:
        raw = sorted(bytes.fromhex(key) + bytes.fromhex(payload) for key, payload in pairs)
        head = hashlib.sha256(head + b"".join(raw)).digest()
        digests.append(head.hex())
    return digests


# -- cluster state, read where ParityCluster keeps it ------------------------


def data_store(cluster: ParityCluster, device: int) -> bytes:
    """The bytes of a data device; PARITY names none."""
    return bytes(cluster._devices[cluster._data_index(device)])


def parity_store(cluster: ParityCluster) -> bytes:
    return bytes(cluster._devices[cluster.device_count])


def record_index(cluster: ParityCluster) -> dict[str, RecordLocation]:
    return dict(cluster._index)


SNAPSHOT_KEY = "aa" * 32  # the record on device 0, 6 bytes long


def two_device_snapshot() -> bytes:
    cluster = ParityCluster(2)
    cluster.append_record(0, SNAPSHOT_KEY, b"abcdef")
    cluster.append_record(1, "bb" * 32, b"ghi")
    return save_snapshot(cluster)


def _edit_index_line(field: int, value: str):
    def edit(blob: bytes) -> bytes:
        start = blob.index(SNAPSHOT_KEY.encode())
        end = blob.index(b"\n", start)
        fields = blob[start:end].decode().split("\t")
        fields[field] = value
        return blob[:start] + "\t".join(fields).encode() + blob[end:]

    return edit


def _repeat_index_line(blob: bytes) -> bytes:
    start = blob.index(SNAPSHOT_KEY.encode())
    end = blob.index(b"\n", start) + 1
    return blob + blob[start:end]


# Index-line edits a snapshot loader must refuse: id -> blob transform.
BAD_INDEX_EDITS = {
    "device-out-of-range": _edit_index_line(1, "7"),
    "device-is-parity": _edit_index_line(1, "2"),  # the demo snapshot has d = 2
    "device-not-int": _edit_index_line(1, "x"),
    "leading-zero-offset": _edit_index_line(2, "00"),
    "key-not-64-hex": _edit_index_line(0, "aa" * 31),
    "length-past-device": _edit_index_line(3, "99"),
    "negative-offset": _edit_index_line(2, "-1"),
    "offset-past-int-digit-limit": _edit_index_line(2, "9" * 5000),
    "hash-not-hex": _edit_index_line(4, "zz" * 32),
    "four-fields": lambda blob: blob + b"cc" * 32 + b"\t0\t0\t1\n",
    "repeated-key": _repeat_index_line,
    "not-utf8": lambda blob: blob + b"\xff\xfe\n",
}


@pytest.fixture(scope="session")
def demo_snapshot() -> bytes:
    """The one cluster snapshot a run of scenarios/demo.json writes."""
    from autobox.vehiclesim import load_scenario, run_scenario

    ((_, blob),) = run_scenario(load_scenario(DEMO_SCENARIO)).cluster_snapshots
    return blob


def write_chain(path: Path, blocks) -> Path:
    """Write ``blocks`` to ``path`` in the ledger file format; return ``path``."""
    path.write_bytes(b"".join(block.file_record() for block in blocks))
    return path


def record_spans(blob: bytes) -> list[tuple[int, int, int]]:
    """(length line start, payload start, payload end) of every ledger record."""
    spans = []
    pos = 0
    while pos < len(blob):
        newline = blob.index(b"\n", pos)
        end = newline + 1 + int(blob[pos:newline])
        spans.append((pos, newline + 1, end))
        pos = end
    return spans


# -- the ledger reader that parsed and re-encoded every block ---------------
# Kept, with the wire parse and the admission rule it called, as the
# reference the in-place reader must agree with. It refused an empty file;
# now it reads one, as the current reader does, as a chain of 0 blocks. It
# admitted numbers of any length; the admission rule below now refuses the
# ones past 18 digits, as the format does.


def reference_from_wire(line: str) -> Submission:
    key, seq, digest, trigger, sim_time = (p.strip() for p in line.strip().split("|"))
    return Submission(
        vehicle_key=key,
        checkpoint_seq=int(seq),
        meta_digest=digest,
        trigger=EventType(trigger),
        sim_time=int(sim_time),
    )


def reference_admit(sub: Submission, last_seq: dict[str, int]) -> str | None:
    if not is_hex_digest(sub.vehicle_key):
        return "malformed: vehicle_key is not a 256-bit hex digest"
    if not is_hex_digest(sub.meta_digest):
        return "malformed: meta_digest is not a 256-bit hex digest"
    if sub.checkpoint_seq < 1:
        return "malformed: checkpoint_seq must be >= 1"
    if sub.sim_time < 0:
        return "malformed: sim_time must be non-negative"
    if max(sub.checkpoint_seq, sub.sim_time) >= 10**18:
        return "malformed: a number of more than 18 digits"
    last = last_seq.get(sub.vehicle_key)
    if last is not None and sub.checkpoint_seq <= last:
        return f"replay: checkpoint_seq {sub.checkpoint_seq} <= {last}"
    last_seq[sub.vehicle_key] = sub.checkpoint_seq
    return None


def reference_read_chain(path: str | Path) -> tuple[list[LedgerBlock], VerifyResult]:
    blob = Path(path).read_bytes()
    blocks: list[LedgerBlock] = []
    last_seq: dict[str, int] = {}
    prev = GENESIS_PREV
    pos = 0
    while pos < len(blob):
        try:
            newline = blob.index(b"\n", pos)
            end = newline + 1 + int(blob[pos:newline])
            lines = blob[newline + 1 : end].decode("utf-8").split("\n")
            block = LedgerBlock.build(
                len(blocks), prev, [reference_from_wire(line) for line in lines[1:-1]]
            )
        except ValueError:  # includes UnicodeDecodeError
            break
        record = block.file_record()
        if not blob.startswith(record, pos) or any(
            reference_admit(sub, last_seq) for sub in block.entries
        ):
            break
        blocks.append(block)
        prev = block.block_hash
        pos += len(record)
    else:
        return blocks, VerifyResult(valid=True)
    return blocks, VerifyResult(valid=False, broken_at=len(blocks))


# -- the snapshot loader that matched the index one line at a time -----------
# Kept as the reference the one-match loader must agree with: the same
# devices, lengths and index, or a ClusterError with the same message.

REFERENCE_INDEX_LINE = re.compile(
    rb"(%s)\t(%s)\t(%s)\t(%s)\t(%s)\n" % (HEX_DIGEST, NUMBER, NUMBER, NUMBER, HEX_DIGEST)
)


def reference_load_snapshot(blob: bytes) -> ParityCluster:
    header = SNAPSHOT_HEADER.match(blob)
    if header is None:
        raise ClusterError("malformed snapshot header")
    device_count = int(header[1])
    lengths = [int(n) for n in header[2].split(b",")]
    if len(lengths) != device_count:
        raise ClusterError("snapshot header lengths disagree with device count")
    cluster = ParityCluster(device_count)
    pos = header.end()
    for i, n in enumerate(lengths + [int(header[3])]):
        cluster._devices[i] = bytearray(blob[pos : pos + n])
        if len(cluster._devices[i]) != n:
            raise ClusterError(f"snapshot truncated inside device {i}")
        pos += n
    cluster._lengths = lengths + [max(lengths)]
    cluster._written = None
    index = cluster._index
    while pos < len(blob):
        line = REFERENCE_INDEX_LINE.match(blob, pos)
        if line is None:
            raise ClusterError(f"malformed snapshot index line {blob[pos : pos + 80]!r}")
        key, device, offset, length, record_hash = line.groups()
        key, device, offset, length = key.decode(), int(device), int(offset), int(length)
        if key in index or device >= device_count or offset + length > lengths[device]:
            raise ClusterError(f"snapshot index line names no record {line[0][:80]!r}")
        index[key] = RecordLocation(device, offset, length, record_hash.decode())
        pos = line.end()
    return cluster
