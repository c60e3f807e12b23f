"""autobox: a distributed audit-trail black box for vehicle software.

Three layers, one library:

1. ``dht`` — every module self-identifies with metadata hashes into an
   in-vehicle distributed hash table with bounded per-node stores, backed
   by ``parity`` clusters that detect and repair single-device damage.
2. ``masternode`` — the head unit mirrors the table, captures order-free
   meta-hash checkpoints, and buffers them through connectivity outages.
3. ``ledger`` — a simulated OEM full node chains the checkpoints into an
   append-only tamper-evident ledger and issues verdicts against a library
   of approved configurations.

``vehiclesim`` drives all of it deterministically from scripted scenarios;
``cli`` exposes the runner and auditors as the ``autobox`` command.
"""

from .auditcore import (
    AirbagStatus,
    AuditRecord,
    EventType,
    MetadataError,
    ModuleMetadata,
    SharedCriticalData,
    canonical_serialize,
    derive_vehicle_key,
    identity_hash,
)
from .dht import DhtNetwork, DhtNode, detect_discrepancy, node_id_for_serial, owner_of
from .ledger import (
    FullNode,
    LedgerBlock,
    Verdict,
    VerdictStatus,
    library_text,
    oem_checksum,
    read_library,
    verify_chain,
)
from .masternode import MasterNode, MetaHash, Submission
from .parity import ParityCluster, compute_parity, reconstruct, scrub
from .vehiclesim import (
    Scenario,
    ScenarioEvent,
    ScenarioEventKind,
    Vehicle,
    VehicleConfig,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AirbagStatus",
    "AuditRecord",
    "DhtNetwork",
    "DhtNode",
    "EventType",
    "FullNode",
    "LedgerBlock",
    "MasterNode",
    "MetaHash",
    "MetadataError",
    "ModuleMetadata",
    "ParityCluster",
    "Scenario",
    "ScenarioEvent",
    "ScenarioEventKind",
    "SharedCriticalData",
    "Submission",
    "Vehicle",
    "VehicleConfig",
    "Verdict",
    "VerdictStatus",
    "canonical_serialize",
    "compute_parity",
    "derive_vehicle_key",
    "detect_discrepancy",
    "identity_hash",
    "library_text",
    "load_scenario",
    "node_id_for_serial",
    "oem_checksum",
    "owner_of",
    "read_library",
    "reconstruct",
    "run_scenario",
    "scrub",
    "verify_chain",
]
