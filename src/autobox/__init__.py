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

from .auditcore import ScenarioError, derive_vehicle_key
from .ledger import history_from_file, library_text, read_library
from .vehiclesim import load_scenario, run_scenario

__all__ = [
    "ScenarioError",
    "derive_vehicle_key",
    "history_from_file",
    "library_text",
    "load_scenario",
    "read_library",
    "run_scenario",
]
