"""Deterministic discrete-event simulator for vehicles and small fleets.

Builds each vehicle from config (modules with their DHT nodes, parity
clusters, a master unit), advances an integer simulated clock through a
scripted event list, injects tamper and fault events, and records ground
truth for every state transition. Identical (config, events, seed) inputs
produce byte-identical ledger files, verdict streams and ground-truth
logs; nothing reads the wall clock and nothing iterates in nondeterminism.

The timeline alone decides when the master unit checkpoints: each
capture_interval_s after the last capture, on a mileage stride, and on
every service or reflash event below. Event handling in one line each:

* Drive advances every odometer replica and may cross a mileage stride.
* ObdPlugIn / ConfigChange / ServiceNotice sweep all modules and capture.
* UdsReflash is the official path: version change, audit record, capture,
  OEM re-registration of the rotated vehicle key.
* EepromTamper / ModuleSwap are silent: state changes with no audit trail,
  left for the consistency check or the next checkpoint to expose.
* NodeFailure / NodeRecovery toggle a DHT node's storage role only; the
  module still speaks on the bus and its records land on the closest live
  node (fallback placement), so checkpoints are unaffected.
* MemoryCorruption flips one byte in a parity-cluster device.
* ConnectivityOutage closes the uplink between its start and end times;
  the light client backlog drains when it reopens.
* Reboot re-runs the startup sweep and consistency check.
* ClearTamperFlag models the authorized service tool.

Every module keeps a replica of the shared critical data: ``Vehicle.scd``
holds one table per field of ``SCD_FIELDS``, module id -> replica, and the
startup check is a majority vote over each table (``detect_discrepancy``).

Fleet runs share one full node. Vehicles are simulated one at a time, and
each is dropped once its timeline ends and its outcome, alerts, snapshots
and drained batches are kept. The batches are then merged by (sim_time,
vehicle_key, VIN) and every vehicle key is registered in VIN order before
blocks are appended, so results are independent of vehicle order. A key
registered for two variants is a conflict: an alert and a finding.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping

from .auditcore import (
    AuditRecord,
    EventType,
    ModuleMetadata,
    ScenarioError,
    VIN_RE,
    derive_vehicle_key,
    identity_hash,
    is_hex_digest,
    _json,
    validate_vin,
)
from .dht import (
    DEFAULT_STORE_LIMIT_BYTES,
    CheckpointRequired,
    DhtNetwork,
    NodeUnavailable,
    node_id_for_serial,
)
from .ledger import (
    FullNode,
    LedgerBlock,
    UnknownVariantError,
    UnknownVehicleError,
    Verdict,
    VerdictStatus,
)
from .masternode import MasterNode, MetaHash, Submission
from . import parity

TAMPER_CLEAR_TOKEN = "SERVICE-TOOL"  # what the authorized service tool presents

# Periodic captures one vehicle may take over a scenario (duration_s //
# capture_interval_s): about 13 months at hourly captures. A longer
# scenario is refused rather than left to run for days.
MAX_PERIODIC_CAPTURES = 10_000
# Every number a scenario writes keeps to auditcore.NUMBER, at most 18
# digits: its duration, so each sim_time, and each km and odometer reading
# the ground truth logs as it was given.
NUMBER_LIMIT = 10**18

# One ground_truth.jsonl line: compact, keys sorted. Built once, since
# json.dumps with any option builds a new encoder per call. An entry is a
# flat dict of scalars and string lists, so it cannot hold a cycle.
_encode_ground_truth = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode


class AirbagStatus(str, Enum):
    OK = "Ok"
    DEPLOYED = "Deployed"
    FAULT_LATCHED = "FaultLatched"


class ScenarioEventKind(str, Enum):
    DRIVE = "Drive"
    OBD_PLUG_IN = "ObdPlugIn"
    CONFIG_CHANGE = "ConfigChange"
    UDS_REFLASH = "UdsReflash"
    EEPROM_TAMPER = "EepromTamper"
    MODULE_SWAP = "ModuleSwap"
    NODE_FAILURE = "NodeFailure"
    NODE_RECOVERY = "NodeRecovery"
    MEMORY_CORRUPTION = "MemoryCorruption"
    CONNECTIVITY_OUTAGE = "ConnectivityOutage"
    SERVICE_NOTICE = "ServiceNotice"
    REBOOT = "Reboot"
    CLEAR_TAMPER_FLAG = "ClearTamperFlag"


# The fields each kind takes besides sim_time and kind, as in the README's
# event table. A kind needs all of them, except that ClearTamperFlag may
# lack its token: that is an unauthorized attempt, refused at run time.
KIND_FIELDS = {
    ScenarioEventKind.DRIVE: {"km"},
    ScenarioEventKind.OBD_PLUG_IN: set(),
    ScenarioEventKind.CONFIG_CHANGE: set(),
    ScenarioEventKind.SERVICE_NOTICE: set(),
    ScenarioEventKind.UDS_REFLASH: {"module_id", "new_version"},
    ScenarioEventKind.EEPROM_TAMPER: {"module_id", "field", "forged_value"},
    ScenarioEventKind.MODULE_SWAP: {"module_id", "replacement"},
    ScenarioEventKind.NODE_FAILURE: {"module_id"},
    ScenarioEventKind.NODE_RECOVERY: {"module_id"},
    ScenarioEventKind.MEMORY_CORRUPTION: {"cluster", "device", "byte_offset"},
    ScenarioEventKind.CONNECTIVITY_OUTAGE: {"end"},
    ScenarioEventKind.REBOOT: set(),
    ScenarioEventKind.CLEAR_TAMPER_FLAG: {"token"},
}


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted occurrence; as it is made, it checks every rule that needs no vehicle."""

    sim_time: int
    kind: ScenarioEventKind
    km: int | None = None
    module_id: str | None = None
    new_version: str | None = None
    field: str | None = None
    forged_value: Any = None
    replacement: ModuleMetadata | None = None
    cluster: int | None = None
    device: int | str | None = None
    byte_offset: int | None = None
    end: int | None = None
    token: str | None = None

    def __post_init__(self) -> None:
        if type(self.kind) is not ScenarioEventKind:
            raise ScenarioError(f"kind must be a ScenarioEventKind, got {self.kind!r}")
        takes = KIND_FIELDS[self.kind]
        given = {name for name, value in vars(self).items() if value is not None}
        extra = sorted(given - takes - {"sim_time", "kind"})
        if extra:
            raise ScenarioError(f"{self.kind.value} event does not take {extra}")
        missing = sorted(takes - given - {"token"})
        if missing:
            raise ScenarioError(f"{self.kind.value} event needs {missing}")
        # A bool is an int to Python, but no count of seconds, km or bytes, nor
        # an index. The ground truth logs km and end as given: 18 digits at most.
        for name in sorted(given & {"km", "cluster", "byte_offset", "end"} | {"sim_time"}):
            shape = _number if name in ("km", "end") else _count
            shape(f"{self.kind.value} {name}", getattr(self, name))
        for name in sorted(given & {"module_id", "new_version", "field", "token"}):
            _string(name, getattr(self, name))
        # The kind checks above leave each field below to the one kind that takes it.
        if self.end is not None and self.end < self.sim_time:
            raise ScenarioError("ConnectivityOutage needs end >= sim_time")
        if self.new_version == "":
            raise ScenarioError("UdsReflash needs a non-empty new_version")
        if self.field is not None:
            if self.field not in _FORGEABLE:
                raise ScenarioError(f"EepromTamper: unknown field {self.field!r}")
            # _jsonable reads a built value back as JSON, so replace() shapes it alike.
            forged = _FORGEABLE[self.field](self.field, _jsonable(self.forged_value))
            object.__setattr__(self, "forged_value", forged)
        if self.replacement is not None and self.replacement.module_id != self.module_id:
            raise ScenarioError(
                f"replacement module_id {self.replacement.module_id!r} does not fit "
                f"slot {self.module_id!r}"
            )
        device = self.device
        if device is not None and type(device) is not int and device != parity.PARITY:
            raise ScenarioError(f"MemoryCorruption: no device {device!r} (an index or 'parity')")


@dataclass(frozen=True)
class VehicleConfig:
    vin: str
    variant_code: str
    modules: tuple[ModuleMetadata, ...]
    dht_store_limit_bytes: int = DEFAULT_STORE_LIMIT_BYTES
    parity_clusters: tuple[tuple[str, ...], ...] = ()
    capture_interval_s: int = 3600
    mileage_stride_km: int = 1000
    initial_odometer_km: int = 0

    def __post_init__(self) -> None:
        _string("vin", self.vin)
        _string("variant_code", self.variant_code)
        _integer("dht_store_limit_bytes", self.dht_store_limit_bytes)
        for name in ("capture_interval_s", "mileage_stride_km"):
            if _integer(name, getattr(self, name)) < 1:
                raise ScenarioError(f"{name} must be at least 1")
        _number("initial_odometer_km", self.initial_odometer_km)
        for i, module in enumerate(_tuple("modules", self.modules)):
            _metadata(f"modules[{i}]", module)
        for i, members in enumerate(_tuple("parity_clusters", self.parity_clusters)):
            for member in _tuple(f"parity_clusters[{i}]", members):
                _string(f"parity_clusters[{i}] member", member)
        validate_vin(self.vin)
        # variant_code becomes a field of a tab-separated library line.
        if not self.variant_code.isprintable():
            raise ScenarioError(f"variant_code must be printable, got {self.variant_code!r}")
        if not self.modules:
            raise ScenarioError("vehicle needs at least one module")
        ids = [m.module_id for m in self.modules]
        if len(set(ids)) != len(ids):
            raise ScenarioError("module_ids must be unique")
        serials = [m.serial_number for m in self.modules]
        if len(set(serials)) != len(serials):
            raise ScenarioError("serial_numbers must be unique")
        for m in self.modules:
            _release(m.software_version)
            if m.vin != self.vin:
                raise ScenarioError(
                    f"module {m.module_id} carries VIN {m.vin}, vehicle is {self.vin}"
                )
        if any(len(members) < 3 for members in self.parity_clusters):
            raise ScenarioError("a parity cluster needs >= 3 members (last member hosts parity)")
        listed = [m for members in self.parity_clusters for m in members]
        unknown = set(listed) - set(ids)
        if unknown:
            raise ScenarioError(f"parity cluster references unknown modules {sorted(unknown)}")
        twice = sorted({m for m in listed if listed.count(m) > 1})
        if twice:
            raise ScenarioError(f"modules {twice} are listed in more than one parity cluster slot")

    def longest_record_line(self, duration_s: int) -> int:
        """Bytes a store is charged, the length of ``AuditRecord.line``, for
        the longest record a module emits by duration_s."""
        module_id = max((m.module_id for m in self.modules), key=lambda i: len(i.encode()))
        event_type = max(EventType, key=lambda t: len(t.value))
        return len(AuditRecord(module_id, event_type, duration_s, "0" * 64).line)


def _release(version: str) -> tuple[int, ...]:
    """A module's dotted-decimal software version as integers, in release order."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)*", version):
        raise ScenarioError(f"software_version {version!r} is not dotted decimal")
    return tuple(map(int, version.split(".")))


@dataclass(frozen=True)
class VehicleLane:
    config: VehicleConfig
    events: tuple[ScenarioEvent, ...]


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    seed: int
    duration_s: int
    lanes: tuple[VehicleLane, ...]
    approved_library: dict[str, tuple[str, ...]] | None = None
    critical_variants: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _string("scenario_id", self.scenario_id)
        _integer("seed", self.seed)
        _count("duration_s", self.duration_s)
        if not self.lanes:
            raise ScenarioError("a scenario needs at least one vehicle")
        vins = [lane.config.vin for lane in self.lanes]
        if len(set(vins)) != len(vins):
            raise ScenarioError("fleet VINs must be unique")
        # Vehicles sharing serials could derive one vehicle key between them.
        serials = [m.serial_number for lane in self.lanes for m in lane.config.modules]
        if len(set(serials)) != len(serials):
            raise ScenarioError("fleet vehicles must not share module serial numbers")
        # No message prints the duration, nor an interval, which may be too
        # long for str(); a record line spells it only once it is bounded.
        for lane in self.lanes:
            if self.duration_s // lane.config.capture_interval_s > MAX_PERIODIC_CAPTURES:
                raise ScenarioError(
                    f"duration_s // capture_interval_s of {lane.config.vin} exceeds "
                    f"{MAX_PERIODIC_CAPTURES} periodic captures"
                )
        if self.duration_s >= NUMBER_LIMIT:
            raise ScenarioError("duration_s must have at most 18 digits")
        # The shape read_library and observed_library give: a string would
        # be judged as the set of its characters.
        if self.approved_library is not None:
            for variant, digests in _mapping("approved_library", self.approved_library).items():
                name = f"approved_library[{_string('approved_library variant', variant)!r}]"
                for digest in _tuple(name, digests):
                    if not is_hex_digest(_string(f"{name} digest", digest)):
                        raise ScenarioError(f"{name} holds {digest!r}, not a hex digest")
        for lane in self.lanes:
            longest = lane.config.longest_record_line(self.duration_s)
            if lane.config.dht_store_limit_bytes < longest:
                raise ScenarioError(
                    f"dht_store_limit_bytes {lane.config.dht_store_limit_bytes} cannot "
                    f"hold a {longest}-byte record line"
                )


@dataclass(frozen=True, slots=True)
class DrainBatch:
    """One uplink delivery: what arrived at the full node, and when."""

    sim_time: int
    tamper_flag: bool
    submissions: tuple[Submission, ...]


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


class Vehicle:
    """One assembled vehicle under simulation."""

    def __init__(self, config: VehicleConfig, ground_truth: list[str] | None = None):
        self.config = config
        # Ground truth: everything the simulator core did, one compact JSON
        # object per line with sorted keys, shared by a fleet. Written only
        # by the core, never by the modules under test: the scenario oracle.
        # The events of every put and checkpoint, eviction, capture and
        # drain, are written by f-string templates; _encode_ground_truth
        # stays their definition and encodes their constant parts here, the
        # VIN and each module id. Every other event goes through _log.
        self.ground_truth = [] if ground_truth is None else ground_truth
        self._vin_json = _encode_ground_truth(config.vin)
        self._module_json = {m.module_id: _encode_ground_truth(m.module_id) for m in config.modules}
        self.clock = 0
        self.modules: dict[str, ModuleMetadata] = {
            m.module_id: m for m in config.modules
        }
        # The replicated vehicle data, one table per field of SCD_FIELDS, in
        # its order: field -> module id -> that module's replica.
        self.scd: dict[str, dict[str, Any]] = {
            "vin": dict.fromkeys(self.modules, config.vin),
            "odometer_km": dict.fromkeys(self.modules, config.initial_odometer_km),
            "airbag_status": dict.fromkeys(self.modules, AirbagStatus.OK),
            "service_event_count": dict.fromkeys(self.modules, 0),
        }
        self.network = DhtNetwork(store_limit_bytes=config.dht_store_limit_bytes)
        self.node_of: dict[str, str] = {}
        self.module_of: dict[str, str] = {}  # node id -> module id
        for m in config.modules:
            node_id = node_id_for_serial(m.serial_number)
            self.network.add_node(node_id)
            self.node_of[m.module_id] = node_id
            self.module_of[node_id] = m.module_id
        self.clusters: list[parity.ParityCluster] = []
        # Clusters a repair has failed on. Every later scrub would fail
        # alike until a flipped byte undoes some of the damage.
        self.lost: set[int] = set()
        # Module id -> its cluster and its device there; the last member of
        # a cluster hosts parity.
        self.slot_of: dict[str, tuple[parity.ParityCluster, parity.DeviceRef]] = {}
        for members in config.parity_clusters:
            cluster = parity.ParityCluster(len(members) - 1)
            self.clusters.append(cluster)
            self.slot_of.update((m, (cluster, i)) for i, m in enumerate(members[:-1]))
            self.slot_of[members[-1]] = (cluster, parity.PARITY)
        self.true_odometer = config.initial_odometer_km
        # Version of the latest official install: the newest on board at
        # assembly, then whatever each reflash flashes. Silent modifications
        # never update this, which is exactly what makes them detectable.
        self.latest_version = max((m.software_version for m in config.modules), key=_release)
        self.master = MasterNode(self.network)
        # Drained uplink deliveries, replayed in order by the fleet merge.
        self.batches: list[DrainBatch] = []
        self.tamper_details: dict[str, frozenset[str]] = {}
        self.alerts: list[str] = []
        # The key each capture is stamped with, re-derived wherever a module
        # serial or latest_version changes.
        self.vehicle_key = self._derive_key()
        # Vehicle keys the OEM knows, each once, all of config.variant_code;
        # rotations via official channels append here, silent swaps do not.
        self.vehicle_keys: list[str] = [self.vehicle_key]

    # -- identity -----------------------------------------------------------

    def _derive_key(self) -> str:
        serials = (m.serial_number for m in self.modules.values())
        return derive_vehicle_key(serials, self.latest_version)

    @property
    def tamper_flag(self) -> bool:
        """Latched while any replicated field stays flagged."""
        return bool(self.tamper_details)

    def _log(self, event: str, **detail: Any) -> None:
        """Log ground truth stamped with the current time and this VIN."""
        entry = {"sim_time": self.clock, "event": event, "vin": self.config.vin, **detail}
        self.ground_truth.append(_encode_ground_truth(entry))

    # -- record plumbing ------------------------------------------------------

    def _put_record(self, emitter: str, record: AuditRecord) -> None:
        origin = self.node_of[emitter]
        try:
            receipt = self.master.put(origin, record)
        except NodeUnavailable:
            self.alerts.append(f"t={self.clock} no live node to accept records")
            return
        except CheckpointRequired:
            # Store full of uncovered records: checkpoint first, then retry.
            self._capture(EventType.STORE_FULL)
            receipt = self.master.put(origin, record)
        module_id = self.module_of[receipt.stored_at]
        if receipt.evicted:
            evicted = '","'.join(sorted(receipt.evicted))  # hex keys: nothing to escape
            self.ground_truth.append(
                f'{{"event":"eviction","evicted":["{evicted}"],'
                f'"node_module":{self._module_json[module_id]},'
                f'"sim_time":{self.clock},"vin":{self._vin_json}}}'
            )
        cluster, device = self.slot_of.get(module_id, (None, None))
        if cluster is None or device == parity.PARITY or cluster.has_record(record.record_key):
            return
        if cluster.is_erased(device):
            # A swapped-in module's store: rebuild it, as boot would, first.
            self._scrub_clusters()
            if cluster.is_erased(device):  # a second fault left it unrepairable
                return
        cluster.append_record(device, record.record_key, record.line)

    def _sweep(self, event_type: EventType) -> None:
        """Every module self-identifies into the table."""
        for module_id, metadata in self.modules.items():
            record = identity_hash(metadata, self.clock, event_type)
            self._put_record(module_id, record)

    # -- checkpoints ------------------------------------------------------------

    def _capture(self, trigger: EventType) -> None:
        self._scrub_clusters()
        mh = self.master.capture_meta_hash(trigger, self.clock, self.vehicle_key)
        self.ground_truth.append(
            f'{{"covered":{mh.covered_records},"digest":"{mh.digest}","event":"capture",'
            f'"seq":{mh.checkpoint_seq},"sim_time":{self.clock},'
            f'"trigger":"{trigger.value}","vin":{self._vin_json}}}'
        )
        self._drain()

    def _drain(self) -> None:
        drained = self.master.submit_pending()
        if drained:
            self.batches.append(DrainBatch(self.clock, self.tamper_flag, tuple(drained)))
            self.ground_truth.append(
                f'{{"checkpoints":{len(drained)},"event":"drain",'
                f'"sim_time":{self.clock},"vin":{self._vin_json}}}'
            )

    def _checkpoint(self, trigger: EventType) -> None:
        """Sweep every module into the table, then capture it."""
        self._sweep(trigger)
        self._capture(trigger)

    # -- cluster health ---------------------------------------------------------

    def _scrub_clusters(self) -> None:
        for i, cluster in enumerate(self.clusters):
            if i in self.lost:
                continue
            try:
                report = parity.scrub(cluster)
                if report.clean:
                    continue
                parity.repair(cluster, report.device)
            except parity.MultiFaultError as exc:
                self.lost.add(i)
                self.alerts.append(f"cluster {i}: {exc}")
                continue
            self._log(
                "parity_repair",
                cluster=i,
                device=report.device,
                records=sorted(report.records),
            )

    # -- vehicle-level operations -------------------------------------------------

    def boot(self) -> None:
        """Power-on: scrub redundancy, self-identify, cross-check replicas."""
        self._log("boot")
        self._scrub_clusters()
        self._sweep(EventType.STARTUP_CHECK)
        self.startup_consistency_check()

    def startup_consistency_check(self) -> None:
        """Compare shared-data replicas across modules; flag disagreement.

        Any flagged field latches the tamper flag on every module until an
        authorized clear. Unreachable modules are excluded from the vote
        but reported.
        """
        live = [
            m for m in self.modules if self.network.is_live(self.node_of[m])
        ]
        for module_id in self.modules:
            if module_id not in live:
                self.alerts.append(
                    f"t={self.clock} module {module_id} unresponsive at startup"
                )
        flagged: dict[str, frozenset[str]] = {}
        if len(live) >= 2:
            for field_name, replicas in self.scd.items():
                minority = detect_discrepancy({m: replicas[m] for m in live})
                if minority:
                    flagged[field_name] = minority
        if flagged:
            self.tamper_details.update(flagged)
            summary = {f: sorted(mods) for f, mods in flagged.items()}
            self.alerts.append(f"t={self.clock} tamper flag set: {summary}")
            self._log("tamper_flag_set", fields=summary)

    def clear_tamper_flag(self, token: str) -> bool:
        """Authorized clear; records a service event. Wrong token refuses."""
        if token != TAMPER_CLEAR_TOKEN:
            self.alerts.append(f"t={self.clock} tamper clear refused: bad token")
            self._log("tamper_clear_refused")
            return False
        self.tamper_details = {}
        self._log("tamper_flag_cleared")
        self._add_to_replicas("service_event_count", 1)
        self._checkpoint(EventType.SERVICE_NOTICE)
        return True

    def _add_to_replicas(self, field_name: str, amount: int) -> None:
        replicas = self.scd[field_name]
        for module_id in replicas:
            replicas[module_id] += amount

    # -- event dispatch ---------------------------------------------------------

    def handle_event(self, event: ScenarioEvent) -> None:
        self.clock = event.sim_time
        handler = getattr(self, "_on_" + event.kind.name.lower())
        handler(event)

    def _on_drive(self, event: ScenarioEvent) -> None:
        km = event.km
        stride = self.config.mileage_stride_km
        crossed = (self.true_odometer + km) // stride > self.true_odometer // stride
        self.true_odometer += km
        self._add_to_replicas("odometer_km", km)
        self._log("drive", km=km, odometer_km=self.true_odometer)
        if crossed:
            self._checkpoint(EventType.MILEAGE_THRESHOLD)

    def _on_obd_plug_in(self, event: ScenarioEvent) -> None:
        self._log("obd_plug_in")
        self._checkpoint(EventType.OBD_PLUG_IN)

    def _on_config_change(self, event: ScenarioEvent) -> None:
        self._log("config_change")
        self._checkpoint(EventType.CONFIG_CHANGE)

    def _on_service_notice(self, event: ScenarioEvent) -> None:
        self._add_to_replicas("service_event_count", 1)
        self._log("service_notice")
        self._checkpoint(EventType.SERVICE_NOTICE)

    def _on_uds_reflash(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        old = self.modules[module_id]
        self.modules[module_id] = replace(old, software_version=event.new_version)
        self.latest_version = event.new_version
        self.vehicle_key = self._derive_key()
        self._log(
            "uds_reflash",
            module=module_id,
            pre=old.software_version,
            post=event.new_version,
        )
        record = identity_hash(self.modules[module_id], self.clock, EventType.REFLASH)
        self._put_record(module_id, record)
        # Official channel: the OEM learns the rotated vehicle key.
        if self.vehicle_key not in self.vehicle_keys:
            self.vehicle_keys.append(self.vehicle_key)
        self._capture(EventType.REFLASH)

    def _on_eeprom_tamper(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        if event.field in self.scd:
            replicas = self.scd[event.field]
            pre, replicas[module_id] = replicas[module_id], event.forged_value
        else:
            old = self.modules[module_id]
            pre = getattr(old, event.field)
            self.modules[module_id] = replace(old, **{event.field: event.forged_value})
            self.vehicle_key = self._derive_key()  # a forged serial_number changes it
        self._log(
            "eeprom_tamper",
            module=module_id,
            field=event.field,
            pre=_jsonable(pre),
            post=_jsonable(event.forged_value),
        )

    def _on_module_swap(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        replacement = event.replacement
        new_node = node_id_for_serial(replacement.serial_number)
        if self.module_of.get(new_node, module_id) != module_id:
            raise ScenarioError(
                f"replacement serial {replacement.serial_number!r} is already "
                f"fitted in {self.module_of[new_node]!r}"
            )
        old = self.modules[module_id]
        old_node = self.node_of[module_id]
        self.network.remove_node(old_node)
        self.network.add_node(new_node)
        self.node_of[module_id] = new_node
        del self.module_of[old_node]
        self.module_of[new_node] = module_id
        self.modules[module_id] = replacement
        self.vehicle_key = self._derive_key()
        # The donor unit arrives with its donor vehicle's protected data.
        self.scd["vin"][module_id] = replacement.vin
        # Its audit-store bytes did not make the trip; redundancy rebuilds them.
        if module_id in self.slot_of:
            cluster, device = self.slot_of[module_id]
            cluster.erase_device(device)
        self._log(
            "module_swap",
            module=module_id,
            pre_serial=old.serial_number,
            post_serial=replacement.serial_number,
            pre_vin=old.vin,
            post_vin=replacement.vin,
        )

    def _on_node_failure(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        self.network.fail_node(self.node_of[module_id])
        self._log("node_failure", module=module_id)

    def _on_node_recovery(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        self.network.recover_node(self.node_of[module_id])
        self._log("node_recovery", module=module_id)

    def _on_memory_corruption(self, event: ScenarioEvent) -> None:
        if event.cluster >= len(self.clusters):  # an index too long for str() stays unprinted
            raise ScenarioError(f"MemoryCorruption: no such cluster among {len(self.clusters)}")
        cluster = self.clusters[event.cluster]
        try:
            pre, post = cluster.corrupt_byte(event.device, event.byte_offset)
        except parity.ClusterError as exc:
            raise ScenarioError(str(exc)) from exc
        self.lost.discard(event.cluster)  # the flip may have undone a fault
        self._log(
            "memory_corruption",
            cluster=event.cluster,
            device=event.device,
            byte_offset=event.byte_offset,
            pre=pre,
            post=post,
        )

    def _on_connectivity_outage(self, event: ScenarioEvent) -> None:
        self.master.online = False
        self._log("connectivity_down", until=event.end)

    def _on_connectivity_restored(self) -> None:
        self.master.online = True
        self._log("connectivity_up")
        self._drain()

    def _on_reboot(self, event: ScenarioEvent) -> None:
        self.boot()

    def _on_clear_tamper_flag(self, event: ScenarioEvent) -> None:
        self.clear_tamper_flag(event.token or "")

    def _require_module(self, module_id: str | None) -> str:
        if module_id not in self.modules:
            raise ScenarioError(f"unknown module {module_id!r}")
        return module_id

    # -- timeline -----------------------------------------------------------------

    def run(self, events: Iterable[ScenarioEvent], duration_s: int) -> None:
        """Boot, replay the scripted timeline, drain at the horizon."""
        items: list[tuple[int, str, ScenarioEvent | None]] = []
        last_time = outage_end = 0
        for event in events:
            if event.sim_time < last_time:
                raise ScenarioError("events must be ordered by sim_time")
            last_time = event.sim_time
            items.append((event.sim_time, "event", event))
            if event.kind is ScenarioEventKind.CONNECTIVITY_OUTAGE:
                if event.sim_time < outage_end:
                    raise ScenarioError("ConnectivityOutage starts before the previous one ends")
                outage_end = event.end
                items.append((event.end, "reconnect", None))
        items.sort(key=lambda item: item[0])  # stable: ties keep list order
        self.boot()
        for when, what, event in items:
            if when > duration_s:
                raise ScenarioError("event scheduled past scenario duration")
            self._run_periodic_until(when)
            self.clock = when
            if what == "reconnect":
                self._on_connectivity_restored()
            else:
                assert event is not None
                self.handle_event(event)
        self._run_periodic_until(duration_s)
        self.clock = duration_s
        self._drain()
        self._scrub_clusters()  # leave redundant stores healthy at rest

    def _run_periodic_until(self, horizon: int) -> None:
        """Checkpoint each capture interval after the last capture, to horizon."""
        while True:
            last = self.master.captures[-1].sim_time if self.master.captures else 0
            next_tick = last + self.config.capture_interval_s
            if next_tick > horizon:
                return
            self.clock = next_tick
            self._checkpoint(EventType.PERIODIC_INTERVAL)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, date):
        return value.isoformat()
    return value


# -- scenario files --------------------------------------------------------


# One table per JSON object of a scenario file: field name -> (shape,
# default), where a shape builds the field from one JSON value and a
# default of MISSING makes the field mandatory. A module, a vehicle and an
# event take theirs from their dataclass (_dataclass), which checks every
# value as it is made; only the scenario, a fleet lane and the policy,
# whose JSON names differ from the fields they build, state their own.
# Any other field name is refused, so a misspelt field cannot silently
# fall back to its default.
Shape = Callable[[str, Any], Any]


def _fields(obj: Any, table: dict[str, tuple[Shape, Any]], noun: str) -> dict[str, Any]:
    """The fields of the JSON object ``obj``, checked and built per ``table``."""
    for name in _mapping(noun, obj):
        if name not in table:
            raise ScenarioError(f"unknown {noun} field {name!r}")
    out = {}
    for name, (shape, default) in table.items():
        if name in obj:
            out[name] = shape(name, obj[name])
        elif default is MISSING:
            raise ScenarioError(f"missing {noun} field {name!r}")
        else:
            out[name] = default
    return out


_integer, _string = _json(int, "an integer"), _json(str, "a string")
_array, _mapping = _json(list, "a list"), _json(dict, "an object")
_tuple, _metadata = _json(tuple, "a tuple"), _json(ModuleMetadata, "a ModuleMetadata")


def _as_is(name: str, value: Any) -> Any:
    """Any JSON value, left to the value built from it to check."""
    return value


def _narrowed(shape: Shape, ok: Callable[[Any], bool], rule: str) -> Shape:
    """``shape`` restricted to the values for which ``ok`` holds, refusing
    others as "<name> must <rule>"; the message shows no value, as an int
    may have too many digits for str()."""

    def narrowed(name: str, value: Any) -> Any:
        if not ok(shape(name, value)):
            raise ScenarioError(f"{name} must {rule}")
        return value

    return narrowed


def _parsed(convert: Callable[[str], Any], what: str) -> Shape:
    """A JSON string turned into a value by ``convert``, which raises ValueError."""

    def parsed(name: str, value: Any) -> Any:
        try:
            return convert(_string(name, value))
        except ValueError:
            raise ScenarioError(f"{name} must be {what}, got {value!r}") from None

    return parsed


def _iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date. ``date.fromisoformat`` alone also takes other
    ISO 8601 spellings, and which ones depends on the Python version."""
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(text)
    return date.fromisoformat(text)


_count = _narrowed(_integer, lambda n: n >= 0, "be non-negative")
_number = _narrowed(_count, lambda n: n < NUMBER_LIMIT, "have at most 18 digits")
# Any JSON value but null, which would read as a field left out.
_given = _narrowed(_as_is, lambda value: value is not None, "be non-null")
_date = _parsed(_iso_date, "a YYYY-MM-DD date")
_kind = _parsed(ScenarioEventKind, "an event kind")

# The replicated fields the startup check compares, with the shape of a
# value an EepromTamper event may forge into one of them.
SCD_FIELDS = {
    "vin": _narrowed(_string, VIN_RE.fullmatch, "be a VIN"),
    "odometer_km": _number,
    "airbag_status": _parsed(AirbagStatus, "an airbag status"),
    "service_event_count": _number,
}


def _list(item: Shape, noun: str) -> Shape:
    """A JSON array of ``item`` values, as a tuple; an error names the index."""

    def shape(name: str, value: Any) -> tuple[Any, ...]:
        out = []
        for i, element in enumerate(_array(name, value)):
            try:
                out.append(item(noun, element))
            except ScenarioError as exc:  # a MetadataError stays one
                raise type(exc)(f"{name}[{i}]: {exc}") from None
        return tuple(out)

    return shape


def _object(table: dict[str, tuple[Shape, Any]], build: Callable[..., Any]) -> Shape:
    """A JSON object with the fields of ``table``, passed to ``build``."""
    return lambda name, value: build(**_fields(value, table, name))


def _dataclass(cls: type, shapes: dict[str, Shape]) -> Shape:
    """A JSON object with the fields of dataclass ``cls``, passed to ``cls``.
    A field in ``shapes`` is built by its shape. Any other passes as it is,
    except that a field which None marks as left out takes no null."""
    return _object({
        f.name: (shapes.get(f.name, _given if f.default is None else _as_is), f.default)
        for f in fields(cls)
    }, cls)


_MODULE_DATES = {"design_date": _date, "manufacture_date": _date}
_MODULE = _dataclass(ModuleMetadata, _MODULE_DATES)
# What an EepromTamper may forge, with the shape of the forged value: a
# replicated field, or a metadata field other than the module's id.
_FORGEABLE = {f.name: _MODULE_DATES.get(f.name, _string) for f in fields(ModuleMetadata)}
del _FORGEABLE["module_id"]
_FORGEABLE.update(SCD_FIELDS)
_EVENTS = _list(_dataclass(ScenarioEvent, {"kind": _kind, "replacement": _MODULE}), "event")
_VEHICLE = _dataclass(VehicleConfig, {
    "modules": _list(_MODULE, "module"),
    "parity_clusters": _list(_list(_string, "member"), "cluster"),
})
LANE_FIELDS = {"vehicle": (_VEHICLE, MISSING), "events": (_EVENTS, ())}
_LANE = _object(LANE_FIELDS, lambda vehicle, events: VehicleLane(vehicle, events))
POLICY_FIELDS = {"critical_variants": (_list(_string, "variant"), ())}
_POLICY = _object(POLICY_FIELDS, lambda critical_variants: frozenset(critical_variants))
SCENARIO_FIELDS = {
    "id": (_string, "scenario"),
    "seed": (_as_is, 0),
    "duration_s": (_as_is, MISSING),
    "vehicle": (_VEHICLE, None),
    "events": (_EVENTS, None),
    "fleet": (_list(_LANE, "lane"), None),
    "policy": (_POLICY, frozenset()),
}


def parse_scenario(obj: Any) -> Scenario:
    """Build a Scenario from a JSON-compatible object tree.

    The parse checks the JSON shape; each value it builds checks the rest.
    """
    f = _fields(obj, SCENARIO_FIELDS, "scenario")
    if f["fleet"] is not None:
        if f["vehicle"] is not None or f["events"] is not None:
            raise ScenarioError("a fleet scenario lists its vehicles and events in 'fleet'")
        lanes = f["fleet"]
    elif f["vehicle"] is not None:
        lanes = (VehicleLane(f["vehicle"], f["events"] or ()),)
    else:
        raise ScenarioError("scenario needs a 'vehicle' or 'fleet' section")
    return Scenario(
        scenario_id=f["id"],
        seed=f["seed"],
        duration_s=f["duration_s"],
        lanes=lanes,
        critical_variants=f["policy"],
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ScenarioError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # the only one left: an integer past the digit limit
        raise ScenarioError(f"{path}: integer literal has too many digits") from None
    return parse_scenario(obj)


# -- scenario execution ------------------------------------------------------


@dataclass(frozen=True)
class VehicleOutcome:
    vin: str
    variant_code: str
    vehicle_keys: tuple[str, ...]
    captures: tuple[MetaHash, ...]
    tamper_flag: bool
    tamper_details: dict[str, frozenset[str]]
    # Verdict status -> count, over the checkpoints this vehicle submitted.
    verdicts: Counter[str] = field(default_factory=Counter)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    vehicles: tuple[VehicleOutcome, ...]
    blocks: tuple[LedgerBlock, ...]
    verdicts: tuple[Verdict, ...]
    alerts: tuple[str, ...]
    ground_truth: tuple[str, ...]
    cluster_snapshots: tuple[tuple[str, bytes], ...] = ()  # (filename, blob)
    rejected_checkpoints: int = 0  # submissions the full node refused
    key_conflicts: int = 0  # registrations of a key for a second variant
    unjudged_checkpoints: int = 0  # accepted, but the library could not judge them

    @property
    def findings(self) -> bool:
        """A verdict other than Approved, a rejected checkpoint, a key
        registered for two variants, an accepted checkpoint left unjudged,
        or a latched tamper flag."""
        if any(v.status is not VerdictStatus.APPROVED for v in self.verdicts):
            return True
        problems = self.rejected_checkpoints + self.key_conflicts + self.unjudged_checkpoints
        return problems > 0 or any(v.tamper_flag for v in self.vehicles)

    def observed_library(self) -> dict[str, tuple[str, ...]]:
        """Capture digests per variant, for seeding an approved library."""
        out: dict[str, dict[str, None]] = {}
        for vehicle in self.vehicles:
            bucket = out.setdefault(vehicle.variant_code, {})
            bucket.update(dict.fromkeys(mh.digest for mh in vehicle.captures))
        return {variant: tuple(digests) for variant, digests in sorted(out.items())}


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute a scenario deterministically and audit the outcome.

    Phase 1 simulates each vehicle's full timeline, buffering uplink
    deliveries. A lane is finished as soon as its run returns: its
    snapshots, outcome, alerts and drained batches are kept and the
    ``Vehicle`` with its stores, mirror and parity devices is dropped, so
    a fleet holds one vehicle at a time. Phase 2 registers every vehicle
    key in VIN order, merges deliveries by (sim_time, vehicle_key, VIN),
    appends them as blocks to the shared full node, and has it judge every
    accepted submission (skipped when the scenario has no approved library,
    which is how golden libraries get seeded), counting each verdict under
    the VIN whose batch carried it and each checkpoint left unjudged.
    Nothing is written to disk; ``cli.write_artifacts`` renders the result.
    """
    ground_truth: list[str] = []
    snapshots: list[tuple[str, bytes]] = []
    outcomes: list[VehicleOutcome] = []
    alerts: list[str] = []
    drained: list[tuple[str, DrainBatch]] = []  # (VIN, batch)
    for lane in scenario.lanes:
        vehicle = Vehicle(lane.config, ground_truth)
        vehicle.run(lane.events, scenario.duration_s)
        vin = lane.config.vin
        alerts.extend(vehicle.alerts)
        for i, cluster in enumerate(vehicle.clusters):
            name = f"cluster{i}_{vin}.snap"
            try:
                snapshots.append((name, parity.save_snapshot(cluster)))
            except parity.ClusterError as exc:
                alerts.append(f"snapshot {name} skipped: {exc}")
        outcomes.append(
            VehicleOutcome(
                vin=vin,
                variant_code=lane.config.variant_code,
                vehicle_keys=tuple(vehicle.vehicle_keys),
                captures=tuple(vehicle.master.captures),
                tamper_flag=vehicle.tamper_flag,
                tamper_details=dict(vehicle.tamper_details),
            )
        )
        drained.extend((vin, batch) for batch in vehicle.batches)
        del vehicle  # before the next is built, and through phase 2

    full_node = FullNode(
        library=scenario.approved_library,
        critical_variants=scenario.critical_variants,
    )
    # VIN order, so the alerts come in one order whatever the lane order.
    conflicts = 0
    for outcome in sorted(outcomes, key=lambda o: o.vin):
        for key in outcome.vehicle_keys:
            conflict = full_node.register_vehicle(key, outcome.variant_code)
            if conflict:
                alerts.append(conflict)
                conflicts += 1

    # The newest submission carries the key of the last capture, not the
    # vehicle's current key, which a silent swap since may have changed.
    # Two vehicles may carry one key; the VIN breaks that tie, and the sort
    # is stable, so one vehicle's batches keep their order.
    drained.sort(key=lambda vb: (vb[1].sim_time, vb[1].submissions[-1].vehicle_key, vb[0]))

    verdicts: list[Verdict] = []
    counts = {outcome.vin: outcome.verdicts for outcome in outcomes}
    rejected = unjudged = 0
    for vin, batch in drained:
        result = full_node.append_submissions(list(batch.submissions))
        rejected += len(result.rejected)
        for submission, reason in result.rejected:
            alerts.append(
                f"t={batch.sim_time} rejected checkpoint {submission.checkpoint_seq}: {reason}"
            )
        if result.block is None or full_node.library is None:
            continue
        for submission in result.block.entries:
            try:
                verdict = full_node.evaluate(submission, tamper_flag=batch.tamper_flag)
            except (UnknownVariantError, UnknownVehicleError) as exc:
                alerts.append(
                    f"t={batch.sim_time} checkpoint {submission.checkpoint_seq}: {exc}"
                )
                unjudged += 1
                continue
            verdicts.append(verdict)
            counts[vin][verdict.status.value] += 1

    return ScenarioResult(
        scenario=scenario,
        vehicles=tuple(outcomes),
        blocks=tuple(full_node.chain),
        verdicts=tuple(verdicts),
        alerts=tuple(alerts),
        ground_truth=tuple(ground_truth),
        cluster_snapshots=tuple(snapshots),
        rejected_checkpoints=rejected,
        key_conflicts=conflicts,
        unjudged_checkpoints=unjudged,
    )
