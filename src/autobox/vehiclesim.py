"""Deterministic discrete-event simulator for vehicles and small fleets.

Builds each vehicle from config (modules with their DHT nodes, parity
clusters, a master unit), advances an integer simulated clock through a
scripted event list, injects tamper and fault events, and records ground
truth for every state transition. Identical (config, events, seed) inputs
produce byte-identical ledger files, verdict streams and ground-truth
logs; nothing reads the wall clock and nothing iterates in nondeterminism.

Event handling in one line each:

* Drive advances every odometer replica and may cross a mileage stride.
* ObdPlugIn / ConfigChange / ServiceNotice sweep all modules and capture.
* UdsReflash is the official path: version change, audit record, capture,
  OEM re-registration of the rotated vehicle key.
* EepromTamper / ModuleSwap are silent: state changes with no audit trail,
  left for the consistency check or the next checkpoint to expose.
* NodeFailure / NodeRecovery toggle a DHT node's storage/routing role;
  the module itself keeps emitting through a live neighbor, so records
  survive (fallback placement) and checkpoints are unaffected.
* MemoryCorruption flips one byte in a parity-cluster device.
* ConnectivityOutage closes the uplink between its start and end times;
  the light client backlog drains when it reopens.
* Reboot re-runs the startup sweep and consistency check.
* ClearTamperFlag models the authorized service tool.

Fleet runs share one full node. Vehicles are simulated independently and
their drained submission batches are merged by (sim_time, vehicle_key)
before blocks are appended, so results are independent of vehicle order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Any, Iterable

from .auditcore import (
    AirbagStatus,
    AuditRecord,
    EventType,
    MetadataError,
    ModuleMetadata,
    SharedCriticalData,
    derive_vehicle_key,
    identity_hash,
    is_hex_digest,
    validate_vin,
)
from .dht import (
    CheckpointRequired,
    DhtNetwork,
    detect_discrepancy,
    node_id_for_serial,
)
from .ledger import (
    ApprovedLibrary,
    FullNode,
    LedgerBlock,
    UnknownVariantError,
    UnknownVehicleError,
    Verdict,
    VerdictPolicy,
    VerdictStatus,
)
from .masternode import Connectivity, MasterNode, MetaHash, Submission, SubmitOutcome
from . import parity

SCD_FIELDS = ("vin", "odometer_km", "airbag_status", "service_event_count")
METADATA_FIELDS = (
    "design_date",
    "manufacture_date",
    "manufacture_location",
    "supplier_id",
    "production_lot",
    "software_version",
    "variant_code",
    "serial_number",
    "vin",
)

DEFAULT_TAMPER_CLEAR_TOKEN = "SERVICE-TOOL"

# Periodic captures one vehicle may take over a scenario (duration_s //
# capture_interval_s): about 13 months at hourly captures. A longer
# scenario is refused rather than left to run for days.
MAX_PERIODIC_CAPTURES = 10_000


class ScenarioError(ValueError):
    """Scenario config or event list is invalid; nothing was simulated."""


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


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted occurrence; field use depends on kind."""

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


@dataclass(frozen=True)
class VehicleConfig:
    vin: str
    variant_code: str
    modules: tuple[ModuleMetadata, ...]
    dht_store_limit_bytes: int = 2048
    parity_clusters: tuple[tuple[str, ...], ...] = ()
    capture_interval_s: int = 3600
    mileage_stride_km: int = 1000
    tamper_clear_token: str = DEFAULT_TAMPER_CLEAR_TOKEN
    initial_odometer_km: int = 0

    def validate(self) -> None:
        validate_vin(self.vin)
        if not self.modules:
            raise ScenarioError("vehicle needs at least one module")
        ids = [m.module_id for m in self.modules]
        if len(set(ids)) != len(ids):
            raise ScenarioError("module_ids must be unique")
        serials = [m.serial_number for m in self.modules]
        if len(set(serials)) != len(serials):
            raise ScenarioError("serial_numbers must be unique")
        for m in self.modules:
            m.validate()
            if m.vin != self.vin:
                raise ScenarioError(
                    f"module {m.module_id} carries VIN {m.vin}, vehicle is {self.vin}"
                )
        for members in self.parity_clusters:
            if len(members) < 3:
                raise ScenarioError(
                    "a parity cluster needs >= 3 members (last member hosts parity)"
                )
            unknown = set(members) - set(ids)
            if unknown:
                raise ScenarioError(f"parity cluster references unknown modules {sorted(unknown)}")
            if len(set(members)) != len(members):
                raise ScenarioError("parity cluster members must be unique")
        if self.initial_odometer_km < 0:
            raise ScenarioError("initial_odometer_km must be non-negative")
        for name in ("capture_interval_s", "mileage_stride_km"):
            if getattr(self, name) < 1:
                raise ScenarioError(f"{name} must be at least 1")

    def longest_record_line(self, duration_s: int) -> int:
        """Bytes of the longest record line a module emits by duration_s.

        Key, module id, event type, sim time and payload hash, tab-joined,
        plus the newline: what ``DhtNode.record_size`` charges a store.
        """
        module_id = max(len(m.module_id.encode("utf-8")) for m in self.modules)
        event_type = max(len(t.value) for t in EventType)
        return 64 + module_id + event_type + len(str(duration_s)) + 64 + 4 + 1


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
    policy: VerdictPolicy = VerdictPolicy()


class GroundTruthLog:
    """Append-only record of everything the simulator core did.

    Written only by the core, never by the modules under test; this is the
    oracle source for scenario assertions. One compact JSON object per
    line, keys sorted, so logs diff cleanly between runs.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def log(self, sim_time: int, event: str, **detail: Any) -> None:
        entry = {"sim_time": sim_time, "event": event}
        entry.update(detail)
        self.lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))

    def bound(self, vin: str) -> "_BoundLog":
        """A writer that stamps every line with the originating vehicle."""
        return _BoundLog(self, vin)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


class _BoundLog:
    def __init__(self, log: GroundTruthLog, vin: str):
        self._log = log
        self._vin = vin

    def log(self, sim_time: int, event: str, **detail: Any) -> None:
        self._log.log(sim_time, event, vin=self._vin, **detail)


@dataclass(frozen=True)
class DrainBatch:
    """One uplink delivery: what arrived at the full node, and when."""

    sim_time: int
    order_key: str  # current vehicle key, the merge tie-breaker
    tamper_flag: bool
    submissions: tuple[Submission, ...]


class _BufferedLink:
    """Records drained batches so fleet merges can replay them in order."""

    def __init__(self, vehicle: "Vehicle"):
        self._vehicle = vehicle
        self.batches: list[DrainBatch] = []

    def submit(self, submissions: list[Submission]) -> SubmitOutcome:
        v = self._vehicle
        self.batches.append(
            DrainBatch(
                sim_time=v.clock,
                order_key=v.vehicle_key,
                tamper_flag=v.tamper_flag,
                submissions=tuple(submissions),
            )
        )
        return SubmitOutcome(
            accepted=tuple((s.vehicle_key, s.checkpoint_seq) for s in submissions)
        )


@dataclass
class _SimCluster:
    members: tuple[str, ...]  # data members in order; parity hosted on the last
    store: parity.ParityCluster
    device_of: dict[str, int]
    parity_host: str


@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    flagged: dict[str, frozenset[str]]  # field -> minority module ids


class Vehicle:
    """One assembled vehicle under simulation."""

    def __init__(self, config: VehicleConfig, ground_truth: GroundTruthLog | None = None):
        config.validate()
        self.config = config
        self.ground_truth = (ground_truth or GroundTruthLog()).bound(config.vin)
        self.clock = 0
        self.modules: dict[str, ModuleMetadata] = {
            m.module_id: m for m in config.modules
        }
        self.scd: dict[str, SharedCriticalData] = {
            m.module_id: SharedCriticalData(
                vin=config.vin,
                odometer_km=config.initial_odometer_km,
                airbag_status=AirbagStatus.OK,
                service_event_count=0,
            )
            for m in config.modules
        }
        self.network = DhtNetwork(store_limit_bytes=config.dht_store_limit_bytes)
        self.node_of: dict[str, str] = {}
        self.module_of: dict[str, str] = {}  # node id -> module id
        for m in config.modules:
            node_id = node_id_for_serial(m.serial_number)
            self.network.add_node(node_id)
            self.node_of[m.module_id] = node_id
            self.module_of[node_id] = m.module_id
        self.clusters: list[_SimCluster] = []
        for members in config.parity_clusters:
            data_members = members[:-1]
            self.clusters.append(
                _SimCluster(
                    members=data_members,
                    store=parity.ParityCluster(len(data_members)),
                    device_of={m: i for i, m in enumerate(data_members)},
                    parity_host=members[-1],
                )
            )
        self.true_odometer = config.initial_odometer_km
        # Newest software version on board; silent modifications never
        # update this, which is exactly what makes them detectable.
        self.latest_version = max(m.software_version for m in config.modules)
        self.master = MasterNode(
            self.network,
            capture_interval_s=config.capture_interval_s,
            mileage_stride_km=config.mileage_stride_km,
            initial_odometer_km=config.initial_odometer_km,
        )
        self.master.vehicle_key = self._current_key()
        self.link = _BufferedLink(self)
        self.tamper_flag = False
        self.tamper_details: dict[str, frozenset[str]] = {}
        self.alerts: list[str] = []
        self.captures: list[MetaHash] = []
        # (vehicle_key, variant) pairs the OEM knows about; rotations via
        # official channels append here, silent swaps do not.
        self.registrations: list[tuple[str, str]] = [
            (self.master.vehicle_key, config.variant_code)
        ]

    # -- identity -----------------------------------------------------------

    def _current_key(self) -> str:
        serials = (m.serial_number for m in self.modules.values())
        return derive_vehicle_key(serials, self.latest_version).key

    @property
    def vehicle_key(self) -> str:
        return self.master.vehicle_key

    # -- record plumbing ------------------------------------------------------

    def _entry_node(self, emitter: str) -> str | None:
        """Network entry point for a module's emissions.

        A failed DHT node loses its storage and routing role, not the
        module's ability to speak on the in-vehicle bus: emissions enter
        through the first live node instead, so a single node failure
        never changes what the audit trail records.
        """
        own = self.node_of[emitter]
        if self.network.is_live(own):
            return own
        for module_id in self.modules:
            node_id = self.node_of[module_id]
            if self.network.is_live(node_id):
                return node_id
        return None

    def _put_record(self, emitter: str, record: AuditRecord, trigger: EventType) -> None:
        origin = self._entry_node(emitter)
        if origin is None:
            self.alerts.append(f"t={self.clock} no live node to accept records")
            return
        try:
            receipt = self.network.put(origin, record)
        except CheckpointRequired:
            # Store full of uncovered records: checkpoint first, then retry.
            self._capture(trigger)
            receipt = self.network.put(origin, record)
        self.master.mirror_update(record, receipt.sequence)
        if receipt.evicted:
            self.ground_truth.log(
                self.clock,
                "eviction",
                node_module=self.module_of.get(receipt.stored_at),
                evicted=sorted(receipt.evicted),
            )
        holder = self.module_of.get(receipt.stored_at)
        if holder is not None:
            for cluster in self.clusters:
                device = cluster.device_of.get(holder)
                if device is not None and not cluster.store.has_record(record.record_key):
                    cluster.store.append_record(
                        device,
                        record.record_key,
                        (record.dump_line() + "\n").encode("utf-8"),
                    )

    def _sweep(self, event_type: EventType) -> int:
        """Every module self-identifies into the table; returns count."""
        emitted = 0
        for module_id, metadata in self.modules.items():
            record = identity_hash(metadata, self.clock, event_type)
            self._put_record(module_id, record, event_type)
            emitted += 1
        return emitted

    # -- checkpoints ------------------------------------------------------------

    def _capture(self, trigger: EventType) -> MetaHash:
        self._scrub_clusters()
        self.master.vehicle_key = self._current_key()
        mh = self.master.capture_meta_hash(trigger, self.clock, self.true_odometer)
        self.captures.append(mh)
        self.ground_truth.log(
            self.clock,
            "capture",
            seq=mh.checkpoint_seq,
            digest=mh.digest,
            trigger=trigger.value,
            covered=mh.covered_records,
        )
        self._drain()
        return mh

    def _drain(self) -> int:
        if not self.master.online:
            return 0
        count = self.master.submit_pending(self.link)
        if count:
            self.ground_truth.log(self.clock, "drain", checkpoints=count)
        return count

    def _sweep_and_maybe_capture(self, event_type: EventType) -> None:
        self._sweep(event_type)
        if self.master.trigger_policy(event_type, self.clock, self.true_odometer):
            self._capture(event_type)

    # -- cluster health ---------------------------------------------------------

    def _scrub_clusters(self) -> None:
        for i, cluster in enumerate(self.clusters):
            try:
                report = parity.scrub(cluster.store)
            except parity.MultiFaultError as exc:
                self.alerts.append(f"cluster {i}: {exc}")
                continue
            if report.clean:
                continue
            parity.repair(cluster.store, report.device)
            self.ground_truth.log(
                self.clock,
                "parity_repair",
                cluster=i,
                device=report.device,
                records=sorted(report.records),
            )

    # -- vehicle-level operations -------------------------------------------------

    def boot(self) -> ConsistencyResult:
        """Power-on: scrub redundancy, self-identify, cross-check replicas."""
        self.ground_truth.log(self.clock, "boot")
        self._scrub_clusters()
        self._sweep(EventType.STARTUP_CHECK)
        return self.startup_consistency_check()

    def startup_consistency_check(self) -> ConsistencyResult:
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
            for field_name in SCD_FIELDS:
                readings = {m: getattr(self.scd[m], field_name) for m in live}
                report = detect_discrepancy(field_name, readings)
                if not report.consistent:
                    flagged[field_name] = report.minority
        if flagged:
            self.tamper_flag = True
            self.tamper_details.update(flagged)
            summary = {f: sorted(mods) for f, mods in flagged.items()}
            self.alerts.append(f"t={self.clock} tamper flag set: {summary}")
            self.ground_truth.log(self.clock, "tamper_flag_set", fields=summary)
        return ConsistencyResult(ok=not flagged, flagged=flagged)

    def clear_tamper_flag(self, token: str) -> bool:
        """Authorized clear; records a service event. Wrong token refuses."""
        if token != self.config.tamper_clear_token:
            self.alerts.append(f"t={self.clock} tamper clear refused: bad token")
            self.ground_truth.log(self.clock, "tamper_clear_refused")
            return False
        self.tamper_flag = False
        self.tamper_details = {}
        self.ground_truth.log(self.clock, "tamper_flag_cleared")
        self._bump_service_count()
        self._sweep_and_maybe_capture(EventType.SERVICE_NOTICE)
        return True

    def _bump_service_count(self) -> None:
        for module_id, data in self.scd.items():
            self.scd[module_id] = replace(
                data, service_event_count=data.service_event_count + 1
            )

    # -- event dispatch ---------------------------------------------------------

    def handle_event(self, event: ScenarioEvent) -> None:
        self.clock = event.sim_time
        handler = getattr(self, "_on_" + event.kind.name.lower())
        handler(event)

    def _on_drive(self, event: ScenarioEvent) -> None:
        km = event.km or 0
        if km < 0:
            raise ScenarioError("Drive km must be non-negative")
        self.true_odometer += km
        for module_id, data in self.scd.items():
            self.scd[module_id] = replace(data, odometer_km=data.odometer_km + km)
        self.ground_truth.log(
            self.clock, "drive", km=km, odometer_km=self.true_odometer
        )
        if self.master.trigger_policy(
            EventType.MILEAGE_THRESHOLD, self.clock, self.true_odometer
        ):
            self._sweep(EventType.MILEAGE_THRESHOLD)
            self._capture(EventType.MILEAGE_THRESHOLD)

    def _on_obd_plug_in(self, event: ScenarioEvent) -> None:
        self.ground_truth.log(self.clock, "obd_plug_in")
        self._sweep_and_maybe_capture(EventType.OBD_PLUG_IN)

    def _on_config_change(self, event: ScenarioEvent) -> None:
        self.ground_truth.log(self.clock, "config_change")
        self._sweep_and_maybe_capture(EventType.CONFIG_CHANGE)

    def _on_service_notice(self, event: ScenarioEvent) -> None:
        self._bump_service_count()
        self.ground_truth.log(self.clock, "service_notice")
        self._sweep_and_maybe_capture(EventType.SERVICE_NOTICE)

    def _on_uds_reflash(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        if not event.new_version:
            raise ScenarioError("UdsReflash needs new_version")
        old = self.modules[module_id]
        self.modules[module_id] = replace(old, software_version=event.new_version)
        self.latest_version = event.new_version
        self.ground_truth.log(
            self.clock,
            "uds_reflash",
            module=module_id,
            pre=old.software_version,
            post=event.new_version,
        )
        record = identity_hash(self.modules[module_id], self.clock, EventType.REFLASH)
        self._put_record(module_id, record, EventType.REFLASH)
        # Official channel: the OEM learns the rotated vehicle key.
        self.registrations.append((self._current_key(), self.config.variant_code))
        if self.master.trigger_policy(EventType.REFLASH, self.clock, self.true_odometer):
            self._capture(EventType.REFLASH)

    def _on_eeprom_tamper(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        if event.field in SCD_FIELDS:
            old = self.scd[module_id]
            value = _coerce_scd_value(event.field, event.forged_value)
            self.scd[module_id] = replace(old, **{event.field: value})
            pre = getattr(old, event.field)
        elif event.field in METADATA_FIELDS:
            old_md = self.modules[module_id]
            value = _coerce_metadata_value(event.field, event.forged_value)
            forged = replace(old_md, **{event.field: value})
            try:
                forged.validate()
            except MetadataError as exc:
                raise ScenarioError(f"forged value breaks canonical form: {exc}") from exc
            self.modules[module_id] = forged
            pre = getattr(old_md, event.field)
        else:
            raise ScenarioError(f"EepromTamper: unknown field {event.field!r}")
        self.ground_truth.log(
            self.clock,
            "eeprom_tamper",
            module=module_id,
            field=event.field,
            pre=_jsonable(pre),
            post=_jsonable(value),
        )

    def _on_module_swap(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        replacement = event.replacement
        if replacement is None:
            raise ScenarioError("ModuleSwap needs replacement metadata")
        replacement.validate()
        if replacement.module_id != module_id:
            raise ScenarioError(
                f"replacement module_id {replacement.module_id!r} does not fit "
                f"slot {module_id!r}"
            )
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
        # The donor unit arrives with its donor vehicle's protected data.
        self.scd[module_id] = replace(self.scd[module_id], vin=replacement.vin)
        # Its audit-store bytes did not make the trip; redundancy rebuilds them.
        for cluster in self.clusters:
            device = cluster.device_of.get(module_id)
            if device is not None:
                cluster.store.erase_device(device)
            elif cluster.parity_host == module_id:
                cluster.store.erase_device(parity.PARITY)
        self.ground_truth.log(
            self.clock,
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
        self.ground_truth.log(self.clock, "node_failure", module=module_id)

    def _on_node_recovery(self, event: ScenarioEvent) -> None:
        module_id = self._require_module(event.module_id)
        self.network.recover_node(self.node_of[module_id])
        self.ground_truth.log(self.clock, "node_recovery", module=module_id)

    def _on_memory_corruption(self, event: ScenarioEvent) -> None:
        if event.cluster is None or not 0 <= event.cluster < len(self.clusters):
            raise ScenarioError(f"MemoryCorruption: unknown cluster {event.cluster!r}")
        cluster = self.clusters[event.cluster]
        device: int | str
        if event.device == parity.PARITY:
            device = parity.PARITY
        else:
            try:
                device = int(event.device)
            except (TypeError, ValueError, OverflowError):
                raise ScenarioError(
                    f"MemoryCorruption needs a device index or 'parity', "
                    f"got {event.device!r}"
                ) from None
        offset = event.byte_offset or 0
        try:
            pre, post = cluster.store.corrupt_byte(device, offset)
        except parity.ClusterError as exc:
            raise ScenarioError(str(exc)) from exc
        self.ground_truth.log(
            self.clock,
            "memory_corruption",
            cluster=event.cluster,
            device=event.device,
            byte_offset=offset,
            pre=pre,
            post=post,
        )

    def _on_connectivity_outage(self, event: ScenarioEvent) -> None:
        self.master.set_connectivity(Connectivity.OFFLINE)
        self.ground_truth.log(self.clock, "connectivity_down", until=event.end)

    def _on_connectivity_restored(self) -> None:
        self.master.set_connectivity(Connectivity.ONLINE)
        self.ground_truth.log(self.clock, "connectivity_up")
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
        items: list[tuple[int, int, str, ScenarioEvent | None]] = []
        order = 0
        last_time = 0
        for event in events:
            if event.sim_time < last_time:
                raise ScenarioError("events must be ordered by sim_time")
            last_time = event.sim_time
            items.append((event.sim_time, order, "event", event))
            order += 1
            if event.kind is ScenarioEventKind.CONNECTIVITY_OUTAGE:
                if event.end is None or event.end < event.sim_time:
                    raise ScenarioError("ConnectivityOutage needs end >= sim_time")
                items.append((event.end, order, "reconnect", None))
                order += 1
        items.sort(key=lambda item: (item[0], item[1]))
        self.boot()
        for when, _, what, event in items:
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
        while True:
            next_tick = self.master.last_capture_time + self.config.capture_interval_s
            if next_tick > horizon:
                return
            self.clock = next_tick
            if self.master.trigger_policy(
                EventType.PERIODIC_INTERVAL, next_tick, self.true_odometer
            ):
                self._sweep(EventType.PERIODIC_INTERVAL)
                self._capture(EventType.PERIODIC_INTERVAL)


def _coerce_scd_value(field_name: str, value: Any) -> Any:
    """A forged shared-data value as its field's type, or a ScenarioError."""
    try:
        if field_name == "airbag_status":
            return AirbagStatus(value)
        if field_name == "vin":
            validate_vin(str(value))
            return str(value)
        coerced = int(value)  # odometer_km, service_event_count
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"EepromTamper {field_name}: {exc}") from None
    if coerced < 0:
        raise ScenarioError(f"{field_name} cannot be negative")
    return coerced


def _coerce_metadata_value(field_name: str, value: Any) -> Any:
    if field_name in ("design_date", "manufacture_date"):
        try:
            return date.fromisoformat(str(value))
        except ValueError as exc:
            raise ScenarioError(f"EepromTamper {field_name}: {exc}") from None
    return str(value)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, date):
        return value.isoformat()
    return value


# -- scenario files --------------------------------------------------------


def _expect(value: Any, kind: type, where: str) -> Any:
    """``value`` when it has the JSON shape ``kind`` (dict or list).

    Anything else is a ScenarioError naming where it was found.
    """
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ScenarioError(f"{where} must be {shape}, got {type(value).__name__}")
    return value


def parse_metadata(obj: dict[str, Any]) -> ModuleMetadata:
    _expect(obj, dict, "module metadata")
    try:
        md = ModuleMetadata(
            module_id=str(obj["module_id"]),
            design_date=date.fromisoformat(obj["design_date"]),
            manufacture_date=date.fromisoformat(obj["manufacture_date"]),
            manufacture_location=str(obj["manufacture_location"]),
            supplier_id=str(obj["supplier_id"]),
            production_lot=str(obj["production_lot"]),
            software_version=str(obj["software_version"]),
            variant_code=_variant_code(obj),
            serial_number=str(obj["serial_number"]),
            vin=str(obj["vin"]),
        )
        md.validate()
    except KeyError as exc:
        raise ScenarioError(f"module metadata missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # a bad date, a MetadataError
        raise ScenarioError(f"module metadata: {exc}") from exc
    return md


def _variant_code(obj: dict[str, Any]) -> str:
    """``obj["variant_code"]`` as a string with only printable characters:
    a tab or line break in it would split an approved-library line."""
    value = str(obj["variant_code"])
    if not value.isprintable():
        raise ScenarioError(f"variant_code must be printable, got {value!r}")
    return value


_REQUIRED = object()


def _int_field(obj: dict[str, Any], name: str, default: Any = _REQUIRED) -> int:
    """``int(obj[name])``, or of the default when given and name is absent.

    A value int() refuses (a string that is no number, null, a list, an
    infinity) is a ScenarioError naming the field.
    """
    value = obj[name] if default is _REQUIRED else obj.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{name} must be an integer, got {value!r}") from None


def _str_field(obj: dict[str, Any], name: str) -> str | None:
    """``obj[name]`` when it is a string, None when absent."""
    value = obj.get(name)
    if value is not None and not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string, got {value!r}")
    return value


def _parse_event(index: int, obj: dict[str, Any]) -> ScenarioEvent:
    _expect(obj, dict, f"events[{index}]")
    try:
        kind = ScenarioEventKind(obj["kind"])
        sim_time = _int_field(obj, "sim_time")
    except KeyError as exc:
        raise ScenarioError(f"events[{index}]: missing {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ScenarioError(f"events[{index}]: {exc}") from exc
    if sim_time < 0:
        raise ScenarioError(f"events[{index}]: sim_time must be non-negative")
    replacement = None
    if "replacement" in obj:
        replacement = parse_metadata(obj["replacement"])
    try:
        return ScenarioEvent(
            sim_time=sim_time,
            kind=kind,
            km=int(obj["km"]) if "km" in obj else None,
            module_id=_str_field(obj, "module_id"),
            new_version=_str_field(obj, "new_version"),
            field=_str_field(obj, "field"),
            forged_value=obj.get("forged_value"),
            replacement=replacement,
            cluster=int(obj["cluster"]) if "cluster" in obj else None,
            device=obj.get("device"),
            byte_offset=int(obj["byte_offset"]) if "byte_offset" in obj else None,
            end=int(obj["end"]) if "end" in obj else None,
            token=_str_field(obj, "token"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"events[{index}]: {exc}") from exc


def _parse_vehicle(obj: dict[str, Any]) -> VehicleConfig:
    _expect(obj, dict, "vehicle")
    try:
        config = VehicleConfig(
            vin=str(obj["vin"]),
            variant_code=_variant_code(obj),
            modules=tuple(
                parse_metadata(m) for m in _expect(obj["modules"], list, "modules")
            ),
            dht_store_limit_bytes=_int_field(obj, "dht_store_limit_bytes", 2048),
            parity_clusters=tuple(
                tuple(str(m) for m in _expect(members, list, f"parity_clusters[{i}]"))
                for i, members in enumerate(
                    _expect(obj.get("parity_clusters", []), list, "parity_clusters")
                )
            ),
            capture_interval_s=_int_field(obj, "capture_interval_s", 3600),
            mileage_stride_km=_int_field(obj, "mileage_stride_km", 1000),
            tamper_clear_token=str(
                obj.get("tamper_clear_token", DEFAULT_TAMPER_CLEAR_TOKEN)
            ),
            initial_odometer_km=_int_field(obj, "initial_odometer_km", 0),
        )
    except KeyError as exc:
        raise ScenarioError(f"vehicle: missing field {exc.args[0]!r}") from exc
    try:
        config.validate()
    except MetadataError as exc:  # the vehicle's own VIN
        raise ScenarioError(f"vehicle: {exc}") from exc
    return config


def parse_scenario(obj: dict[str, Any]) -> Scenario:
    """Validate a JSON-compatible object tree into a Scenario."""
    try:
        duration = _int_field(obj, "duration_s")
    except KeyError:
        raise ScenarioError("scenario needs duration_s") from None
    if duration < 0:
        raise ScenarioError("duration_s must be non-negative")
    if "fleet" in obj:
        lanes = []
        for i, lane in enumerate(_expect(obj["fleet"], list, "fleet")):
            _expect(lane, dict, f"fleet[{i}]")
            config = _parse_vehicle(lane.get("vehicle", {}))
            events = tuple(
                _parse_event(j, e)
                for j, e in enumerate(_expect(lane.get("events", []), list, "events"))
            )
            lanes.append(VehicleLane(config=config, events=events))
        if not lanes:
            raise ScenarioError("fleet must contain at least one vehicle")
        vins = [lane.config.vin for lane in lanes]
        if len(set(vins)) != len(vins):
            raise ScenarioError("fleet VINs must be unique")
    elif "vehicle" in obj:
        config = _parse_vehicle(obj["vehicle"])
        events = tuple(
            _parse_event(i, e)
            for i, e in enumerate(_expect(obj.get("events", []), list, "events"))
        )
        lanes = [VehicleLane(config=config, events=events)]
    else:
        raise ScenarioError("scenario needs a 'vehicle' or 'fleet' section")
    for lane in lanes:
        longest = lane.config.longest_record_line(duration)
        if lane.config.dht_store_limit_bytes < longest:
            raise ScenarioError(
                f"dht_store_limit_bytes {lane.config.dht_store_limit_bytes} cannot "
                f"hold a {longest}-byte record line"
            )
        if duration // lane.config.capture_interval_s > MAX_PERIODIC_CAPTURES:
            raise ScenarioError(
                f"duration_s {duration} at capture_interval_s "
                f"{lane.config.capture_interval_s} exceeds "
                f"{MAX_PERIODIC_CAPTURES} periodic captures"
            )
    library = None
    if obj.get("approved_library") is not None:
        library = {}
        approved = _expect(obj["approved_library"], dict, "approved_library")
        for variant, digests in approved.items():
            where = f"approved_library[{variant!r}]"
            library[str(variant)] = tuple(_expect(digests, list, where))
            if not all(isinstance(d, str) and is_hex_digest(d) for d in digests):
                raise ScenarioError(f"{where} must hold 64-char lowercase hex digests")
    policy_obj = _expect(obj.get("policy", {}), dict, "policy")
    critical = policy_obj.get("critical_variants", [])
    policy = VerdictPolicy(
        critical_variants=frozenset(
            str(v) for v in _expect(critical, list, "policy.critical_variants")
        )
    )
    return Scenario(
        scenario_id=str(obj.get("id", "scenario")),
        seed=_int_field(obj, "seed", 0),
        duration_s=duration,
        lanes=tuple(lanes),
        approved_library=library,
        policy=policy,
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
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
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
    alerts: tuple[str, ...]

    @property
    def capture_digests(self) -> tuple[str, ...]:
        return tuple(mh.digest for mh in self.captures)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    vehicles: tuple[VehicleOutcome, ...]
    blocks: tuple[LedgerBlock, ...]
    verdicts: tuple[tuple[int, Verdict], ...]  # (block_index, verdict)
    alerts: tuple[str, ...]
    ground_truth: tuple[str, ...]
    full_node: FullNode
    cluster_snapshots: tuple[tuple[str, bytes], ...] = ()  # (filename, blob)

    @property
    def findings(self) -> bool:
        if any(v.status is not VerdictStatus.APPROVED for _, v in self.verdicts):
            return True
        return any(v.tamper_flag for v in self.vehicles)

    def observed_library(self) -> dict[str, tuple[str, ...]]:
        """Capture digests per variant, for seeding an approved library."""
        out: dict[str, list[str]] = {}
        for vehicle in self.vehicles:
            bucket = out.setdefault(vehicle.variant_code, [])
            for digest in vehicle.capture_digests:
                if digest not in bucket:
                    bucket.append(digest)
        return {variant: tuple(digests) for variant, digests in sorted(out.items())}

    def ground_truth_text(self) -> str:
        return "".join(line + "\n" for line in self.ground_truth)

    def verdicts_text(self) -> str:
        return "".join(v.output_line() + "\n" for _, v in self.verdicts)


def run_scenario(
    scenario: Scenario, *, ledger_path: str | Path | None = None
) -> ScenarioResult:
    """Execute a scenario deterministically and audit the outcome.

    Phase 1 simulates each vehicle's full timeline, buffering uplink
    deliveries. Phase 2 merges deliveries by (sim_time, vehicle_key),
    appends them as blocks to the shared full node, and runs the OEM
    checksum on every accepted submission (skipped when the scenario has
    no approved library, which is how golden libraries get seeded).
    """
    ground_truth = GroundTruthLog()
    vehicles = []
    for lane in scenario.lanes:
        vehicle = Vehicle(lane.config, ground_truth)
        vehicle.run(lane.events, scenario.duration_s)
        vehicles.append(vehicle)

    library = None
    if scenario.approved_library is not None:
        library = ApprovedLibrary(
            {v: list(d) for v, d in scenario.approved_library.items()}
        )
    full_node = FullNode(
        library=library, policy=scenario.policy, ledger_path=ledger_path
    )
    for vehicle in vehicles:
        for key, variant in vehicle.registrations:
            full_node.register_vehicle(key, variant)

    batches = []
    for vehicle in vehicles:
        batches.extend(vehicle.link.batches)
    batches.sort(key=lambda b: (b.sim_time, b.order_key))

    verdicts: list[tuple[int, Verdict]] = []
    ledger_alerts: list[str] = []
    for batch in batches:
        result = full_node.append_submissions(list(batch.submissions))
        for submission, reason in result.rejected:
            ledger_alerts.append(
                f"t={batch.sim_time} rejected checkpoint {submission.checkpoint_seq}: {reason}"
            )
        if result.block is None or library is None:
            continue
        for submission in result.block.entries:
            try:
                verdict = full_node.evaluate(submission, tamper_flag=batch.tamper_flag)
            except (UnknownVariantError, UnknownVehicleError) as exc:
                ledger_alerts.append(
                    f"t={batch.sim_time} checkpoint {submission.checkpoint_seq}: {exc}"
                )
                continue
            verdicts.append((result.block.index, verdict))

    snapshots: list[tuple[str, bytes]] = []
    for vehicle in vehicles:
        for i, cluster in enumerate(vehicle.clusters):
            name = f"cluster{i}_{vehicle.config.vin}.snap"
            try:
                snapshots.append((name, parity.save_snapshot(cluster.store)))
            except parity.ClusterError as exc:
                vehicle.alerts.append(f"snapshot {name} skipped: {exc}")

    outcomes = []
    all_alerts: list[str] = []
    for vehicle in vehicles:
        seen_keys: list[str] = []
        for key, _ in vehicle.registrations:
            if key not in seen_keys:
                seen_keys.append(key)
        outcomes.append(
            VehicleOutcome(
                vin=vehicle.config.vin,
                variant_code=vehicle.config.variant_code,
                vehicle_keys=tuple(seen_keys),
                captures=tuple(vehicle.captures),
                tamper_flag=vehicle.tamper_flag,
                tamper_details=dict(vehicle.tamper_details),
                alerts=tuple(vehicle.alerts + vehicle.master.alerts),
            )
        )
        all_alerts.extend(vehicle.alerts + vehicle.master.alerts)
    all_alerts.extend(ledger_alerts)

    return ScenarioResult(
        scenario=scenario,
        vehicles=tuple(outcomes),
        blocks=tuple(full_node.chain),
        verdicts=tuple(verdicts),
        alerts=tuple(all_alerts),
        ground_truth=tuple(ground_truth.lines),
        full_node=full_node,
        cluster_snapshots=tuple(snapshots),
    )
