"""Canonical domain types and hashing for the in-vehicle audit trail.

Everything downstream keys off the digests produced here: DHT placement
uses record keys, parity clusters index record payload hashes, checkpoint
meta-hashes fold record/payload digest pairs, and ledger entries carry the
derived vehicle key. The byte-level canonical forms in this module are
therefore load-bearing: two implementations that disagree on a single byte
disagree on every digest derived from it.

Canonical form, everywhere: sorted ``field=value`` lines joined with a
single newline, no trailing newline, UTF-8. Newlines are forbidden inside
field values because the newline is the field separator.

All digests are SHA-256 and are rendered as lowercase hex wherever a
textual encoding is needed. Timestamps are simulated-clock integers;
nothing in this package reads the wall clock.

Values are valid by construction: ``ModuleMetadata`` and ``AuditRecord``
raise MetadataError as an invalid instance is made, ``dataclasses.replace``
included, so nothing downstream checks them again.

A metadata instance is hashed once: ``ModuleMetadata.payload_hash``
memoises the digest of its canonical form on the instance. That is safe
because metadata is frozen and every mutation (reflash, tamper, swap)
replaces the instance, so the new one hashes afresh. Record keys still
depend on the emission time and are computed per record.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from datetime import date
from enum import Enum
from functools import cached_property
from typing import Iterable

# 17 chars, uppercase alphanumerics minus I/O/Q (easily confused glyphs).
# Use fullmatch, as for every pattern here: ``$`` admits a trailing newline.
VIN_RE = re.compile(r"[A-HJ-NPR-Z0-9]{17}")
# An explicit class: \d and re.I would admit non-ASCII digits and A-F.
HEX_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


class MetadataError(ValueError):
    """A domain value violates its canonical-form constraints."""


class EventType(str, Enum):
    """Why an audit record was emitted (also used as checkpoint trigger)."""

    PERIODIC_INTERVAL = "PeriodicInterval"
    OBD_PLUG_IN = "ObdPlugIn"
    CONFIG_CHANGE = "ConfigChange"
    REFLASH = "Reflash"
    MILEAGE_THRESHOLD = "MileageThreshold"
    SERVICE_NOTICE = "ServiceNotice"
    STARTUP_CHECK = "StartupCheck"


class AirbagStatus(str, Enum):
    OK = "Ok"
    DEPLOYED = "Deployed"
    FAULT_LATCHED = "FaultLatched"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_hex_digest(value: str) -> bool:
    """64 lowercase hex chars; fullmatch, since ``$`` admits a trailing newline."""
    return HEX_DIGEST_RE.fullmatch(value) is not None


def validate_vin(vin: str) -> None:
    if not VIN_RE.fullmatch(vin):
        raise MetadataError(f"invalid VIN {vin!r}: need 17 chars from [A-HJ-NPR-Z0-9]")


@dataclass(frozen=True)
class ModuleMetadata:
    """Software/hardware descriptor a module self-identifies with.

    This is the unit of hashing: any single-field change produces a new
    payload digest. Mutations (reflash, tamper, swap) are modeled by
    replacing the instance, never by in-place edits, which is what lets
    ``payload_hash`` be computed once per instance.
    """

    module_id: str
    design_date: date
    manufacture_date: date
    manufacture_location: str
    supplier_id: str
    production_lot: str
    software_version: str
    variant_code: str
    serial_number: str
    vin: str

    def __post_init__(self) -> None:
        if not self.module_id:
            raise MetadataError("module_id must be non-empty")
        if not self.serial_number:
            raise MetadataError("serial_number must be non-empty")
        validate_vin(self.vin)
        for name, value in _field_items(self):
            if isinstance(value, str) and "\n" in value:
                raise MetadataError(f"newline in field {name!r} breaks canonical form")

    @cached_property
    def payload_hash(self) -> str:
        """SHA-256 hex of the canonical form, memoised on the instance."""
        return sha256_hex(canonical_serialize(self))


@dataclass(frozen=True)
class SharedCriticalData:
    """Protected vehicle data replicated across modules.

    Legitimate histories only ever move odometer_km up; the consistency
    check flags replicas that disagree, it does not repair them.
    """

    vin: str
    odometer_km: int
    airbag_status: AirbagStatus
    service_event_count: int


@dataclass(frozen=True)
class AuditRecord:
    """One hashed, timestamped, typed event as stored in the DHT.

    record_key is recomputed from the other fields as the record is made,
    and a mismatch raises MetadataError, so a key fixes its payload hash.
    """

    record_key: str
    module_id: str
    event_type: EventType
    sim_time: int
    payload_hash: str

    def __post_init__(self) -> None:
        key = compute_record_key(self.module_id, self.event_type, self.sim_time, self.payload_hash)
        if self.record_key != key:
            raise MetadataError("record_key does not match record contents")

    def dump_line(self) -> str:
        """Audit dump encoding: key, module, event, time, payload hash."""
        return "\t".join(
            (
                self.record_key,
                self.module_id,
                self.event_type.value,
                str(self.sim_time),
                self.payload_hash,
            )
        )


def _field_items(metadata: ModuleMetadata) -> list[tuple[str, object]]:
    return sorted((f.name, getattr(metadata, f.name)) for f in fields(metadata))


def canonical_serialize(metadata: ModuleMetadata) -> bytes:
    """Byte-exact canonical encoding of module metadata.

    Sorted ``field=value`` lines, newline-joined, no trailing newline.
    Dates render as ISO ``YYYY-MM-DD``.
    """
    lines = []
    for name, value in _field_items(metadata):
        if isinstance(value, date):
            text = value.isoformat()
        else:
            text = str(value)
        lines.append(f"{name}={text}")
    return "\n".join(lines).encode("utf-8")


def compute_record_key(
    module_id: str, event_type: EventType, sim_time: int, payload_hash: str
) -> str:
    body = "\n".join(
        (
            f"event_type={event_type.value}",
            f"module_id={module_id}",
            f"payload_hash={payload_hash}",
            f"sim_time={sim_time}",
        )
    )
    return sha256_hex(body.encode("utf-8"))


def identity_hash(
    metadata: ModuleMetadata, sim_time: int, event_type: EventType
) -> AuditRecord:
    """Produce the audit record a module emits to self-identify."""
    if sim_time < 0:
        raise ValueError("sim_time must be non-negative")
    payload_hash = metadata.payload_hash
    return AuditRecord(
        record_key=compute_record_key(
            metadata.module_id, event_type, sim_time, payload_hash
        ),
        module_id=metadata.module_id,
        event_type=event_type,
        sim_time=sim_time,
        payload_hash=payload_hash,
    )


def derive_vehicle_key(serials: Iterable[str], latest_version: str) -> str:
    """Fold the sorted serial set and a software version into one key.

    The result is the vehicle's opaque retrieval key, as 64 hex chars. The
    derivation is one-way (hash of sorted serials plus the version of the
    latest official install), so holding the key reveals none of the
    inputs, and the key rotates whenever the software payload legitimately
    changes.
    """
    unique = sorted(set(serials))
    if not unique:
        raise ValueError("serial set must be non-empty")
    for s in unique:
        if "\n" in s:
            raise MetadataError("newline in serial number breaks canonical form")
    if "\n" in latest_version:
        raise MetadataError("newline in version breaks canonical form")
    lines = [f"serial={s}" for s in unique]
    lines.append(f"version={latest_version}")
    return sha256_hex("\n".join(lines).encode("utf-8"))
