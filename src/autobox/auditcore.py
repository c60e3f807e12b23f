"""The hashed domain types of the in-vehicle audit trail, and their hashing.

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

Values are valid by construction: ``ModuleMetadata`` raises MetadataError
as an invalid instance is made, ``dataclasses.replace`` included, so
nothing downstream checks it again. Each field takes exactly its declared
type (``_json``): an int or a date's ISO text would hash as the text it
prints. Invalid input has one error type:
MetadataError is a kind of ScenarioError, which every refused scenario
raises, so one ``except ScenarioError`` catches both. An ``AuditRecord``
takes no key: it derives ``record_key`` from its own fields, so no record
carries a key that does not match it.

Each value is hashed once: ``ModuleMetadata.payload_hash``,
``AuditRecord.record_key`` and ``AuditRecord.line`` are derived once, when
the value is made. That is safe because both types are frozen and every
mutation (reflash, tamper, swap) replaces the instance, so the new one,
``dataclasses.replace``'s too, derives afresh. They are attributes, not
fields: ``==``, ``hash`` and ``repr`` cover the fields only.

Only what is hashed lives here: the vehicle data every module replicates
enters no digest, and its tables and their vote are ``vehiclesim``'s.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from datetime import date
from enum import Enum
from typing import Any, Callable, Iterable

# 17 chars, uppercase alphanumerics minus I/O/Q (easily confused glyphs).
# Use fullmatch, as for every pattern here: ``$`` admits a trailing newline.
VIN_RE = re.compile(r"[A-HJ-NPR-Z0-9]{17}")
# Every SHA-256 digest in autobox's files and keys: 64 lowercase hex chars.
# An explicit class: \d and re.I would admit non-ASCII digits and A-F.
HEX_DIGEST = rb"[0-9a-f]{64}"
HEX_DIGEST_RE = re.compile(HEX_DIGEST.decode("ascii"))
# Every number in autobox's files: canonical, at most 18 digits, so int() reads it.
POSITIVE_NUMBER = rb"[1-9][0-9]{0,17}"  # for values that must be >= 1
NUMBER = rb"(?:0|%s)" % POSITIVE_NUMBER


class ScenarioError(ValueError):
    """A scenario, or a value it is built from, is invalid."""


class MetadataError(ScenarioError):
    """A value has the wrong type or breaks its canonical form."""


def _json(kind: type, what: str) -> Callable[[str, Any], Any]:
    """A check that field ``name`` holds exactly a ``kind``, returned as it is:
    a bool is no int, a datetime no date. The one exact-type check, of values
    and of the JSON a scenario is built from; raises MetadataError."""

    def check(name: str, value: Any) -> Any:
        if type(value) is not kind:
            raise MetadataError(f"{name} must be {what}, got {value!r}")
        return value

    return check


# ModuleMetadata's field types, as its annotations spell them.
_METADATA_TYPES = {"str": _json(str, "a string"), "date": _json(date, "a date")}


class EventType(str, Enum):
    """Why an audit record was emitted (also used as checkpoint trigger)."""

    PERIODIC_INTERVAL = "PeriodicInterval"
    OBD_PLUG_IN = "ObdPlugIn"
    CONFIG_CHANGE = "ConfigChange"
    REFLASH = "Reflash"
    MILEAGE_THRESHOLD = "MileageThreshold"
    SERVICE_NOTICE = "ServiceNotice"
    STARTUP_CHECK = "StartupCheck"
    STORE_FULL = "StoreFull"  # a checkpoint trigger only: no record carries it


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
    ``payload_hash``, the SHA-256 hex of the canonical form, be derived
    once, when the instance is made.
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
        for f in fields(self):
            _METADATA_TYPES[f.type](f.name, getattr(self, f.name))
        # variant_code becomes a field of a tab-separated library line.
        if not self.variant_code.isprintable():
            raise MetadataError(f"variant_code must be printable, got {self.variant_code!r}")
        if not self.module_id:
            raise MetadataError("module_id must be non-empty")
        if not self.serial_number:
            raise MetadataError("serial_number must be non-empty")
        validate_vin(self.vin)
        for name, value in _field_items(self):
            if isinstance(value, str) and "\n" in value:
                raise MetadataError(f"newline in field {name!r} breaks canonical form")
        object.__setattr__(self, "payload_hash", sha256_hex(canonical_serialize(self)))


@dataclass(frozen=True)
class AuditRecord:
    """One hashed, timestamped, typed event as stored in the DHT.

    ``record_key`` and ``line`` are derived from the fields when the record
    is made. ``line`` is the dump line and its newline, UTF-8: the bytes a
    node store accounts for and a parity-cluster device holds.
    """

    module_id: str
    event_type: EventType
    sim_time: int
    payload_hash: str

    def __post_init__(self) -> None:
        # compute_record_key and dump_line, in one pass over the fields.
        event, module_id = self.event_type.value, self.module_id
        sim_time, payload_hash = self.sim_time, self.payload_hash
        key = sha256_hex(
            f"event_type={event}\nmodule_id={module_id}\n"
            f"payload_hash={payload_hash}\nsim_time={sim_time}".encode("utf-8")
        )
        object.__setattr__(self, "record_key", key)
        line = f"{key}\t{module_id}\t{event}\t{sim_time}\t{payload_hash}\n"
        object.__setattr__(self, "line", line.encode("utf-8"))

    def dump_line(self) -> str:
        """Audit dump encoding: key, module, event, time, payload hash."""
        return (
            f"{self.record_key}\t{self.module_id}\t{self.event_type.value}\t"
            f"{self.sim_time}\t{self.payload_hash}"
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
    body = (
        f"event_type={event_type.value}\nmodule_id={module_id}\n"
        f"payload_hash={payload_hash}\nsim_time={sim_time}"
    )
    return sha256_hex(body.encode("utf-8"))


def identity_hash(
    metadata: ModuleMetadata, sim_time: int, event_type: EventType
) -> AuditRecord:
    """Produce the audit record a module emits to self-identify."""
    if sim_time < 0:
        raise ValueError("sim_time must be non-negative")
    return AuditRecord(metadata.module_id, event_type, sim_time, metadata.payload_hash)


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
