from __future__ import annotations

import hashlib
import random
from dataclasses import fields, replace
from datetime import date, timedelta

import pytest

from autobox.auditcore import (
    EventType,
    MetadataError,
    ModuleMetadata,
    canonical_serialize,
    compute_record_key,
    derive_vehicle_key,
    identity_hash,
    is_hex_digest,
    sha256_hex,
    validate_vin,
)

from conftest import (
    BCM_PAYLOAD_DIGEST,
    DATA_DIR,
    ECU_PAYLOAD_DIGEST,
    ECU_REFLASH_T42_KEY,
    TWO_SERIAL_VEHICLE_KEY,
    make_metadata,
)


class TestCanonicalSerialize:
    def test_identical_fields_identical_bytes(self):
        assert canonical_serialize(make_metadata()) == canonical_serialize(make_metadata())

    def test_field_lines_sorted_no_trailing_newline(self):
        blob = canonical_serialize(make_metadata())
        lines = blob.decode("utf-8").split("\n")
        names = [line.split("=", 1)[0] for line in lines]
        assert names == sorted(names)
        assert not blob.endswith(b"\n")

    def test_single_field_delta_changes_exactly_one_line(self):
        base = canonical_serialize(make_metadata()).decode().split("\n")
        other = canonical_serialize(
            make_metadata(production_lot="LOT-9999")
        ).decode().split("\n")
        diffs = [i for i, (a, b) in enumerate(zip(base, other)) if a != b]
        assert len(diffs) == 1
        assert base[diffs[0]].startswith("production_lot=")

    def test_newline_in_field_rejected(self):
        with pytest.raises(MetadataError):
            canonical_serialize(make_metadata(supplier_id="a\nb"))

    def test_dates_render_iso(self):
        blob = canonical_serialize(make_metadata()).decode()
        assert "design_date=2019-03-14" in blob

    @pytest.mark.parametrize(
        "vin", ["", "1HGBH41JXMN10918", "1HGBH41JXMN1091865", "IHGBH41JXMN109186"]
    )
    def test_invalid_vin_rejected(self, vin):
        with pytest.raises(MetadataError):
            canonical_serialize(make_metadata(vin=vin))

    def test_empty_serial_rejected(self):
        with pytest.raises(MetadataError):
            canonical_serialize(make_metadata(serial_number=""))


def test_validate_vin_refuses_trailing_newline():
    """The whole string must be a VIN: ``$`` alone admits a final newline."""
    validate_vin("1HGBH41JXMN109186")
    with pytest.raises(MetadataError):
        validate_vin("1HGBH41JXMN109186\n")


class TestGoldenVectors:
    def test_vector_file_digests(self):
        """Every frozen vector: sha256 over the documented canonical bytes."""
        lines = (DATA_DIR / "hash_vectors.txt").read_text().splitlines()
        assert len(lines) >= 4
        for line in lines:
            canonical_hex, expected = line.split("\t")
            assert hashlib.sha256(bytes.fromhex(canonical_hex)).hexdigest() == expected

    def test_fixture_canonical_bytes_match_vector(self, ecu_metadata):
        first = (DATA_DIR / "hash_vectors.txt").read_text().splitlines()[0]
        canonical_hex, digest = first.split("\t")
        assert canonical_serialize(ecu_metadata) == bytes.fromhex(canonical_hex)
        assert digest == ECU_PAYLOAD_DIGEST

    def test_identity_hash_pins_golden_payload_digest(self, ecu_metadata):
        record = identity_hash(ecu_metadata, 42, EventType.REFLASH)
        assert record.payload_hash == ECU_PAYLOAD_DIGEST
        assert record.record_key == ECU_REFLASH_T42_KEY


def metadata_vectors() -> list[tuple[ModuleMetadata, str]]:
    """The golden vectors that are module metadata, parsed back to instances."""
    out = []
    for line in (DATA_DIR / "hash_vectors.txt").read_text().splitlines():
        canonical_hex, digest = line.split("\t")
        items = dict(
            pair.split("=", 1) for pair in bytes.fromhex(canonical_hex).decode().split("\n")
        )
        if "design_date" not in items:  # record-key and vehicle-key vectors
            continue
        for name in ("design_date", "manufacture_date"):
            items[name] = date.fromisoformat(items[name])
        out.append((ModuleMetadata(**items), digest))
    return out


class TestPayloadHash:
    def test_equals_digest_of_canonical_form(self, ecu_metadata, bcm_metadata):
        assert ecu_metadata.payload_hash == ECU_PAYLOAD_DIGEST
        assert bcm_metadata.payload_hash == BCM_PAYLOAD_DIGEST
        vectors = metadata_vectors()
        assert len(vectors) == 2
        for md in [ecu_metadata, bcm_metadata] + [md for md, _ in vectors]:
            assert md.payload_hash == sha256_hex(canonical_serialize(md))
        for md, digest in vectors:
            assert md.payload_hash == digest

    def test_replaced_instance_hashes_afresh(self, ecu_metadata):
        before = ecu_metadata.payload_hash
        bumped = replace(ecu_metadata, software_version="1.4.3")
        assert bumped.payload_hash == sha256_hex(canonical_serialize(bumped))
        assert bumped.payload_hash != before
        assert ecu_metadata.payload_hash == before
        assert replace(bumped, software_version="1.4.2").payload_hash == before

    def test_invalid_metadata_cannot_be_made(self, ecu_metadata):
        """Neither built nor replaced: no invalid instance exists to hash."""
        for change in (
            dict(supplier_id="a\nb"),
            dict(module_id=""),
            dict(serial_number=""),
            dict(vin="1HGBH41JXMN109186\n"),
        ):
            with pytest.raises(MetadataError):
                make_metadata(**change)
            with pytest.raises(MetadataError):
                replace(ecu_metadata, **change)


def reference_is_hex_digest(value: str) -> bool:
    return len(value) == 64 and all(c in "0123456789abcdef" for c in value)


@pytest.mark.parametrize(
    "value",
    [
        "0123456789abcdef" * 4,
        "0123456789ABCDEF" * 4,
        "a" * 63,
        "a" * 65,
        "a" * 64 + "\n",
        "a" * 63 + "\n",
        "a" * 63 + "\u0663",  # Arabic-Indic digit three
        "a" * 63 + "\uff41",  # fullwidth small a
        "",
    ],
    ids=["lower", "upper", "63", "65", "64+newline", "63+newline", "arabic-3",
         "fullwidth-a", "empty"],
)
def test_is_hex_digest_matches_reference(value):
    assert is_hex_digest(value) == reference_is_hex_digest(value)
    assert is_hex_digest(value) == (value == "0123456789abcdef" * 4)


class TestIdentityHash:
    def test_deterministic(self, ecu_metadata):
        a = identity_hash(ecu_metadata, 100, EventType.PERIODIC_INTERVAL)
        b = identity_hash(ecu_metadata, 100, EventType.PERIODIC_INTERVAL)
        assert a == b

    def test_version_change_changes_payload_hash(self, ecu_metadata):
        a = identity_hash(ecu_metadata, 100, EventType.PERIODIC_INTERVAL)
        bumped = replace(ecu_metadata, software_version="1.4.3")
        b = identity_hash(bumped, 100, EventType.PERIODIC_INTERVAL)
        assert a.payload_hash != b.payload_hash

    def test_record_key_recomputable(self, ecu_metadata):
        record = identity_hash(ecu_metadata, 7, EventType.OBD_PLUG_IN)
        assert record.record_key == compute_record_key(
            record.module_id, record.event_type, record.sim_time, record.payload_hash
        )

    def test_record_with_foreign_payload_hash_cannot_be_made(self, ecu_metadata):
        record = identity_hash(ecu_metadata, 7, EventType.OBD_PLUG_IN)
        with pytest.raises(MetadataError, match="record_key"):
            replace(record, payload_hash="00" * 32)

    def test_negative_time_rejected(self, ecu_metadata):
        with pytest.raises(ValueError):
            identity_hash(ecu_metadata, -1, EventType.OBD_PLUG_IN)

    def test_every_field_mutation_changes_payload_hash(self, ecu_metadata):
        """Field sensitivity: all ten fields feed the digest."""
        baseline = identity_hash(ecu_metadata, 5, EventType.STARTUP_CHECK).payload_hash
        mutations = {
            "module_id": "EC2",
            "design_date": ecu_metadata.design_date + timedelta(days=1),
            "manufacture_date": ecu_metadata.manufacture_date + timedelta(days=1),
            "manufacture_location": "Munich",
            "supplier_id": "SUP-043",
            "production_lot": "LOT-0000",
            "software_version": "1.4.2b",
            "variant_code": "EU-PLUS",
            "serial_number": "ECU-SN-0002",
            "vin": "1HGBH41JXMN109187",
        }
        assert set(mutations) == {f.name for f in fields(ecu_metadata)}
        for name, value in mutations.items():
            mutated = replace(ecu_metadata, **{name: value})
            digest = identity_hash(mutated, 5, EventType.STARTUP_CHECK).payload_hash
            assert digest != baseline, f"field {name} did not affect the digest"

    def test_dump_line_roundtrip(self, ecu_metadata):
        record = identity_hash(ecu_metadata, 42, EventType.REFLASH)
        key, module_id, event, sim_time, payload_hash = record.dump_line().split("\t")
        assert key == record.record_key
        assert module_id == "ECU"
        assert payload_hash == record.payload_hash
        assert int(sim_time) == 42
        assert EventType(event) is EventType.REFLASH
        assert compute_record_key(module_id, EventType(event), int(sim_time), payload_hash) == key


class TestDeriveVehicleKey:
    def test_serial_order_irrelevant(self):
        a = derive_vehicle_key({"S2", "S1"}, "1.0")
        b = derive_vehicle_key({"S1", "S2"}, "1.0")
        assert a == b

    def test_matches_golden_vector(self):
        vk = derive_vehicle_key({"ECU-SN-0001", "BCM-SN-0002"}, "1.4.2")
        assert vk == TWO_SERIAL_VEHICLE_KEY

    def test_version_bump_rotates_key(self):
        assert (
            derive_vehicle_key({"S1"}, "1.0")
            != derive_vehicle_key({"S1"}, "1.1")
        )

    def test_distinct_serial_sets_distinct_keys(self):
        """Brute-force pairwise distinctness over a small corpus."""
        corpora = [
            {"A1", "B1", "C1"},
            {"A1", "B1"},
            {"A1", "B2", "C1"},
            {"A2"},
            {"A1"},
        ]
        keys = [derive_vehicle_key(serials, "2.0") for serials in corpora]
        assert len(set(keys)) == len(keys)

    def test_permutation_invariance_quantified(self):
        rng = random.Random(1817)
        serials = [f"SN-{i:04d}" for i in range(12)]
        reference = derive_vehicle_key(serials, "7.7")
        for _ in range(50):
            shuffled = serials[:]
            rng.shuffle(shuffled)
            assert derive_vehicle_key(shuffled, "7.7") == reference

    def test_empty_serials_rejected(self):
        with pytest.raises(ValueError):
            derive_vehicle_key(set(), "1.0")

    def test_no_raw_serial_leaks_into_key(self):
        vk = derive_vehicle_key({"SECRETSERIAL"}, "1.0")
        assert "SECRETSERIAL".lower() not in vk
