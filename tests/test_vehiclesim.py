from __future__ import annotations

import gc
import json
import weakref
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import pytest

from autobox.auditcore import (
    AirbagStatus,
    EventType,
    MetadataError,
    derive_vehicle_key,
)
from autobox.ledger import FullNode, VerdictStatus, history_from_file
from autobox.masternode import MetaHash
from autobox.vehiclesim import (
    KIND_FIELDS,
    MAX_PERIODIC_CAPTURES,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    ScenarioEventKind,
    ScenarioResult,
    TAMPER_CLEAR_TOKEN,
    Vehicle,
    VehicleConfig,
    VehicleLane,
    VehicleOutcome,
    _encode_ground_truth,
    load_scenario,
    parse_scenario,
    run_scenario,
)

from conftest import (
    FLEET_VIN_2,
    JUNKYARD_VIN,
    VIN,
    dht_node,
    make_metadata,
    make_scenario,
    make_vehicle_config,
    node_ids,
    owner_of,
    seeded_library,
    store_bytes,
    stored_records,
    write_chain,
)


DEMO_SCENARIO = Path(__file__).parent.parent / "scenarios" / "demo.json"


def event(kind: ScenarioEventKind, sim_time: int, **kw) -> ScenarioEvent:
    return ScenarioEvent(sim_time=sim_time, kind=kind, **kw)


def run_with_seeded_library(events=(), duration_s=3600, **kw):
    scenario = make_scenario(events=events, duration_s=duration_s, **kw)
    library = seeded_library(scenario)
    return run_scenario(replace(scenario, approved_library=library))


class TestBaseline:
    def test_one_periodic_interval_one_approved_checkpoint(self):
        result = run_with_seeded_library(events=(), duration_s=3600)
        vehicle = result.vehicles[0]
        assert len(vehicle.captures) == 1
        assert len(result.blocks) == 1
        assert [v.status for v in result.verdicts] == [VerdictStatus.APPROVED]
        assert not result.findings

    def test_no_interval_elapsed_no_checkpoint(self):
        result = run_with_seeded_library(events=(), duration_s=3599)
        assert result.vehicles[0].captures == ()
        assert result.blocks == ()

    def test_legitimate_run_zero_alerts_zero_flags(self):
        events = (
            event(ScenarioEventKind.DRIVE, 600, km=12),
            event(ScenarioEventKind.OBD_PLUG_IN, 1200),
            event(ScenarioEventKind.SERVICE_NOTICE, 2400),
            event(ScenarioEventKind.REBOOT, 3000),
        )
        result = run_with_seeded_library(events=events, duration_s=7200)
        assert not result.findings
        assert result.alerts == ()
        assert not result.vehicles[0].tamper_flag

    def test_boot_emits_startup_records(self):
        scenario = make_scenario(events=(), duration_s=3600)
        result = run_scenario(scenario)
        startup = [
            line
            for line in result.ground_truth
            if json.loads(line)["event"] == "boot"
        ]
        assert len(startup) == 1
        capture = next(
            json.loads(line)
            for line in result.ground_truth
            if json.loads(line)["event"] == "capture"
        )
        # Boot sweep plus the periodic sweep: two records per module.
        assert capture["covered"] == 8


class TestTriggers:
    def test_reflash_captures_immediately(self):
        events = (
            event(
                ScenarioEventKind.UDS_REFLASH, 100, module_id="TCM", new_version="2.0"
            ),
        )
        result = run_with_seeded_library(events=events, duration_s=200)
        vehicle = result.vehicles[0]
        assert len(vehicle.captures) == 1
        assert vehicle.captures[0].trigger is EventType.REFLASH
        assert vehicle.captures[0].sim_time == 100

    def test_mileage_stride_crossing_captures(self):
        events = (event(ScenarioEventKind.DRIVE, 50, km=1001),)
        result = run_with_seeded_library(events=events, duration_s=100)
        vehicle = result.vehicles[0]
        assert len(vehicle.captures) == 1
        assert vehicle.captures[0].trigger is EventType.MILEAGE_THRESHOLD

    def test_second_stride_crossing_captures(self):
        events = (
            event(ScenarioEventKind.DRIVE, 50, km=1001),
            event(ScenarioEventKind.DRIVE, 60, km=499),  # 1500 km: same stride
            event(ScenarioEventKind.DRIVE, 70, km=500),  # 2000 km: next stride
        )
        result = run_with_seeded_library(events=events, duration_s=100)
        assert [mh.sim_time for mh in result.vehicles[0].captures] == [50, 70]

    @pytest.mark.parametrize(
        "kind, trigger",
        [
            (ScenarioEventKind.OBD_PLUG_IN, EventType.OBD_PLUG_IN),
            (ScenarioEventKind.CONFIG_CHANGE, EventType.CONFIG_CHANGE),
            (ScenarioEventKind.SERVICE_NOTICE, EventType.SERVICE_NOTICE),
        ],
    )
    def test_immediate_kind_captures_at_its_time(self, kind, trigger):
        result = run_with_seeded_library(events=(event(kind, 100),), duration_s=200)
        captures = result.vehicles[0].captures
        assert [(mh.sim_time, mh.trigger) for mh in captures] == [(100, trigger)]

    def test_short_drive_defers(self):
        events = (event(ScenarioEventKind.DRIVE, 50, km=400),)
        result = run_with_seeded_library(events=events, duration_s=100)
        assert result.vehicles[0].captures == ()

    def test_periodic_interval_resets_after_any_capture(self):
        events = (event(ScenarioEventKind.OBD_PLUG_IN, 3000),)
        result = run_with_seeded_library(events=events, duration_s=7200)
        times = [mh.sim_time for mh in result.vehicles[0].captures]
        # Capture at 3000 (event), then periodic at 6600, not at 3600.
        assert times == [3000, 6600]

    def test_full_store_captures_then_retries_the_put(self):
        """Reboots at 10..39 fill the demo's 2,048-byte stores with uncovered
        startup records. The put that finds no room captures under its own
        trigger, StoreFull, and is then retried, at 19 and at 31; at 3631
        the periodic sweep does the same before its own capture."""
        scenario = load_scenario(DEMO_SCENARIO)
        (lane,) = scenario.lanes
        reboots = tuple(event(ScenarioEventKind.REBOOT, t) for t in range(10, 40))
        lanes = (replace(lane, events=reboots + lane.events),)
        result = run_scenario(replace(scenario, lanes=lanes))
        captures = [e for e in map(json.loads, result.ground_truth) if e["event"] == "capture"]
        pairs = [(e["sim_time"], e["trigger"]) for e in captures]
        assert pairs == [
            (19, "StoreFull"), (31, "StoreFull"),
            (3631, "StoreFull"), (3631, "PeriodicInterval"),
            (5400, "ObdPlugIn"), (6000, "Reflash"), (9000, "MileageThreshold"),
            (12600, "PeriodicInterval"),
        ]
        assert len(set(pairs)) == len(pairs)


class TestReflashVerdicts:
    def test_approved_version_yields_approved(self):
        events = (
            event(
                ScenarioEventKind.UDS_REFLASH, 100, module_id="TCM", new_version="2.0"
            ),
        )
        result = run_with_seeded_library(events=events, duration_s=3600)
        statuses = {v.status for v in result.verdicts}
        assert statuses == {VerdictStatus.APPROVED}
        assert not result.findings
        digests = [mh.digest for mh in result.vehicles[0].captures]
        assert len(set(digests)) == len(digests)  # reflash changed the meta-hash

    def test_unapproved_version_yields_non_approved(self):
        baseline = make_scenario(events=(), duration_s=3600)
        library = seeded_library(baseline)
        attack = make_scenario(
            events=(
                event(
                    ScenarioEventKind.UDS_REFLASH,
                    100,
                    module_id="TCM",
                    new_version="9.9-unapproved",
                ),
            ),
            duration_s=3600,
            library=library,
        )
        result = run_scenario(attack)
        assert result.findings
        assert any(
            v.status is VerdictStatus.SERVICE_NEEDED for v in result.verdicts
        )

    def test_key_rotates_on_reflash(self):
        events = (
            event(
                ScenarioEventKind.UDS_REFLASH, 100, module_id="TCM", new_version="2.0"
            ),
        )
        result = run_with_seeded_library(events=events, duration_s=3600)
        assert len(result.vehicles[0].vehicle_keys) == 2


def config_with_versions(**versions):
    """The desk vehicle with some modules at other software versions."""
    config = make_vehicle_config()
    modules = tuple(
        replace(m, software_version=versions.get(m.module_id, m.software_version))
        for m in config.modules
    )
    return replace(config, modules=modules)


class TestVehicleConfigTypes:
    """A config holds only tuples, so it stays hashable, and only the values
    its checks read: module metadata and module ids."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"modules": ("x",)}, r"modules\[0\] must be a ModuleMetadata"),
            ({"modules": [make_metadata()]}, "modules must be a tuple"),
            ({"parity_clusters": [("ECU", "BCM", "TCM")]}, "parity_clusters must be a tuple"),
            ({"parity_clusters": (["ECU", "BCM", "TCM"],)},
             r"parity_clusters\[0\] must be a tuple"),
            ({"parity_clusters": (("ECU", "BCM", 5),)},
             r"parity_clusters\[0\] member must be a string"),
        ],
        ids=["module-str", "modules-list", "clusters-list", "cluster-list", "member-int"],
    )
    def test_wrong_container_or_item_refused(self, fields, message):
        with pytest.raises(ScenarioError, match=message):
            replace(make_vehicle_config(), **fields)


class TestVehicleKey:
    """The key a capture is stamped with follows every serial and version change."""

    @pytest.mark.parametrize(
        "kind, fields",
        [
            (ScenarioEventKind.UDS_REFLASH, {"module_id": "TCM", "new_version": "2.0"}),
            (ScenarioEventKind.MODULE_SWAP,
             {"module_id": "BCM",
              "replacement": make_metadata("BCM", serial_number="BCM-SN-SWAP")}),
            (ScenarioEventKind.EEPROM_TAMPER,
             {"module_id": "ECU", "field": "serial_number", "forged_value": "ECU-SN-FAKE"}),
            (ScenarioEventKind.EEPROM_TAMPER,
             {"module_id": "ECU", "field": "software_version", "forged_value": "9.9"}),
        ],
        ids=["reflash", "swap", "tamper-serial", "tamper-version"],
    )
    def test_key_is_derived_from_the_current_state(self, kind, fields):
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        before = vehicle.vehicle_key
        vehicle.handle_event(event(kind, 100, **fields))
        vehicle.handle_event(event(ScenarioEventKind.OBD_PLUG_IN, 200))
        serials = [m.serial_number for m in vehicle.modules.values()]
        expected = derive_vehicle_key(serials, vehicle.latest_version)
        assert vehicle.vehicle_key == expected
        assert vehicle.batches[-1].submissions[-1].vehicle_key == expected
        assert (expected != before) is (fields.get("field") != "software_version")


class TestLatestVersion:
    """The vehicle key hashes the version of the latest official install."""

    def test_assembly_takes_the_newest_version_by_its_integer_parts(self):
        config = config_with_versions(ECU="9.0", BCM="10.0", TCM="9.10", HeadUnit="1.99")
        vehicle = Vehicle(config)
        assert vehicle.latest_version == "10.0"
        serials = [m.serial_number for m in config.modules]
        assert vehicle.vehicle_keys == [derive_vehicle_key(serials, "10.0")]

    def test_reflash_sets_the_flashed_version_even_an_older_one(self):
        vehicle = Vehicle(config_with_versions(BCM="10.0"))
        vehicle.boot()
        vehicle.handle_event(
            event(ScenarioEventKind.UDS_REFLASH, 100, module_id="TCM", new_version="2.0")
        )
        assert vehicle.latest_version == "2.0"
        assert len(vehicle.vehicle_keys) == 2

    @pytest.mark.parametrize(
        "version", ["1.4.2b", "", "v1.4", "1..4", "1.4.", "+1.4", "1.\u0664"]
    )
    def test_version_not_dotted_decimal_refused(self, version):
        with pytest.raises(ScenarioError, match="dotted decimal"):
            config_with_versions(ECU=version)


class TestTamperDetection:
    def test_odometer_rollback_flagged_with_minority(self):
        events = (
            event(ScenarioEventKind.DRIVE, 100, km=500),
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                200,
                module_id="ECU",
                field="odometer_km",
                forged_value=20,
            ),
            event(ScenarioEventKind.REBOOT, 300),
        )
        result = run_with_seeded_library(events=events, duration_s=400)
        vehicle = result.vehicles[0]
        assert vehicle.tamper_flag
        assert vehicle.tamper_details["odometer_km"] == frozenset({"ECU"})
        assert result.findings

    def test_vin_rewrite_flagged(self):
        events = (
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="BCM",
                field="vin",
                forged_value=JUNKYARD_VIN,
            ),
            event(ScenarioEventKind.REBOOT, 200),
        )
        result = run_with_seeded_library(events=events, duration_s=300)
        assert result.vehicles[0].tamper_details["vin"] == frozenset({"BCM"})

    def test_junkyard_swap_flags_vin_on_swapped_module(self):
        replacement = make_metadata(
            "BCM", serial_number="BCM-JUNK-0009", vin=JUNKYARD_VIN
        )
        events = (
            event(
                ScenarioEventKind.MODULE_SWAP, 100, module_id="BCM", replacement=replacement
            ),
            event(ScenarioEventKind.REBOOT, 200),
        )
        result = run_with_seeded_library(events=events, duration_s=300)
        vehicle = result.vehicles[0]
        assert vehicle.tamper_flag
        assert vehicle.tamper_details["vin"] == frozenset({"BCM"})

    def test_silent_version_tamper_caught_at_next_checkpoint(self):
        """EEPROM rewrite of a software version never self-reports; the
        periodic meta-hash diverges from the golden set instead."""
        baseline = make_scenario(events=(), duration_s=3600)
        library = seeded_library(baseline)
        attack = make_scenario(
            events=(
                event(
                    ScenarioEventKind.EEPROM_TAMPER,
                    100,
                    module_id="TCM",
                    field="software_version",
                    forged_value="9.9-cracked",
                ),
            ),
            duration_s=3600,
            library=library,
        )
        result = run_scenario(attack)
        assert any(
            v.status is not VerdictStatus.APPROVED for v in result.verdicts
        )

    def test_startup_check_untampered_ok(self):
        config = make_vehicle_config()
        vehicle = Vehicle(config)
        vehicle.boot()
        assert not vehicle.tamper_flag
        assert vehicle.tamper_details == {}

    def test_flag_survives_reboot(self):
        events = (
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="ECU",
                field="airbag_status",
                forged_value="Ok",
            ),
        )
        # Forge the same value: no discrepancy, no flag. Then a real one.
        config = make_vehicle_config()
        vehicle = Vehicle(config)
        vehicle.boot()
        vehicle.handle_event(
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="ECU",
                field="odometer_km",
                forged_value=77,
            )
        )
        vehicle.clock = 200
        vehicle.startup_consistency_check()
        assert vehicle.tamper_flag
        # Clear the discrepancy itself; the latched flag must survive boots.
        vehicle.handle_event(
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                300,
                module_id="ECU",
                field="odometer_km",
                forged_value=0,
            )
        )
        vehicle.clock = 400
        vehicle.startup_consistency_check()
        assert vehicle.tamper_flag


    def test_two_live_modules_that_disagree_are_flagged(self):
        """The smallest vote still runs: with every other module failed,
        two live replicas that disagree tie, and both are flagged."""
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        for module_id in ("BCM", "TCM"):
            vehicle.handle_event(event(ScenarioEventKind.NODE_FAILURE, 50, module_id=module_id))
        vehicle.handle_event(
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="ECU",
                field="odometer_km",
                forged_value=77,
            )
        )
        vehicle.clock = 200
        vehicle.startup_consistency_check()
        assert vehicle.tamper_details == {"odometer_km": frozenset({"ECU", "HeadUnit"})}


def test_forged_date_is_logged_as_iso_text():
    vehicle = Vehicle(make_vehicle_config())
    vehicle.boot()
    vehicle.handle_event(event(ScenarioEventKind.EEPROM_TAMPER, 100, module_id="ECU",
                               field="design_date", forged_value="2020-02-29"))
    assert vehicle.modules["ECU"].design_date == date(2020, 2, 29)
    logged = json.loads(vehicle.ground_truth[-1])
    assert (logged["event"], logged["pre"], logged["post"]) == (
        "eeprom_tamper", "2019-03-14", "2020-02-29"
    )


class TestTamperClear:
    def tampered_vehicle(self) -> Vehicle:
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        vehicle.handle_event(
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="ECU",
                field="odometer_km",
                forged_value=42,
            )
        )
        vehicle.clock = 150
        vehicle.startup_consistency_check()
        assert vehicle.tamper_flag
        return vehicle

    def test_valid_token_clears_and_records_service(self):
        vehicle = self.tampered_vehicle()
        vehicle.clock = 200
        assert vehicle.clear_tamper_flag(TAMPER_CLEAR_TOKEN)
        assert not vehicle.tamper_flag
        events = [json.loads(line)["event"] for line in vehicle.ground_truth]
        assert "tamper_flag_cleared" in events
        assert any(mh.trigger is EventType.SERVICE_NOTICE for mh in vehicle.master.captures)

    def test_invalid_token_refused(self):
        vehicle = self.tampered_vehicle()
        vehicle.clock = 200
        assert not vehicle.clear_tamper_flag("wrong")
        assert vehicle.tamper_flag
        assert vehicle.alerts[-1] == "t=200 tamper clear refused: bad token"

    def test_clear_then_retamper_flags_again(self):
        # The service visit restores the forged replica (another EEPROM
        # write, this time legitimate) and then clears the latched flag;
        # a fresh tamper afterwards must latch it again.
        events = (
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="ECU",
                field="odometer_km",
                forged_value=42,
            ),
            event(ScenarioEventKind.REBOOT, 200),
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                290,
                module_id="ECU",
                field="odometer_km",
                forged_value=0,
            ),
            event(ScenarioEventKind.CLEAR_TAMPER_FLAG, 300, token="SERVICE-TOOL"),
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                400,
                module_id="TCM",
                field="odometer_km",
                forged_value=7,
            ),
            event(ScenarioEventKind.REBOOT, 500),
        )
        result = run_with_seeded_library(events=events, duration_s=600)
        vehicle = result.vehicles[0]
        assert vehicle.tamper_flag
        assert vehicle.tamper_details["odometer_km"] == frozenset({"TCM"})
        gt = [json.loads(line)["event"] for line in result.ground_truth]
        assert gt.count("tamper_flag_set") == 2
        assert gt.count("tamper_flag_cleared") == 1

    def test_immobilize_on_tampered_submission_with_bad_digest(self):
        baseline = make_scenario(events=(), duration_s=3600)
        library = seeded_library(baseline)
        attack = make_scenario(
            events=(
                event(
                    ScenarioEventKind.EEPROM_TAMPER,
                    100,
                    module_id="TCM",
                    field="software_version",
                    forged_value="9.9-cracked",
                ),
                event(
                    ScenarioEventKind.EEPROM_TAMPER,
                    150,
                    module_id="TCM",
                    field="odometer_km",
                    forged_value=1,
                ),
                event(ScenarioEventKind.REBOOT, 200),
            ),
            duration_s=3600,
            library=library,
        )
        result = run_scenario(attack)
        assert any(v.status is VerdictStatus.IMMOBILIZE for v in result.verdicts)


class TestFaults:
    def test_memory_corruption_repaired_before_capture(self):
        # Device 1 (BCM) holds boot-sweep records in this fixture; device
        # placement follows key ownership, so an empty device is possible.
        events = (
            event(
                ScenarioEventKind.MEMORY_CORRUPTION,
                1000,
                cluster=0,
                device=1,
                byte_offset=4,
            ),
        )
        result = run_with_seeded_library(events=events, duration_s=3600)
        gt = [json.loads(line) for line in result.ground_truth]
        repairs = [g for g in gt if g["event"] == "parity_repair"]
        assert len(repairs) == 1
        assert repairs[0]["device"] == 1
        assert repairs[0]["records"]  # the damaged record was identified
        assert not result.findings

    def test_parity_device_corruption_repaired(self):
        events = (
            event(
                ScenarioEventKind.MEMORY_CORRUPTION,
                1000,
                cluster=0,
                device="parity",
                byte_offset=0,
            ),
        )
        result = run_with_seeded_library(events=events, duration_s=3600)
        repairs = [
            json.loads(line)
            for line in result.ground_truth
            if json.loads(line)["event"] == "parity_repair"
        ]
        assert repairs and repairs[0]["device"] == "parity"

    def test_single_fault_never_changes_ledger(self):
        """Fault-free and single-fault runs produce identical ledger bytes."""
        base_events = (event(ScenarioEventKind.DRIVE, 500, km=10),)
        fault_events = base_events + (
            event(
                ScenarioEventKind.MEMORY_CORRUPTION,
                1000,
                cluster=0,
                device=1,
                byte_offset=2,
            ),
        )
        scenario = make_scenario(events=base_events, duration_s=7200)
        library = seeded_library(scenario)
        clean = run_scenario(replace(scenario, approved_library=library))
        faulted = run_scenario(
            replace(
                scenario,
                approved_library=library,
                lanes=(
                    VehicleLane(
                        config=scenario.lanes[0].config, events=fault_events
                    ),
                ),
            ),
        )
        assert faulted.blocks == clean.blocks
        assert not faulted.findings

    def test_node_failure_then_recovery_keeps_sweeping(self):
        events = (
            event(ScenarioEventKind.NODE_FAILURE, 100, module_id="ECU"),
            event(ScenarioEventKind.NODE_RECOVERY, 5000, module_id="ECU"),
        )
        result = run_with_seeded_library(events=events, duration_s=7200)
        assert len(result.vehicles[0].captures) == 2
        assert not result.vehicles[0].tamper_flag

    def test_node_failure_never_changes_ledger(self):
        """A module with a dead DHT node still self-identifies via a
        neighbor, so checkpoints (and the ledger) match the fault-free run."""
        base_events = (event(ScenarioEventKind.DRIVE, 500, km=10),)
        fault_events = (
            event(ScenarioEventKind.NODE_FAILURE, 100, module_id="ECU"),
            event(ScenarioEventKind.DRIVE, 500, km=10),
            event(ScenarioEventKind.NODE_RECOVERY, 5000, module_id="ECU"),
        )
        scenario = make_scenario(events=base_events, duration_s=7200)
        library = seeded_library(scenario)
        clean = run_scenario(replace(scenario, approved_library=library))
        faulted = run_scenario(
            replace(
                scenario,
                approved_library=library,
                lanes=(
                    VehicleLane(config=scenario.lanes[0].config, events=fault_events),
                ),
            ),
        )
        assert faulted.blocks == clean.blocks
        assert not faulted.findings

    def test_failed_module_records_land_on_closest_live_node(self):
        """The module keeps its voice on the bus; its node stores nothing."""
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        ecu_node = vehicle.node_of["ECU"]
        vehicle.clock = 100
        vehicle.handle_event(event(ScenarioEventKind.NODE_FAILURE, 100, module_id="ECU"))
        vehicle.clock = 200
        vehicle._sweep(EventType.OBD_PLUG_IN)
        network = vehicle.network
        live = [n for n in node_ids(network) if n != ecu_node]
        placed = {
            record.module_id: node_id
            for node_id in node_ids(network)
            for record in stored_records(dht_node(network, node_id)).values()
            if record.sim_time == 200
        }
        assert sorted(placed) == ["BCM", "ECU", "HeadUnit", "TCM"]
        for node_id in node_ids(network):
            for record in stored_records(dht_node(network, node_id)).values():
                if record.sim_time == 200:
                    assert node_id == owner_of(record.record_key, live)
        assert not vehicle.alerts

    def test_every_node_failed_alerts_and_finishes(self):
        modules = ("ECU", "BCM", "TCM", "HeadUnit")
        events = tuple(
            event(ScenarioEventKind.NODE_FAILURE, 100, module_id=m) for m in modules
        ) + (event(ScenarioEventKind.OBD_PLUG_IN, 200),)
        result = run_scenario(make_scenario(events=events, duration_s=3600))
        assert "t=200 no live node to accept records" in result.alerts
        assert [mh.sim_time for mh in result.vehicles[0].captures] == [200]

    def test_lost_cluster_is_not_snapshotted_and_says_so(self):
        """Swaps erase BCM's data device and TCM's parity device at once: no
        repair can rebuild them, so the run keeps no snapshot of the cluster
        and says why among its alerts."""
        swaps = tuple(
            event(
                ScenarioEventKind.MODULE_SWAP,
                3700,
                module_id=m,
                replacement=make_metadata(m, serial_number=f"{m}-SN-9999"),
            )
            for m in ("BCM", "TCM")
        )
        result = run_scenario(make_scenario(events=swaps, duration_s=7200))
        assert result.cluster_snapshots == ()
        assert result.alerts[-1] == (
            f"snapshot cluster0_{VIN}.snap skipped: device 1 is erased; "
            "snapshot requires intact stores"
        )

    def test_failed_node_reported_unresponsive_at_reboot(self):
        events = (
            event(ScenarioEventKind.NODE_FAILURE, 100, module_id="ECU"),
            event(ScenarioEventKind.REBOOT, 200),
        )
        result = run_scenario(make_scenario(events=events, duration_s=3600))
        assert "t=200 module ECU unresponsive at startup" in result.alerts
        assert not result.vehicles[0].tamper_flag

    def test_store_accounting_matches_dump_bytes(self):
        """The byte budget is the dump encoding: accounted == serialized."""
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        for t in (600, 1200, 1800):
            vehicle.clock = t
            vehicle._checkpoint(EventType.OBD_PLUG_IN)
        for node_id in node_ids(vehicle.network):
            node = dht_node(vehicle.network, node_id)
            dumped = "".join(r.dump_line() + "\n" for r in stored_records(node).values())
            assert store_bytes(node) == len(dumped.encode())
            assert store_bytes(node) <= vehicle.config.dht_store_limit_bytes


class TestOutage:
    def test_backlog_drains_in_order_exactly_once(self, tmp_path):
        events = (
            event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=9000),
        )
        result = run_with_seeded_library(events=events, duration_s=10800)
        vehicle = result.vehicles[0]
        assert len(vehicle.captures) == 3  # 3600, 7200, 10800
        ledger = write_chain(tmp_path / "ledger.txt", result.blocks)
        history = history_from_file(ledger, vehicle.vehicle_keys[-1])
        assert [e.checkpoint_seq for _, e in history] == [1, 2, 3]
        assert not result.findings

    def test_outage_produces_no_ledger_entries_while_down(self):
        events = (event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=9000),)
        scenario = make_scenario(events=events, duration_s=9500)
        result = run_scenario(scenario)
        gt = [json.loads(line) for line in result.ground_truth]
        drains = [g for g in gt if g["event"] == "drain"]
        # Two captures happened offline; everything arrives at reconnect.
        assert drains[0]["sim_time"] == 9000
        assert drains[0]["checkpoints"] == 2

    def test_outage_may_start_as_the_previous_one_ends(self):
        events = (
            event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=4000),
            event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 4000, end=8000),
        )
        result = run_scenario(make_scenario(events=events, duration_s=9000))
        gt = [json.loads(line) for line in result.ground_truth]
        links = [(g["sim_time"], g["event"]) for g in gt if g["event"].startswith("connectivity")]
        assert links == [
            (1000, "connectivity_down"),
            (4000, "connectivity_up"),
            (4000, "connectivity_down"),
            (8000, "connectivity_up"),
        ]

    def test_outage_may_end_as_it_starts(self):
        events = (event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=1000),)
        result = run_scenario(make_scenario(events=events, duration_s=3600))
        gt = [json.loads(line) for line in result.ground_truth]
        links = [(g["sim_time"], g["event"]) for g in gt if g["event"].startswith("connectivity")]
        assert links == [(1000, "connectivity_down"), (1000, "connectivity_up")]


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self):
        events = (
            event(ScenarioEventKind.DRIVE, 200, km=1200),
            event(
                ScenarioEventKind.UDS_REFLASH, 900, module_id="BCM", new_version="3.1.0"
            ),
            event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=4000),
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                4200,
                module_id="ECU",
                field="odometer_km",
                forged_value=3,
            ),
            event(ScenarioEventKind.REBOOT, 4300),
        )
        scenario = make_scenario(events=events, duration_s=7200)
        library = seeded_library(scenario)
        final = replace(scenario, approved_library=library)
        a = run_scenario(final)
        b = run_scenario(final)
        assert a.blocks == b.blocks
        assert a.verdicts == b.verdicts
        assert a.ground_truth == b.ground_truth


class TestGroundTruthTemplates:
    """Eviction, capture and drain lines are written by templates;
    _encode_ground_truth stays the definition each line must meet."""

    @pytest.mark.parametrize(
        "path", sorted(DEMO_SCENARIO.parent.glob("*.json")), ids=lambda path: path.stem
    )
    def test_fixture_lines_equal_the_encoder(self, path):
        lines = run_scenario(load_scenario(path)).ground_truth
        assert {"capture", "drain"} <= {json.loads(line)["event"] for line in lines}
        for line in lines:
            assert line == _encode_ground_truth(json.loads(line))

    def test_module_ids_that_need_escaping(self):
        ids = ('say "ECU"', "BCM\\TCM", "Türmodul", "Head\u2028Unit")
        modules = tuple(
            make_metadata(module_id, serial_number=f"SN-{i}") for i, module_id in enumerate(ids)
        )
        config = make_vehicle_config(
            modules=modules, parity_clusters=(ids[:3],), dht_store_limit_bytes=512
        )
        vehicle = Vehicle(config)
        vehicle.boot()
        for t in range(600, 24_600, 600):
            vehicle.clock = t
            vehicle._checkpoint(EventType.OBD_PLUG_IN)
        logged = [json.loads(line) for line in vehicle.ground_truth]
        assert {e["node_module"] for e in logged if e["event"] == "eviction"} == set(ids)
        for line, entry in zip(vehicle.ground_truth, logged):
            assert line == _encode_ground_truth(entry)


class TestReleasedAfterRun:
    def test_no_vehicle_outlives_the_run_without_cyclic_gc(self):
        """Nothing a run keeps refers back to a Vehicle, so reference
        counting alone frees each vehicle with its stores and mirror."""
        scenario = load_scenario(DEMO_SCENARIO)
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(scenario)
            alive = [obj for obj in gc.get_objects() if isinstance(obj, Vehicle)]
        finally:
            gc.enable()
        assert result.blocks
        assert alive == []


def test_observed_library_keeps_each_digest_once_in_first_seen_order():
    def outcome(vin, variant, digests):
        captures = tuple(
            MetaHash(d, 0, i + 1, 3600 * (i + 1), EventType.PERIODIC_INTERVAL)
            for i, d in enumerate(digests)
        )
        return VehicleOutcome(vin, variant, (), captures, False, {})

    result = ScenarioResult(
        scenario=make_scenario(),
        vehicles=(
            outcome(VIN, "B", ["b2", "b1", "b2"]),
            outcome(FLEET_VIN_2, "A", ["a1"]),
            outcome(JUNKYARD_VIN, "B", ["b3", "b1"]),
        ),
        blocks=(),
        verdicts=(),
        alerts=(),
        ground_truth=(),
    )
    assert result.observed_library() == {"A": ("a1",), "B": ("b2", "b1", "b3")}


class TestFleet:
    def fleet_scenario(self, duration=3600):
        lane_a = VehicleLane(config=make_vehicle_config(), events=())
        lane_b = VehicleLane(
            config=make_vehicle_config(vin=FLEET_VIN_2),
            events=(event(ScenarioEventKind.DRIVE, 100, km=5),),
        )
        return Scenario(
            scenario_id="fleet",
            seed=0,
            duration_s=duration,
            lanes=(lane_a, lane_b),
        )

    def test_fleet_shares_one_chain_ordered_by_time_then_key(self):
        scenario = self.fleet_scenario()
        result = run_scenario(scenario)
        assert len(result.vehicles) == 2
        # Both vehicles captured at 3600; block order follows vehicle_key.
        assert len(result.blocks) == 2
        keys = [block.entries[0].vehicle_key for block in result.blocks]
        assert keys == sorted(keys)

    def test_fleet_vehicle_order_irrelevant(self):
        scenario = self.fleet_scenario()
        flipped = replace(scenario, lanes=tuple(reversed(scenario.lanes)))
        assert run_scenario(scenario).blocks == run_scenario(flipped).blocks

    def test_drained_batches_tie_break_on_the_key_they_carry(self):
        # Both vehicles queue their 3600 and 7200 checkpoints through an
        # outage and drain them at 7500. Vehicle A swaps a module silently at
        # 7300, after its last capture, so its current key is not the key
        # its queued checkpoints carry; the merge must order by the latter.
        outage = event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 3000, end=7500)
        swap = event(
            ScenarioEventKind.MODULE_SWAP,
            7300,
            module_id="HeadUnit",
            replacement=make_metadata("HeadUnit", serial_number="HeadUnit-SN-0002"),
        )
        lane_a = VehicleLane(config=make_vehicle_config(), events=(outage, swap))
        lane_b = VehicleLane(config=make_vehicle_config(vin=FLEET_VIN_2), events=(outage,))
        result = run_scenario(
            Scenario(scenario_id="fleet", seed=0, duration_s=7500, lanes=(lane_a, lane_b))
        )

        def key(config, swapped=False):
            serials = [m.serial_number for m in config.modules]
            if swapped:
                serials[-1] = "HeadUnit-SN-0002"
            return derive_vehicle_key(serials, "1.4.2")

        queued_a, current_a, key_b = (
            key(lane_a.config), key(lane_a.config, swapped=True), key(lane_b.config)
        )
        # Ordering by A's current key would reverse the two blocks.
        assert (queued_a < key_b) != (current_a < key_b)
        assert [[s.sim_time for s in b.entries] for b in result.blocks] == [[3600, 7200]] * 2
        keys = [{s.vehicle_key for s in block.entries} for block in result.blocks]
        assert keys == [{min(queued_a, key_b)}, {max(queued_a, key_b)}]

    def clone_scenario(self, **donor_overrides):
        """Vehicle A swaps in each of B's four modules at 100..103, so both
        derive one vehicle key and carry it at 3600 and 7200."""
        donor = make_vehicle_config(vin=FLEET_VIN_2, **donor_overrides)
        swaps = tuple(
            event(ScenarioEventKind.MODULE_SWAP, 100 + i, module_id=m.module_id, replacement=m)
            for i, m in enumerate(donor.modules)
        )
        return Scenario(
            scenario_id="clone",
            seed=0,
            duration_s=7200,
            lanes=(VehicleLane(make_vehicle_config(), swaps), VehicleLane(donor, ())),
        )

    @pytest.mark.parametrize("library", [False, True], ids=["no-library", "library"])
    def test_rejected_checkpoints_are_findings(self, library):
        """The full node rejects B's clone checkpoints at 3600 and 7200 as
        replays of A's, and that is a finding."""
        scenario = self.clone_scenario()
        if library:
            scenario = replace(scenario, approved_library=seeded_library(scenario))
        result = run_scenario(scenario)
        rejected = [a for a in result.alerts if "rejected checkpoint" in a]
        assert rejected == [
            f"t={t} rejected checkpoint {seq}: replay: checkpoint_seq {seq} <= {seq}"
            for t, seq in ((3600, 1), (7200, 2))
        ]
        assert result.rejected_checkpoints == 2
        assert not any(v.tamper_flag for v in result.vehicles)
        assert all(v.status is VerdictStatus.APPROVED for v in result.verdicts)
        assert result.findings

    @pytest.mark.parametrize("library", [False, True], ids=["no-library", "library"])
    @pytest.mark.parametrize("reflash", [False, True], ids=["clone", "clone-reflashed"])
    def test_fleet_vehicle_order_irrelevant_when_two_carry_one_key(self, reflash, library):
        """Same time, same key: the VIN decides which batch the chain takes
        first. Reflashed, both vehicles flash one module to one version, so
        both register the key they share, each for its own variant; the VIN
        decides which variant the full node keeps too."""
        scenario = self.clone_scenario(variant_code="EU-SPORT")
        if reflash:
            flash = event(ScenarioEventKind.UDS_REFLASH, 200, module_id="ECU", new_version="2.0")
            lanes = tuple(replace(lane, events=lane.events + (flash,)) for lane in scenario.lanes)
            scenario = replace(scenario, lanes=lanes)
        if library:
            scenario = replace(scenario, approved_library=seeded_library(scenario))
        flipped = replace(scenario, lanes=tuple(reversed(scenario.lanes)))
        result, reversed_result = run_scenario(scenario), run_scenario(flipped)
        assert result.rejected_checkpoints == 2
        assert result.blocks == reversed_result.blocks
        assert result.verdicts == reversed_result.verdicts
        assert sorted(result.alerts) == sorted(reversed_result.alerts)
        assert len(result.verdicts) == 2 * library

    def test_one_vehicle_alive_at_a_time(self, monkeypatch):
        """A lane's Vehicle is dropped as soon as its run returns: when the
        next lane starts, and when the merge starts, every earlier one is dead."""
        started: list[weakref.ref] = []

        def assert_earlier_vehicles_dead():
            gc.collect()
            assert [ref() for ref in started] == [None] * len(started)

        run, register = Vehicle.run, FullNode.register_vehicle

        def checked_run(vehicle, events, duration_s):
            assert_earlier_vehicles_dead()
            started.append(weakref.ref(vehicle))
            run(vehicle, events, duration_s)

        def checked_register(node, key, variant):
            assert_earlier_vehicles_dead()
            register(node, key, variant)

        monkeypatch.setattr(Vehicle, "run", checked_run)
        monkeypatch.setattr(FullNode, "register_vehicle", checked_register)
        vins = (VIN, FLEET_VIN_2, JUNKYARD_VIN)
        lanes = tuple(VehicleLane(make_vehicle_config(vin=vin), ()) for vin in vins)
        result = run_scenario(Scenario(scenario_id="fleet", seed=0, duration_s=3600, lanes=lanes))
        assert len(started) == 3
        assert [v.vin for v in result.vehicles] == list(vins)


class TestBoolIsNoReference:
    """JSON true is no integer to the parser; a Python True, which equals 1,
    names no cluster or device either."""

    def test_demo_corruption_of_device_true_refused(self):
        """Refused as the event is made, before any vehicle could read it as 1."""
        with pytest.raises(ScenarioError, match="no device True"):
            event(ScenarioEventKind.MEMORY_CORRUPTION, 7300, cluster=0, device=True,
                  byte_offset=0)

    def test_corruption_of_cluster_true_refused(self):
        """Refused as the event is made, before any vehicle could read it as 1."""
        with pytest.raises(ScenarioError, match="cluster must be an integer, got True"):
            event(ScenarioEventKind.MEMORY_CORRUPTION, 100, cluster=True, device=0,
                  byte_offset=0)

    @pytest.mark.parametrize(
        "kind, fields, name",
        [
            (ScenarioEventKind.DRIVE, dict(sim_time=7400, km=True), "km"),
            (ScenarioEventKind.REBOOT, dict(sim_time=True), "sim_time"),
            (ScenarioEventKind.MEMORY_CORRUPTION,
             dict(sim_time=7300, cluster=0, device=0, byte_offset=True), "byte_offset"),
            (ScenarioEventKind.CONNECTIVITY_OUTAGE, dict(sim_time=0, end=True), "end"),
            (ScenarioEventKind.DRIVE, dict(sim_time=7400, km=2.0), "km"),
            (ScenarioEventKind.REBOOT, dict(sim_time="100"), "sim_time"),
        ],
        ids=["km-true", "sim-time-true", "byte-offset-true", "end-true", "km-float",
             "sim-time-str"],
    )
    def test_event_integer_of_another_type_refused(self, kind, fields, name):
        """Refused as the event is made or replaced, not read as 1 by a handler."""
        with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
            ScenarioEvent(kind=kind, **fields)
        made = ScenarioEvent(kind=kind, **{n: 1 if n == name else v for n, v in fields.items()})
        with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
            replace(made, **{name: fields[name]})

    def test_demo_drive_of_km_true_refused_before_the_run(self):
        """At the parent this logged ``"km":true`` and added 1 km."""
        scenario = load_scenario(DEMO_SCENARIO)
        (lane,) = scenario.lanes
        with pytest.raises(ScenarioError, match="km must be an integer"):
            drive = event(ScenarioEventKind.DRIVE, 7400, km=True)
            events = tuple(sorted(lane.events + (drive,), key=lambda e: e.sim_time))
            run_scenario(replace(scenario, lanes=(replace(lane, events=events),)))


class TestScenarioParsing:
    def scenario_obj(self):
        return {
            "id": "parse-test",
            "seed": 7,
            "duration_s": 3600,
            "vehicle": {
                "vin": VIN,
                "variant_code": "EU-BASE",
                "modules": [
                    {
                        "module_id": mid,
                        "design_date": "2019-03-14",
                        "manufacture_date": "2019-08-02",
                        "manufacture_location": "Stuttgart",
                        "supplier_id": "SUP-042",
                        "production_lot": "LOT-7731",
                        "software_version": "1.4.2",
                        "variant_code": "EU-BASE",
                        "serial_number": f"{mid}-SN-1",
                        "vin": VIN,
                    }
                    for mid in ("ECU", "BCM", "TCM")
                ],
                "parity_clusters": [["ECU", "BCM", "TCM"]],
            },
            "events": [
                {"sim_time": 100, "kind": "Drive", "km": 42},
                {
                    "sim_time": 300,
                    "kind": "UdsReflash",
                    "module_id": "TCM",
                    "new_version": "2.0",
                },
            ],
            "policy": {"critical_variants": ["EU-PERF"]},
        }

    def test_valid_scenario_parses(self):
        scenario = parse_scenario(self.scenario_obj())
        assert scenario.scenario_id == "parse-test"
        assert scenario.duration_s == 3600
        assert len(scenario.lanes[0].config.modules) == 3
        assert scenario.lanes[0].events[1].kind is ScenarioEventKind.UDS_REFLASH
        assert scenario.approved_library is None
        assert scenario.critical_variants == frozenset({"EU-PERF"})

    def test_scenario_roundtrips_through_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.scenario_obj()))
        scenario = load_scenario(path)
        assert scenario.scenario_id == "parse-test"

    def test_json_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "vehicle": [,]\n}')
        with pytest.raises(ScenarioError, match=r":2:"):
            load_scenario(path)

    def test_bad_module_value_is_a_metadata_error_and_a_scenario_error(self, tmp_path):
        """One error type per failure: the module's own MetadataError reaches
        the caller, through the list prefix, and ``except ScenarioError`` catches it."""
        obj = self.scenario_obj()
        obj["vehicle"]["modules"][1]["vin"] = "BADVIN"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ScenarioError) as error:
            load_scenario(path)
        assert type(error.value) is MetadataError
        assert str(error.value) == (
            "modules[1]: invalid VIN 'BADVIN': need 17 chars from [A-HJ-NPR-Z0-9]"
        )

    def test_unknown_event_kind_rejected(self):
        obj = self.scenario_obj()
        obj["events"].append({"sim_time": 400, "kind": "WarpDrive"})
        with pytest.raises(ScenarioError, match="events"):
            parse_scenario(obj)

    def test_missing_duration_rejected(self):
        obj = self.scenario_obj()
        del obj["duration_s"]
        with pytest.raises(ScenarioError, match="duration_s"):
            parse_scenario(obj)

    def test_cluster_referencing_unknown_module_rejected(self):
        obj = self.scenario_obj()
        obj["vehicle"]["parity_clusters"] = [["ECU", "BCM", "NOPE"]]
        with pytest.raises(ScenarioError, match="NOPE"):
            parse_scenario(obj)

    def test_duplicate_module_ids_rejected(self):
        obj = self.scenario_obj()
        obj["vehicle"]["modules"].append(obj["vehicle"]["modules"][0])
        with pytest.raises(ScenarioError, match="unique"):
            parse_scenario(obj)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capture_interval_s", 0),
            ("capture_interval_s", -5),
            ("mileage_stride_km", 0),
            ("mileage_stride_km", -1),
        ],
    )
    def test_non_positive_period_rejected(self, field, value):
        obj = self.scenario_obj()
        obj["vehicle"][field] = value
        with pytest.raises(ScenarioError, match=field):
            parse_scenario(obj)

    @pytest.mark.parametrize("field", ["capture_interval_s", "mileage_stride_km"])
    def test_period_of_one_accepted(self, field):
        obj = self.scenario_obj()
        obj["vehicle"][field] = 1
        assert getattr(parse_scenario(obj).lanes[0].config, field) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sim_time", None),
            ("sim_time", []),
            ("sim_time", float("inf")),
            ("km", float("inf")),
            ("sim_time", 1.9),
            ("sim_time", True),
            ("km", "12"),
            ("cluster", "0"),
            ("byte_offset", 2.0),
        ],
    )
    def test_non_integer_event_field_rejected(self, field, value):
        obj = self.scenario_obj()
        obj["events"][0][field] = value
        with pytest.raises(ScenarioError, match=r"events\[0\]"):
            parse_scenario(obj)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "1e3"])
    def test_non_integer_duration_rejected(self, value):
        obj = self.scenario_obj()
        obj["duration_s"] = value
        with pytest.raises(ScenarioError, match="duration_s must be an integer"):
            parse_scenario(obj)

    def test_every_kind_takes_known_fields(self):
        assert set(KIND_FIELDS) == set(ScenarioEventKind)
        taken = set().union(*KIND_FIELDS.values())
        assert taken == {f.name for f in fields(ScenarioEvent)} - {"sim_time", "kind"}

    def test_clear_tamper_flag_may_lack_its_token(self):
        obj = self.scenario_obj()
        obj["events"] = [{"sim_time": 100, "kind": "ClearTamperFlag"}]
        (cleared,) = parse_scenario(obj).lanes[0].events
        assert cleared.token is None

    def test_store_limit_below_record_line_rejected(self, tmp_path):
        obj = self.scenario_obj()
        obj["vehicle"]["dht_store_limit_bytes"] = 100
        path = tmp_path / "s.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ScenarioError, match="dht_store_limit_bytes"):
            load_scenario(path)

    def test_store_limit_bound_is_the_longest_record_line(self):
        # 64-hex key, "ECU", "MileageThreshold", "3600", 64-hex hash,
        # four tabs and the newline.
        longest = 64 + 3 + len("MileageThreshold") + 4 + 64 + 4 + 1
        obj = self.scenario_obj()
        obj["vehicle"]["dht_store_limit_bytes"] = longest
        parse_scenario(obj)
        obj["vehicle"]["dht_store_limit_bytes"] = longest - 1
        with pytest.raises(ScenarioError, match="dht_store_limit_bytes"):
            parse_scenario(obj)

    def test_run_length_bound(self):
        obj = self.scenario_obj()
        obj["events"] = []
        interval = 3600
        obj["vehicle"]["capture_interval_s"] = interval
        obj["duration_s"] = MAX_PERIODIC_CAPTURES * interval + interval - 1
        parse_scenario(obj)
        obj["duration_s"] += 1
        with pytest.raises(ScenarioError, match="periodic captures"):
            parse_scenario(obj)

    def test_unordered_events_rejected(self):
        scenario = make_scenario(
            events=(
                event(ScenarioEventKind.DRIVE, 500, km=1),
                event(ScenarioEventKind.DRIVE, 100, km=1),
            ),
            duration_s=1000,
        )
        with pytest.raises(ScenarioError, match="ordered"):
            run_scenario(scenario)

    def test_event_past_duration_rejected(self):
        scenario = make_scenario(
            events=(event(ScenarioEventKind.DRIVE, 5000, km=1),), duration_s=1000
        )
        with pytest.raises(ScenarioError, match="duration"):
            run_scenario(scenario)

    def test_unknown_tamper_target_rejected(self):
        scenario = make_scenario(
            events=(
                event(
                    ScenarioEventKind.EEPROM_TAMPER,
                    100,
                    module_id="NOPE",
                    field="odometer_km",
                    forged_value=1,
                ),
            ),
            duration_s=1000,
        )
        with pytest.raises(ScenarioError, match="NOPE"):
            run_scenario(scenario)


class TestLibraryPathValidation:
    """A scenario built or edited in Python meets the rules a scenario file
    meets, and is refused as it is made, before anything is simulated."""

    def test_unbounded_duration_refused_on_replace(self):
        scenario = load_scenario(DEMO_SCENARIO)
        with pytest.raises(ScenarioError, match="periodic captures"):
            replace(scenario, duration_s=10**9)

    def test_store_limit_below_record_line_refused_on_replace(self):
        scenario = load_scenario(DEMO_SCENARIO)
        (lane,) = scenario.lanes
        with pytest.raises(ScenarioError, match="162-byte record line"):
            small = replace(lane.config, dht_store_limit_bytes=100)
            replace(scenario, lanes=(replace(lane, config=small),))

    def test_repeated_vin_refused(self):
        scenario = load_scenario(DEMO_SCENARIO)
        with pytest.raises(ScenarioError, match="VINs must be unique"):
            replace(scenario, lanes=scenario.lanes * 2)

    def test_unprintable_variant_code_refused_on_replace(self):
        """A tab would split the variant's library line into three fields."""
        (lane,) = load_scenario(DEMO_SCENARIO).lanes
        with pytest.raises(ScenarioError, match="variant_code must be printable"):
            replace(lane.config, variant_code="EU\tBASE")

    @pytest.mark.parametrize(
        "made, field, value",
        [
            ("scenario", "duration_s", True),
            ("scenario", "seed", True),
            ("scenario", "duration_s", "5"),
            ("config", "capture_interval_s", "60"),
            ("config", "initial_odometer_km", 1.5),
            ("config", "dht_store_limit_bytes", True),
            ("config", "mileage_stride_km", 1000.0),
        ],
    )
    def test_integer_field_takes_only_an_int(self, made, field, value):
        """A bool, a float or a numeric string is refused before any comparison."""
        scenario = load_scenario(DEMO_SCENARIO)
        value_of = {"scenario": scenario, "config": scenario.lanes[0].config}[made]
        with pytest.raises(ScenarioError, match=f"^{field} must be an integer, got "):
            replace(value_of, **{field: value})

    @pytest.mark.parametrize(
        "made, field, value",
        [("scenario", "scenario_id", 5), ("config", "vin", 5), ("config", "variant_code", 3)],
    )
    def test_string_field_takes_only_a_str(self, made, field, value):
        scenario = load_scenario(DEMO_SCENARIO)
        value_of = {"scenario": scenario, "config": scenario.lanes[0].config}[made]
        with pytest.raises(ScenarioError, match=f"^{field} must be a string, got {value}$"):
            replace(value_of, **{field: value})

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            (ScenarioEventKind.DRIVE, {}, r"Drive event needs \['km'\]"),
            (ScenarioEventKind.REBOOT, dict(km=5000), r"Reboot event does not take \['km'\]"),
            (ScenarioEventKind.MEMORY_CORRUPTION, dict(cluster=0, device=0),
             r"MemoryCorruption event needs \['byte_offset'\]"),
        ],
        ids=["drive-without-km", "reboot-with-km", "corruption-without-offset"],
    )
    def test_event_fields_follow_its_kind(self, kind, fields, message):
        with pytest.raises(ScenarioError, match=message):
            event(kind, 100, **fields)
        with pytest.raises(ScenarioError, match=message):
            replace(event(ScenarioEventKind.OBD_PLUG_IN, 100), kind=kind, **fields)


# One event per rule that a ScenarioEvent checks as it is made, with its
# message; in scenario-file form at sim_time 13500 unless it names one.
# "replacement" names the demo module that is swapped in.
EVENT_RULES = {
    "sim-time-negative": (
        {"sim_time": -1, "kind": "Reboot"}, "Reboot sim_time must be non-negative"
    ),
    "drive-km-negative": ({"kind": "Drive", "km": -5}, "Drive km must be non-negative"),
    "corrupt-cluster-negative": (
        {"kind": "MemoryCorruption", "cluster": -1, "device": 0, "byte_offset": 0},
        "MemoryCorruption cluster must be non-negative",
    ),
    "corrupt-offset-negative": (
        {"kind": "MemoryCorruption", "cluster": 0, "device": 0, "byte_offset": -3},
        "MemoryCorruption byte_offset must be non-negative",
    ),
    "corrupt-device-true": (
        {"kind": "MemoryCorruption", "cluster": 0, "device": True, "byte_offset": 0},
        "MemoryCorruption: no device True",
    ),
    "corrupt-device-x": (
        {"kind": "MemoryCorruption", "cluster": 0, "device": "x", "byte_offset": 0},
        "MemoryCorruption: no device 'x'",
    ),
    "outage-end-negative": (
        {"kind": "ConnectivityOutage", "end": -1}, "ConnectivityOutage end must be non-negative"
    ),
    "outage-ends-before-it-starts": (
        {"kind": "ConnectivityOutage", "end": 13499}, "ConnectivityOutage needs end >= sim_time"
    ),
    "reflash-version-empty": (
        {"kind": "UdsReflash", "module_id": "TCM", "new_version": ""},
        "UdsReflash needs a non-empty new_version",
    ),
    "reflash-version-int": (
        {"kind": "UdsReflash", "module_id": "TCM", "new_version": 3},
        "new_version must be a string, got 3",
    ),
    "reflash-module-id-int": (
        {"kind": "UdsReflash", "module_id": 5, "new_version": "2.0"},
        "module_id must be a string, got 5",
    ),
    "tamper-field-int": (
        {"kind": "EepromTamper", "module_id": "ECU", "field": 5, "forged_value": 1},
        "field must be a string, got 5",
    ),
    "clear-token-int": ({"kind": "ClearTamperFlag", "token": 5}, "token must be a string, got 5"),
    "tamper-field-unknown": (
        {"kind": "EepromTamper", "module_id": "ECU", "field": "bogus", "forged_value": 1},
        "EepromTamper: unknown field 'bogus'",
    ),
    "tamper-field-module-id": (
        {"kind": "EepromTamper", "module_id": "ECU", "field": "module_id", "forged_value": "BCM"},
        "EepromTamper: unknown field 'module_id'",
    ),
    "tamper-odometer-text": (
        {"kind": "EepromTamper", "module_id": "ECU", "field": "odometer_km", "forged_value": "abc"},
        "odometer_km must be an integer",
    ),
    "tamper-odometer-negative": (
        {"kind": "EepromTamper", "module_id": "ECU", "field": "odometer_km", "forged_value": -1},
        "odometer_km must be non-negative",
    ),
    "drive-km-19-digits": ({"kind": "Drive", "km": 10**18}, "Drive km must have at most 18 digits"),
    "outage-end-19-digits": (
        {"kind": "ConnectivityOutage", "end": 10**18},
        "ConnectivityOutage end must have at most 18 digits",
    ),
    "tamper-odometer-19-digits": (
        {"kind": "EepromTamper", "module_id": "ECU", "field": "odometer_km",
         "forged_value": 10**18},
        "odometer_km must have at most 18 digits",
    ),
    "swap-into-another-slot": (
        {"kind": "ModuleSwap", "module_id": "BCM", "replacement": "ECU"},
        "replacement module_id 'ECU' does not fit slot 'BCM'",
    ),
}


class TestEventRulesHoldAsMade:
    """A rule that needs no vehicle refuses the event as it is made: in Python,
    and in a scenario file, which load_scenario refuses before any run."""

    @pytest.mark.parametrize("case", sorted(EVENT_RULES))
    def test_refused_when_built_and_when_loaded(self, tmp_path, case):
        fields, message = EVENT_RULES[case]
        fields = {"sim_time": 13500, **fields}
        made = dict(fields, kind=ScenarioEventKind(fields["kind"]))
        obj = json.loads(DEMO_SCENARIO.read_text())
        if "replacement" in fields:
            index = [m["module_id"] for m in obj["vehicle"]["modules"]].index(fields["replacement"])
            fields["replacement"] = obj["vehicle"]["modules"][index]
            made["replacement"] = load_scenario(DEMO_SCENARIO).lanes[0].config.modules[index]
        with pytest.raises(ScenarioError, match=f"^{message}"):
            ScenarioEvent(**made)
        obj["events"].append(fields)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ScenarioError, match=rf"^events\[6\]: {message}"):
            load_scenario(path)

    @pytest.mark.parametrize("kind", ["Drive", "WarpDrive", None])
    def test_kind_is_a_member_of_the_enum(self, kind):
        """Not its text: a handler looks the kind up by its member name."""
        with pytest.raises(ScenarioError, match="kind must be a ScenarioEventKind"):
            ScenarioEvent(sim_time=100, kind=kind, km=5)

    @pytest.mark.parametrize(
        "field, text, value",
        [
            ("design_date", "2020-02-29", date(2020, 2, 29)),
            ("airbag_status", "Deployed", AirbagStatus.DEPLOYED),
            ("odometer_km", 12, 12),
        ],
        ids=["date", "airbag-status", "odometer"],
    )
    def test_forged_value_is_shaped_as_made(self, field, text, value):
        """The event holds the value the tamper writes; replace() keeps it."""
        made = event(ScenarioEventKind.EEPROM_TAMPER, 100, module_id="ECU", field=field,
                     forged_value=text)
        assert made.forged_value == value and type(made.forged_value) is type(value)
        assert replace(made, sim_time=200).forged_value == value


class TestRefusedEventsLeaveStateAlone:
    def test_swap_to_a_fitted_serial_rejected_before_any_change(self):
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        nodes = node_ids(vehicle.network)
        node_of, module_of = dict(vehicle.node_of), dict(vehicle.module_of)
        modules = dict(vehicle.modules)
        bcm_serial = vehicle.modules["BCM"].serial_number
        swap = event(
            ScenarioEventKind.MODULE_SWAP,
            100,
            module_id="ECU",
            replacement=replace(vehicle.modules["ECU"], serial_number=bcm_serial),
        )
        with pytest.raises(ScenarioError, match="already fitted"):
            vehicle.handle_event(swap)
        assert node_ids(vehicle.network) == nodes
        assert (vehicle.node_of, vehicle.module_of) == (node_of, module_of)
        assert vehicle.modules == modules

    @pytest.mark.parametrize(
        "kind, fields",
        [
            (ScenarioEventKind.MEMORY_CORRUPTION, dict(cluster=0, device="x")),
            (ScenarioEventKind.MEMORY_CORRUPTION, dict(cluster=0, device=[1])),
            (ScenarioEventKind.MEMORY_CORRUPTION, dict(cluster=0)),
            (ScenarioEventKind.EEPROM_TAMPER,
             dict(module_id="ECU", field="odometer_km", forged_value=[1])),
            (ScenarioEventKind.EEPROM_TAMPER,
             dict(module_id="ECU", field="odometer_km", forged_value="abc")),
            (ScenarioEventKind.EEPROM_TAMPER,
             dict(module_id="ECU", field="airbag_status", forged_value="Melted")),
            (ScenarioEventKind.EEPROM_TAMPER,
             dict(module_id="ECU", field="vin", forged_value="short")),
            (ScenarioEventKind.EEPROM_TAMPER,
             dict(module_id="ECU", field="vin", forged_value=VIN + "\n")),
            (ScenarioEventKind.EEPROM_TAMPER,
             dict(module_id="ECU", field="design_date", forged_value="yesterday")),
            (ScenarioEventKind.UDS_REFLASH, dict(module_id="ECU", new_version="1.0\n2")),
        ],
        ids=["device-x", "device-list", "device-missing", "odometer-list",
             "odometer-abc", "airbag-unknown", "vin-short", "vin-trailing-newline",
             "date-not-iso", "reflash-version-newline"],
    )
    def test_bad_event_value_is_scenario_error(self, kind, fields):
        vehicle = Vehicle(make_vehicle_config())
        vehicle.boot()
        scd, modules = dict(vehicle.scd), dict(vehicle.modules)
        with pytest.raises(ScenarioError):
            vehicle.handle_event(event(kind, 100, **fields))
        assert (vehicle.scd, vehicle.modules) == (scd, modules)

    @pytest.mark.parametrize("field", ["cluster", "device", "byte_offset"])
    def test_demo_corruption_at_an_index_too_long_for_str_refused(self, field):
        """No message prints the index: str() refuses an int of over 4,300 digits."""
        scenario = load_scenario(DEMO_SCENARIO)
        (lane,) = scenario.lanes
        corrupt = event(ScenarioEventKind.MEMORY_CORRUPTION, 13500,
                        **{"cluster": 0, "device": 0, "byte_offset": 0, field: 10**5000})
        with pytest.raises(ScenarioError):
            run_scenario(replace(scenario, lanes=(replace(lane, events=lane.events + (corrupt,)),)))

    @pytest.mark.parametrize(
        "kind, fields",
        [
            (ScenarioEventKind.DRIVE, {"km": 10**5000}),
            (ScenarioEventKind.CONNECTIVITY_OUTAGE, {"end": 10**5000}),
            (ScenarioEventKind.EEPROM_TAMPER,
             {"module_id": "ECU", "field": "odometer_km", "forged_value": 10**5000}),
            (ScenarioEventKind.EEPROM_TAMPER,
             {"module_id": "ECU", "field": "service_event_count", "forged_value": 10**5000}),
        ],
        ids=["drive-km", "outage-end", "forged-odometer", "forged-service-count"],
    )
    def test_demo_number_too_long_for_the_ground_truth_refused(self, kind, fields):
        """The ground truth logs it as given, and JSON cannot spell an int of
        over 4,300 digits: the event itself refuses it."""
        scenario = load_scenario(DEMO_SCENARIO)
        (lane,) = scenario.lanes
        with pytest.raises(ScenarioError, match="must have at most 18 digits"):
            huge = event(kind, 13500, **fields)
            run_scenario(replace(scenario, lanes=(replace(lane, events=lane.events + (huge,)),)))

    def test_demo_initial_odometer_too_long_for_the_ground_truth_refused(self):
        scenario = load_scenario(DEMO_SCENARIO)
        (lane,) = scenario.lanes
        with pytest.raises(ScenarioError, match="initial_odometer_km must have at most 18"):
            config = replace(lane.config, initial_odometer_km=10**5000)
            run_scenario(replace(scenario, lanes=(replace(lane, config=config),)))

    @pytest.mark.parametrize("device", ["x", [1]], ids=["device-x", "device-list"])
    def test_corruption_of_no_device_is_scenario_error(self, device):
        with pytest.raises(ScenarioError, match="no device"):
            event(ScenarioEventKind.MEMORY_CORRUPTION, 100, cluster=0, device=device,
                  byte_offset=0)


class TestDetectionCompleteness:
    FORGED = {
        "vin": JUNKYARD_VIN,
        "odometer_km": 123456,
        "airbag_status": AirbagStatus.FAULT_LATCHED.value,
        "service_event_count": 99,
    }

    @pytest.mark.parametrize("field", sorted(FORGED))
    @pytest.mark.parametrize("module_id", ["ECU", "BCM", "TCM", "HeadUnit"])
    def test_every_field_module_pair_flagged(self, field, module_id):
        """Tamper on a strict minority is flagged at the next startup check,
        quantified over every shared field and every module."""
        events = (
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id=module_id,
                field=field,
                forged_value=self.FORGED[field],
            ),
            event(ScenarioEventKind.REBOOT, 200),
        )
        result = run_scenario(make_scenario(events=events, duration_s=300))
        vehicle = result.vehicles[0]
        assert vehicle.tamper_flag
        assert vehicle.tamper_details[field] == frozenset({module_id})


class TestAirbagTamper:
    def test_airbag_status_tamper_flagged(self):
        events = (
            event(
                ScenarioEventKind.EEPROM_TAMPER,
                100,
                module_id="BCM",
                field="airbag_status",
                forged_value=AirbagStatus.DEPLOYED.value,
            ),
            event(ScenarioEventKind.REBOOT, 200),
        )
        result = run_with_seeded_library(events=events, duration_s=300)
        assert result.vehicles[0].tamper_details["airbag_status"] == frozenset({"BCM"})
