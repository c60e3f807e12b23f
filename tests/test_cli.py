from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from autobox import cli, parity
from autobox.ledger import load_ledger
from autobox.parity import ParityCluster, save_snapshot
from autobox.vehiclesim import load_scenario, parse_scenario, run_scenario

from conftest import BAD_INDEX_EDITS, VIN, load_from_file, two_device_snapshot

DEMO_SCENARIO = Path(__file__).parent.parent / "scenarios" / "demo.json"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"

BASE_MODULES = [
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
    for mid in ("ECU", "BCM", "TCM", "HeadUnit")
]


def _set(*path_and_value):
    """An edit that sets obj[path...] = value on a scenario object."""
    *path, name, value = path_and_value

    def edit(obj):
        for key in path:
            obj = obj[key]
        obj[name] = value

    return edit


def _add_event(**fields):
    return lambda obj: obj["events"].append({"sim_time": 13500, **fields})


def _swap_in_fitted_serial(obj):
    replacement = dict(obj["vehicle"]["modules"][0])  # ECU
    replacement["serial_number"] = obj["vehicle"]["modules"][1]["serial_number"]
    obj["events"].append(
        {"sim_time": 13500, "kind": "ModuleSwap", "module_id": "ECU",
         "replacement": replacement}
    )


def _overlapping_outage(obj):
    """A second outage from 8000 to 8500, inside the demo's 7200-12000 one."""
    obj["events"].append({"sim_time": 8000, "kind": "ConnectivityOutage", "end": 8500})
    obj["events"].sort(key=lambda e: e["sim_time"])


# Edits of scenarios/demo.json that `run` must refuse with exit 2.
BAD_DEMO_EDITS = {
    "vehicle-list": _set("vehicle", []),
    "events-int": _set("events", 5),
    "modules-int": _set("vehicle", "modules", 5),
    "parity-clusters-int": _set("vehicle", "parity_clusters", 5),
    "fleet-int": _set("fleet", 5),
    "policy-list": _set("policy", [1]),
    "design-date-int": _set("vehicle", "modules", 0, "design_date", 5),
    "corrupt-device-x": _add_event(
        kind="MemoryCorruption", cluster=0, device="x", byte_offset=0
    ),
    # Refused at event time, after the load: the run must still write nothing.
    "corrupt-offset-past-device": _add_event(
        kind="MemoryCorruption", cluster=0, device=0, byte_offset=10**6
    ),
    "tamper-odometer-list": _add_event(
        kind="EepromTamper", module_id="ECU", field="odometer_km", forged_value=[1]
    ),
    "swap-fitted-serial": _swap_in_fitted_serial,
    "swap-replacement-bad-vin": _add_event(
        kind="ModuleSwap", module_id="ECU", replacement={**BASE_MODULES[0], "vin": "BADVIN"}
    ),
    "reflash-version-int": _add_event(
        kind="UdsReflash", module_id="TCM", new_version=3
    ),
    "tamper-module-id-list": _add_event(
        kind="EepromTamper", module_id=["ECU"], field="odometer_km", forged_value=1
    ),
    "critical-variants-int": _set("policy", {"critical_variants": 5}),
    "vehicle-vin-int": _set("vehicle", "vin", 5),
    "module-id-empty": _set("vehicle", "modules", 0, "module_id", ""),
    "software-version-not-dotted": _set("vehicle", "modules", 0, "software_version", "1.4.2b"),
    "duration-negative": lambda obj: obj.update(duration_s=-5, events=[]),
    "variant-code-tab": _set("vehicle", "variant_code", "EU\tBASE"),
    "module-variant-code-tab": _set("vehicle", "modules", 0, "variant_code", "EU\tBASE"),
    "event-unknown-field": _add_event(kind="Drive", kms=12),
    "module-unknown-field": _set("vehicle", "modules", 0, "serial", "ECU-SN-1"),
    "event-sim-time-float": lambda obj: obj["events"].insert(0, {"sim_time": 1.9, "kind": "Drive"}),
    "drive-km-numeric-string": _add_event(kind="Drive", km="12"),
    "capture-interval-float": _set("vehicle", "capture_interval_s", 3600.9),
    "corrupt-cluster-numeric-string": _add_event(
        kind="MemoryCorruption", cluster="0", device=0, byte_offset=0
    ),
    "scenario-id-object": _set("id", {"a": 1}),
    "module-id-int": _set("vehicle", "modules", 3, "module_id", 5),  # HeadUnit
    "fleet-beside-vehicle": lambda obj: obj.update(fleet=[{"vehicle": obj["vehicle"]}]),
    "cluster-member-twice": _set("vehicle", "parity_clusters", [["ECU", "BCM", "ECU"]]),
    "module-in-two-clusters": _set(
        "vehicle", "parity_clusters", [["ECU", "BCM", "TCM"], ["HeadUnit", "ECU", "BCM"]]
    ),
    "outage-overlapping": _overlapping_outage,
    "outage-ends-before-it-starts": _add_event(kind="ConnectivityOutage", end=13499),
    # Each kind takes exactly the fields of the README's event table.
    "reboot-with-km": _add_event(kind="Reboot", km=5000),
    # A null would read as the field left out.
    "reboot-km-null": _add_event(kind="Reboot", km=None),
    "reboot-module-id-null": _add_event(kind="Reboot", module_id=None),
    "obd-plug-in-with-module-id": _add_event(kind="ObdPlugIn", module_id="NOPE"),
    "drive-without-km": _add_event(kind="Drive"),
    "corrupt-without-offset": _add_event(kind="MemoryCorruption", cluster=0, device=0),
    # Dates are YYYY-MM-DD only, whatever else date.fromisoformat takes.
    "design-date-basic-format": _set("vehicle", "modules", 0, "design_date", "20190314"),
    "design-date-week-format": _set("vehicle", "modules", 0, "design_date", "2019-W11-4"),
    "tamper-date-basic-format": _add_event(
        kind="EepromTamper", module_id="ECU", field="design_date", forged_value="20190314"
    ),
    # The rules of a VehicleConfig and of a Scenario as they are made.
    "modules-empty": _set("vehicle", "modules", []),
    "serial-number-twice": _set("vehicle", "modules", 1, "serial_number", "ECU-SN-481516"),
    "module-of-another-vin": _set("vehicle", "modules", 1, "vin", "2HGBH41JXMN109186"),
    "cluster-of-two": _set("vehicle", "parity_clusters", [["ECU", "BCM"]]),
    "initial-odometer-negative": _set("vehicle", "initial_odometer_km", -1),
    "initial-odometer-19-digits": _set("vehicle", "initial_odometer_km", 10**18),
    "fleet-empty": lambda obj: [obj.pop("vehicle"), obj.pop("events"), obj.update(fleet=[])],
    # Refused at event time: the demo vehicle has one cluster.
    "corrupt-cluster-past-the-vehicle": _add_event(
        kind="MemoryCorruption", cluster=5, device=0, byte_offset=0
    ),
}


def _swap_ecu_at_100(obj):
    """Swap in a donor ECU at 100, long before the demo's Reboot at 13000."""
    replacement = dict(obj["vehicle"]["modules"][0])
    replacement.update(serial_number="ECU-SN-999999", vin="2HGBH41JXMN109186")
    obj["events"].insert(
        0, {"sim_time": 100, "kind": "ModuleSwap", "module_id": "ECU",
            "replacement": replacement}
    )


def scenario_obj(events=(), duration=3600):
    return {
        "id": "cli-test",
        "seed": 1,
        "duration_s": duration,
        "vehicle": {
            "vin": VIN,
            "variant_code": "EU-BASE",
            "modules": BASE_MODULES,
            "parity_clusters": [["ECU", "BCM", "TCM"]],
        },
        "events": list(events),
    }


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
    return path


def fleet_obj(tampered=True):
    """Two vehicles listed against VIN order; with ``tampered`` the second
    drives, forges a software version at 100 (ServiceNeeded at the 3600
    capture) and rolls back its odometer before a Reboot (Immobilize at
    7200)."""
    lanes = []
    for vin, tag in (("WVWZZZ1JZXW000001", "A"), (VIN, "B")):
        modules = [
            dict(m, vin=vin, serial_number=f"{m['module_id']}-SN-{tag}")
            for m in BASE_MODULES
        ]
        vehicle = {"vin": vin, "variant_code": "EU-BASE", "modules": modules,
                   "parity_clusters": [["ECU", "BCM", "TCM"]]}
        lanes.append({"vehicle": vehicle, "events": []})
    if tampered:
        lanes[1]["events"] = [
            {"sim_time": 50, "kind": "Drive", "km": 120},
            {"sim_time": 100, "kind": "EepromTamper", "module_id": "TCM",
             "field": "software_version", "forged_value": "9.9.9"},
            {"sim_time": 4000, "kind": "EepromTamper", "module_id": "ECU",
             "field": "odometer_km", "forged_value": 0},
            {"sim_time": 4100, "kind": "Reboot"},
        ]
    return {"id": "cli-fleet", "seed": 1, "duration_s": 7200, "fleet": lanes}


def masked_summary(out: str) -> str:
    """Run stdout with its one wall-clock figure masked."""
    head, _, tail = out.rpartition(" (")
    assert tail.endswith("s)\n") and float(tail[:-3]) >= 0, out
    return head + " (N.NNs)\n"


def seeded_run(tmp_path, events=(), duration=3600, extra_args=()):
    """CLI flow an OEM would use: a calibration run emits the golden
    library (findings ignored), then the real run consumes it."""
    builder = write_scenario(tmp_path, scenario_obj(events, duration), "builder.json")
    lib_path = tmp_path / "library.tsv"
    rc = cli.main(
        ["run", str(builder), "-o", str(tmp_path / "builder-out"),
         "--emit-library", str(lib_path), "--expect-findings"]
    )
    assert rc == 0
    out = tmp_path / "out"
    rc = cli.main(
        ["run", str(builder), "-o", str(out), "--library", str(lib_path)]
        + list(extra_args)
    )
    return rc, out


class TestRun:
    def test_baseline_exit_zero_and_artifacts(self, tmp_path, capsys):
        rc, out = seeded_run(tmp_path)
        assert rc == 0
        for name in (cli.LEDGER_FILE, cli.VERDICTS_FILE, cli.GROUND_TRUTH_FILE, cli.REPORT_FILE):
            assert (out / name).exists()
        report = json.loads((out / cli.REPORT_FILE).read_text())
        assert report["findings"] is False
        assert report["vehicles"][VIN]["verdicts"] == {"Approved": 1}
        summary = capsys.readouterr().out
        assert "Approved" in summary

    @pytest.mark.parametrize("audited", [False, True], ids=["builder", "audited"])
    def test_summary_of_demo(self, tmp_path, capsys, audited):
        args = ["run", str(DEMO_SCENARIO), "-o", str(tmp_path / "builder"),
                "--emit-library", str(tmp_path / "lib.tsv")]
        if audited:
            assert cli.main(args) == 0
            capsys.readouterr()
            args = ["run", str(DEMO_SCENARIO), "-o", str(tmp_path / "out"),
                    "--library", str(tmp_path / "lib.tsv")]
        assert cli.main(args) == 0
        verdicts = "Approved" if audited else "no verdicts"
        assert masked_summary(capsys.readouterr().out) == (
            "scenario demo-commute: 5 block(s)\n"
            f"  1HGBH41JXMN109186: 5 checkpoint(s), verdicts: {verdicts}\n"
            "findings: none (N.NNs)\n"
        )

    def test_summary_of_fleet_follows_scenario_order(self, tmp_path, capsys):
        calibration = write_scenario(tmp_path, fleet_obj(tampered=False), "builder.json")
        lib = tmp_path / "lib.tsv"
        assert cli.main(["run", str(calibration), "-o", str(tmp_path / "builder"),
                         "--emit-library", str(lib)]) == 0
        capsys.readouterr()
        path = write_scenario(tmp_path, fleet_obj())
        assert cli.main(["run", str(path), "-o", str(tmp_path / "out"),
                         "--library", str(lib)]) == 1
        assert masked_summary(capsys.readouterr().out) == (
            "scenario cli-fleet: 4 block(s)\n"
            "  WVWZZZ1JZXW000001: 2 checkpoint(s), verdicts: Approved\n"
            "  1HGBH41JXMN109186: 2 checkpoint(s), verdicts: "
            "Immobilize,ServiceNeeded TAMPER-FLAG\n"
            "  alert: t=4100 tamper flag set: {'odometer_km': ['ECU']}\n"
            "findings: yes (N.NNs)\n"
        )

    def test_builder_mode_without_library_runs_clean(self, tmp_path):
        path = write_scenario(tmp_path, scenario_obj())
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / cli.REPORT_FILE).read_text())
        assert report["vehicles"][VIN]["verdicts"] == {}

    def test_tamper_scenario_exit_one_without_flag(self, tmp_path):
        events = [
            {
                "sim_time": 100,
                "kind": "EepromTamper",
                "module_id": "ECU",
                "field": "odometer_km",
                "forged_value": 9,
            },
            {"sim_time": 200, "kind": "Reboot"},
        ]
        rc, out = seeded_run(tmp_path, events=events)
        assert rc == 1
        report = json.loads((out / cli.REPORT_FILE).read_text())
        assert report["findings"] is True
        assert report["vehicles"][VIN]["tamper_flag"] is True
        assert report["vehicles"][VIN]["tamper_fields"] == {"odometer_km": ["ECU"]}

    def test_expect_findings_flips_exit_code(self, tmp_path):
        events = [
            {
                "sim_time": 100,
                "kind": "EepromTamper",
                "module_id": "ECU",
                "field": "odometer_km",
                "forged_value": 9,
            },
            {"sim_time": 200, "kind": "Reboot"},
        ]
        rc, _ = seeded_run(tmp_path, events=events, extra_args=["--expect-findings"])
        assert rc == 0

    def test_malformed_scenario_exit_two_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"vehicle": }')
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    def test_missing_scenario_file_exit_two(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json"), "-o", str(tmp_path)]) == 2

    def test_invalid_scenario_semantics_exit_two(self, tmp_path, capsys):
        obj = scenario_obj()
        obj["vehicle"]["parity_clusters"] = [["ECU", "NOPE", "TCM"]]
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "NOPE" in capsys.readouterr().err

    def test_event_past_duration_exit_two(self, tmp_path, capsys):
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj["events"].append({"sim_time": 999999, "kind": "Drive", "km": 10})
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: event scheduled past")

    @pytest.mark.parametrize(
        "value",
        ["abc", None, [], 3600.9, True, "12"],
        ids=["abc", "null", "list", "float", "bool", "numeric-string"],
    )
    @pytest.mark.parametrize(
        "field",
        [
            "vehicle.capture_interval_s",
            "vehicle.dht_store_limit_bytes",
            "vehicle.mileage_stride_km",
            "vehicle.initial_odometer_km",
            "duration_s",
            "seed",
        ],
    )
    def test_non_integer_field_exit_two(self, tmp_path, capsys, field, value):
        obj = scenario_obj()
        *parents, name = field.split(".")
        target = obj
        for parent in parents:
            target = target[parent]
        target[name] = value
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be an integer")
        assert "Traceback" not in err

    def test_non_utf8_scenario_exit_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(scenario_obj()).encode("utf-8"))
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, "9" * 5000],
        ids=["nested-100000-deep", "integer-5000-digits"],
    )
    def test_json_past_parser_limits_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1, err

    def test_endless_duration_exit_two_at_once(self, tmp_path, capsys):
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj["duration_s"] = 10**30
        obj["events"] = []
        path = write_scenario(tmp_path, obj)
        started = time.perf_counter()
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration_s") and "periodic captures" in err

    def longest_obj(self, duration):
        """The demo vehicle, no events, capturing every 10**17 s."""
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj.update(duration_s=duration, events=[])
        obj["vehicle"]["capture_interval_s"] = 10**17
        return obj

    def test_longest_duration_reads_back(self, tmp_path, capsys):
        """Just below the duration bound, sim_times of 18 digits reach the ledger."""
        out = tmp_path / "out"
        path = write_scenario(tmp_path, self.longest_obj(10**18 - 1))
        assert cli.main(["run", str(path), "-o", str(out)]) == 0
        (key,) = json.loads((out / cli.REPORT_FILE).read_text())["vehicles"][VIN][
            "vehicle_keys"]
        capsys.readouterr()  # drop the run summary
        assert cli.main(["verify", str(out / cli.LEDGER_FILE)]) == 0
        assert capsys.readouterr().out == "valid\n"
        assert cli.main(["history", str(out / cli.LEDGER_FILE), key, "--machine"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split("\t")[3] for row in rows] == [str(n * 10**17) for n in range(1, 10)]

    def test_duration_at_the_bound_exit_two_at_once(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.longest_obj(10**18))
        started = time.perf_counter()
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration_s") and "18 digits" in err, err
        assert not (tmp_path / "out").exists()

    def test_rejected_checkpoints_exit_one(self, tmp_path, capsys):
        """Vehicle A fits all of B's modules, so B's checkpoints replay A's."""
        obj = fleet_obj(tampered=False)
        donor = obj["fleet"][1]["vehicle"]["modules"]
        obj["fleet"][0]["events"] = [
            {"sim_time": 100 + i, "kind": "ModuleSwap", "module_id": m["module_id"],
             "replacement": m}
            for i, m in enumerate(donor)
        ]
        path = write_scenario(tmp_path, obj)
        assert cli.main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        summary = capsys.readouterr().out
        assert summary.count("rejected checkpoint") == 2
        assert "findings: yes" in summary

    @pytest.mark.parametrize("case", sorted(BAD_DEMO_EDITS))
    def test_bad_scenario_shape_exit_two(self, tmp_path, capsys, case):
        obj = json.loads(DEMO_SCENARIO.read_text())
        BAD_DEMO_EDITS[case](obj)
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert not any((tmp_path / "out").glob("*")), "a refused run writes no artifact"

    @pytest.mark.parametrize("obd_plug_in", [False, True], ids=["periodic", "obd"])
    def test_swap_without_reboot_repairs_before_append(self, tmp_path, capsys, obd_plug_in):
        """The first put to a swapped module's erased device rebuilds it first.

        The run exits 1, not 3: the demo's Reboot at 13000 flags the donor VIN.
        """
        obj = json.loads(DEMO_SCENARIO.read_text())
        _swap_ecu_at_100(obj)
        if obd_plug_in:
            obj["events"].insert(1, {"sim_time": 200, "kind": "ObdPlugIn"})
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 1, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / cli.REPORT_FILE).read_text())
        assert report["vehicles"][obj["vehicle"]["vin"]]["tamper_fields"] == {"vin": ["ECU"]}
        lines = (tmp_path / "out" / cli.GROUND_TRUTH_FILE).read_text().splitlines()
        repairs = [e for e in map(json.loads, lines) if e["event"] == "parity_repair"]
        assert repairs and repairs[0]["cluster"] == 0 and repairs[0]["device"] == 0
        assert repairs[0]["sim_time"] == (200 if obd_plug_in else 3600)

    @pytest.mark.parametrize(
        "modules", [["ECU"], ["ECU", "BCM", "TCM", "HeadUnit"]], ids=["one", "all"]
    )
    def test_odometer_forged_on_every_replica_goes_unseen(self, tmp_path, capsys, modules):
        """The design limit the README names: the startup check votes over
        the replicas, and shared data enter no audit record, so a forgery
        every replica agrees on leaves nothing to see. A rollback on one
        module is flagged at the demo's Reboot at 13000."""
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj["events"][-1:-1] = [
            {"sim_time": 9000, "kind": "EepromTamper", "module_id": module_id,
             "field": "odometer_km", "forged_value": 1}
            for module_id in modules
        ]
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / cli.REPORT_FILE).read_text())
        tamper_fields = report["vehicles"][obj["vehicle"]["vin"]]["tamper_fields"]
        if len(modules) == 1:
            assert rc == 1, capsys.readouterr().err
            assert tamper_fields == {"odometer_km": ["ECU"]}
            assert any("tamper flag set" in a for a in report["alerts"])
        else:
            assert rc == 0, capsys.readouterr().err
            assert tamper_fields == {} and report["alerts"] == []

    @pytest.mark.parametrize("case", ["corrupt-device-0", "swap-ecu", "parity-flipped-back"])
    def test_unrepairable_cluster_is_an_alert(self, tmp_path, capsys, monkeypatch, case):
        """Device 0 lost, parity corrupt too: repair fails once, with one
        alert, and the lost cluster is never scrubbed again. A second flip
        of the parity byte makes it repairable again."""
        calls = []  # ("scrub" or "lost", cluster): scrubs and failed repairs

        def scrub(cluster):
            calls.append(("scrub", cluster))
            return real_scrub(cluster)

        def repair(cluster, device):
            try:
                return real_repair(cluster, device)
            except parity.MultiFaultError:
                calls.append(("lost", cluster))
                raise

        real_scrub, real_repair = parity.scrub, parity.repair
        monkeypatch.setattr(parity, "scrub", scrub)
        monkeypatch.setattr(parity, "repair", repair)
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj["events"].insert(0, {"sim_time": 200, "kind": "MemoryCorruption", "cluster": 0,
                                 "device": "parity", "byte_offset": 5})
        if case == "swap-ecu":
            _swap_ecu_at_100(obj)
        else:
            obj["events"].insert(0, {"sim_time": 100, "kind": "MemoryCorruption",
                                     "cluster": 0, "device": 0, "byte_offset": 5})
        if case == "parity-flipped-back":
            obj["events"].append({"sim_time": 14390, "kind": "MemoryCorruption",
                                  "cluster": 0, "device": "parity", "byte_offset": 5})
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == (1 if case == "swap-ecu" else 0), capsys.readouterr().err
        report = json.loads((tmp_path / "out" / cli.REPORT_FILE).read_text())
        alerts = [a for a in report["alerts"] if "a second device must be corrupt" in a]
        assert len(alerts) == 1, alerts
        if case == "parity-flipped-back":
            lines = (tmp_path / "out" / cli.GROUND_TRUTH_FILE).read_text().splitlines()
            repairs = [e for e in map(json.loads, lines) if e["event"] == "parity_repair"]
            assert [(e["sim_time"], e["device"]) for e in repairs] == [(14400, 0)]
            return
        lost = [i for i, (what, _) in enumerate(calls) if what == "lost"]
        cluster = calls[lost[0]][1]
        scrubs = [i for i, (what, c) in enumerate(calls) if what == "scrub" and c is cluster]
        assert scrubs[-1] < lost[0], f"{len(lost)} failed repairs"

    def test_internal_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(cli, "run_scenario", broken)
        rc = cli.main(["run", str(DEMO_SCENARIO), "-o", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: simulated defect\n"

    def test_fleet_sharing_a_serial_exit_two(self, tmp_path, capsys):
        """Two vehicles with one serial set would share one vehicle key."""
        obj = fleet_obj(tampered=False)
        for lane in obj["fleet"]:
            for module in lane["vehicle"]["modules"]:
                module["serial_number"] = f"{module['module_id']}-SN-1"
        path = write_scenario(tmp_path, obj)
        rc = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and "serial" in err and len(err.splitlines()) == 1
        assert not any((tmp_path / "out").glob("*")), "a refused run writes no artifact"

    def test_output_dir_is_a_file_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("taken")
        rc = cli.main(["run", str(DEMO_SCENARIO), "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"{out}: error: ") and len(err.splitlines()) == 1, err
        assert out.read_text() == "taken"

    def test_artifact_path_taken_by_a_directory_exit_two(self, tmp_path, capsys):
        taken = tmp_path / "out" / cli.LEDGER_FILE
        taken.mkdir(parents=True)
        rc = cli.main(["run", str(DEMO_SCENARIO), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"{taken}: error: ") and len(err.splitlines()) == 1, err

    def test_emit_library_into_missing_dir_exit_two(self, tmp_path, capsys):
        lib = tmp_path / "missing" / "lib.txt"
        args = ["run", str(DEMO_SCENARIO), "-o", str(tmp_path / "out"), "--emit-library", str(lib)]
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"{lib}: error: ") and len(err.splitlines()) == 1, err
        assert not any((tmp_path / "out").glob("*")), "a failed run writes no artifact"

    def test_autobox_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUTOBOX_OUT", str(tmp_path / "env-out"))
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, scenario_obj())
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "env-out" / cli.REPORT_FILE).exists()


class TestDeterminism:
    def test_two_runs_byte_identical_machine_outputs(self, tmp_path):
        events = [
            {"sim_time": 100, "kind": "Drive", "km": 1200},
            {"sim_time": 1000, "kind": "ConnectivityOutage", "end": 8000},
            {
                "sim_time": 8100,
                "kind": "UdsReflash",
                "module_id": "BCM",
                "new_version": "3.1",
            },
        ]
        builder = write_scenario(tmp_path, scenario_obj(events, duration=10800))
        lib = tmp_path / "lib.tsv"
        assert cli.main(
            ["run", str(builder), "-o", str(tmp_path / "b"), "--emit-library", str(lib)]
        ) == 0
        for name in ("one", "two"):
            assert cli.main(
                ["run", str(builder), "-o", str(tmp_path / name), "--library", str(lib)]
            ) == 0
        names_one = sorted(p.name for p in (tmp_path / "one").iterdir())
        names_two = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert names_one == names_two
        assert cli.LEDGER_FILE in names_one
        assert any(name.endswith(".snap") for name in names_one)
        for artifact in names_one:
            assert (tmp_path / "one" / artifact).read_bytes() == (
                tmp_path / "two" / artifact
            ).read_bytes(), artifact


    def test_demo_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Two interpreters with different string hashing write the same
        bytes; DHT stores order their covered records by dict insertion."""
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        outs = []
        for seed in ("0", "123"):
            out = tmp_path / f"seed{seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "autobox.cli", "run", str(DEMO_SCENARIO), "-o", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert cli.LEDGER_FILE in names and any(n.endswith(".snap") for n in names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestStreamedArtifacts:
    def test_write_artifacts_holds_no_whole_text(self, tmp_path):
        """The text artifacts are written a chunk of lines at a time: the
        memory write_artifacts allocates stays a fraction of what it writes,
        not a joined text plus its encoded copy."""
        workloads = load_from_file("perfbench_workloads", WORKLOADS)
        built = workloads.build("fleet-service", 1)
        calibration = run_scenario(parse_scenario(built.calibration))
        scenario = parse_scenario(built.scenario)
        result = run_scenario(replace(scenario, approved_library=calibration.observed_library()))
        assert result.verdicts
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli.write_artifacts(result, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = (tmp_path / cli.GROUND_TRUTH_FILE).stat().st_size
        assert written == sum(len(line) + 1 for line in result.ground_truth)
        assert peak < written / 4, (peak, written)

    def test_report_streamed_with_the_bytes_of_one_dump(self, tmp_path):
        """report.json is encoded a chunk at a time, into the bytes one
        ``json.dumps`` would give: a report of many alerts costs the writer a
        fraction of its size."""
        result = run_scenario(load_scenario(DEMO_SCENARIO))
        alerts = tuple(f"t={t} alert {'x' * 80}" for t in range(2_000))
        result = replace(result, alerts=alerts, ground_truth=())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = cli.write_artifacts(result, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = (tmp_path / cli.REPORT_FILE).read_bytes()
        assert written == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        assert peak < len(written) / 4, (peak, len(written))


class TestVerify:
    def fresh_ledger(self, tmp_path):
        rc, out = seeded_run(tmp_path)
        assert rc == 0
        return out / cli.LEDGER_FILE

    def test_fresh_ledger_valid_exit_zero(self, tmp_path, capsys):
        path = self.fresh_ledger(tmp_path)
        capsys.readouterr()  # drop the run summaries
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_hex_edited_ledger_broken(self, tmp_path, capsys):
        path = self.fresh_ledger(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        assert cli.main(["verify", str(path)]) == 1
        assert "broken-at" in capsys.readouterr().out

    def test_empty_file_valid_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "valid\n"
        assert cli.main(["history", str(path), "ab" * 32, "--machine"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_without_checkpoint_leaves_a_valid_ledger(self, tmp_path, capsys):
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj.update(duration_s=100, events=[])
        out = tmp_path / "out"
        assert cli.main(["run", str(write_scenario(tmp_path, obj)), "-o", str(out)]) == 0
        assert (out / cli.LEDGER_FILE).read_bytes() == b""
        capsys.readouterr()  # drop the run summary
        assert cli.main(["verify", str(out / cli.LEDGER_FILE)]) == 0
        assert capsys.readouterr() == ("valid\n", "")

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["verify", str(tmp_path / "nope.txt")]) == 2

    def test_directory_exit_two(self, tmp_path, capsys):
        assert cli.main(["verify", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


class TestHistory:
    def test_known_key_rows_ascending(self, tmp_path, capsys):
        events = [
            {"sim_time": 100, "kind": "ObdPlugIn"},
            {"sim_time": 500, "kind": "ConfigChange"},
        ]
        rc, out = seeded_run(tmp_path, events=events)
        assert rc == 0
        report = json.loads((out / cli.REPORT_FILE).read_text())
        key = report["vehicles"][VIN]["vehicle_keys"][0]
        capsys.readouterr()  # drop the run summaries
        assert cli.main(["history", str(out / cli.LEDGER_FILE), key]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[:2] == ["seq", "meta_digest"]
        seqs = [int(line.split()[0]) for line in lines[1:]]
        assert seqs == sorted(seqs) and len(seqs) >= 2

    def test_table_of_demo(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", str(DEMO_SCENARIO), "-o", str(out)]) == 0
        key = "d2bb5bbda30410fd85ed400d3bea89ad6a509beed9a9868732cfc19db08b7b08"
        assert json.loads((out / cli.REPORT_FILE).read_text())["vehicles"][VIN][
            "vehicle_keys"][-1] == key
        capsys.readouterr()  # drop the run summary
        assert cli.main(["history", str(out / cli.LEDGER_FILE), key]) == 0
        assert capsys.readouterr().out == (
            "seq  meta_digest                                                       "
            "trigger           sim_time  block\n"
            "3    b6b4d4f346e3047a0752f1a934ed810713bd66d00daf260e7d144995c7195068  "
            "Reflash           6000      2\n"
            "4    239a85aecd8cfb7da722a3b3950937b25c37e579993c0608997cc93d5bfcf4e5  "
            "MileageThreshold  9000      3\n"
            "5    64bfb0607e6493c92a2faeb4613427733e2e2fad3fc02186822957b3a0cc22f0  "
            "PeriodicInterval  12600     4\n"
        )

    def test_machine_output_roundtrips(self, tmp_path, capsys):
        rc, out = seeded_run(tmp_path)
        report = json.loads((out / cli.REPORT_FILE).read_text())
        key = report["vehicles"][VIN]["vehicle_keys"][0]
        capsys.readouterr()  # drop the run summaries
        assert cli.main(["history", str(out / cli.LEDGER_FILE), key, "--machine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        blocks = load_ledger(out / cli.LEDGER_FILE)
        entries = [s for b in blocks for s in b.entries if s.vehicle_key == key]
        assert len(lines) == len(entries)
        for line, entry in zip(lines, entries):
            seq, digest, trigger, sim_time, block_index = line.split("\t")
            assert int(seq) == entry.checkpoint_seq
            assert digest == entry.meta_digest
            assert trigger == entry.trigger.value
            assert int(sim_time) == entry.sim_time

    def test_unknown_key_empty_exit_zero(self, tmp_path, capsys):
        rc, out = seeded_run(tmp_path)
        capsys.readouterr()  # drop the run summaries
        assert cli.main(
            ["history", str(out / cli.LEDGER_FILE), "99" * 32, "--machine"]
        ) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_malformed_key_exit_two(self, tmp_path):
        rc, out = seeded_run(tmp_path)
        assert cli.main(["history", str(out / cli.LEDGER_FILE), "zz-not-hex"]) == 2

    def test_directory_exit_two(self, tmp_path, capsys):
        assert cli.main(["history", str(tmp_path), "99" * 32]) == 2
        assert "error" in capsys.readouterr().err

    def test_broken_ledger_exit_two(self, tmp_path, capsys):
        """A broken chain is bad input to ``history``, not a finding."""
        out = tmp_path / "out"
        assert cli.main(["run", str(DEMO_SCENARIO), "-o", str(out)]) == 0
        path = out / cli.LEDGER_FILE
        path.write_bytes(path.read_bytes()[:-1])  # the last block, block 4, cut short
        capsys.readouterr()  # drop the run summary
        assert cli.main(["history", str(path), "99" * 32]) == 2
        assert capsys.readouterr() == ("", f"format error: {path}: chain broken-at 4\n")


class TestAudit:
    def make_snapshot(self, tmp_path, corrupt=False):
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"payload-zero")
        cluster.append_record(1, "bb" * 32, b"payload-one!")
        if corrupt:
            cluster.corrupt_byte(0, 3)
        path = tmp_path / ("bad.snap" if corrupt else "good.snap")
        path.write_bytes(save_snapshot(cluster))
        return path

    def test_clean_snapshot(self, tmp_path, capsys):
        path = self.make_snapshot(tmp_path)
        assert cli.main(["audit", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_snapshot_exit_one(self, tmp_path, capsys):
        path = self.make_snapshot(tmp_path, corrupt=True)
        assert cli.main(["audit", str(path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "device=0" in out

    def test_garbage_snapshot_exit_two(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"junk")
        assert cli.main(["audit", str(path)]) == 2

    @pytest.mark.parametrize("edit", sorted(BAD_INDEX_EDITS))
    def test_bad_index_line_exit_two(self, tmp_path, capsys, edit):
        path = tmp_path / "edited.snap"
        path.write_bytes(BAD_INDEX_EDITS[edit](two_device_snapshot()))
        assert cli.main(["audit", str(path)]) == 2
        assert "format error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header",
        [
            b"d=+2 lengths=1_090,769 parity_len=1090",
            b"d=2 lengths=1090,0769 parity_len=1090",
            b"d=2 lengths=1090,769 parity_len=1090 extra=1",
            b"d=3 d=2 lengths=1090,769 parity_len=1090",
            b"d=2 lengths=1090,769 lengths=1090,769 parity_len=1090",
            b"d=2  lengths=1090,769 parity_len=1090",
            pytest.param(b"d=" + b"9" * 5000 + b" lengths=0 parity_len=0",
                         id="d-past-int-digit-limit"),
        ],
    )
    def test_non_canonical_header_exit_two(self, demo_snapshot, tmp_path, capsys, header):
        """The demo snapshot is d=2 lengths=1090,769 parity_len=1090."""
        path = tmp_path / "edited.snap"
        path.write_bytes(header + demo_snapshot[demo_snapshot.index(b"\n") :])
        assert cli.main(["audit", str(path)]) == 2
        assert "format error" in capsys.readouterr().err

    def test_two_corrupt_data_devices_uncorrectable_exit_one(self, demo_snapshot, tmp_path, capsys):
        """A byte flipped in each of the demo's two data devices: single parity
        sees the damage and cannot repair it."""
        assert demo_snapshot.startswith(b"d=2 lengths=1090,769 ")
        blob = bytearray(demo_snapshot)
        device_0 = blob.index(b"\n") + 1
        for pos in (device_0, device_0 + 1090):  # offset 0 of devices 0 and 1
            blob[pos] ^= 0xFF
        path = tmp_path / "edited.snap"
        path.write_bytes(blob)
        assert cli.main(["audit", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{path}: uncorrectable: ") and len(out.splitlines()) == 1, out

    def test_device_count_disagreeing_with_lengths_exit_two(self, demo_snapshot, tmp_path, capsys):
        """d=3 over the demo's two recorded lengths: a format error, not an IndexError."""
        assert demo_snapshot.startswith(b"d=2 ")
        path = tmp_path / "edited.snap"
        path.write_bytes(b"d=3 " + demo_snapshot[4:])
        assert cli.main(["audit", str(path)]) == 2
        assert "format error" in capsys.readouterr().err

    def test_directory_exit_two(self, tmp_path, capsys):
        assert cli.main(["audit", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_output_snapshots_audit_clean(self, tmp_path, capsys):
        rc, out = seeded_run(tmp_path)
        assert rc == 0
        snaps = sorted(str(p) for p in out.glob("*.snap"))
        assert snaps
        capsys.readouterr()
        assert cli.main(["audit"] + snaps) == 0
        assert "clean" in capsys.readouterr().out


def test_commands_parse_with_the_parser_built_at_import(tmp_path, capsys, monkeypatch):
    """``main`` builds no parser: with ``_build_parser`` refusing to run,
    ``run``, ``verify``, ``history`` and ``audit`` on the demo exit 0 and
    print what they printed before."""
    out = tmp_path / "out"

    def demo_stdout() -> list[str]:
        assert cli.main(["run", str(DEMO_SCENARIO), "-o", str(out)]) == 0
        printed = [masked_summary(capsys.readouterr().out)]
        ledger = str(out / cli.LEDGER_FILE)
        key = json.loads((out / cli.REPORT_FILE).read_text())["vehicles"][VIN][
            "vehicle_keys"][-1]
        snaps = sorted(str(p) for p in out.glob("*.snap"))
        for argv in (["verify", ledger], ["history", ledger, key, "--machine"],
                     ["audit", *snaps]):
            assert cli.main(argv) == 0, argv
            printed.append(capsys.readouterr().out)
        return printed

    before = demo_stdout()

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert demo_stdout() == before
    assert before[1] == "valid\n" and before[2].count("\n") == 3 and "clean" in before[3]


class TestCheckpointsWithoutVerdict:
    """An audit run whose accepted checkpoints get no verdict has findings,
    however clean the checkpoints it did judge."""

    @pytest.mark.parametrize(
        "library", ["US-BASE\t" + "aa" * 32 + "\n", ""], ids=["other-variant", "empty"]
    )
    def test_library_without_the_variant_exit_one(self, tmp_path, capsys, library):
        lib = tmp_path / "lib.tsv"
        lib.write_text(library)
        out = tmp_path / "out"
        assert cli.main(["run", str(DEMO_SCENARIO), "-o", str(out), "--library", str(lib)]) == 1
        summary = capsys.readouterr().out
        assert summary.count("no approved digests on file for variant 'EU-BASE'") == 5
        assert "findings: yes" in summary
        assert json.loads((out / cli.REPORT_FILE).read_text())["findings"] is True

    def test_swap_to_an_unregistered_key_exit_one(self, tmp_path, capsys):
        """Without the demo's reflash no official install registers the key
        that a serial-only HeadUnit swap at 1000 rotates to."""
        obj = json.loads(DEMO_SCENARIO.read_text())
        obj["events"] = [e for e in obj["events"] if e["kind"] != "UdsReflash"]
        calibration = write_scenario(tmp_path, obj, "builder.json")
        lib = tmp_path / "lib.tsv"
        assert cli.main(["run", str(calibration), "-o", str(tmp_path / "builder"),
                         "--emit-library", str(lib)]) == 0
        replacement = dict(obj["vehicle"]["modules"][3], serial_number="HU-SN-999999")
        obj["events"].insert(1, {"sim_time": 1000, "kind": "ModuleSwap",
                                 "module_id": "HeadUnit", "replacement": replacement})
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["run", str(write_scenario(tmp_path, obj)), "-o", str(out),
                         "--library", str(lib)]) == 1
        summary = capsys.readouterr().out
        assert summary.count("has no registered variant") == 5
        assert "findings: yes" in summary
        assert (out / cli.VERDICTS_FILE).read_bytes() == b""


# Library files `run --library` must refuse with exit 2: file text (None:
# no file at all) and the line number the error names (None: no line).
BAD_LIBRARIES = {
    "no-tab": ("EU-BASE " + "aa" * 32 + "\n", 1),
    "three-fields": ("EU-BASE\t" + "aa" * 32 + "\nEU-BASE\tx\t" + "bb" * 32 + "\n", 2),
    "digest-not-hex": ("\nEU-BASE\t" + "zz" * 32 + "\n", 2),
    "missing-file": (None, None),
}


class TestLibraryRefused:
    @pytest.mark.parametrize("case", sorted(BAD_LIBRARIES))
    def test_bad_library_exit_two(self, tmp_path, capsys, case):
        text, line = BAD_LIBRARIES[case]
        lib = tmp_path / "lib.tsv"
        if text is not None:
            lib.write_text(text)
        path = write_scenario(tmp_path, scenario_obj())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "-o", str(out), "--library", str(lib)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot load library: ")
        if line is not None:
            assert f"library line {line}:" in err[0]
        assert not out.exists()  # refused before anything ran


class TestEmittedLibraryFormat:
    def test_emitted_library_is_sorted_tsv(self, tmp_path):
        builder = write_scenario(tmp_path, scenario_obj())
        lib = tmp_path / "lib.tsv"
        assert cli.main(
            ["run", str(builder), "-o", str(tmp_path / "out"), "--emit-library", str(lib)]
        ) == 0
        lines = lib.read_text().splitlines()
        assert lines
        for line in lines:
            variant, digest = line.split("\t")
            assert variant == "EU-BASE"
            assert len(digest) == 64
        assert lines == sorted(lines)
