"""Acceptance suite: one test per release criterion, at stated tolerances.

Each criterion prints an ``ACCEPTANCE n PASS/FAIL`` line (visible with
``pytest -s`` or in captured output). Tolerances and case counts are fixed
here, not configurable: 500 parity clusters, 1000 routing cases, 10,000
bounded-store puts, 200x20 digest permutations, full-coverage ledger fuzz,
the four attack scenarios, outage replay, and byte-level determinism.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from autobox import cli
from autobox.auditcore import EventType, identity_hash
from autobox.dht import CheckpointRequired, DhtNetwork, node_id_for_serial
from autobox.ledger import VerdictStatus, history_from_file, verify_chain
from autobox.masternode import MasterNode, meta_digest
from autobox.parity import PARITY, ParityCluster, reconstruct, repair, scrub
from autobox.vehiclesim import ScenarioEvent, ScenarioEventKind, run_scenario

from conftest import (
    EMPTY_SHA256,
    JUNKYARD_VIN,
    data_store,
    make_metadata,
    make_scenario,
    owner_of,
    parity_store,
    seeded_library,
    store_bytes,
    write_chain,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def random_cluster(rng: random.Random, d: int, max_total=4096):
    cluster = ParityCluster(d)
    originals = {}
    budget = {i: rng.randint(64, max_total) for i in range(d)}
    n = 0
    for device in range(d):
        used = 0
        while used < budget[device]:
            size = min(rng.randint(16, 512), budget[device] - used)
            cluster.append_record(device, f"{rng.getrandbits(256):064x}", rng.randbytes(size))
            used += size
            n += 1
    for device in range(d):
        originals[device] = data_store(cluster, device)
    originals[PARITY] = parity_store(cluster)
    return cluster, originals


def test_criterion_1_parity_round_trip_suite():
    with criterion(1, "parity round-trip, locate, no false positives (500 clusters)"):
        rng = random.Random(0xC1)
        for case in range(500):
            d = rng.choice([2, 3, 4])
            cluster, originals = random_cluster(rng, d)
            # No false positives on the untouched cluster.
            assert scrub(cluster).clean, f"case {case}: false positive"
            # Every single-device erasure reconstructs byte-identically.
            for device in list(range(d)) + [PARITY]:
                cluster.erase_device(device)
                rebuilt = repair(cluster, device)
                assert rebuilt == originals[device], f"case {case} device {device}"
            assert scrub(cluster).clean
            # A single byte flip is located at the injected device.
            flip_device = rng.choice(list(range(d)) + [PARITY])
            length = (
                len(parity_store(cluster))
                if flip_device == PARITY
                else len(data_store(cluster, flip_device))
            )
            cluster.corrupt_byte(flip_device, rng.randrange(length))
            report = scrub(cluster)
            assert not report.clean
            assert report.device == flip_device, f"case {case}: located {report.device}"
            repair(cluster, report.device)
            assert scrub(cluster).clean


def test_criterion_2_dht_oracle_equivalence():
    with criterion(2, "routing equals min-XOR oracle on 1000 fully-live networks"):
        rng = random.Random(0xC2)
        mismatches = 0
        for _ in range(1000):
            n = rng.randint(2, 32)
            ids = [f"{rng.getrandbits(256):064x}" for _ in range(n)]
            network = DhtNetwork()
            for node_id in ids:
                network.add_node(node_id)
            for _ in range(200):
                key = f"{rng.getrandbits(256):064x}"
                origin = ids[rng.randrange(n)]
                located, _ = network.locate(origin, key)
                if located != owner_of(key, ids):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_3_constrained_memory_budget():
    with criterion(3, "10,000 puts inside a 2048-byte store, eviction gated"):
        limit = 2048
        network = DhtNetwork(store_limit_bytes=limit)
        node_id = node_id_for_serial("budget-node")
        node = network.add_node(node_id)
        master = MasterNode(network)
        metadata = make_metadata("ECU")
        put_order: dict[str, int] = {}
        covered = 0  # the first `covered` records put were mirrored at the last capture
        puts = evictions = 0
        for t in range(10_000):
            record = identity_hash(metadata, t, EventType.PERIODIC_INTERVAL)
            try:
                receipt = master.put(node_id, record)
            except CheckpointRequired:
                mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, "ab" * 32)
                covered = mh.covered_records
                receipt = master.put(node_id, record)
            put_order[record.record_key] = len(put_order)
            for evicted_key in receipt.evicted:
                evictions += 1
                # Never evicts a record the last capture did not cover.
                assert put_order[evicted_key] < covered
            assert store_bytes(node) <= limit
            puts += 1
        assert puts == 10_000
        assert evictions > 0
        last = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10_000, "ab" * 32)
        assert last.covered_records == 10_000  # every put mirrored, once


def test_criterion_4_meta_hash_invariance():
    with criterion(4, "meta digest order-free over 200 sets x 20 permutations"):
        assert meta_digest([]) == EMPTY_SHA256
        rng = random.Random(0xC4)
        for _ in range(200):
            pairs = [
                (f"{rng.getrandbits(256):064x}", f"{rng.getrandbits(256):064x}")
                for _ in range(rng.randint(1, 30))
            ]
            reference = meta_digest(pairs)
            for _ in range(20):
                rng.shuffle(pairs)
                assert meta_digest(pairs) == reference


def test_criterion_5_ledger_tamper_evidence(tmp_path):
    with criterion(5, "50-block ledger: full-coverage byte fuzz breaks the chain"):
        from autobox.ledger import FullNode, LedgerFormatError
        from autobox.masternode import Submission

        node = FullNode()
        rng = random.Random(0xC5)
        for seq in range(1, 51):
            node.append_submissions(
                [
                    Submission(
                        vehicle_key="ab" * 32,
                        checkpoint_seq=seq,
                        meta_digest=f"{rng.getrandbits(256):064x}",
                        trigger=EventType.PERIODIC_INTERVAL,
                        sim_time=seq * 60,
                    )
                ]
            )
        path = write_chain(tmp_path / "ledger.txt", node.chain)
        blob = path.read_bytes()
        assert verify_chain(path).valid

        # Split offsets into length-prefix (format) and payload (body) bytes.
        body_spans = []
        format_spans = []
        pos = 0
        while pos < len(blob):
            newline = blob.index(b"\n", pos)
            length = int(blob[pos:newline])
            format_spans.append((pos, newline + 1))
            body_spans.append((newline + 1, newline + 1 + length))
            pos = newline + 1 + length

        target = tmp_path / "mutated.txt"
        body_bytes = sum(end - start for start, end in body_spans)
        checked = 0
        for block_index, (start, end) in enumerate(body_spans):
            for offset in range(start, end):
                mutated = bytearray(blob)
                mutated[offset] ^= 0x01
                target.write_bytes(bytes(mutated))
                result = verify_chain(target)
                assert not result.valid, f"byte {offset} went undetected"
                assert result.broken_at == block_index
                checked += 1
        assert checked == body_bytes  # 100% >= 99% required coverage

        # Format bytes (length prefixes) are damage too, just reported
        # differently: never valid, either broken-at or a format error.
        for start, end in format_spans:
            for offset in range(start, end):
                mutated = bytearray(blob)
                mutated[offset] ^= 0x01
                target.write_bytes(bytes(mutated))
                try:
                    assert not verify_chain(target).valid
                except LedgerFormatError:
                    pass

        path.write_bytes(blob)
        assert verify_chain(path).valid


def _event(kind, sim_time, **kw):
    return ScenarioEvent(sim_time=sim_time, kind=kind, **kw)


def _attack_scenarios():
    legit_events = (
        _event(ScenarioEventKind.DRIVE, 300, km=20),
        _event(ScenarioEventKind.OBD_PLUG_IN, 900),
        _event(ScenarioEventKind.REBOOT, 1800),
    )
    baseline = make_scenario(events=legit_events, duration_s=7200)
    rollback = make_scenario(
        events=legit_events
        + (
            _event(
                ScenarioEventKind.EEPROM_TAMPER,
                2000,
                module_id="ECU",
                field="odometer_km",
                forged_value=1,
            ),
            _event(ScenarioEventKind.REBOOT, 2100),
        ),
        duration_s=7200,
    )
    vin_rewrite = make_scenario(
        events=legit_events
        + (
            _event(
                ScenarioEventKind.EEPROM_TAMPER,
                2000,
                module_id="BCM",
                field="vin",
                forged_value=JUNKYARD_VIN,
            ),
            _event(ScenarioEventKind.REBOOT, 2100),
        ),
        duration_s=7200,
    )
    swap = make_scenario(
        events=legit_events
        + (
            _event(
                ScenarioEventKind.MODULE_SWAP,
                2000,
                module_id="BCM",
                replacement=make_metadata(
                    "BCM", serial_number="BCM-JUNK-7", vin=JUNKYARD_VIN
                ),
            ),
            _event(ScenarioEventKind.REBOOT, 2100),
        ),
        duration_s=7200,
    )
    reflash = make_scenario(
        events=legit_events
        + (
            _event(
                ScenarioEventKind.UDS_REFLASH,
                2000,
                module_id="TCM",
                new_version="9.9-unapproved",
            ),
        ),
        duration_s=7200,
    )
    return baseline, rollback, vin_rewrite, swap, reflash


def test_criterion_6_attack_detection_matrix():
    with criterion(6, "attack matrix: rollback, VIN rewrite, swap, bad reflash"):
        baseline, rollback, vin_rewrite, swap, reflash = _attack_scenarios()
        library = seeded_library(baseline)

        clean = run_scenario(replace(baseline, approved_library=library))
        assert not clean.findings
        assert clean.alerts == ()
        assert all(
            v.status is VerdictStatus.APPROVED for v in clean.verdicts
        )
        assert clean.verdicts  # the baseline did produce checkpoints

        result = run_scenario(replace(rollback, approved_library=library))
        assert result.vehicles[0].tamper_flag
        assert result.vehicles[0].tamper_details["odometer_km"] == frozenset({"ECU"})

        result = run_scenario(replace(vin_rewrite, approved_library=library))
        assert result.vehicles[0].tamper_flag
        assert result.vehicles[0].tamper_details["vin"] == frozenset({"BCM"})

        result = run_scenario(replace(swap, approved_library=library))
        assert result.vehicles[0].tamper_flag
        assert "vin" in result.vehicles[0].tamper_details
        assert result.vehicles[0].tamper_details["vin"] == frozenset({"BCM"})

        result = run_scenario(replace(reflash, approved_library=library))
        assert result.findings
        assert any(
            v.status is not VerdictStatus.APPROVED for v in result.verdicts
        )


def test_criterion_7_outage_resilience(tmp_path):
    with criterion(7, "outage spanning 2 captures: backlog lands once, in order"):
        scenario = make_scenario(
            events=(_event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=9000),),
            duration_s=10_800,
        )
        library = seeded_library(scenario)
        result = run_scenario(replace(scenario, approved_library=library))
        vehicle = result.vehicles[0]
        # Captures at 3600 and 7200 happened offline, 10800 online.
        assert [mh.sim_time for mh in vehicle.captures] == [3600, 7200, 10_800]
        ledger = write_chain(tmp_path / "ledger.txt", result.blocks)
        history = history_from_file(ledger, vehicle.vehicle_keys[-1])
        assert [e.checkpoint_seq for _, e in history] == [1, 2, 3]
        ledger_seqs = [
            s.checkpoint_seq for block in result.blocks for s in block.entries
        ]
        assert ledger_seqs == sorted(ledger_seqs)
        assert len(ledger_seqs) == len(set(ledger_seqs)) == len(vehicle.captures)
        assert not result.findings


def _criterion_8_fixtures():
    baseline, rollback, vin_rewrite, swap, reflash = _attack_scenarios()
    outage = make_scenario(
        events=(_event(ScenarioEventKind.CONNECTIVITY_OUTAGE, 1000, end=9000),),
        duration_s=10_800,
    )
    return {
        "baseline": baseline,
        "rollback": rollback,
        "vin_rewrite": vin_rewrite,
        "swap": swap,
        "reflash": reflash,
        "outage": outage,
    }


def test_criterion_8_bit_level_determinism(tmp_path):
    with criterion(8, "every fixture scenario twice: byte-identical artifacts"):
        for name, scenario in _criterion_8_fixtures().items():
            library = seeded_library(scenario)
            final = replace(scenario, approved_library=library)
            artifacts = []
            for attempt in ("first", "second"):
                outdir = tmp_path / name / attempt
                outdir.mkdir(parents=True)
                cli.write_artifacts(run_scenario(final), outdir)
                artifacts.append(outdir)
            names = sorted(path.name for path in artifacts[0].iterdir())
            assert names == sorted(path.name for path in artifacts[1].iterdir())
            for artifact in names:
                first = (artifacts[0] / artifact).read_bytes()
                second = (artifacts[1] / artifact).read_bytes()
                assert first == second, f"{name}/{artifact} differs between runs"


def test_criterion_8_cli_machine_reports_deterministic(tmp_path):
    """Same criterion through the CLI surface: report.json included."""
    with criterion(8, "CLI run twice: ledger and machine report byte-identical"):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(
                {
                    "id": "determinism",
                    "seed": 5,
                    "duration_s": 7200,
                    "vehicle": {
                        "vin": "1HGBH41JXMN109186",
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
                                "vin": "1HGBH41JXMN109186",
                            }
                            for mid in ("ECU", "BCM", "TCM", "HeadUnit")
                        ],
                        "parity_clusters": [["ECU", "BCM", "TCM"]],
                    },
                    "events": [
                        {"sim_time": 100, "kind": "Drive", "km": 1500},
                        {"sim_time": 2000, "kind": "ConnectivityOutage", "end": 5000},
                    ],
                }
            )
        )
        lib = tmp_path / "lib.tsv"
        assert cli.main(
            ["run", str(scenario_path), "-o", str(tmp_path / "builder"),
             "--emit-library", str(lib)]
        ) == 0
        for name in ("one", "two"):
            assert cli.main(
                ["run", str(scenario_path), "-o", str(tmp_path / name),
                 "--library", str(lib)]
            ) == 0
        for artifact in (
            cli.LEDGER_FILE,
            cli.REPORT_FILE,
            cli.VERDICTS_FILE,
            cli.GROUND_TRUTH_FILE,
        ):
            assert (tmp_path / "one" / artifact).read_bytes() == (
                tmp_path / "two" / artifact
            ).read_bytes(), artifact


REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_ARTIFACTS = Path(__file__).parent / "data" / "golden_artifacts.tsv"
GOLDEN_SCENARIOS = ("demo", "odometer_rollback")


def golden_artifact_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of every machine artifact, keyed ``<scenario>/<file>``.

    Each scenario is audited against the library its own calibration run
    observed: the JSON fixtures through the CLI, the criterion-8 fixtures
    through ``run_scenario`` and ``cli.write_artifacts``, the writer ``run``
    uses.
    """
    for stem in GOLDEN_SCENARIOS:
        scenario = REPO_ROOT / "scenarios" / f"{stem}.json"
        library = workdir / f"{stem}.library.tsv"
        assert cli.main(
            ["run", str(scenario), "-o", str(workdir / "calibration" / stem),
             "--emit-library", str(library), "--expect-findings"]
        ) == 0
        assert cli.main(
            ["run", str(scenario), "-o", str(workdir / "audit" / stem),
             "--library", str(library), "--expect-findings"]
        ) == 0
    for name, scenario in _criterion_8_fixtures().items():
        outdir = workdir / "audit" / name
        outdir.mkdir(parents=True)
        final = replace(scenario, approved_library=seeded_library(scenario))
        cli.write_artifacts(run_scenario(final), outdir)
    audit = workdir / "audit"
    return {
        path.relative_to(audit).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(audit.glob("*/*"))
    }


def test_criterion_8_golden_artifacts(tmp_path):
    """Refactors keep every artifact byte: digests pinned in tests/data.

    A change that means to alter artifact bytes rewrites the file from
    ``golden_artifact_digests`` as ``<name> <TAB> <sha256>`` lines.
    """
    with criterion(8, "fixture and criterion-8 artifacts match the golden digests"):
        golden = dict(
            line.split("\t") for line in GOLDEN_ARTIFACTS.read_text().splitlines()
        )
        assert golden_artifact_digests(tmp_path) == golden
