"""Seeded scenario generator for the benchmark workloads.

``build(workload, seed)`` returns a ``Workload``: the audit scenario, its
attack-free calibration twin, and each vehicle's expected outcome. The
seed fixes VINs, versions, dates, event times, which vehicles are attacked
and how; module serials are fixed per workload (see ``_hardware``). The
shape of each workload (vehicle count, module count, horizon, event mix,
number of attacks of each kind) is fixed too, so the cost of one run
changes little from seed to seed.

Only the generated JSON reaches the program. Every attack is valid for
the state it targets, so a ``ScenarioError`` from a generated scenario is
a generator bug, not a data point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DAY = 86_400
HOUR = 3_600

VIN_CHARS = "ABCDEFGHJKLMNPRSTUVWXYZ0123456789"
LOCATIONS = ("Stuttgart", "Ostrava", "Saltillo", "Shenzhen", "Gyor", "Pune", "Toluca")

WHY = {
    "long-haul": (
        "one vehicle over many sim-days: mirror and parity devices grow with "
        "history, so capture_meta_hash and parity.scrub dominate"
    ),
    "fleet-service": (
        "many vehicles over one sim-day with dense service traffic and attacks: "
        "short histories, so build, hashing, DHT, ledger and history dominate"
    ),
}

# long-haul: eight modules, two parity clusters (last member hosts parity).
LONG_HAUL_DAYS = 10
LONG_HAUL_MODULES = ("ECU", "BCM", "TCM", "ABS", "EPS", "ADAS", "Gateway", "HeadUnit")
LONG_HAUL_CLUSTERS = (("ECU", "BCM", "TCM", "ABS"), ("EPS", "ADAS", "Gateway", "HeadUnit"))

# fleet-service: a fleet of five-module vehicles, one parity cluster each.
FLEET_VEHICLES = 32
FLEET_MODULES = ("ECU", "BCM", "TCM", "ABS", "HeadUnit")
FLEET_CLUSTERS = (("ECU", "BCM", "TCM", "ABS"),)
# Attacked vehicles per kind; the rest of the fleet is clean.
FLEET_ATTACKS = {
    "rollback": 2,
    "metadata_tamper": 2,
    "swap": 2,
    "memory_corruption": 2,
    "node_failure": 2,
}
# (findings, tamper_flag) each attack kind must produce in report.json.
OUTCOME = {
    None: (False, False),
    "rollback": (True, True),
    "metadata_tamper": (True, False),
    "swap": (True, True),
    "memory_corruption": (False, False),
    "node_failure": (False, False),
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scenario: dict  # audit run input
    calibration: dict  # same scenario with the attacks removed
    expected: dict  # vin -> {"attack": kind or None, "findings": bool, "tamper_flag": bool}
    vehicle_days: float

    @property
    def any_findings(self) -> bool:
        return any(e["findings"] for e in self.expected.values())


def build(name: str, seed: int) -> Workload:
    if name == "long-haul":
        return _long_haul(seed)
    if name == "fleet-service":
        return _fleet_service(seed)
    raise ValueError(f"unknown workload {name!r}")


# -- building blocks --------------------------------------------------------


def _hardware(name: str) -> random.Random:
    """The module serials of a workload, the same for every seed.

    Serials fix the DHT node ids, and so how the key space, and with it the
    parity devices, is split between modules. Scrub cost grows with device
    size squared, so a seeded split alone moves the cost of a long-haul run
    by 2x between seeds. The serials come from one fixed stream, not picked
    by cost; the seed varies everything else.
    """
    return random.Random(f"{name}:hardware")


def _vin(rng: random.Random, taken: set[str]) -> str:
    while True:
        vin = "".join(rng.choice(VIN_CHARS) for _ in range(17))
        if vin not in taken:
            taken.add(vin)
            return vin


def _version(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}"


def _bump(version: str) -> str:
    major, minor, patch = (int(p) for p in version.split("."))
    return f"{major}.{minor}.{patch + 1}"


def _serials(rng: random.Random, module_ids, taken: set[str]) -> list[str]:
    out = []
    for module_id in module_ids:
        while True:
            serial = f"{module_id[:3].upper()}-SN-{rng.randrange(10**8):08d}"
            if serial not in taken:
                taken.add(serial)
                out.append(serial)
                break
    return out


def _module(rng: random.Random, module_id: str, serial: str, vin: str, variant: str) -> dict:
    year = rng.randint(2016, 2021)
    return {
        "module_id": module_id,
        "design_date": f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        "manufacture_date": f"{year + 1}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        "manufacture_location": rng.choice(LOCATIONS),
        "supplier_id": f"SUP-{rng.randint(1, 199):03d}",
        "production_lot": f"LOT-{rng.randrange(10**4):04d}",
        "software_version": _version(rng),
        "variant_code": variant,
        "serial_number": serial,
        "vin": vin,
    }


def _vehicle(rng, hardware, vin, variant, module_ids, clusters, odometer) -> dict:
    serials = _serials(hardware, module_ids, set())
    return {
        "vin": vin,
        "variant_code": variant,
        "dht_store_limit_bytes": 2048,
        "capture_interval_s": HOUR,
        "mileage_stride_km": 1000,
        "initial_odometer_km": odometer,
        "modules": [_module(rng, m, sn, vin, variant) for m, sn in zip(module_ids, serials)],
        "parity_clusters": [list(c) for c in clusters],
    }


def _ordered(events: list[dict]) -> list[dict]:
    # Stable sort keeps same-time pairs (attack, then its Reboot) in order.
    return sorted(events, key=lambda e: e["sim_time"])


def _odometer_at(events: list[dict], initial: int, when: int) -> int:
    return initial + sum(e["km"] for e in events if e["kind"] == "Drive" and e["sim_time"] <= when)


# -- long-haul ----------------------------------------------------------------


def _long_haul(seed: int) -> Workload:
    rng = random.Random(f"long-haul:{seed}")
    vin = _vin(rng, set())
    odometer = rng.randint(1_000, 90_000)
    vehicle = _vehicle(rng, _hardware("long-haul"), vin, "EU-LONG", LONG_HAUL_MODULES,
                       LONG_HAUL_CLUSTERS, odometer)
    events = []
    for day in range(LONG_HAUL_DAYS):
        base = day * DAY
        events.append({"sim_time": base + rng.randrange(5 * HOUR, 6 * HOUR), "kind": "Reboot"})
        events.append({"sim_time": base + rng.randrange(7 * HOUR, 9 * HOUR), "kind": "Drive", "km": rng.randint(40, 160)})
        events.append({"sim_time": base + rng.randrange(16 * HOUR, 19 * HOUR), "kind": "Drive", "km": rng.randint(40, 160)})
    calibration_events = list(events)
    # A node outage mid-run and one late bit flip, both on large state.
    failed = rng.choice(LONG_HAUL_MODULES)
    fail_at = (LONG_HAUL_DAYS // 2) * DAY + rng.randrange(10 * HOUR, 14 * HOUR)
    events.append({"sim_time": fail_at, "kind": "NodeFailure", "module_id": failed})
    events.append({"sim_time": fail_at + 6 * HOUR, "kind": "NodeRecovery", "module_id": failed})
    late = (LONG_HAUL_DAYS - 2) * DAY + rng.randrange(10 * HOUR, 14 * HOUR)
    events.append(_corruption(rng, late, len(LONG_HAUL_CLUSTERS)))
    scenario = {
        "id": f"long-haul-{seed}",
        "seed": seed,
        "duration_s": LONG_HAUL_DAYS * DAY,
        "vehicle": vehicle,
        "events": _ordered(events),
    }
    calibration = dict(scenario, id=f"long-haul-{seed}-calibration", events=_ordered(calibration_events))
    expected = {vin: _expect(None)}
    return Workload("long-haul", seed, scenario, calibration, expected, float(LONG_HAUL_DAYS))


def _corruption(rng: random.Random, when: int, n_clusters: int) -> dict:
    # Offsets stay inside the first record (dump lines exceed 150 bytes),
    # and the run is hours old by then, so the device is never empty.
    return {
        "sim_time": when,
        "kind": "MemoryCorruption",
        "cluster": rng.randrange(n_clusters),
        "device": rng.choice([0, 1, 2, "parity"]),
        "byte_offset": rng.randrange(150),
    }


def _expect(attack: str | None) -> dict:
    findings, tamper_flag = OUTCOME[attack]
    return {"attack": attack, "findings": findings, "tamper_flag": tamper_flag}


# -- fleet-service --------------------------------------------------------------


def _fleet_service(seed: int) -> Workload:
    rng = random.Random(f"fleet-service:{seed}")
    hardware = _hardware("fleet-service")
    vins: set[str] = set()
    attacks: list[str | None] = [k for k, n in FLEET_ATTACKS.items() for _ in range(n)]
    attacks += [None] * (FLEET_VEHICLES - len(attacks))
    rng.shuffle(attacks)
    fleet, calibration_fleet, expected = [], [], {}
    for attack in attacks:
        vin = _vin(rng, vins)
        odometer = rng.randint(1_000, 90_000)
        variant = rng.choice(("EU-BASE", "US-BASE"))
        vehicle = _vehicle(rng, hardware, vin, variant, FLEET_MODULES, FLEET_CLUSTERS, odometer)
        events = _service_day(rng, vehicle)
        extra = _attack_events(rng, attack, vehicle, events, vins) if attack else []
        fleet.append({"vehicle": vehicle, "events": _ordered(events + extra)})
        # The calibration twin keeps an attack's companion Reboot, so the
        # attack is the only difference between the two runs.
        benign = [e for e in extra if e["kind"] == "Reboot"]
        calibration_fleet.append({"vehicle": vehicle, "events": _ordered(events + benign)})
        expected[vin] = _expect(attack)
    scenario = {"id": f"fleet-service-{seed}", "seed": seed, "duration_s": DAY, "fleet": fleet}
    calibration = dict(scenario, id=f"fleet-service-{seed}-calibration", fleet=calibration_fleet)
    return Workload("fleet-service", seed, scenario, calibration, expected, float(FLEET_VEHICLES))


def _service_day(rng: random.Random, vehicle: dict) -> list[dict]:
    reflashed = rng.choice(vehicle["modules"])
    outage = rng.randrange(9 * HOUR, 12 * HOUR)
    return [
        {"sim_time": rng.randrange(5 * HOUR, 6 * HOUR), "kind": "Reboot"},
        {"sim_time": rng.randrange(6 * HOUR, 7 * HOUR), "kind": "Drive", "km": rng.randint(10, 90)},
        {"sim_time": rng.randrange(7 * HOUR, 8 * HOUR), "kind": "ObdPlugIn"},
        {
            "sim_time": rng.randrange(8 * HOUR, 9 * HOUR),
            "kind": "UdsReflash",
            "module_id": reflashed["module_id"],
            "new_version": _bump(max(m["software_version"] for m in vehicle["modules"])),
        },
        {"sim_time": outage, "kind": "ConnectivityOutage", "end": outage + rng.randrange(HOUR, 3 * HOUR)},
        {"sim_time": rng.randrange(9 * HOUR, 12 * HOUR), "kind": "Drive", "km": rng.randint(10, 90)},
        {"sim_time": rng.randrange(13 * HOUR, 14 * HOUR), "kind": "ServiceNotice"},
        {"sim_time": rng.randrange(14 * HOUR, 15 * HOUR), "kind": "ObdPlugIn"},
        {"sim_time": rng.randrange(18 * HOUR, 19 * HOUR), "kind": "Drive", "km": rng.randint(10, 90)},
        {"sim_time": rng.randrange(20 * HOUR, 21 * HOUR), "kind": "Reboot"},
    ]


def _attack_events(rng, attack, vehicle, events, vins) -> list[dict]:
    when = rng.randrange(15 * HOUR, 18 * HOUR)
    module = rng.choice(vehicle["modules"])
    if attack == "rollback":
        current = _odometer_at(events, vehicle["initial_odometer_km"], when)
        return [
            {
                "sim_time": when,
                "kind": "EepromTamper",
                "module_id": module["module_id"],
                "field": "odometer_km",
                "forged_value": current - rng.randint(50, 900),
            },
            {"sim_time": when, "kind": "Reboot"},
        ]
    if attack == "metadata_tamper":
        return [
            {
                "sim_time": when,
                "kind": "EepromTamper",
                "module_id": module["module_id"],
                "field": rng.choice(("production_lot", "supplier_id", "manufacture_location")),
                "forged_value": f"FORGED-{rng.randrange(10**4)}",
            }
        ]
    if attack == "swap":
        donor_vin = _vin(rng, vins)
        [serial] = _serials(rng, [module["module_id"]], {m["serial_number"] for m in vehicle["modules"]})
        donor = _module(rng, module["module_id"], serial, donor_vin, vehicle["variant_code"])
        # Same instant as the Reboot: no periodic sweep can append to the
        # erased device before the boot-time scrub repairs it.
        return [
            {"sim_time": when, "kind": "ModuleSwap", "module_id": module["module_id"], "replacement": donor},
            {"sim_time": when, "kind": "Reboot"},
        ]
    if attack == "memory_corruption":
        return [_corruption(rng, when, len(FLEET_CLUSTERS))]
    if attack == "node_failure":
        return [{"sim_time": when, "kind": "NodeFailure", "module_id": module["module_id"]}]
    raise ValueError(f"unknown attack {attack!r}")
