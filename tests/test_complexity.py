"""Per-layer work grows linearly with the size of a benchmark workload.

Each workload is built at three sizes, each twice the last: long-haul at
2, 4 and 8 sim-days, and fleet-service at 4, 8 and 16 vehicles with no
attacks (below 10 vehicles the attacks would fix the fleet's size). Work
is counted by wrappers installed from outside ``src/``, and every count
must grow by at most LINEAR_GROWTH per doubling, so a path that turns
quadratic fails here. Scrub bytes, quadratic in a long run's history, and
parity append bytes, which grow unevenly on the fleet, are not counted.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from autobox import dht, ledger, vehiclesim
from autobox.vehiclesim import parse_scenario, run_scenario

from conftest import load_from_file

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
LINEAR_GROWTH = 2.2
# workload -> its size parameter in perfbench/workloads.py and three sizes.
SIZES = {
    "long-haul": ("LONG_HAUL_DAYS", (2, 4, 8)),
    "fleet-service": ("FLEET_VEHICLES", (4, 8, 16)),
}


@pytest.fixture
def work(monkeypatch) -> Counter:
    """Counts of DHT puts, identity hashes and accepted ledger entries,
    kept by wrappers around the functions that do them."""
    counts = Counter()
    put, identity_hash = dht.DhtNetwork.put, vehiclesim.identity_hash
    append = ledger.FullNode.append_submissions

    def counted_put(self, *args):
        counts["put calls"] += 1
        return put(self, *args)

    def counted_identity_hash(*args):
        counts["identity_hash calls"] += 1
        return identity_hash(*args)

    def counted_append(self, submissions):
        result = append(self, submissions)
        counts["accepted entries"] += len(result.block.entries) if result.block else 0
        return result

    monkeypatch.setattr(dht.DhtNetwork, "put", counted_put)
    monkeypatch.setattr(vehiclesim, "identity_hash", counted_identity_hash)
    monkeypatch.setattr(ledger.FullNode, "append_submissions", counted_append)
    return counts


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_work_grows_linearly(monkeypatch, work, workload):
    workloads = load_from_file("perfbench_workloads", WORKLOADS)
    monkeypatch.setattr(workloads, "FLEET_ATTACKS", {})
    knob, sizes = SIZES[workload]
    rows = []
    for size in sizes:
        monkeypatch.setattr(workloads, knob, size)
        scenario = parse_scenario(workloads.build(workload, 1).scenario)
        assert len(scenario.lanes) * scenario.duration_s == size * workloads.DAY
        work.clear()
        result = run_scenario(scenario)
        work["file_record bytes"] = sum(len(block.file_record()) for block in result.blocks)
        rows.append(dict(work))
    for name in rows[0]:
        series = [row[name] for row in rows]
        assert series[0] > 0, (name, series)
        assert all(b <= LINEAR_GROWTH * a for a, b in zip(series, series[1:])), (name, series)
