from __future__ import annotations

import random

import pytest

from autobox.auditcore import EventType, identity_hash
from autobox.dht import (
    BUCKET_CAPACITY,
    CheckpointRequired,
    DhtNetwork,
    NodeUnavailable,
    detect_discrepancy,
    node_id_for_serial,
    owner_of,
    shared_prefix_length,
    xor_distance,
)

from conftest import make_metadata


def random_id(rng: random.Random) -> str:
    return f"{rng.getrandbits(256):064x}"


def build_network(ids, store_limit=1 << 20) -> DhtNetwork:
    network = DhtNetwork(store_limit_bytes=store_limit)
    for node_id in ids:
        network.add_node(node_id)
    return network


def make_record(module_id="ECU", sim_time=0, event=EventType.PERIODIC_INTERVAL, **overrides):
    return identity_hash(make_metadata(module_id, **overrides), sim_time, event)


class TestOwnerOf:
    def test_single_node_owns_everything(self):
        node = node_id_for_serial("only")
        assert owner_of("ab" * 32, [node]) == node

    def test_key_equal_to_node_id(self):
        rng = random.Random(7)
        ids = [random_id(rng) for _ in range(8)]
        assert owner_of(ids[3], ids) == ids[3]

    def test_empty_node_set_rejected(self):
        with pytest.raises(ValueError):
            owner_of("ab" * 32, [])

    def test_matches_exhaustive_scan(self):
        """8 nodes x 100 keys against an in-test brute-force oracle."""
        rng = random.Random(2024)
        ids = [random_id(rng) for _ in range(8)]
        for _ in range(100):
            key = random_id(rng)
            best = None
            best_d = None
            for node in ids:
                d = int(node, 16) ^ int(key, 16)
                if best_d is None or d < best_d:
                    best, best_d = node, d
            assert owner_of(key, ids) == best


class TestHelpers:
    def test_xor_distance_identity(self):
        a = "ab" * 32
        assert xor_distance(a, a) == 0

    def test_shared_prefix_length(self):
        a = "0" * 64
        b = "0" * 63 + "1"  # differs only in the lowest 4-bit nibble
        assert shared_prefix_length(a, b) == 255
        c = "8" + "0" * 63
        assert shared_prefix_length(a, c) == 0

    def test_node_id_is_serial_digest(self):
        assert node_id_for_serial("X") == node_id_for_serial("X")
        assert node_id_for_serial("X") != node_id_for_serial("Y")


class TestRouting:
    def test_one_node_network_zero_hops(self):
        node = node_id_for_serial("solo")
        network = build_network([node])
        record = make_record()
        receipt = network.put(node, record)
        assert receipt.stored_at == node
        assert receipt.hops == 0
        assert not receipt.fallback

    def test_put_lands_on_owner_16_nodes_200_records(self):
        rng = random.Random(99)
        ids = [random_id(rng) for _ in range(16)]
        network = build_network(ids)
        for i in range(200):
            record = make_record("ECU", sim_time=i)
            origin = ids[rng.randrange(16)]
            receipt = network.put(origin, record)
            assert receipt.stored_at == owner_of(record.record_key, ids)
            assert not receipt.fallback

    def test_bucket_capacity_respected(self):
        rng = random.Random(5)
        ids = [random_id(rng) for _ in range(32)]
        network = build_network(ids)
        for node_id in ids:
            for bucket in network.node(node_id).routing_table.values():
                assert 0 < len(bucket) <= BUCKET_CAPACITY
                assert node_id not in bucket

    def test_routing_tables_are_partial_at_scale(self):
        rng = random.Random(6)
        ids = [random_id(rng) for _ in range(32)]
        network = build_network(ids)
        known = [
            sum(len(b) for b in network.node(n).routing_table.values()) for n in ids
        ]
        assert any(k < 31 for k in known)

    def test_locate_requires_live_origin(self):
        rng = random.Random(8)
        ids = [random_id(rng) for _ in range(4)]
        network = build_network(ids)
        network.fail_node(ids[0])
        with pytest.raises(NodeUnavailable):
            network.locate(ids[0], "ab" * 32)


class TestPutGet:
    def test_duplicate_put_idempotent(self):
        node = node_id_for_serial("solo")
        network = build_network([node])
        record = make_record()
        first = network.put(node, record)
        second = network.put(node, record)
        assert second.sequence == first.sequence
        assert network.node(node).record_count == 1

    def test_fallback_placement_and_recovery_read(self):
        """Owner down at write time: record lands next-closest, stays readable."""
        rng = random.Random(13)
        ids = [random_id(rng) for _ in range(8)]
        network = build_network(ids)
        record = make_record(sim_time=9)
        ideal = owner_of(record.record_key, ids)
        network.fail_node(ideal)
        origin = next(n for n in ids if n != ideal)
        receipt = network.put(origin, record)
        assert receipt.fallback
        assert receipt.stored_at != ideal
        live = [n for n in ids if n != ideal]
        assert receipt.stored_at == owner_of(record.record_key, live)
        assert network.node(receipt.stored_at).get(record.record_key) == record


class TestDetectDiscrepancy:
    def test_consistent(self):
        report = detect_discrepancy(
            "odometer_km", {"ECU": 50000, "TCM": 50000, "BCM": 50000}
        )
        assert report.consistent
        assert report.minority == frozenset()

    def test_minority_flagged(self):
        report = detect_discrepancy(
            "odometer_km", {"ECU": 20000, "TCM": 50000, "BCM": 50000}
        )
        assert not report.consistent
        assert report.minority == frozenset({"ECU"})
        assert not report.tie

    def test_exact_tie_flags_everyone(self):
        report = detect_discrepancy("odometer_km", {"A": 1, "B": 2})
        assert not report.consistent
        assert report.tie
        assert report.minority == frozenset({"A", "B"})

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError):
            detect_discrepancy("vin", {"ECU": "X"})

    def test_permutation_invariance(self):
        rng = random.Random(16)
        readings = {f"M{i}": (1 if i < 3 else 2) for i in range(7)}
        reference = detect_discrepancy("f", readings)
        items = list(readings.items())
        for _ in range(20):
            rng.shuffle(items)
            report = detect_discrepancy("f", dict(items))
            assert report.minority == reference.minority
            assert report.consistent == reference.consistent


class TestEviction:
    def small_network(self, limit=512):
        node = node_id_for_serial("solo")
        return build_network([node], store_limit=limit), node

    def fill(self, network, node, count, start_time=0):
        records = []
        for i in range(count):
            record = make_record("ECU", sim_time=start_time + i)
            network.put(node, record)
            records.append(record)
        return records

    def test_below_limit_no_eviction(self):
        network, node = self.small_network()
        self.fill(network, node, 2)
        assert network.node(node).evict(10) == []

    def test_checkpointed_oldest_evicted_first(self):
        network, node = self.small_network()
        records = self.fill(network, node, 3)
        network.advance_checkpoint_floor(network.sequence + 1)
        size = network.node(node).record_size(records[0])
        evicted = network.node(node).evict(network.node(node).store_bytes + size - 512 + size)
        assert evicted  # at least the oldest went
        assert evicted[0] == min(
            (r for r in records), key=lambda r: (r.sim_time, r.record_key)
        ).record_key

    def test_uncheckpointed_store_raises(self):
        network, node = self.small_network(limit=400)
        with pytest.raises(CheckpointRequired):
            self.fill(network, node, 10)

    def test_eviction_is_atomic_on_failure(self):
        network, node = self.small_network(limit=400)
        records = self.fill(network, node, 2)
        before = network.node(node).record_count
        with pytest.raises(CheckpointRequired):
            network.node(node).evict(400)
        assert network.node(node).record_count == before
        for record in records:
            assert network.node(node).get(record.record_key) is not None

    def test_put_evicts_after_checkpoint(self):
        network, node = self.small_network(limit=400)
        self.fill(network, node, 2)
        network.advance_checkpoint_floor(network.sequence + 1)
        # Store is near its cap; covered records now make room.
        for i in range(10):
            record = make_record("ECU", sim_time=100 + i)
            receipt = network.put(node, record)
            assert network.node(node).store_bytes <= 400
            if receipt.evicted:
                break
        else:
            pytest.fail("no eviction happened")

    def test_never_evicts_at_or_above_floor(self):
        network, node = self.small_network(limit=600)
        old = self.fill(network, node, 2)
        floor = network.sequence + 1
        network.advance_checkpoint_floor(floor)
        newer = self.fill(network, node, 1, start_time=50)
        # Ask for exactly what the covered records can free up.
        store = network.node(node)
        freeable = (600 - store.store_bytes) + sum(store.record_size(r) for r in old)
        evicted = store.evict(freeable)
        assert set(evicted) == {r.record_key for r in old}
        for record in newer:
            assert store.get(record.record_key) is not None

    def test_needed_bytes_over_limit_rejected(self):
        network, node = self.small_network(limit=400)
        with pytest.raises(ValueError):
            network.node(node).evict(401)


class TestOwnershipOracleProperty:
    def test_placement_equals_scan_on_random_networks(self):
        """Fully-live networks (up to 32 nodes): routing equals the oracle."""
        rng = random.Random(314159)
        for _ in range(60):
            n = rng.randint(2, 32)
            ids = [random_id(rng) for _ in range(n)]
            network = build_network(ids)
            for _ in range(20):
                key = random_id(rng)
                origin = ids[rng.randrange(n)]
                located, hops = network.locate(origin, key)
                assert located == owner_of(key, ids)
                assert hops <= n
