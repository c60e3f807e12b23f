from __future__ import annotations

import random

import pytest

from autobox.auditcore import EventType, identity_hash
from autobox.dht import (
    CheckpointRequired,
    DhtNetwork,
    NodeUnavailable,
    detect_discrepancy,
    node_id_for_serial,
    owner_of,
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

    def test_hops_count_bus_hops(self):
        """0 from the closest live node itself, 1 from any other member."""
        rng = random.Random(8)
        ids = [random_id(rng) for _ in range(4)]
        network = build_network(ids)
        key = random_id(rng)
        owner = owner_of(key, ids)
        assert network.locate(owner, key) == (owner, 0)
        for origin in ids:
            if origin != owner:
                assert network.locate(origin, key) == (owner, 1)

    def test_locate_rejects_unknown_origin(self):
        rng = random.Random(8)
        ids = [random_id(rng) for _ in range(4)]
        network = build_network(ids)
        with pytest.raises(NodeUnavailable):
            network.locate(random_id(rng), "ab" * 32)

    def test_failed_origin_still_places(self):
        """A failed node loses its storage role, not its module's voice."""
        rng = random.Random(9)
        ids = [random_id(rng) for _ in range(4)]
        network = build_network(ids)
        network.fail_node(ids[0])
        record = make_record(sim_time=3)
        receipt = network.put(ids[0], record)
        assert receipt.stored_at == owner_of(record.record_key, ids[1:])
        assert receipt.hops == 1
        assert network.node(ids[0]).record_count == 0

    def test_no_live_node_raises(self):
        rng = random.Random(10)
        ids = [random_id(rng) for _ in range(3)]
        network = build_network(ids)
        for node_id in ids:
            network.fail_node(node_id)
        with pytest.raises(NodeUnavailable):
            network.put(ids[1], make_record())
        network.recover_node(ids[2])
        assert network.put(ids[1], make_record()).stored_at == ids[2]

    def test_puts_match_owner_on_512_nodes(self):
        """Membership changes rebuild nothing, so a large network is cheap."""
        rng = random.Random(512)
        ids = [random_id(rng) for _ in range(512)]
        network = build_network(ids)
        for i in range(1000):
            record = make_record("ECU", sim_time=i)
            receipt = network.put(ids[rng.randrange(512)], record)
            assert receipt.stored_at == owner_of(record.record_key, ids)


class TestPutGet:
    def test_duplicate_put_idempotent(self):
        node = node_id_for_serial("solo")
        network = build_network([node])
        record = make_record()
        first = network.put(node, record)
        second = network.put(node, record)
        assert second == first
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
        assert detect_discrepancy({"ECU": 50000, "TCM": 50000, "BCM": 50000}) == frozenset()

    def test_minority_flagged(self):
        readings = {"ECU": 20000, "TCM": 50000, "BCM": 50000}
        minority = detect_discrepancy(readings)
        assert minority == frozenset({"ECU"})
        assert minority != frozenset(readings)  # not a tie

    def test_exact_tie_flags_everyone(self):
        readings = {"A": 1, "B": 2}
        assert detect_discrepancy(readings) == frozenset(readings) == frozenset({"A", "B"})

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError):
            detect_discrepancy({"ECU": "X"})

    def test_permutation_invariance(self):
        rng = random.Random(16)
        readings = {f"M{i}": (1 if i < 3 else 2) for i in range(7)}
        reference = detect_discrepancy(readings)
        assert reference == frozenset({"M0", "M1", "M2"})
        items = list(readings.items())
        for _ in range(20):
            rng.shuffle(items)
            assert detect_discrepancy(dict(items)) == reference


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
        network.cover()
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
        network.cover()
        # Store is near its cap; covered records now make room.
        for i in range(10):
            record = make_record("ECU", sim_time=100 + i)
            receipt = network.put(node, record)
            assert network.node(node).store_bytes <= 400
            if receipt.evicted:
                break
        else:
            pytest.fail("no eviction happened")

    def test_never_evicts_records_put_after_cover(self):
        network, node = self.small_network(limit=600)
        old = self.fill(network, node, 2)
        network.cover()
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
                assert hops == int(located != origin)

    def test_placement_under_failure_equals_live_scan(self):
        """Up to a third of 2-32 nodes failed: puts land on the live owner."""
        rng = random.Random(42)  # a greedy walk over routing tables misses 6 of these puts
        pool = [make_record("ECU", sim_time=t) for t in range(256)]
        for _ in range(300):
            n = rng.randint(2, 32)
            ids = [random_id(rng) for _ in range(n)]
            network = build_network(ids)
            failed = set(rng.sample(ids, rng.randint(0, n // 3)))
            for node_id in failed:
                network.fail_node(node_id)
            live = [node_id for node_id in ids if node_id not in failed]
            for _ in range(40):
                record = pool[rng.randrange(len(pool))]
                receipt = network.put(live[rng.randrange(len(live))], record)
                assert receipt.stored_at == owner_of(record.record_key, live)
                assert receipt.fallback == (receipt.stored_at != owner_of(record.record_key, ids))
