from __future__ import annotations

import random

import pytest

from autobox.auditcore import EventType, identity_hash
from autobox.dht import (
    CheckpointRequired,
    DhtNetwork,
    NodeUnavailable,
    node_id_for_serial,
)

from conftest import dht_node, make_metadata, node_ids, owner_of, store_bytes, stored_records


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
        assert len(stored_records(dht_node(network, ids[0]))) == 0

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
        assert first.stored and not second.stored
        assert second == first._replace(stored=False)
        assert len(stored_records(dht_node(network, node))) == 1

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
        assert stored_records(dht_node(network, receipt.stored_at)).get(record.record_key) == record


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
        assert dht_node(network, node).evict(10) == []

    def test_checkpointed_oldest_evicted_first(self):
        network, node = self.small_network()
        records = self.fill(network, node, 3)
        network.cover()
        size = len(records[0].line)
        store = dht_node(network, node)
        evicted = store.evict(store_bytes(store) + size - 512 + size)
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
        store = dht_node(network, node)
        before = len(stored_records(store))
        with pytest.raises(CheckpointRequired):
            store.evict(400)
        assert len(stored_records(store)) == before
        for record in records:
            assert stored_records(store).get(record.record_key) is not None

    def test_put_evicts_after_checkpoint(self):
        network, node = self.small_network(limit=400)
        self.fill(network, node, 2)
        network.cover()
        # Store is near its cap; covered records now make room.
        for i in range(10):
            record = make_record("ECU", sim_time=100 + i)
            receipt = network.put(node, record)
            assert store_bytes(dht_node(network, node)) <= 400
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
        store = dht_node(network, node)
        freeable = (600 - store_bytes(store)) + sum(len(r.line) for r in old)
        evicted = store.evict(freeable)
        assert set(evicted) == {r.record_key for r in old}
        for record in newer:
            assert stored_records(store).get(record.record_key) is not None

    def test_needed_bytes_over_limit_rejected(self):
        network, node = self.small_network(limit=400)
        with pytest.raises(ValueError):
            dht_node(network, node).evict(401)


class _ReferenceStores:
    """Store semantics kept the plain way: a covered flag on every record.

    Sizes come from the dump line, so the model shares no derived value
    with the network under test.
    """

    def __init__(self, ids, limit):
        self.limit = limit
        self.stores = {node_id: {} for node_id in ids}  # key -> [record, covered]
        self.failed = set()

    @staticmethod
    def size(record):
        return len(record.dump_line().encode("utf-8")) + 1

    def used(self, node_id):
        return sum(self.size(r) for r, _ in self.stores[node_id].values())

    def put(self, record):
        live = [n for n in self.stores if n not in self.failed]
        if not live:
            raise NodeUnavailable("no live node")
        target = owner_of(record.record_key, live)
        if record.record_key in self.stores[target]:
            return target, ()
        evicted = self.evict(target, self.size(record))
        self.stores[target][record.record_key] = [record, False]
        return target, tuple(evicted)

    def evict(self, node_id, needed):
        if needed > self.limit:
            raise ValueError("needed_bytes exceeds the store limit")
        store = self.stores[node_id]
        free = self.limit - self.used(node_id)
        if free >= needed:
            return []
        eligible = sorted(
            (r for r, covered in store.values() if covered),
            key=lambda r: (r.sim_time, r.record_key),
        )
        if free + sum(self.size(r) for r in eligible) < needed:
            raise CheckpointRequired(node_id, needed)
        evicted = []
        for record in eligible:
            if free >= needed:
                break
            del store[record.record_key]
            free += self.size(record)
            evicted.append(record.record_key)
        return evicted

    def cover(self):
        for store in self.stores.values():
            for entry in store.values():
                entry[1] = True


def _outcome(call):
    try:
        return ("ok", call())
    except CheckpointRequired as exc:
        return ("checkpoint", exc.node_id, exc.needed_bytes)
    except (NodeUnavailable, ValueError) as exc:
        return ("raise", type(exc))


class TestCoveredPrefixProperty:
    def test_random_operations_match_per_record_flags(self):
        """put/cover/evict/fail/recover on small stores: the covered count
        behaves exactly like a covered flag on every record."""
        rng = random.Random(2021)
        modules = ("ECU", "BCM", "TELEMATICS")
        pool = [
            make_record(rng.choice(modules), sim_time=rng.choice((t, 10 ** 6 + t)),
                        event=rng.choice(list(EventType)))
            for t in range(80)
        ]
        largest = max(len(r.dump_line()) + 1 for r in pool)
        checkpoints = evictions = 0
        for _ in range(40):
            ids = [random_id(rng) for _ in range(rng.randint(1, 4))]
            limit = rng.randint(largest, 5 * largest)
            network = build_network(ids, store_limit=limit)
            model = _ReferenceStores(ids, limit)
            for _ in range(150):
                op = rng.random()
                if op < 0.6:
                    origin, record = rng.choice(ids), rng.choice(pool)
                    got = _outcome(lambda: network.put(origin, record)[::3])  # stored_at, evicted
                    want = _outcome(lambda: model.put(record))
                elif op < 0.7:
                    network.cover()
                    model.cover()
                    got = want = None
                elif op < 0.85:
                    node_id, needed = rng.choice(ids), rng.randint(1, limit + 8)
                    got = _outcome(lambda: (node_id, tuple(dht_node(network, node_id).evict(needed))))
                    want = _outcome(lambda: (node_id, tuple(model.evict(node_id, needed))))
                elif op < 0.93:
                    node_id = rng.choice(ids)
                    network.fail_node(node_id)
                    model.failed.add(node_id)
                    got = want = None
                else:
                    node_id = rng.choice(ids)
                    network.recover_node(node_id)
                    model.failed.discard(node_id)
                    got = want = None
                assert got == want
                if got is not None:
                    checkpoints += got[0] == "checkpoint"
                    evictions += got[0] == "ok" and bool(got[1][1])
                for node_id in ids:
                    node = dht_node(network, node_id)
                    records = list(stored_records(node).values())
                    assert records == [r for r, _ in model.stores[node_id].values()]
                    assert store_bytes(node) == model.used(node_id)
        assert checkpoints > 500 and evictions > 500  # both paths well exercised


class TestEvictionTieBreak:
    def test_records_at_one_sim_time_leave_in_record_key_order(self):
        """3-5 records per sim_time, put at shuffled times with covers between
        puts at one sim_time: among covered records that share a sim_time,
        eviction follows record_key, as in the per-record-flag model, not
        insertion order."""
        rng = random.Random(2604)
        kinds = [(m, e) for m in ("ECU", "BCM", "TELEMATICS", "TCM") for e in EventType]
        groups = [
            [make_record(m, sim_time=t, event=e) for m, e in rng.sample(kinds, rng.randint(3, 5))]
            for t in rng.sample(range(10 ** 6), 40)
        ]
        time_of = {r.record_key: r.sim_time for group in groups for r in group}
        largest = max(len(r.line) for group in groups for r in group)
        ties = 0  # evictions that chose among covered records of one sim_time
        for _ in range(20):
            ids = [random_id(rng) for _ in range(rng.randint(1, 2))]
            limit = rng.randint(3 * largest, 8 * largest)
            network = build_network(ids, store_limit=limit)
            model = _ReferenceStores(ids, limit)
            for group in rng.sample(groups, len(groups)):
                for record in rng.sample(group, len(group)):
                    got = _outcome(lambda: network.put(ids[0], record)[::3])  # stored_at, evicted
                    assert got == _outcome(lambda: model.put(record))
                    if got[0] == "checkpoint":  # capture, then the put goes through
                        network.cover()
                        model.cover()
                        got = ("ok", network.put(ids[0], record)[::3])
                        assert got == ("ok", model.put(record))
                    stored_at, evicted = got[1]
                    left = [r.sim_time for r, flag in model.stores[stored_at].values() if flag]
                    times = [time_of[key] for key in evicted]
                    ties += any(t in left or times.count(t) > 1 for t in times)
                    if rng.random() < 0.3:
                        network.cover()
                        model.cover()
                for node_id in ids:
                    records = list(stored_records(dht_node(network, node_id)).values())
                    assert records == [r for r, _ in model.stores[node_id].values()]
        assert ties > 1000


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


class TestMembershipChurn:
    def test_placement_follows_the_oracle_under_churn(self):
        """add_node, remove_node (as ModuleSwap does), fail_node, recover_node,
        repeats and unknown ids included, and put, interleaved: after every
        step placement, fallback and is_live agree with a plain model."""
        rng = random.Random(2510)
        pool = [make_record("ECU", sim_time=t) for t in range(128)]
        fallbacks = removed_failed = 0
        for _ in range(60):
            ids = [random_id(rng) for _ in range(rng.randint(1, 8))]
            network = build_network(ids)
            live = dict.fromkeys(ids, True)  # member -> live, in joining order
            gone: list[str] = []  # removed ids, which may join again
            for _ in range(80):
                members, op = list(live), rng.random()
                candidates = members + gone + [random_id(rng)]
                if op < 0.15:
                    node_id = rng.choice(candidates)
                    if node_id in live:
                        with pytest.raises(ValueError):
                            network.add_node(node_id)
                    else:
                        network.add_node(node_id)
                        live[node_id] = True
                        gone = [n for n in gone if n != node_id]
                elif op < 0.3 and members:
                    node_id = rng.choice(members)
                    network.remove_node(node_id)
                    removed_failed += not live.pop(node_id)
                    gone.append(node_id)
                elif op < 0.6:
                    node_id, up = rng.choice(candidates), op >= 0.45
                    change = network.recover_node if up else network.fail_node
                    if node_id in live:
                        change(node_id)
                        live[node_id] = up
                    else:
                        with pytest.raises(NodeUnavailable):
                            change(node_id)
                elif members:
                    origin, record = rng.choice(members), rng.choice(pool)
                    up = [n for n in members if live[n]]
                    if not up:
                        with pytest.raises(NodeUnavailable):
                            network.put(origin, record)
                    else:
                        receipt = network.put(origin, record)
                        owner = owner_of(record.record_key, members)
                        assert receipt.stored_at == owner_of(record.record_key, up)
                        assert receipt.fallback == (receipt.stored_at != owner)
                        fallbacks += receipt.fallback
                members, up = list(live), [n for n in live if live[n]]
                assert node_ids(network) == members
                for node_id in members + gone + [random_id(rng)]:
                    assert network.is_live(node_id) == live.get(node_id, False)
                for origin in members:
                    key = random_id(rng)
                    if up:
                        located, hops = network.locate(origin, key)
                        assert located == owner_of(key, up)
                        assert hops == int(located != origin)
                    else:
                        with pytest.raises(NodeUnavailable):
                            network.locate(origin, key)
        assert fallbacks > 100 and removed_failed > 50  # both paths well exercised
