from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import pytest

from autobox.auditcore import AuditRecord, EventType, compute_record_key, identity_hash
from autobox import masternode
from autobox.dht import CheckpointRequired, DhtNetwork, node_id_for_serial
from autobox.vehiclesim import Vehicle, parse_scenario, run_scenario
from autobox.masternode import (
    MasterNode,
    Submission,
    WIRE_LINE,
    meta_digest,
)

from conftest import (
    EMPTY_SHA256,
    chain_digests,
    dht_node,
    load_from_file,
    make_metadata,
    owner_of,
    store_bytes,
    stored_records,
)

VKEY = "ab" * 32
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def single_node_setup(store_limit=1 << 20):
    network = DhtNetwork(store_limit_bytes=store_limit)
    node = node_id_for_serial("solo")
    network.add_node(node)
    master = MasterNode(network)
    return network, node, master


def make_record(module_id="ECU", sim_time=0, **overrides):
    return identity_hash(
        make_metadata(module_id, **overrides), sim_time, EventType.PERIODIC_INTERVAL
    )


class TestMetaDigest:
    def test_empty_set_is_empty_sha256(self):
        assert meta_digest([]) == EMPTY_SHA256

    def test_order_free(self):
        pairs = [("aa" * 32, "bb" * 32), ("cc" * 32, "dd" * 32)]
        assert meta_digest(pairs) == meta_digest(reversed(pairs))
        assert meta_digest(pairs, b"\x01" * 32) == meta_digest(reversed(pairs), b"\x01" * 32)

    def test_matches_chain_link_oracle(self):
        """Independent oracle: the previous raw digest, then the segment's
        raw pairs sorted as bytes, hashed once."""
        rng = random.Random(60)
        for size in (0, 1, 3, 40, 300):
            pairs = [
                (f"{rng.getrandbits(256):064x}", f"{rng.getrandbits(256):064x}")
                for _ in range(size)
            ]
            for prev in (b"", rng.randbytes(32)):
                raw = sorted(bytes.fromhex(k) + bytes.fromhex(p) for k, p in pairs)
                expected = hashlib.sha256(prev + b"".join(raw)).hexdigest()
                assert meta_digest(pairs, prev) == expected

    def test_hand_computed_vector(self):
        """Two links: keys 0x00.. and 0x03.. in the first segment, 0xfc.. in
        the second, hashed after the first link's raw digest."""
        k0, p0 = "00" * 32, "11" * 32
        k1, p1 = "03" + "ff" * 31, "22" * 32
        k2, p2 = "fc" + "00" * 31, "33" * 32
        first = hashlib.sha256(bytes.fromhex(k0 + p0 + k1 + p1)).hexdigest()
        assert first == "d160fc092046aa999eff35166124b797b439ccb208b07a39b5a5a44beac5f962"
        assert meta_digest([(k1, p1), (k0, p0)]) == first
        second = hashlib.sha256(bytes.fromhex(first + k2 + p2)).hexdigest()
        assert second == "d6d31a79d13f0b90121b7dd18e3cca0e0bf40a52f738daef8e248d3e7ece336e"
        assert meta_digest([(k2, p2)], bytes.fromhex(first)) == second
        assert chain_digests([[(k0, p0), (k1, p1)], [(k2, p2)]]) == [first, second]


class TestMirror:
    def test_put_mirrors_a_new_record(self):
        _, node, master = single_node_setup()
        record = make_record(sim_time=1)
        assert master.put(node, record).stored
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 2, VKEY)
        assert mh.digest == meta_digest([(record.record_key, record.payload_hash)])
        assert mh.covered_records == 1

    def test_re_put_of_a_stored_key_mirrors_nothing(self):
        """Idempotent re-put: the store keeps its record, the receipt says
        nothing was stored, and the mirror does not grow, before a capture
        and after one."""
        network, node, master = single_node_setup()
        record = make_record(sim_time=1)
        first = master.put(node, record)
        assert not master.put(node, record).stored
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 2, VKEY)
        assert not master.put(node, record).stored
        assert mh.covered_records == 1
        after = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 3, VKEY)
        assert after.covered_records == 1
        assert after.digest == meta_digest([], bytes.fromhex(mh.digest))
        assert stored_records(dht_node(network, node)) == {record.record_key: record}
        assert first.stored

    def test_mirror_counts_all_records_across_nodes(self):
        rng = random.Random(61)
        network = DhtNetwork(store_limit_bytes=1 << 20)
        nodes = []
        for i in range(8):
            node = node_id_for_serial(f"mod-{i}")
            network.add_node(node)
            nodes.append(node)
        master = MasterNode(network)
        for i in range(100):
            record = make_record("ECU", sim_time=i)
            master.put(nodes[rng.randrange(8)], record)
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 100, VKEY)
        assert mh.covered_records == 100

    def test_repeated_record_is_mirrored_once(self):
        """A key fixes its payload hash: a forged twin cannot be made."""
        _, node, master = single_node_setup()
        record = make_record(sim_time=1)
        forged = replace(record, payload_hash="00" * 32)
        assert forged.record_key == compute_record_key(
            forged.module_id, forged.event_type, forged.sim_time, forged.payload_hash
        )
        assert forged.record_key != record.record_key
        with pytest.raises(TypeError):
            AuditRecord(
                record_key=record.record_key,
                module_id=record.module_id,
                event_type=record.event_type,
                sim_time=record.sim_time,
                payload_hash="00" * 32,
            )
        master.put(node, record)
        master.put(node, make_record(sim_time=1))
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 2, VKEY)
        assert mh.covered_records == 1
        assert mh.digest == meta_digest([(record.record_key, record.payload_hash)])

    def test_random_orders_with_repeats_match_reference_digest(self):
        """Any insertion order, keys repeated, captures at random points: each
        capture equals the reference fold over the segments of new records."""
        rng = random.Random(62)
        records = [make_record("ECU", sim_time=t) for t in range(40)]
        pair = {r.record_key: (r.record_key, r.payload_hash) for r in records}
        for _ in range(8):
            _, node, master = single_node_setup()
            feed = records + [rng.choice(records) for _ in range(25)]
            rng.shuffle(feed)
            segments: list[list[tuple[str, str]]] = [[]]
            seen: set[str] = set()
            for record in feed:
                master.put(node, record)
                if record.record_key not in seen:
                    seen.add(record.record_key)
                    segments[-1].append(pair[record.record_key])
                if rng.random() < 0.1:
                    master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10, VKEY)
                    segments.append([])
            mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10, VKEY)
            assert [c.digest for c in master.captures] == chain_digests(segments)
            assert mh.covered_records == len(records)


class TestReputAcrossNodeFailure:
    """One record put twice at one sim_time, its store failed in between: the
    second put lands on another store, which takes it as new, so its pair
    is mirrored again, in whichever segment the second put falls."""

    def two_node_setup(self):
        network = DhtNetwork(store_limit_bytes=1 << 20)
        nodes = [node_id_for_serial(f"pair-{i}") for i in range(2)]
        for node in nodes:
            network.add_node(node)
        return network, nodes, MasterNode(network)

    def fail_holder_and_re_put(self, network, nodes, master, record):
        holder = owner_of(record.record_key, nodes)
        network.fail_node(holder)
        receipt = master.put(holder, record)
        assert receipt.stored and receipt.fallback and receipt.stored_at != holder
        network.recover_node(holder)
        # Back on the owner, which still holds the key: nothing new is stored.
        assert not master.put(holder, record).stored

    def test_inside_one_capture_segment(self):
        network, nodes, master = self.two_node_setup()
        record = make_record(sim_time=7)
        pair = (record.record_key, record.payload_hash)
        assert master.put(nodes[0], record).stored
        self.fail_holder_and_re_put(network, nodes, master, record)
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 7, VKEY)
        assert mh.covered_records == 2
        assert [mh.digest] == chain_digests([[pair, pair]])

    def test_across_a_capture(self):
        network, nodes, master = self.two_node_setup()
        record = make_record(sim_time=7)
        pair = (record.record_key, record.payload_hash)
        assert master.put(nodes[0], record).stored
        assert master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 7, VKEY).covered_records == 1
        self.fail_holder_and_re_put(network, nodes, master, record)
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 7, VKEY)
        assert mh.covered_records == 2
        assert [c.digest for c in master.captures] == chain_digests([[pair], [pair]])


class TestCapture:
    def test_empty_mirror_digest_is_empty_constant(self):
        _, _, master = single_node_setup()
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 3600, VKEY)
        assert mh.digest == EMPTY_SHA256
        assert mh.covered_records == 0
        assert mh.checkpoint_seq == 1

    def test_insertion_order_does_not_matter(self):
        records = [make_record("ECU", sim_time=t) for t in range(5)]
        digests = []
        for ordering in (records, list(reversed(records))):
            _, node, master = single_node_setup()
            for record in ordering:
                master.put(node, record)
            digests.append(
                master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10, VKEY).digest
            )
        assert digests[0] == digests[1]

    def test_checkpoint_seq_strictly_increases(self):
        _, _, master = single_node_setup()
        captures = [
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, VKEY)
            for t in (10, 20, 30)
        ]
        assert [mh.checkpoint_seq for mh in captures] == [1, 2, 3]
        assert master.captures == captures

    def test_capture_makes_earlier_records_evictable(self):
        network, node, master = single_node_setup()
        earlier = [make_record(sim_time=t) for t in range(3)]
        for record in earlier:
            master.put(node, record)
        master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 99, VKEY)
        later = [make_record(sim_time=t) for t in range(100, 103)]
        for record in later:
            master.put(node, record)
        store = dht_node(network, node)
        freeable = store.store_limit_bytes - store_bytes(store)
        freeable += sum(len(r.line) for r in earlier)
        with pytest.raises(CheckpointRequired):  # the later records stay put
            store.evict(freeable + 1)
        assert set(store.evict(freeable)) == {r.record_key for r in earlier}
        for record in later:
            assert stored_records(store).get(record.record_key) == record

    def test_capture_hashes_only_its_segment(self, monkeypatch):
        """Each capture hashes the previous 32-byte digest, if any, and the
        64-byte pairs mirrored since, whatever the history before them."""
        hashed = [0]

        class CountingSha256:
            def __init__(self, data=b""):
                self._h = hashlib.sha256()
                self.update(data)

            def update(self, data):
                hashed[0] += len(data)
                self._h.update(data)

            def digest(self):
                return self._h.digest()

            def hexdigest(self):
                return self._h.hexdigest()

        records = [make_record("ECU", sim_time=t) for t in range(230)]
        _, node, master = single_node_setup()
        monkeypatch.setattr(masternode, "hashlib", SimpleNamespace(sha256=CountingSha256))
        segments = []
        for batch in (records[:200], records[200:203], [], records[:5], records[203:]):
            segment = []
            for record in batch:
                if master.put(node, record).stored:
                    segment.append((record.record_key, record.payload_hash))
            segments.append(segment)
            hashed[0] = 0
            mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10, VKEY)
            assert hashed[0] == 64 * len(segment) + 32 * (len(segments) > 1)
            assert mh.covered_records == sum(map(len, segments))
        monkeypatch.undo()
        assert [mh.digest for mh in master.captures] == chain_digests(segments)

    def test_capture_retained_and_buffered(self):
        _, _, master = single_node_setup()
        mh = master.capture_meta_hash(EventType.REFLASH, 5, VKEY)
        assert master.buffer.pending == [
            Submission(VKEY, mh.checkpoint_seq, mh.digest, mh.trigger, mh.sim_time)
        ]


class TestChainCost:
    """Long-haul-like runs of 2, 4 and 8 days: captures cost their
    increments, so what they hash grows linearly with the horizon, and the
    master keeps nothing but its capture list that grows with it."""

    def test_capture_bytes_linear_and_state_flat(self, monkeypatch):
        workloads = load_from_file("perfbench_workloads", WORKLOADS)
        hashed = [0]
        sha256 = hashlib.sha256

        class CountingSha256:
            def __init__(self, data=b""):
                self._h = sha256()
                self.update(data)

            def update(self, data):
                hashed[0] += len(data)
                self._h.update(data)

            def digest(self):
                return self._h.digest()

            def hexdigest(self):
                return self._h.hexdigest()

        monkeypatch.setattr(masternode, "hashlib", SimpleNamespace(sha256=CountingSha256))
        costs, states = [], []
        for days in (2, 4, 8):
            monkeypatch.setattr(workloads, "LONG_HAUL_DAYS", days)
            scenario = parse_scenario(workloads.build("long-haul", 1).scenario)
            (lane,) = scenario.lanes
            vehicle = Vehicle(lane.config, [])
            hashed[0] = 0
            vehicle.run(lane.events, scenario.duration_s)
            costs.append(hashed[0])
            master = vehicle.master
            assert len(master.captures) >= 24 * days
            kept = vars(master).keys() - {"captures", "network"}
            states.append({name: deep_size(getattr(master, name)) for name in sorted(kept)})
        assert all(later <= 2.2 * earlier for earlier, later in zip(costs, costs[1:])), costs
        assert states[0] == states[1] == states[2]


    def test_long_haul_digests_fold_from_the_mirrors_increments(self, monkeypatch):
        """A whole run, a node failure and its recovery included: the digests
        are the reference fold over the pairs each store took as new."""
        workloads = load_from_file("perfbench_workloads", WORKLOADS)
        monkeypatch.setattr(workloads, "LONG_HAUL_DAYS", 2)
        segments: list[list[tuple[str, str]]] = [[]]
        put, capture = MasterNode.put, MasterNode.capture_meta_hash

        def logged_put(master, origin, record):
            receipt = put(master, origin, record)
            if receipt.stored:
                segments[-1].append((record.record_key, record.payload_hash))
            return receipt

        def logged_capture(master, *args):
            segments.append([])
            return capture(master, *args)

        monkeypatch.setattr(MasterNode, "put", logged_put)
        monkeypatch.setattr(MasterNode, "capture_meta_hash", logged_capture)
        result = run_scenario(parse_scenario(workloads.build("long-haul", 1).scenario))
        assert any('"node_failure"' in line for line in result.ground_truth)
        (outcome,) = result.vehicles
        assert [mh.digest for mh in outcome.captures] == chain_digests(segments[:-1])
        assert outcome.captures[-1].covered_records == sum(map(len, segments[:-1]))


def deep_size(value) -> int:
    """Bytes of a value and of the containers, dataclasses and values inside
    it; an enum member, shared by every holder, counts nothing."""
    if isinstance(value, Enum):
        return 0
    size = sys.getsizeof(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        size += sum(map(deep_size, value))
    elif isinstance(value, dict):
        size += sum(deep_size(k) + deep_size(v) for k, v in value.items())
    elif is_dataclass(value):
        size += sum(deep_size(getattr(value, f.name)) for f in fields(value))
    return size


class TestSubmitPending:
    def test_online_drains_all_in_order(self):
        _, _, master = single_node_setup()
        for t in (10, 20, 30):
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, VKEY)
        drained = master.submit_pending()
        assert len(drained) == 3
        assert master.buffer.pending == []
        assert [s.checkpoint_seq for s in drained] == [1, 2, 3]

    def test_offline_is_noop(self):
        _, _, master = single_node_setup()
        master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10, VKEY)
        master.online = False
        assert master.submit_pending() == []
        assert len(master.buffer.pending) == 1

    def test_backlog_drains_without_gaps_after_outage(self):
        _, _, master = single_node_setup()
        master.online = False
        for t in (10, 20):
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, VKEY)
        assert master.submit_pending() == []
        master.online = True
        drained = master.submit_pending()
        assert len(drained) == 2
        assert [s.checkpoint_seq for s in drained] == [1, 2]


class TestSubmissionWire:
    def test_wire_roundtrip(self):
        sub = Submission(
            vehicle_key=VKEY,
            checkpoint_seq=4,
            meta_digest="cd" * 32,
            trigger=EventType.REFLASH,
            sim_time=777,
        )
        line = sub.wire_line()
        assert line == f"{VKEY}|4|{'cd' * 32}|Reflash|777"
        assert WIRE_LINE.fullmatch(line.encode()) is not None
        assert Submission.from_line(line.encode()) == sub

    @pytest.mark.parametrize("trigger", list(EventType))
    def test_every_trigger_is_admissible(self, trigger):
        sub = Submission(VKEY, 1, "cd" * 32, trigger, 0)
        line = sub.wire_line().encode()
        assert WIRE_LINE.fullmatch(line) is not None and Submission.from_line(line) == sub


class TestEvictionCoupling:
    def test_record_evicted_only_after_coverage(self):
        """Cross-module: eviction at level 1 requires checkpoint coverage.

        Every evicted key must have been mirrored before the latest capture,
        i.e. some pending-or-submitted meta-hash covered it before it was
        dropped.
        """
        network = DhtNetwork(store_limit_bytes=512)
        node = node_id_for_serial("solo")
        network.add_node(node)
        master = MasterNode(network)
        evicted_keys: list[str] = []
        mirrored: list[str] = []  # keys in the order their pairs were mirrored
        covered = 0  # how many of them the latest capture covers
        for t in range(40):
            record = make_record("ECU", sim_time=t)
            try:
                receipt = master.put(node, record)
            except CheckpointRequired:
                covered = master.capture_meta_hash(
                    EventType.PERIODIC_INTERVAL, t, VKEY
                ).covered_records
                receipt = master.put(node, record)
            assert set(receipt.evicted) <= set(mirrored[:covered])
            if receipt.stored:
                mirrored.append(record.record_key)
            evicted_keys.extend(receipt.evicted)
        assert evicted_keys, "scenario never filled the store"
        assert master.buffer.pending  # captures queued, none lost

    def test_evictions_follow_the_latest_capture_on_random_networks(self):
        """Random puts, re-puts and captures on 2-6 nodes: a store drops only
        records stored by the most recent capture, never one stored since;
        a put is mirrored exactly when its target did not hold the key."""
        rng = random.Random(64)
        evictions = 0
        for trial in range(30):
            network = DhtNetwork(store_limit_bytes=rng.randint(400, 900))
            nodes = [node_id_for_serial(f"t{trial}-m{i}") for i in range(rng.randint(2, 6))]
            for node in nodes:
                network.add_node(node)
            master = MasterNode(network)
            mirrored = 0  # puts whose target took the record as new
            at_capture: set[str] = set()  # keys stored by the most recent capture
            since_capture: set[str] = set()  # keys stored after that capture

            def capture(t):
                mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, VKEY)
                assert mh.covered_records == mirrored
                at_capture.update(since_capture)
                since_capture.clear()

            pool = []
            for t in range(150):
                if rng.random() < 0.05:
                    capture(t)
                if pool and rng.random() < 0.2:
                    record = rng.choice(pool)  # a re-put, maybe of an evicted key
                else:
                    record = make_record("ECU", sim_time=t)
                    pool.append(record)
                key = record.record_key
                origin = rng.choice(nodes)
                target, _ = network.locate(origin, key)
                held = key in stored_records(dht_node(network, target))
                try:
                    receipt = master.put(origin, record)
                except CheckpointRequired:
                    capture(t)
                    receipt = master.put(origin, record)
                evicted = set(receipt.evicted)
                assert evicted <= at_capture
                assert not evicted & since_capture
                at_capture -= evicted
                evictions += len(evicted)
                assert receipt.stored is not held
                mirrored += receipt.stored
                if receipt.stored:
                    since_capture.add(key)
        assert evictions > 100
