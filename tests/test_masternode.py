from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from autobox.auditcore import EventType, MetadataError, identity_hash
from autobox.dht import CheckpointRequired, DhtNetwork, node_id_for_serial
from autobox.masternode import (
    MasterNode,
    Submission,
    WIRE_LINE,
    meta_digest,
)

from conftest import EMPTY_SHA256, make_metadata

VKEY = "ab" * 32


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

    def test_matches_sort_concat_oracle(self):
        """Independent oracle: sort dump pairs, concat raw bytes, hash once."""
        rng = random.Random(60)
        pairs = [
            (f"{rng.getrandbits(256):064x}", f"{rng.getrandbits(256):064x}")
            for _ in range(3)
        ]
        blob = b"".join(
            bytes.fromhex(k) + bytes.fromhex(p) for k, p in sorted(pairs)
        )
        assert meta_digest(pairs) == hashlib.sha256(blob).hexdigest()


class TestMirror:
    def test_put_then_mirror_contains_record(self):
        _, node, master = single_node_setup()
        record = make_record(sim_time=1)
        master.put(node, record)
        assert master.mirrored(record.record_key) == record.payload_hash

    def test_duplicate_mirror_update_idempotent(self):
        _, node, master = single_node_setup()
        record = make_record(sim_time=1)
        master.put(node, record)
        master.mirror_update(record)
        assert master.mirror_size == 1

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
        assert master.mirror_size == 100

    def test_repeated_record_is_mirrored_once(self):
        """A key fixes its payload hash: a forged twin cannot be made."""
        _, _, master = single_node_setup()
        record = make_record(sim_time=1)
        with pytest.raises(MetadataError):
            replace(record, payload_hash="00" * 32)
        master.mirror_update(record)
        master.mirror_update(make_record(sim_time=1))
        assert master.mirror_size == 1
        assert master.mirrored(record.record_key) == record.payload_hash

    def test_unknown_key_not_mirrored(self):
        _, _, master = single_node_setup()
        master.mirror_update(make_record(sim_time=1))
        assert master.mirrored("00" * 32) is None
        assert master.mirrored("ff" * 32) is None

    def test_random_orders_with_repeats_match_reference_digest(self):
        """Any insertion order, keys repeated: the capture equals meta_digest."""
        rng = random.Random(62)
        records = [make_record("ECU", sim_time=t) for t in range(40)]
        reference = meta_digest((r.record_key, r.payload_hash) for r in records)
        for _ in range(8):
            _, _, master = single_node_setup()
            feed = records + [rng.choice(records) for _ in range(25)]
            rng.shuffle(feed)
            for record in feed:
                master.mirror_update(record)
            assert master.mirror_size == len(records)
            mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10, VKEY)
            assert mh.digest == reference
            assert mh.covered_records == len(records)


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
        store = network.node(node)
        freeable = store.store_limit_bytes - store.store_bytes
        freeable += sum(store.record_size(r) for r in earlier)
        with pytest.raises(CheckpointRequired):  # the later records stay put
            store.evict(freeable + 1)
        assert set(store.evict(freeable)) == {r.record_key for r in earlier}
        for record in later:
            assert store.get(record.record_key) == record

    def test_capture_retained_and_buffered(self):
        _, _, master = single_node_setup()
        mh = master.capture_meta_hash(EventType.REFLASH, 5, VKEY)
        assert master.buffer.pending == [
            Submission(VKEY, mh.checkpoint_seq, mh.digest, mh.trigger, mh.sim_time)
        ]


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
        match = WIRE_LINE.fullmatch(line.encode())
        assert match is not None
        assert Submission.from_match(match) == sub

    @pytest.mark.parametrize("trigger", list(EventType))
    def test_every_trigger_is_admissible(self, trigger):
        sub = Submission(VKEY, 1, "cd" * 32, trigger, 0)
        match = WIRE_LINE.fullmatch(sub.wire_line().encode())
        assert match is not None and Submission.from_match(match) == sub


class TestEvictionCoupling:
    def test_record_evicted_only_after_coverage(self):
        """Cross-module: eviction at level 1 requires checkpoint coverage.

        Every evicted key must already sit in the master mirror, i.e. some
        pending-or-submitted meta-hash covered it before it was dropped.
        """
        network = DhtNetwork(store_limit_bytes=512)
        node = node_id_for_serial("solo")
        network.add_node(node)
        master = MasterNode(network)
        evicted_keys: list[str] = []
        mirror_at_eviction: dict[str, bool] = {}
        for t in range(40):
            record = make_record("ECU", sim_time=t)
            try:
                receipt = master.put(node, record)
            except CheckpointRequired:
                master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, VKEY)
                receipt = master.put(node, record)
            for key in receipt.evicted:
                mirror_at_eviction[key] = master.mirrored(key) is not None
            evicted_keys.extend(receipt.evicted)
        assert evicted_keys, "scenario never filled the store"
        assert all(mirror_at_eviction.values())
        assert master.buffer.pending  # captures queued, none lost

    def test_evictions_follow_the_latest_capture_on_random_networks(self):
        """Random puts, re-puts and captures on 2-6 nodes: a store drops only
        records mirrored at the most recent capture, never one stored since."""
        rng = random.Random(64)
        evictions = 0
        for trial in range(30):
            network = DhtNetwork(store_limit_bytes=rng.randint(400, 900))
            nodes = [node_id_for_serial(f"t{trial}-m{i}") for i in range(rng.randint(2, 6))]
            for node in nodes:
                network.add_node(node)
            master = MasterNode(network)
            mirrored: set[str] = set()
            at_capture: set[str] = set()  # the mirror at the most recent capture
            since_capture: set[str] = set()  # keys stored after that capture

            def capture(t):
                mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t, VKEY)
                assert mh.covered_records == len(mirrored)
                at_capture.clear()
                at_capture.update(mirrored)
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
                stored = any(network.node(n).get(key) for n in nodes)
                origin = rng.choice(nodes)
                try:
                    receipt = master.put(origin, record)
                except CheckpointRequired:
                    capture(t)
                    receipt = master.put(origin, record)
                evicted = set(receipt.evicted)
                assert evicted <= at_capture
                assert not evicted & since_capture
                evictions += len(evicted)
                mirrored.add(key)
                if not stored:
                    since_capture.add(key)
        assert evictions > 100
