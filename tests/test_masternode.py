from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from autobox.auditcore import EventType, identity_hash
from autobox.dht import DhtNetwork, node_id_for_serial
from autobox.masternode import (
    MasterNode,
    Submission,
    WIRE_LINE,
    UnquiescedCaptureError,
    meta_digest,
)

from conftest import EMPTY_SHA256, make_metadata

VKEY = "ab" * 32


def single_node_setup(store_limit=1 << 20):
    network = DhtNetwork(store_limit_bytes=store_limit)
    node = node_id_for_serial("solo")
    network.add_node(node)
    master = MasterNode(network)
    master.vehicle_key = VKEY
    return network, node, master


def put_and_mirror(network, node, master, record):
    receipt = network.put(node, record)
    master.mirror_update(record, receipt.sequence)
    return receipt


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
        network, node, master = single_node_setup()
        record = make_record(sim_time=1)
        put_and_mirror(network, node, master, record)
        assert master.mirrored(record.record_key) == record.payload_hash

    def test_duplicate_mirror_update_idempotent(self):
        network, node, master = single_node_setup()
        record = make_record(sim_time=1)
        receipt = put_and_mirror(network, node, master, record)
        master.mirror_update(record, receipt.sequence)
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
            receipt = network.put(nodes[rng.randrange(8)], record)
            master.mirror_update(record, receipt.sequence)
        assert master.mirror_size == 100

    def test_repeated_key_keeps_first_payload(self):
        _, _, master = single_node_setup()
        record = make_record(sim_time=1)
        master.mirror_update(record, 1)
        master.mirror_update(replace(record, payload_hash="00" * 32), 2)
        assert master.mirror_size == 1
        assert master.mirrored(record.record_key) == record.payload_hash

    def test_unknown_key_not_mirrored(self):
        _, _, master = single_node_setup()
        master.mirror_update(make_record(sim_time=1), 1)
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
            for sequence, record in enumerate(feed, 1):
                master.mirror_update(record, sequence)
            assert master.mirror_size == len(records)
            mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10)
            assert mh.digest == reference
            assert mh.covered_records == len(records)


class TestCapture:
    def test_empty_mirror_digest_is_empty_constant(self):
        _, _, master = single_node_setup()
        mh = master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 3600)
        assert mh.digest == EMPTY_SHA256
        assert mh.covered_records == 0
        assert mh.checkpoint_seq == 1

    def test_insertion_order_does_not_matter(self):
        records = [make_record("ECU", sim_time=t) for t in range(5)]
        digests = []
        for ordering in (records, list(reversed(records))):
            network, node, master = single_node_setup()
            for record in ordering:
                put_and_mirror(network, node, master, record)
            digests.append(
                master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10).digest
            )
        assert digests[0] == digests[1]

    def test_checkpoint_seq_strictly_increases(self):
        _, _, master = single_node_setup()
        seqs = [
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t).checkpoint_seq
            for t in (10, 20, 30)
        ]
        assert seqs == [1, 2, 3]

    def test_capture_advances_floor_to_cover_mirror(self):
        network, node, master = single_node_setup()
        for t in range(3):
            put_and_mirror(network, node, master, make_record(sim_time=t))
        master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 99)
        assert network.node(node).checkpoint_floor == network.sequence + 1

    def test_unquiesced_capture_raises(self):
        network, node, master = single_node_setup()
        network.put(node, make_record(sim_time=5))  # put without forwarding
        with pytest.raises(UnquiescedCaptureError):
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10)

    def test_capture_retained_and_buffered(self):
        _, _, master = single_node_setup()
        mh = master.capture_meta_hash(EventType.REFLASH, 5)
        assert master.buffer.pending == [
            Submission(VKEY, mh.checkpoint_seq, mh.digest, mh.trigger, mh.sim_time)
        ]


class TestSubmitPending:
    def test_online_drains_all_in_order(self):
        _, _, master = single_node_setup()
        for t in (10, 20, 30):
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t)
        drained = master.submit_pending()
        assert len(drained) == 3
        assert master.buffer.pending == []
        assert [s.checkpoint_seq for s in drained] == [1, 2, 3]

    def test_offline_is_noop(self):
        _, _, master = single_node_setup()
        master.capture_meta_hash(EventType.PERIODIC_INTERVAL, 10)
        master.online = False
        assert master.submit_pending() == []
        assert len(master.buffer.pending) == 1

    def test_backlog_drains_without_gaps_after_outage(self):
        _, _, master = single_node_setup()
        master.online = False
        for t in (10, 20):
            master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t)
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
        from autobox.dht import CheckpointRequired

        network = DhtNetwork(store_limit_bytes=512)
        node = node_id_for_serial("solo")
        network.add_node(node)
        master = MasterNode(network)
        master.vehicle_key = VKEY
        evicted_keys: list[str] = []
        mirror_at_eviction: dict[str, bool] = {}
        for t in range(40):
            record = make_record("ECU", sim_time=t)
            try:
                receipt = network.put(node, record)
            except CheckpointRequired:
                master.capture_meta_hash(EventType.PERIODIC_INTERVAL, t)
                receipt = network.put(node, record)
            for key in receipt.evicted:
                mirror_at_eviction[key] = master.mirrored(key) is not None
            evicted_keys.extend(receipt.evicted)
            master.mirror_update(record, receipt.sequence)
        assert evicted_keys, "scenario never filled the store"
        assert all(mirror_at_eviction.values())
        assert master.buffer.pending  # captures queued, none lost
