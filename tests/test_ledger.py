from __future__ import annotations

import hashlib
import random

import pytest

from autobox.auditcore import EventType
from autobox.ledger import (
    GENESIS_PREV,
    FullNode,
    LedgerBlock,
    LedgerFormatError,
    UnknownVariantError,
    UnknownVehicleError,
    VerdictStatus,
    VerifyResult,
    history_from_file,
    library_text,
    load_ledger,
    merkle_root,
    oem_checksum,
    read_library,
    verify_chain,
)
from autobox.masternode import Submission

from conftest import record_spans, write_chain


def make_submission(seq=1, key="ab" * 32, digest="cd" * 32, t=100, trigger=EventType.PERIODIC_INTERVAL):
    return Submission(
        vehicle_key=key,
        checkpoint_seq=seq,
        meta_digest=digest,
        trigger=trigger,
        sim_time=t,
    )


def merkle_oracle(leaves):
    """Independent recursive Merkle computation (duplicate-last on odd)."""
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2:
        leaves = leaves + [leaves[-1]]
    parents = []
    for i in range(0, len(leaves), 2):
        parents.append(hashlib.sha256(leaves[i] + leaves[i + 1]).digest())
    return merkle_oracle(parents)


class TestMerkle:
    def test_single_leaf_is_root(self):
        leaf = hashlib.sha256(b"x").digest()
        assert merkle_root([leaf]) == leaf

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_matches_recursive_oracle(self, count):
        rng = random.Random(count)
        leaves = [rng.randbytes(32) for _ in range(count)]
        assert merkle_root(leaves) == merkle_oracle(leaves)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merkle_root([])


class TestAppend:
    def test_genesis_block(self):
        node = FullNode()
        result = node.append_submissions([make_submission()])
        assert result.block is not None
        assert result.block.index == 0
        assert result.block.prev_hash == GENESIS_PREV

    def test_replay_rejected_chain_unchanged(self):
        node = FullNode()
        node.append_submissions([make_submission(seq=1)])
        result = node.append_submissions([make_submission(seq=1)])
        assert result.block is None
        assert len(result.rejected) == 1
        assert "replay" in result.rejected[0][1]
        assert len(node.chain) == 1

    def test_out_of_order_rejected(self):
        node = FullNode()
        node.append_submissions([make_submission(seq=5)])
        result = node.append_submissions([make_submission(seq=3)])
        assert result.block is None
        assert "replay" in result.rejected[0][1]

    def test_malformed_rejected(self):
        node = FullNode()
        result = node.append_submissions([make_submission(digest="xyz")])
        assert result.block is None
        assert "malformed" in result.rejected[0][1]

    def test_entries_root_matches_merkle_oracle(self):
        """5 submissions across 2 vehicles in one batch, one block."""
        node = FullNode()
        subs = [
            make_submission(seq=i, key="ab" * 32, t=10 * i) for i in (1, 2, 3)
        ] + [make_submission(seq=i, key="ef" * 32, t=10 * i) for i in (1, 2)]
        result = node.append_submissions(subs)
        assert result.block is not None
        assert len(node.chain) == 1
        leaves = [hashlib.sha256(s.wire_line().encode()).digest() for s in subs]
        assert result.block.entries_root == merkle_oracle(leaves).hex()

    def test_prev_hash_links(self):
        node = FullNode()
        first = node.append_submissions([make_submission(seq=1)]).block
        second = node.append_submissions([make_submission(seq=2)]).block
        assert second.prev_hash == first.block_hash

    def test_append_only_existing_hashes_stable(self):
        node = FullNode()
        node.append_submissions([make_submission(seq=1)])
        frozen = [(b.index, b.block_hash) for b in node.chain]
        for seq in range(2, 6):
            node.append_submissions([make_submission(seq=seq)])
        assert [(b.index, b.block_hash) for b in node.chain[:1]] == frozen


class TestVerifyChain:
    def make_ledger(self, tmp_path, blocks=4):
        node = FullNode()
        for seq in range(1, blocks + 1):
            node.append_submissions([make_submission(seq=seq, t=seq * 10)])
        return write_chain(tmp_path / "ledger.txt", node.chain)

    def test_untouched_ledger_valid(self, tmp_path):
        path = self.make_ledger(tmp_path)
        assert verify_chain(path).valid

    def test_byte_flip_in_entries_breaks_that_block(self, tmp_path):
        path = self.make_ledger(tmp_path)
        blob = bytearray(path.read_bytes())
        # Find block 3's payload: records are length-prefixed in order.
        offsets = []
        pos = 0
        while pos < len(blob):
            newline = blob.index(b"\n", pos)
            length = int(blob[pos:newline])
            offsets.append((newline + 1, length))
            pos = newline + 1 + length
        start, length = offsets[3]
        header_end = blob.index(b"\n", start)
        blob[header_end + 5] ^= 0xFF  # inside block 3's first entry line
        path.write_bytes(bytes(blob))
        result = verify_chain(path)
        assert not result.valid
        assert result.broken_at == 3

    def test_truncated_last_block_breaks_at_last(self, tmp_path):
        path = self.make_ledger(tmp_path, blocks=3)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        result = verify_chain(path)
        assert not result.valid
        assert result.broken_at == 2

    def test_first_broken_block_reported_before_later_truncation(self, tmp_path):
        path = self.make_ledger(tmp_path)
        blob = bytearray(path.read_bytes())
        spans = record_spans(blob)
        blob[spans[1][2] - 3] ^= 0x01  # inside block 1's entry line
        path.write_bytes(bytes(blob[: spans[3][1] + 10]))  # cut inside block 3
        assert verify_chain(path) == VerifyResult(valid=False, broken_at=1)

    @pytest.mark.parametrize("prefix", [b"+", b" ", b"0"])
    def test_non_canonical_length_line_breaks_that_block(self, tmp_path, prefix):
        path = self.make_ledger(tmp_path)
        blob = path.read_bytes()
        start = record_spans(blob)[2][0]
        path.write_bytes(blob[:start] + prefix + blob[start:])
        assert verify_chain(path) == VerifyResult(valid=False, broken_at=2)

    def test_duplicated_last_entry_is_not_valid(self, tmp_path):
        """Odd Merkle levels duplicate their last node, so a copy of the
        last entry line keeps the root; the replay rule still rejects it."""
        node = FullNode()
        node.append_submissions([make_submission(seq=s, t=s) for s in (1, 2, 3)])
        path = write_chain(tmp_path / "ledger.txt", node.chain)
        blob = path.read_bytes()
        payload = blob[blob.index(b"\n") + 1 :]
        forged = payload + payload.splitlines(keepends=True)[-1]
        path.write_bytes(str(len(forged)).encode() + b"\n" + forged)
        assert verify_chain(path) == VerifyResult(valid=False, broken_at=0)
        with pytest.raises(LedgerFormatError):
            load_ledger(path)

    def test_uppercase_vehicle_key_breaks_that_block(self, tmp_path):
        """A hand-built block with correct hashes re-encodes to its own bytes,
        uppercase key and all; only the admission check on read refuses it."""
        path = self.make_ledger(tmp_path, blocks=2)
        last = load_ledger(path)[-1]
        forged = LedgerBlock.build(2, last.block_hash, [make_submission(key="AB" * 32)])
        with path.open("ab") as fh:
            fh.write(forged.file_record())
        assert verify_chain(path) == VerifyResult(valid=False, broken_at=2)
        with pytest.raises(LedgerFormatError):
            load_ledger(path)

    def test_empty_file_is_a_chain_of_zero_blocks(self, tmp_path):
        """The truncation at block boundary 0, like every other boundary."""
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert verify_chain(path) == VerifyResult(valid=True)
        assert load_ledger(path) == []
        assert history_from_file(path, "ab" * 32) == []

    def test_load_ledger_roundtrip(self, tmp_path):
        path = self.make_ledger(tmp_path, blocks=3)
        blocks = load_ledger(path)
        assert [b.index for b in blocks] == [0, 1, 2]
        assert blocks[1].prev_hash == blocks[0].block_hash
        assert all(len(b.entries) == 1 for b in blocks)


class TestApprovedLibrary:
    def test_file_roundtrip(self):
        lib = {"B": ("bb" * 32,), "A": ("cc" * 32, "aa" * 32)}
        text = library_text(lib)
        lines = text.splitlines()
        assert lines == sorted(lines)
        loaded = read_library(text)
        assert {v: set(d) for v, d in loaded.items()} == {v: set(d) for v, d in lib.items()}

    def test_bad_digest_rejected(self):
        with pytest.raises(ValueError):
            read_library("X\tnothex\n")


class TestOemChecksum:
    LIB = {"EU-BASE": ("aa" * 32,), "CRIT": ("aa" * 32,)}

    def test_approved(self):
        verdict = oem_checksum(make_submission(digest="aa" * 32), self.LIB, "EU-BASE")
        assert verdict.status is VerdictStatus.APPROVED

    def test_absent_digest_service_needed_names_variant(self):
        verdict = oem_checksum(make_submission(digest="bb" * 32), self.LIB, "EU-BASE")
        assert verdict.status is VerdictStatus.SERVICE_NEEDED
        assert "EU-BASE" in verdict.reason

    def test_absent_digest_with_tamper_flag_immobilizes(self):
        verdict = oem_checksum(
            make_submission(digest="bb" * 32), self.LIB, "EU-BASE", tamper_flag=True
        )
        assert verdict.status is VerdictStatus.IMMOBILIZE

    def test_critical_variant_emergency_ota(self):
        verdict = oem_checksum(
            make_submission(digest="bb" * 32),
            self.LIB,
            "CRIT",
            critical_variants=frozenset({"CRIT"}),
        )
        assert verdict.status is VerdictStatus.EMERGENCY_OTA

    def test_unknown_variant_is_error_not_service_verdict(self):
        with pytest.raises(UnknownVariantError):
            oem_checksum(make_submission(), self.LIB, "NOPE")

    def test_soundness_exhaustive_on_small_library(self):
        """Approved iff digest in the variant's approved set."""
        digests = [f"{i:064x}" for i in range(6)]
        lib = {"V": digests[:3]}
        for digest in digests:
            verdict = oem_checksum(make_submission(digest=digest), lib, "V")
            expected = digest in digests[:3]
            assert (verdict.status is VerdictStatus.APPROVED) == expected


class TestFullNodeEvaluateAndHistory:
    def test_evaluate_uses_registration(self):
        lib = {"EU-BASE": ["aa" * 32]}
        node = FullNode(library=lib)
        node.register_vehicle("ab" * 32, "EU-BASE")
        verdict = node.evaluate(make_submission(digest="aa" * 32))
        assert verdict.status is VerdictStatus.APPROVED

    def test_unregistered_vehicle_raises(self):
        node = FullNode(library={"EU-BASE": ["aa" * 32]})
        with pytest.raises(UnknownVehicleError):
            node.evaluate(make_submission())

    def test_history_ordered_and_complete(self, tmp_path):
        node = FullNode()
        for seq in (1, 2, 3, 4):
            node.append_submissions(
                [make_submission(seq=seq, t=seq * 5, trigger=EventType.REFLASH)]
            )
        path = write_chain(tmp_path / "ledger.txt", node.chain)
        history = history_from_file(path, "ab" * 32)
        assert [e.checkpoint_seq for _, e in history] == [1, 2, 3, 4]
        assert [block for block, _ in history] == [0, 1, 2, 3]
        assert all(e.trigger is EventType.REFLASH for _, e in history)

    def test_unknown_key_empty_history(self, tmp_path):
        node = FullNode()
        node.append_submissions([make_submission()])
        path = write_chain(tmp_path / "ledger.txt", node.chain)
        assert history_from_file(path, "99" * 32) == []

    def test_history_from_file_matches_live_node(self, tmp_path):
        node = FullNode()
        for seq in (1, 2):
            node.append_submissions(
                [make_submission(seq=seq), make_submission(key="cd" * 32, seq=seq)]
            )
        path = write_chain(tmp_path / "ledger.txt", node.chain)
        live = [
            (block.index, sub)
            for block in node.chain
            for sub in block.entries
            if sub.vehicle_key == "ab" * 32
        ]
        assert history_from_file(path, "ab" * 32) == live
        assert [block for block, _ in live] == [0, 1]

    def test_verdict_output_line_format(self):
        lib = {"EU-BASE": ["aa" * 32]}
        node = FullNode(library=lib)
        node.register_vehicle("ab" * 32, "EU-BASE")
        verdict = node.evaluate(make_submission(digest="aa" * 32))
        fields = verdict.output_line().split("\t")
        assert fields[0] == "ab" * 32
        assert fields[1] == "1"
        assert fields[2] == "Approved"


class TestTamperEvidenceSample:
    def test_random_body_mutations_detected(self, tmp_path):
        """Small fuzz sample; the full >=99% sweep lives in acceptance."""
        node = FullNode()
        for seq in range(1, 6):
            node.append_submissions([make_submission(seq=seq, t=seq)])
        path = write_chain(tmp_path / "ledger.txt", node.chain)
        original = path.read_bytes()
        assert verify_chain(path).valid
        rng = random.Random(62)
        for _ in range(50):
            offset = rng.randrange(len(original))
            mutated = bytearray(original)
            mutated[offset] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(mutated))
            try:
                result = verify_chain(path)
            except LedgerFormatError:
                continue  # format-level damage is also not "valid"
            assert not result.valid
        path.write_bytes(original)
        assert verify_chain(path).valid
