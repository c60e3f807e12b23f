from __future__ import annotations

import hashlib
import math
import random
import tracemalloc

import pytest

from autobox import parity
from autobox.parity import (
    PARITY,
    ClusterError,
    MultiFaultError,
    ParityCluster,
    ScrubReport,
    load_snapshot,
    reconstruct,
    repair,
    save_snapshot,
    scrub,
)

from conftest import BAD_INDEX_EDITS, data_store, parity_store, record_index, two_device_snapshot


def xor_oracle(stores: list[bytes]) -> bytes:
    """Independent byte-loop parity computation."""
    width = max(len(s) for s in stores)
    out = bytearray(width)
    for store in stores:
        for j, b in enumerate(store):
            out[j] ^= b
    return bytes(out)


def per_record_scrub(cluster: ParityCluster) -> ScrubReport:
    """Reference scrub: hash every record, then check parity byte by byte."""
    stale: dict[int, set[str]] = {}
    for key, loc in record_index(cluster).items():
        record = data_store(cluster, loc.device)[loc.offset : loc.offset + loc.length]
        if hashlib.sha256(record).hexdigest() != loc.record_hash:
            stale.setdefault(loc.device, set()).add(key)
    if len(stale) > 1:
        raise MultiFaultError(f"stale records on devices {sorted(stale)}")
    if stale:
        device, keys = stale.popitem()
        return ScrubReport(clean=False, device=device, records=frozenset(keys))
    parity = parity_store(cluster)
    stores = [data_store(cluster, i) for i in range(cluster.device_count)]
    if len(parity) != cluster.recorded_length(PARITY) or any(xor_oracle(stores + [parity])):
        return ScrubReport(clean=False, device=PARITY)
    return ScrubReport(clean=True)


def build_cluster(rng: random.Random, d: int, records_per_device=3, max_len=200):
    cluster = ParityCluster(d)
    originals: dict[int, bytes] = {}
    n = 0
    for device in range(d):
        for _ in range(records_per_device):
            payload = rng.randbytes(rng.randint(1, max_len))
            cluster.append_record(device, f"{n:064x}", payload)
            n += 1
    for device in range(d):
        originals[device] = data_store(cluster, device)
    return cluster, originals


class TestClusterBasics:
    def test_parity_maintained_incrementally(self):
        rng = random.Random(45)
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, rng.randbytes(40))
        cluster.append_record(1, "bb" * 32, rng.randbytes(90))
        cluster.append_record(0, "cc" * 32, rng.randbytes(10))
        expected = xor_oracle([data_store(cluster, 0), data_store(cluster, 1)])
        assert parity_store(cluster) == expected

    def test_parity_is_largest_device(self):
        rng = random.Random(46)
        cluster, _ = build_cluster(rng, 3)
        assert len(parity_store(cluster)) >= max(
            len(data_store(cluster, i)) for i in range(3)
        )

    def test_fewer_than_two_data_devices_rejected(self):
        with pytest.raises(ClusterError, match="at least 2 data devices"):
            ParityCluster(1)

    def test_duplicate_record_key_rejected(self):
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"x")
        with pytest.raises(ClusterError):
            cluster.append_record(1, "aa" * 32, b"y")

    def test_unknown_device_rejected(self):
        cluster = ParityCluster(2)
        with pytest.raises(ClusterError):
            cluster.append_record(2, "aa" * 32, b"x")

    def test_device_count_is_no_device_index(self):
        """Data devices are 0..d-1; the parity device is named PARITY, never d."""
        cluster = ParityCluster(2)
        with pytest.raises(ClusterError):
            cluster._resolve(cluster.device_count)
        with pytest.raises(ClusterError):
            cluster.erase_device(cluster.device_count)

    def test_bool_is_no_device_index(self):
        """True equals 1, but names no device: it is not read as device 1."""
        cluster = ParityCluster(2)
        cluster.append_record(1, "aa" * 32, b"xyz")
        with pytest.raises(ClusterError, match="no device True"):
            cluster.corrupt_byte(True, 0)
        assert data_store(cluster, 1) == b"xyz"

    def test_parity_is_no_data_device(self):
        cluster = ParityCluster(2)
        with pytest.raises(ClusterError, match="parity is not a data device"):
            cluster.append_record(PARITY, "aa" * 32, b"x")
        with pytest.raises(ClusterError, match="parity is not a data device"):
            data_store(cluster, PARITY)
        assert parity_store(cluster) == b"" and not record_index(cluster)

    def test_append_to_erased_device_rejected(self):
        """Past erasure an append would land at offset 0, inside the bytes
        that the recorded length keeps for a repair to restore."""
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"xyz")
        cluster.erase_device(0)
        with pytest.raises(ClusterError, match="device 0 is erased"):
            cluster.append_record(0, "bb" * 32, b"uvw")
        assert not cluster.has_record("bb" * 32)
        assert repair(cluster, 0) == b"xyz"

    def test_write_back_of_wrong_length_rejected(self):
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"xyz")
        for content in (b"xy", b"xyz!"):
            with pytest.raises(ClusterError, match="expects 3 bytes, got"):
                cluster.write_back(0, content)
        assert data_store(cluster, 0) == b"xyz"

    def test_corrupt_byte_just_past_the_device_end_rejected(self):
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"xyz")
        end = len(data_store(cluster, 0))
        with pytest.raises(ClusterError):
            cluster.corrupt_byte(0, end)
        assert cluster.corrupt_byte(0, end - 1) == (ord("z"), ord("z") ^ 0xFF)


class TestScrub:
    def test_untouched_cluster_clean(self):
        rng = random.Random(47)
        cluster, _ = build_cluster(rng, 3)
        assert scrub(cluster).clean

    def test_data_flip_located_with_records(self):
        rng = random.Random(48)
        cluster, _ = build_cluster(rng, 3)
        offset = len(data_store(cluster, 2)) // 2
        cluster.corrupt_byte(2, offset)
        report = scrub(cluster)
        assert not report.clean
        assert report.device == 2
        assert len(report.records) >= 1
        # The flipped byte sits inside every listed record's span.
        for key in report.records:
            loc = record_index(cluster)[key]
            assert loc.device == 2
            assert loc.offset <= offset < loc.offset + loc.length

    def test_parity_flip_no_records_affected(self):
        rng = random.Random(49)
        cluster, _ = build_cluster(rng, 2)
        cluster.corrupt_byte(PARITY, 0)
        report = scrub(cluster)
        assert not report.clean
        assert report.device == PARITY
        assert report.records == frozenset()

    def test_two_corrupt_devices_uncorrectable(self):
        rng = random.Random(50)
        cluster, _ = build_cluster(rng, 3)
        cluster.corrupt_byte(0, 0)
        cluster.corrupt_byte(1, 0)
        with pytest.raises(MultiFaultError):
            scrub(cluster)

    def test_erased_parity_detected_even_when_parity_is_zero(self):
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"same-bytes")
        cluster.append_record(1, "bb" * 32, b"same-bytes")
        assert parity_store(cluster) == b"\x00" * 10
        cluster.erase_device(PARITY)
        report = scrub(cluster)
        assert not report.clean
        assert report.device == PARITY


class TestScrubAgainstPerRecordReference:
    """Scrub skips the record hashes of devices whose digest still matches
    their appended bytes; every fault must still be reported exactly as the
    per-record reference reports it."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_flip_first_middle_last_byte_of_every_device(self, d):
        rng = random.Random(100 + d)
        cluster, originals = build_cluster(rng, d)
        for device in range(d):
            length = len(originals[device])
            for offset in (0, length // 2, length - 1):
                cluster.corrupt_byte(device, offset)
                report = scrub(cluster)
                assert not report.clean
                assert report.device == device
                assert report == per_record_scrub(cluster)
                repair(cluster, device)
                assert data_store(cluster, device) == originals[device]
                assert scrub(cluster).clean

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_erase_every_device(self, d):
        rng = random.Random(110 + d)
        cluster, originals = build_cluster(rng, d)
        for device in [*range(d), PARITY]:
            cluster.erase_device(device)
            report = scrub(cluster)
            assert report.device == device
            assert report == per_record_scrub(cluster)
            repair(cluster, device)
            assert scrub(cluster).clean

    def test_parity_only_flip(self):
        rng = random.Random(120)
        cluster, _ = build_cluster(rng, 3)
        for offset in (0, len(parity_store(cluster)) - 1):
            cluster.corrupt_byte(PARITY, offset)
            report = scrub(cluster)
            assert report == ScrubReport(clean=False, device=PARITY)
            assert report == per_record_scrub(cluster)
            repair(cluster, PARITY)
            assert scrub(cluster).clean

    def test_two_flipped_devices_raise_like_reference(self):
        rng = random.Random(121)
        cluster, _ = build_cluster(rng, 3)
        cluster.corrupt_byte(0, 1)
        cluster.corrupt_byte(2, 1)
        for check in (scrub, per_record_scrub):
            with pytest.raises(MultiFaultError):
                check(cluster)

    def test_loaded_snapshot_flip_located(self):
        rng = random.Random(122)
        cluster, _ = build_cluster(rng, 3)
        blob = save_snapshot(cluster)
        for device in range(3):
            loaded = load_snapshot(blob)
            loaded.corrupt_byte(device, len(data_store(loaded, device)) - 1)
            report = scrub(loaded)
            assert report.device == device
            assert report == per_record_scrub(loaded)

    def test_loaded_empty_device_takes_record_check(self):
        """An empty device's digest matches an empty write history, but a
        loaded cluster has none: its zero-length record with a forged hash
        must still be reported."""
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"")
        cluster.append_record(1, "bb" * 32, b"ghi")
        empty_hash = hashlib.sha256(b"").hexdigest().encode()
        loaded = load_snapshot(save_snapshot(cluster).replace(empty_hash, b"0" * 64))
        report = scrub(loaded)
        assert report == ScrubReport(clean=False, device=0, records=frozenset({"aa" * 32}))
        assert report == per_record_scrub(loaded)

    def test_append_to_loaded_cluster(self):
        rng = random.Random(123)
        cluster, _ = build_cluster(rng, 2)
        loaded = load_snapshot(save_snapshot(cluster))
        loc = loaded.append_record(1, "ee" * 32, b"appended after load")
        assert scrub(loaded).clean
        loaded.corrupt_byte(1, loc.offset)
        report = scrub(loaded)
        assert report == ScrubReport(clean=False, device=1, records=frozenset({"ee" * 32}))
        repair(loaded, 1)
        assert scrub(loaded).clean


def scrub_outcome(check, cluster: ParityCluster):
    """A scrub's report, or the MultiFaultError class when it raises one."""
    try:
        return check(cluster)
    except MultiFaultError:
        return MultiFaultError


class TestScrubDifferential:
    """Live clusters under seeded random op sequences: after every op, scrub
    (which compares parity with the parity as written whenever every data
    device matches its appended bytes) reports exactly what the per-record,
    byte-loop reference reports."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_ops_match_reference(self, d):
        rng = random.Random(200 + d)
        for _ in range(25):
            cluster = ParityCluster(d)
            n = 0

            def append(device, size):
                nonlocal n
                cluster.append_record(device, f"{n:064x}", rng.randbytes(size))
                n += 1

            for _ in range(20):
                op = rng.choice(["append", "append", "empty", "flip", "flip_under_append",
                                 "erase", "repair"])
                live = [i for i in range(d) if not cluster.is_erased(i)]
                if op in ("append", "empty") and live:
                    append(rng.choice(live), 0 if op == "empty" else rng.randint(1, 24))
                elif op == "flip":
                    device = rng.choice([*range(d), PARITY])
                    if content := (parity_store(cluster) if device == PARITY
                                   else data_store(cluster, device)):
                        cluster.corrupt_byte(device, rng.randrange(len(content)))
                elif op == "flip_under_append" and live:
                    # Flip the parity byte that the next append XORs into.
                    device = rng.choice(live)
                    offset = cluster.recorded_length(device)
                    if offset < len(parity_store(cluster)):
                        cluster.corrupt_byte(PARITY, offset)
                        assert scrub_outcome(scrub, cluster) == scrub_outcome(
                            per_record_scrub, cluster
                        )
                    append(device, rng.randint(1, 24))
                elif op == "erase":
                    cluster.erase_device(rng.choice([*range(d), PARITY]))
                elif op == "repair":
                    report = scrub_outcome(scrub, cluster)
                    if report is not MultiFaultError and not report.clean:
                        try:
                            repair(cluster, report.device)
                        except MultiFaultError:
                            pass
                assert scrub_outcome(scrub, cluster) == scrub_outcome(per_record_scrub, cluster)


class TestScrubWithoutFold:
    def test_live_cluster_checks_parity_without_folding(self, monkeypatch):
        """A live cluster whose data devices all match their appended bytes
        checks parity against the parity as written, not with the XOR fold;
        a cluster loaded from a snapshot has no write history and folds."""
        rng = random.Random(130)
        cluster, _ = build_cluster(rng, 3)
        loaded = load_snapshot(save_snapshot(cluster))

        def refuse(stores):
            raise AssertionError("scrub folded every device")

        monkeypatch.setattr(parity, "_xor", refuse)
        assert scrub(cluster) == ScrubReport(clean=True)
        cluster.corrupt_byte(PARITY, len(parity_store(cluster)) // 2)
        assert scrub(cluster) == ScrubReport(clean=False, device=PARITY)
        with pytest.raises(AssertionError, match="folded"):
            scrub(loaded)

    def test_loaded_cluster_detects_erased_zero_parity(self):
        """The fold of a loaded cluster reads an erased all-zero parity as
        consistent; the recorded length still reports it."""
        cluster = ParityCluster(2)
        cluster.append_record(0, "aa" * 32, b"same-bytes")
        cluster.append_record(1, "bb" * 32, b"same-bytes")
        loaded = load_snapshot(save_snapshot(cluster))
        loaded.erase_device(PARITY)
        assert scrub(loaded) == ScrubReport(clean=False, device=PARITY)
        assert scrub(loaded) == per_record_scrub(loaded)


class TestScrubHashesNothing:
    """A live cluster's scrub compares each device with what was appended to
    it: while every device matches it hashes nothing, and a data device
    that differs still takes the per-record check."""

    @staticmethod
    def scrub_unhashed(cluster: ParityCluster) -> ScrubReport:
        def refuse(*args):
            raise AssertionError("scrub hashed")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parity.hashlib, "sha256", refuse)
            return scrub(cluster)

    def test_intact_live_cluster_scrubs_clean(self):
        cluster, _ = build_cluster(random.Random(131), 3)
        assert self.scrub_unhashed(cluster) == ScrubReport(clean=True)

    def test_parity_flip_reported(self):
        cluster, _ = build_cluster(random.Random(132), 3)
        cluster.corrupt_byte(PARITY, len(parity_store(cluster)) // 2)
        assert self.scrub_unhashed(cluster) == ScrubReport(clean=False, device=PARITY)

    def test_data_flip_located_by_record_check(self):
        cluster, originals = build_cluster(random.Random(133), 3)
        offset = len(originals[1]) // 2
        cluster.corrupt_byte(1, offset)
        with pytest.raises(AssertionError, match="hashed"):
            self.scrub_unhashed(cluster)
        report = scrub(cluster)
        assert report.device == 1 and report == per_record_scrub(cluster)
        assert all(
            loc.offset <= offset < loc.offset + loc.length
            for loc in map(record_index(cluster).get, report.records)
        )


class TestReconstruct:
    def test_parity_of_clean_cluster(self):
        rng = random.Random(51)
        cluster, _ = build_cluster(rng, 3)
        stores = [data_store(cluster, i) for i in range(3)]
        assert reconstruct(cluster, PARITY) == xor_oracle(stores)

    def test_parity_of_loaded_cluster(self):
        """Without a write history the check walks the record index, which
        holds no parity record, so a parity rebuild is never refused."""
        cluster = load_snapshot(save_snapshot(build_cluster(random.Random(54), 3)[0]))
        stores = [data_store(cluster, i) for i in range(3)]
        cluster.erase_device(PARITY)
        assert repair(cluster, PARITY) == xor_oracle(stores)
        assert scrub(cluster).clean

    def test_erased_data_device_restored(self):
        rng = random.Random(52)
        cluster, originals = build_cluster(rng, 2)
        cluster.erase_device(1)
        assert reconstruct(cluster, 1) == originals[1]

    def test_every_device_in_turn(self):
        """Exhaustive single-erasure loop against saved originals (3+1)."""
        rng = random.Random(53)
        cluster, originals = build_cluster(rng, 3)
        original_parity = parity_store(cluster)
        for device in range(3):
            cluster.erase_device(device)
            content = repair(cluster, device)
            assert content == originals[device]
            assert scrub(cluster).clean
        cluster.erase_device(PARITY)
        assert repair(cluster, PARITY) == original_parity
        assert scrub(cluster).clean

    def test_corrupt_not_erased_device_restored(self):
        rng = random.Random(54)
        cluster, originals = build_cluster(rng, 2)
        cluster.corrupt_byte(0, 3)
        assert reconstruct(cluster, 0) == originals[0]

    def test_double_fault_reconstruction_raises(self):
        rng = random.Random(55)
        cluster, _ = build_cluster(rng, 3)
        cluster.corrupt_byte(0, 0)
        cluster.corrupt_byte(1, 0)
        with pytest.raises(MultiFaultError):
            reconstruct(cluster, 0)

    def test_scrub_then_repair_roundtrip(self):
        rng = random.Random(56)
        cluster, originals = build_cluster(rng, 4)
        cluster.corrupt_byte(2, 7)
        report = scrub(cluster)
        assert report.device == 2
        repair(cluster, report.device)
        assert data_store(cluster, 2) == originals[2]
        assert scrub(cluster).clean


class TestSnapshot:
    def test_roundtrip(self):
        rng = random.Random(57)
        cluster, _ = build_cluster(rng, 3)
        blob = save_snapshot(cluster)
        loaded = load_snapshot(blob)
        assert loaded.device_count == 3
        for i in range(3):
            assert data_store(loaded, i) == data_store(cluster, i)
        assert parity_store(loaded) == parity_store(cluster)
        assert record_index(loaded) == record_index(cluster)
        assert scrub(loaded).clean

    def test_corrupted_snapshot_scrubs_dirty(self):
        rng = random.Random(58)
        cluster, _ = build_cluster(rng, 2)
        cluster.corrupt_byte(1, 2)
        loaded = load_snapshot(save_snapshot(cluster))
        report = scrub(loaded)
        assert not report.clean
        assert report.device == 1

    def test_truncated_snapshot_rejected(self):
        rng = random.Random(59)
        cluster, _ = build_cluster(rng, 2)
        blob = save_snapshot(cluster)
        with pytest.raises(ClusterError):
            load_snapshot(blob[: len(blob) // 4])

    def test_garbage_rejected(self):
        with pytest.raises(ClusterError):
            load_snapshot(b"not a snapshot")

    def test_header_number_past_int_digit_limit_rejected(self):
        with pytest.raises(ClusterError, match="header"):
            load_snapshot(b"d=" + b"9" * 5000 + b" lengths=0 parity_len=0\n")

    def test_two_device_snapshot_loads_clean(self):
        assert scrub(load_snapshot(two_device_snapshot())).clean

    @pytest.mark.parametrize("edit", sorted(BAD_INDEX_EDITS))
    def test_bad_index_line_rejected(self, edit):
        blob = BAD_INDEX_EDITS[edit](two_device_snapshot())
        with pytest.raises(ClusterError):
            load_snapshot(blob)


# Faults of one index line, each a transform of its fields (the first line's
# key passed along). A record fault keeps the line on the grammar but names
# no record of the cluster; a grammar fault takes the line off the grammar.
RECORD_FAULTS = {
    "repeated-key": lambda fields, first_key: [first_key, *fields[1:]],
    "device-past-d": lambda fields, first_key: [fields[0], "2", *fields[2:]],
    "span-past-device": lambda fields, first_key: [*fields[:3], "1000", fields[4]],
}
GRAMMAR_FAULTS = {
    "non-hex-byte": lambda fields: [*fields[:4], fields[4][:-1] + "A"],
    "leading-zero": lambda fields: [*fields[:2], "0" + fields[2], *fields[3:]],
    "19-digit-number": lambda fields: [*fields[:3], "1" + "0" * 18, fields[4]],
    "missing-field": lambda fields: fields[:4],
    "extra-tab": lambda fields: [*fields, ""],
    "tab-in-hash": lambda fields: [*fields[:4], "\t" + fields[4][1:]],
}


class TestFirstFailingLine:
    """A record fault and a grammar fault on two lines of one index: the
    refusal names the earlier line, with the message of its own fault."""

    @pytest.mark.parametrize("record", sorted(RECORD_FAULTS))
    @pytest.mark.parametrize("grammar", sorted(GRAMMAR_FAULTS))
    @pytest.mark.parametrize("record_first", [True, False], ids=["record-first", "grammar-first"])
    def test_earlier_line_named(self, record, grammar, record_first):
        cluster = ParityCluster(2)
        for n in range(4):  # devices of 12 and 14 bytes
            cluster.append_record(n % 2, str(n + 1) * 64, bytes(5 + n))
        blob = save_snapshot(cluster)
        head = blob[: blob.index(b"1" * 64)]
        lines = [line.split("\t") for line in blob[len(head) :].decode().splitlines()]
        at_record, at_grammar = (1, 2) if record_first else (2, 1)
        lines[at_record] = RECORD_FAULTS[record](lines[at_record], lines[0][0])
        lines[at_grammar] = GRAMMAR_FAULTS[grammar](lines[at_grammar])
        index = [("\t".join(fields) + "\n").encode() for fields in lines]
        broken = head + b"".join(index)
        start = len(head) + len(b"".join(index[: min(at_record, at_grammar)]))
        named = broken[start : start + 80]
        with pytest.raises(ClusterError) as refused:
            load_snapshot(broken)
        if record_first:
            assert str(refused.value) == f"snapshot index line names no record {named!r}"
        else:
            assert str(refused.value) == f"malformed snapshot index line {named!r}"


LONG_INDEX_LINES = 20_000


@pytest.fixture(scope="module")
def long_index_snapshot() -> bytes:
    """A snapshot whose index has LONG_INDEX_LINES lines, a 4-byte record each."""
    cluster = ParityCluster(2)
    for n in range(LONG_INDEX_LINES):
        cluster.append_record(n % 2, f"{n:064x}", n.to_bytes(4, "little"))
    return save_snapshot(cluster)


def measure_matches(monkeypatch, name: str) -> list[int]:
    """Wrap the parity pattern called name; return the list each of its
    matches appends its tracemalloc peak to."""
    pattern, peaks = getattr(parity, name), []

    class Measured:
        def match(self, *args):
            tracemalloc.start()
            try:
                return pattern.match(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    monkeypatch.setattr(parity, name, Measured())
    return peaks


class TestOneIndexMatch:
    def test_one_match_per_chunk(self, monkeypatch, demo_snapshot, long_index_snapshot):
        """load_snapshot matches the index shape once per INDEX_CHUNK lines."""
        pattern, calls = parity.INDEX_SHAPE, []

        class Counted:
            def match(self, *args):
                calls.append(args)
                return pattern.match(*args)

        monkeypatch.setattr(parity, "INDEX_SHAPE", Counted())
        for blob in (two_device_snapshot(), demo_snapshot, long_index_snapshot):
            calls.clear()
            lines = len(record_index(load_snapshot(blob)))
            assert len(calls) == math.ceil(lines / parity.INDEX_CHUNK)

    def test_each_match_keeps_one_chunk_of_state(self, monkeypatch, long_index_snapshot):
        """A match's regex state grows with INDEX_CHUNK, not with the index:
        one match of the whole 20,000-line index peaked at about 10 MB."""
        peaks = measure_matches(monkeypatch, "INDEX_SHAPE")
        load_snapshot(long_index_snapshot)
        assert len(peaks) == math.ceil(LONG_INDEX_LINES / parity.INDEX_CHUNK)
        assert max(peaks) < 3_000_000

    def test_walk_runs_only_on_a_broken_index(
        self, monkeypatch, demo_snapshot, long_index_snapshot
    ):
        """A clean index passes the bulk checks, so INDEX_LINE never runs;
        a hash off the hex alphabet fails them, and the walk then matches
        the lines one at a time up to the broken one, each match under the
        bound of one shape match."""
        peaks = measure_matches(monkeypatch, "INDEX_LINE")
        for blob in (demo_snapshot, long_index_snapshot):
            load_snapshot(blob)
        assert peaks == []
        with pytest.raises(ClusterError, match="malformed snapshot index line"):
            load_snapshot(long_index_snapshot[:-2] + b"X\n")
        assert len(peaks) == LONG_INDEX_LINES
        assert max(peaks) < 3_000_000

    def test_long_index_loads_and_scrubs_clean(self, long_index_snapshot):
        cluster = load_snapshot(long_index_snapshot)
        assert len(record_index(cluster)) == LONG_INDEX_LINES
        assert scrub(cluster).clean

    def test_broken_last_line_named(self, long_index_snapshot):
        last = long_index_snapshot.rindex(b"\n", 0, -1) + 1
        broken = long_index_snapshot[:-2] + b"X\n"  # its record hash ends off the hex alphabet
        with pytest.raises(ClusterError) as refused:
            load_snapshot(broken)
        assert str(refused.value) == f"malformed snapshot index line {broken[last : last + 80]!r}"


class TestParityProperties:
    def test_roundtrip_property_sample(self):
        """Random clusters: erase any single device, reconstruct, compare.

        A slice of the acceptance criterion kept small for the fast suite;
        the full 500-case sweep lives in test_acceptance.py.
        """
        rng = random.Random(8080)
        for _ in range(40):
            d = rng.choice([2, 3, 4])
            cluster, originals = build_cluster(rng, d, records_per_device=2, max_len=300)
            device = rng.randrange(d)
            cluster.erase_device(device)
            assert reconstruct(cluster, device) == originals[device]

    def test_detection_soundness_sample(self):
        rng = random.Random(9090)
        for _ in range(40):
            d = rng.choice([2, 3, 4])
            cluster, _ = build_cluster(rng, d, records_per_device=2, max_len=300)
            device = rng.randrange(d)
            length = len(data_store(cluster, device))
            cluster.corrupt_byte(device, rng.randrange(length))
            report = scrub(cluster)
            assert not report.clean
            assert report.device == device
