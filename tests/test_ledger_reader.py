"""The in-place ledger reader against the reader it replaced.

``reference_read_chain`` (conftest.py) parsed every entry line, rebuilt the
block and compared its re-encoding with the bytes on disk. The current
readers must agree with it on every golden fixture ledger, on the
byte-substitution and truncation corpus of ``test_fuzz.py``, and on
targeted edits: ``verify_chain``, which walks the file without building a
block, must return the same verdict, ``load_ledger`` the same blocks and
``history_from_file`` the same rows, or the last two raise ``broken-at``
the same block. A targeted edit recomputes
the Merkle root, the block hash and the links after it, so only the
canonical-spelling, length, index and sequence checks can refuse it.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial

import pytest

from autobox import cli, ledger
from autobox.dht import StoreReceipt
from autobox.ledger import (
    GENESIS_PREV,
    FullNode,
    LedgerBlock,
    LedgerFormatError,
    VerifyResult,
    merkle_root,
)
from autobox.masternode import Submission
from autobox.vehiclesim import load_scenario, run_scenario

from conftest import record_spans, reference_read_chain, write_chain
from test_acceptance import GOLDEN_ARTIFACTS, golden_artifact_digests
from test_fuzz import DEMO_SCENARIO, SUBSTITUTIONS, TRUNCATIONS
from test_ledger import make_submission


UNKNOWN_KEY = "77" * 32  # a vehicle key on no ledger these tests read


def assert_same_reading(path, blob: bytes, where) -> VerifyResult:
    """``verify_chain`` and ``load_ledger`` agree with the reference reader,
    and so does ``history_from_file`` for each key it reads and one unknown:
    on a broken chain, each reader but ``verify_chain`` raises at its block."""
    path.write_bytes(blob)
    ref_blocks, ref_result = reference_read_chain(path)
    assert ledger.verify_chain(path) == ref_result, where
    keys = {sub.vehicle_key for block in ref_blocks for sub in block.entries}
    readings = [(ledger.load_ledger, ref_blocks, where)] + [
        (
            partial(ledger.history_from_file, vehicle_key=key),
            [(b.index, s) for b in ref_blocks for s in b.entries if s.vehicle_key == key],
            (where, key),
        )
        for key in sorted(keys | {UNKNOWN_KEY})
    ]
    broken = f": chain broken-at {ref_result.broken_at}$"
    for read, expected, what in readings:
        if ref_result.valid:
            assert read(path) == expected, what
            continue
        with pytest.raises(LedgerFormatError, match=broken) as error:
            read(path)
        assert error.value.broken_at == ref_result.broken_at, what
    return ref_result


def test_golden_fixture_ledgers(tmp_path):
    digests = golden_artifact_digests(tmp_path / "golden")
    golden = dict(line.split("\t") for line in GOLDEN_ARTIFACTS.read_text().splitlines())
    ledgers = sorted(name for name in digests if name.endswith("/ledger.txt"))
    assert len(ledgers) == 8
    for name in ledgers:
        assert digests[name] == golden[name], name
        blob = (tmp_path / "golden" / "audit" / name).read_bytes()
        result = assert_same_reading(tmp_path / "ledger.txt", blob, name)
        assert result.valid, name


def test_fuzz_corpus(tmp_path):
    """The seeds and counts of test_fuzz.py, plus every block boundary and 0."""
    result = run_scenario(load_scenario(DEMO_SCENARIO))
    blob = write_chain(tmp_path / "demo.txt", result.blocks).read_bytes()
    path = tmp_path / "ledger.txt"
    rng = random.Random(20201)
    for _ in range(SUBSTITUTIONS):
        offset = rng.randrange(len(blob))
        value = rng.choice([b for b in range(256) if b != blob[offset]])
        mutated = bytearray(blob)
        mutated[offset] = value
        assert_same_reading(path, bytes(mutated), f"byte {offset} -> {value:#04x}")
    rng = random.Random(20202)
    cuts = {rng.randrange(1, len(blob)) for _ in range(TRUNCATIONS)}
    cuts |= {0} | {end for _, _, end in record_spans(blob)}
    for cut in sorted(cuts):
        assert_same_reading(path, blob[:cut], f"cut at {cut}")


def test_verify_builds_no_block_or_entry(tmp_path, monkeypatch):
    """verify_chain makes every check on the raw bytes: with both
    constructors of a read block refusing to run, it still gives its verdicts."""
    result = run_scenario(load_scenario(DEMO_SCENARIO))
    path = write_chain(tmp_path / "ledger.txt", result.blocks)
    blob = path.read_bytes()
    _, _, end = record_spans(blob)[2]

    def refuse(*args, **kwargs):
        raise AssertionError("verify_chain built a block or an entry")

    monkeypatch.setattr(Submission, "from_match", refuse)
    monkeypatch.setattr(LedgerBlock, "__init__", refuse)
    assert ledger.verify_chain(path) == VerifyResult(valid=True)
    flipped = bytearray(blob)
    flipped[end - 2] ^= 1  # the last sim_time digit of block 2, still a digit
    path.write_bytes(bytes(flipped))
    assert ledger.verify_chain(path) == VerifyResult(valid=False, broken_at=2)


def _values():
    sub = make_submission()
    return {
        "Submission": sub,
        "LedgerBlock": LedgerBlock.build(0, GENESIS_PREV, [sub]),
        "StoreReceipt": StoreReceipt("ab" * 32, 1, False),
    }


@pytest.mark.parametrize("kind", sorted(_values()))
def test_values_are_immutable_and_hashable(kind):
    value = _values()[kind]
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert hash(value) == hash(_values()[kind])


def test_store_receipt_evicts_nothing_by_default():
    assert StoreReceipt("ab" * 32, 1, False).evicted == ()


def test_loaded_blocks_write_back_the_file_bytes(tmp_path):
    """``load_ledger``'s values re-encode to exactly the bytes they were read from."""
    result = run_scenario(load_scenario(DEMO_SCENARIO))
    blob = write_chain(tmp_path / "ledger.txt", result.blocks).read_bytes()
    blocks = ledger.load_ledger(tmp_path / "ledger.txt")
    assert len(blocks) == len(result.blocks) > 1
    assert b"".join(b.file_record() for b in blocks) == blob


# -- targeted edits -----------------------------------------------------------

EDITED = 10  # index of the block every targeted edit changes
KEY_A, KEY_B, KEY_C = "ab" * 32, "ef" * 32, "0c" * 32


def seal(records) -> bytes:
    """Ledger bytes of ``[index, entry lines, length spelling]`` records,
    with roots, hashes and links recomputed over the bytes as spelled."""
    out, prev = [], GENESIS_PREV.encode()
    for index, lines, spell in records:
        root = merkle_root([hashlib.sha256(line).digest() for line in lines]).hex().encode()
        block_hash = hashlib.sha256(b"|".join((index, prev, root))).hexdigest().encode()
        payload = b"".join(
            line + b"\n" for line in [b"|".join((index, prev, root, block_hash)), *lines]
        )
        out.append(spell(str(len(payload)).encode()) + b"\n" + payload)
        prev = block_hash
    return b"".join(out)


@pytest.fixture
def records(tmp_path):
    """Twelve blocks; block EDITED carries vehicle A's seq 11 at sim_time 110,
    then entries of vehicles B and C, and a length line of three digits."""
    node = FullNode()
    for i in range(12):
        subs = [make_submission(seq=i + 1, key=KEY_A, t=10 * (i + 1))]
        if i % 2 == 0:
            subs.append(make_submission(seq=i // 2 + 1, key=KEY_B, t=10 * (i + 1)))
        if i % 5 == 0:
            subs.append(make_submission(seq=i // 5 + 1, key=KEY_C, t=10 * (i + 1)))
        assert node.append_submissions(subs).block is not None
    records = [
        [str(b.index).encode(), [s.wire_line().encode() for s in b.entries], _as_is]
        for b in node.chain
    ]
    assert seal(records) == write_chain(tmp_path / "source.txt", node.chain).read_bytes()
    assert len(records[EDITED][1]) == 3 and records[EDITED][1][0].split(b"|")[1] == b"11"
    return records


def _as_is(text: bytes) -> bytes:
    return text


def _arabic_indic(digits: bytes) -> bytes:
    return "".join(chr(0x660 + int(d)) for d in digits.decode()).encode()


# Spellings int() reads as the same number: only the canonical check refuses them.
SPELLINGS = {
    "plus": lambda v: b"+" + v,
    "leading-zero": lambda v: b"0" + v,
    "underscore": lambda v: v[:1] + b"_" + v[1:],
    "arabic-indic": _arabic_indic,
}


def _entry_field(field: int, edit):
    def apply(records):
        fields = records[EDITED][1][0].split(b"|")
        fields[field] = edit(fields[field])
        records[EDITED][1][0] = b"|".join(fields)

    return apply


def _index(edit):
    def apply(records):
        records[EDITED][0] = edit(records[EDITED][0])

    return apply


def _length(edit):
    def apply(records):
        records[EDITED][2] = edit

    return apply


def _append_line(records):
    records[EDITED][1].append(records[EDITED][1][-1])


def _crlf_entries(records):
    records[EDITED][1] = [line + b"\r" for line in records[EDITED][1]]


def _swap_blocks(records):
    records[EDITED], records[EDITED + 1] = records[EDITED + 1], records[EDITED]


TARGETED_EDITS = {
    **{f"seq-{n}": _entry_field(1, f) for n, f in SPELLINGS.items()},
    **{f"sim-time-{n}": _entry_field(4, f) for n, f in SPELLINGS.items()},
    **{f"index-{n}": _index(f) for n, f in SPELLINGS.items()},
    **{f"length-{n}": _length(f) for n, f in SPELLINGS.items()},
    "space-before-seq": _entry_field(1, lambda v: b" " + v),
    "space-after-key": _entry_field(0, lambda v: v + b" "),
    "crlf-entry-lines": _crlf_entries,
    "uppercase-key": _entry_field(0, bytes.upper),
    "uppercase-digest": _entry_field(2, bytes.upper),
    "unknown-trigger": _entry_field(3, lambda v: b"Bogus"),
    "duplicated-last-entry": _append_line,
    "checkpoint-seq-0": _entry_field(1, lambda v: b"0"),
    "negative-sim-time": _entry_field(4, lambda v: b"-5"),
    "seq-past-int-digit-limit": _entry_field(1, lambda v: b"1" * 5000),
    "sim-time-past-int-digit-limit": _entry_field(4, lambda v: b"1" * 5000),
    "seq-19-digits": _entry_field(1, lambda v: b"1" * 19),
    "sim-time-19-digits": _entry_field(4, lambda v: b"1" * 19),
    "two-blocks-swapped": _swap_blocks,
    "right-prev-wrong-index": _index(lambda v: b"11"),
}


@pytest.mark.parametrize("case", sorted(TARGETED_EDITS))
def test_targeted_edit_breaks_the_edited_block(records, tmp_path, case):
    TARGETED_EDITS[case](records)
    result = assert_same_reading(tmp_path / "ledger.txt", seal(records), case)
    assert result == VerifyResult(valid=False, broken_at=EDITED)


def test_duplicated_last_entry_keeps_the_merkle_root(records):
    """The CVE-2012-2459 shape: a copy of the third entry line changes no
    hash, so only the sequence rule refuses that edit."""
    leaves = [hashlib.sha256(line).digest() for line in records[EDITED][1]]
    assert merkle_root(leaves + leaves[-1:]) == merkle_root(leaves)


def test_crlf_file_breaks_block_zero(records, tmp_path):
    blob = seal(records).replace(b"\n", b"\r\n")
    result = assert_same_reading(tmp_path / "ledger.txt", blob, "crlf file")
    assert result == VerifyResult(valid=False, broken_at=0)


def test_unedited_records_stay_valid(records, tmp_path):
    result = assert_same_reading(tmp_path / "ledger.txt", seal(records), "unedited")
    assert result == VerifyResult(valid=True)


def test_history_builds_only_the_asked_keys_entries(records, tmp_path, monkeypatch):
    """``history_from_file`` calls ``Submission.from_match`` once per entry
    of the asked key, and never for a key on no entry."""
    path = tmp_path / "ledger.txt"
    path.write_bytes(seal(records))
    built = []
    from_match = Submission.from_match

    def counting(line):
        built.append(line)
        return from_match(line)

    monkeypatch.setattr(Submission, "from_match", counting)
    for key, entries in ((KEY_A, 12), (KEY_B, 6), (KEY_C, 3), (UNKNOWN_KEY, 0), ("\udcff", 0)):
        built.clear()
        history = ledger.history_from_file(path, key)
        assert len(built) == len(history) == entries, key
        assert all(sub.vehicle_key == key for _, sub in history)


def test_eighteen_digit_numbers_verify_and_print(tmp_path, capsys):
    """The longest numbers the format admits: seq and sim_time of 18 digits."""
    big = 10**18 - 1
    block = LedgerBlock.build(0, GENESIS_PREV, [make_submission(seq=big, key=KEY_A, t=big)])
    path = write_chain(tmp_path / "ledger.txt", [block])
    result = assert_same_reading(path, path.read_bytes(), "18 digits")
    assert result == VerifyResult(valid=True)
    assert cli.main(["history", str(path), KEY_A, "--machine"]) == 0
    assert capsys.readouterr().out == f"{big}\t{'cd' * 32}\tPeriodicInterval\t{big}\t0\n"
