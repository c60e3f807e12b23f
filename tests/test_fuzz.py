"""Seeded fuzzing of persisted artifacts, stdlib only.

Ledger bytes: the ledger of ``scenarios/demo.json`` takes seeded
single-byte substitutions and truncations. A substitution must break
exactly the block that holds the byte, and ``autobox verify`` must say so
with exit 1 and no traceback. A truncation inside a block breaks that
block; one at a block boundary leaves a shorter valid chain.

Snapshot bytes: every byte of the demo cluster snapshot is flipped in
turn. A flip in the header or the index is a format error; a flip in a
device is found by ``scrub`` on exactly that device.

Snapshot loader: on the demo snapshot, every flip of its index, and each
bad index edit, ``load_snapshot`` gives what the line-by-line reference
loader gives (the same cluster, or a ClusterError with the same message),
and ``autobox audit`` prints and exits alike with either loader.

Scenario JSON: seeded mutations of ``scenarios/demo.json`` (a key
deleted, or an odd value put at a random path) must end ``autobox run``
with exit 0, 1 or 2, promptly and without a traceback.
"""

from __future__ import annotations

import copy
import json
import random
import signal

import pytest

from autobox import cli, parity
from autobox.ledger import VerifyResult, verify_chain
from autobox.parity import PARITY, SNAPSHOT_HEADER, ClusterError, load_snapshot, scrub
from autobox.vehiclesim import load_scenario, run_scenario

from conftest import (
    BAD_INDEX_EDITS,
    DEMO_SCENARIO,
    record_index,
    record_spans,
    reference_load_snapshot,
    two_device_snapshot,
    write_chain,
)

SUBSTITUTIONS = 600
TRUNCATIONS = 200
SCENARIO_MUTATIONS = 600
RUN_BOUND_S = 10


@pytest.fixture(scope="module")
def demo_ledger(tmp_path_factory) -> bytes:
    result = run_scenario(load_scenario(DEMO_SCENARIO))
    assert len(result.blocks) >= 3
    path = write_chain(tmp_path_factory.mktemp("demo") / "ledger.txt", result.blocks)
    blob = path.read_bytes()
    assert verify_chain(path).valid
    return blob


def block_of(spans, offset: int) -> int:
    """Index of the record whose bytes (length line included) hold offset."""
    return next(i for i, (start, _, end) in enumerate(spans) if start <= offset < end)


def verify_cli(path, capsys) -> tuple[int, str]:
    rc = cli.main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert err == ""  # neither a traceback nor a format error
    return rc, out.strip()


def test_substitution_breaks_the_block_holding_the_byte(demo_ledger, tmp_path, capsys):
    spans = record_spans(demo_ledger)
    path = tmp_path / "ledger.txt"
    rng = random.Random(20201)
    for _ in range(SUBSTITUTIONS):
        offset = rng.randrange(len(demo_ledger))
        value = rng.choice([b for b in range(256) if b != demo_ledger[offset]])
        mutated = bytearray(demo_ledger)
        mutated[offset] = value
        path.write_bytes(bytes(mutated))
        expected = block_of(spans, offset)
        where = f"byte {offset} -> {value:#04x}"
        assert verify_chain(path) == VerifyResult(valid=False, broken_at=expected), where
        assert verify_cli(path, capsys) == (1, f"broken-at {expected}"), where


def test_truncation_inside_a_block_breaks_it(demo_ledger, tmp_path, capsys):
    spans = record_spans(demo_ledger)
    boundaries = {end for _, _, end in spans}
    path = tmp_path / "ledger.txt"
    rng = random.Random(20202)
    cuts = {rng.randrange(1, len(demo_ledger)) for _ in range(TRUNCATIONS)}
    for cut in sorted(cuts - boundaries):
        path.write_bytes(demo_ledger[:cut])
        expected = block_of(spans, cut)
        assert verify_chain(path) == VerifyResult(valid=False, broken_at=expected), cut
        assert verify_cli(path, capsys) == (1, f"broken-at {expected}"), cut


def test_truncation_at_a_block_boundary_stays_valid(demo_ledger, tmp_path, capsys):
    path = tmp_path / "ledger.txt"
    for _, _, end in record_spans(demo_ledger):
        path.write_bytes(demo_ledger[:end])
        assert verify_cli(path, capsys) == (0, "valid"), end


def test_every_snapshot_byte_flip_is_refused_or_located(demo_snapshot, tmp_path, capsys):
    header = SNAPSHOT_HEADER.match(demo_snapshot)
    sizes = [int(n) for n in header[2].split(b",")] + [int(header[3])]
    devices = [*range(len(sizes) - 1), PARITY]
    region = ["format"] * header.end()
    for device, size in zip(devices, sizes):
        region += [device] * size
    region += ["format"] * (len(demo_snapshot) - len(region))
    assert region.count("format") > header.end()  # the index is covered too
    index = record_index(load_snapshot(demo_snapshot))
    path = tmp_path / "flipped.snap"
    for offset, expected in enumerate(region):
        mutated = bytearray(demo_snapshot)
        mutated[offset] ^= 0xFF
        if expected == "format":
            with pytest.raises(ClusterError):
                load_snapshot(bytes(mutated))
        else:
            report = scrub(load_snapshot(bytes(mutated)))
            assert not report.clean and report.device == expected, offset
            # The records whose span covers the flipped byte: one on a data
            # device, none on parity.
            at = offset - header.end() - sum(sizes[: devices.index(expected)])
            covering = {
                key
                for key, loc in index.items()
                if loc.device == expected and loc.offset <= at < loc.offset + loc.length
            }
            assert report.records == covering, offset
        if offset % 97 == 0:  # a stride of flips through the CLI as well
            path.write_bytes(mutated)
            rc = cli.main(["audit", str(path)])
            out, err = capsys.readouterr()
            if expected == "format":
                assert (rc, out) == (2, ""), offset
                assert "format error" in err and "Traceback" not in err, offset
            else:
                assert (rc, err) == (1, ""), offset
                assert f"corrupt device={expected} " in out, offset


def snapshot_cases(demo_snapshot: bytes):
    """(name, blob): the demo snapshot, every single-byte flip of its index,
    and each bad index edit, also where a failing line precedes a
    malformed one."""
    header = SNAPSHOT_HEADER.match(demo_snapshot)
    start = header.end() + sum(int(n) for n in header[2].split(b",")) + int(header[3])
    yield "demo", demo_snapshot
    for offset in range(start, len(demo_snapshot)):
        mutated = bytearray(demo_snapshot)
        mutated[offset] ^= 0xFF
        yield f"flip at {offset}", bytes(mutated)
    blob, junk = two_device_snapshot(), b"not an index line\n"
    yield "two-device", blob
    for edit, transform in sorted(BAD_INDEX_EDITS.items()):
        yield edit, transform(blob)
        yield f"{edit} before a malformed line", transform(blob) + junk
        yield f"{edit} after a malformed line", transform(blob + junk)


def load_outcome(load, blob: bytes):
    """The loaded cluster's state, or the message of the ClusterError."""
    try:
        cluster = load(blob)
    except ClusterError as exc:
        return str(exc)
    return (
        cluster.device_count, cluster._devices, cluster._lengths,
        list(cluster._index.items()), cluster._written,
    )


def test_load_snapshot_agrees_with_the_line_by_line_reference(
    demo_snapshot, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "case.snap"
    for name, blob in snapshot_cases(demo_snapshot):
        expected = load_outcome(reference_load_snapshot, blob)
        assert load_outcome(load_snapshot, blob) == expected, name
        path.write_bytes(blob)
        audit = (cli.main(["audit", str(path)]), *capsys.readouterr())
        with monkeypatch.context() as patch:
            patch.setattr(parity, "load_snapshot", reference_load_snapshot)
            assert (cli.main(["audit", str(path)]), *capsys.readouterr()) == audit, name


ODD_VALUES = [None, True, -1, 2**70, "", [], {}, 1.5]


def json_paths(node, prefix=()):
    """Every path below node: dict keys and list indexes, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, prefix + (key,))


class RunTimeout(BaseException):
    """Not an Exception, so the CLI's internal-error guard cannot eat it."""


def _timeout(signum, frame):
    raise RunTimeout(f"autobox run took over {RUN_BOUND_S}s")


def test_mutated_scenarios_end_cleanly(tmp_path, capsys):
    base = json.loads(DEMO_SCENARIO.read_text())
    paths = list(json_paths(base))
    key_paths = [p for p in paths if isinstance(p[-1], str)]
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    rng = random.Random(20203)
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for case in range(SCENARIO_MUTATIONS):
            doc = copy.deepcopy(base)
            delete = rng.random() < 0.5
            path = rng.choice(key_paths if delete else paths)
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            if delete:
                del parent[path[-1]]
                where = f"case {case}: {path} deleted"
            else:
                parent[path[-1]] = value = rng.choice(ODD_VALUES)
                where = f"case {case}: {path} -> {value!r}"
            scenario.write_text(json.dumps(doc))
            signal.setitimer(signal.ITIMER_REAL, RUN_BOUND_S)
            try:
                rc = cli.main(["run", str(scenario), "--out", str(out)])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), f"{where}: exit {rc}: {err}"
            assert "Traceback" not in err, where
    finally:
        signal.signal(signal.SIGALRM, previous)
