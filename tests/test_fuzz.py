"""Seeded fuzzing of persisted artifacts, stdlib only.

Ledger bytes: the ledger of ``scenarios/demo.json`` takes seeded
single-byte substitutions and truncations. A substitution must break
exactly the block that holds the byte, and ``autobox verify`` must say so
with exit 1 and no traceback. A truncation inside a block breaks that
block; one at a block boundary leaves a shorter valid chain.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from autobox import cli
from autobox.ledger import VerifyResult, verify_chain
from autobox.vehiclesim import load_scenario, run_scenario

from conftest import record_spans

DEMO_SCENARIO = Path(__file__).parent.parent / "scenarios" / "demo.json"
SUBSTITUTIONS = 600
TRUNCATIONS = 200


@pytest.fixture(scope="module")
def demo_ledger(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("demo") / "ledger.txt"
    result = run_scenario(load_scenario(DEMO_SCENARIO), ledger_path=path)
    assert len(result.blocks) >= 3
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
