"""The benchmark wraps autobox functions by name; keep every name alive.

``perfbench/tracing.py`` is loaded from its file, unchanged, so deleting or
renaming a traced function, or an attribute its count hooks read, fails
here rather than in a benchmark run. So does a ledger command that stops
passing through the seam the benchmark counts it at, and a run artifact
that the benchmark hashes but ``cli.write_artifacts`` no longer writes.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

from autobox import cli, vehiclesim

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCH_RUN = ROOT / "perfbench" / "run.py"
DEMO = ROOT / "scenarios" / "demo.json"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.FUNCTIONS
    for name, (owner_path, attr) in tracing.FUNCTIONS.items():
        module_name, _, class_name = owner_path.partition(".")
        owner = importlib.import_module(f"autobox.{module_name}")
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), name


def test_count_hooks_read_live_attributes():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        vehiclesim.run_scenario(vehiclesim.load_scenario(DEMO))
    finally:
        tracer.uninstall()
    for name in (
        "parity.scrub.bytes",
        "parity.append_record.bytes",
        "masternode.capture_meta_hash.records",
        "dht.put.hops",
    ):
        assert tracer.counts[name] > 0, name


def test_ledger_commands_pass_their_traced_seams(tmp_path, capsys):
    """One verify_chain span per ``verify`` and one load_ledger span per
    ``history``: the benchmark predicts load_ledger.calls from queries."""
    result = vehiclesim.run_scenario(vehiclesim.load_scenario(DEMO))
    cli.write_artifacts(result, tmp_path)
    path = tmp_path / cli.LEDGER_FILE
    key = result.blocks[0].entries[0].vehicle_key
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.command(cli.main, ["verify", str(path)]) == 0
        for _ in range(2):
            assert tracer.command(cli.main, ["history", str(path), key, "--machine"]) == 0
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("ledger.verify_chain") == 1
    assert names.count("ledger.load_ledger") == 2
    assert capsys.readouterr().out.startswith("valid\n")


def bench_artifacts() -> tuple[str, ...]:
    """``ARTIFACTS`` of perfbench/run.py, read from its source, not imported."""
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ARTIFACTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no ARTIFACTS")


def test_writer_writes_exactly_the_hashed_artifacts(tmp_path):
    """The benchmark hashes ARTIFACTS plus every ``*.snap``: nothing else
    may appear in a run's output directory, and nothing may go missing."""
    result = vehiclesim.run_scenario(vehiclesim.load_scenario(DEMO))
    cli.write_artifacts(result, tmp_path)
    written = {path.name for path in tmp_path.iterdir()}
    snaps = {name for name in written if name.endswith(".snap")}
    assert snaps and snaps == {name for name, _ in result.cluster_snapshots}
    assert written - snaps == set(bench_artifacts())
