"""Command-line front end: run scenarios, audit artifacts, query history.

Commands:
    run <scenario.json> -o <dir>   simulate and write the audit artifacts
    verify <ledger>                recompute a persisted chain
    history <ledger> <key>         one vehicle's checkpoint history
    audit <snapshot>...            scrub parity-cluster snapshot files

``run`` simulates first and then writes ledger.txt, verdicts.tsv,
ground_truth.jsonl, report.json and one snapshot per parity cluster into
the output directory (default: $AUTOBOX_OUT) through ``write_artifacts``,
so a run the simulation refuses writes nothing. All machine-readable
outputs are deterministic for identical inputs; wall timing appears only
in the human summary on stdout.

Exit codes: 0 clean, 1 findings or corruption (a ledger ``verify`` finds
broken), 2 bad input (a missing or unreadable file, an empty path, an output
path that cannot be written, a malformed snapshot or scenario, a broken
ledger given to ``history``), 3 internal error (an exception no command
handles: a defect in autobox, reported as one ``internal error:`` line on
stderr instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Iterable

from . import parity
from .auditcore import ScenarioError, is_hex_digest
from .ledger import (
    LedgerFormatError,
    VerdictStatus,
    history_from_file,
    library_text,
    read_library,
    verify_chain,
)
from .vehiclesim import ScenarioResult, load_scenario, run_scenario

LEDGER_FILE = "ledger.txt"
VERDICTS_FILE = "verdicts.tsv"
GROUND_TRUTH_FILE = "ground_truth.jsonl"
REPORT_FILE = "report.json"
# Lines of a text artifact joined and encoded per write: a few tens of KB.
CHUNK_LINES = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autobox",
        description="Distributed audit-trail black box: scenario runner and auditors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and write artifacts")
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument(
        "-o",
        "--out",
        help="output directory (default: $AUTOBOX_OUT or ./autobox-out)",
    )
    run_p.add_argument(
        "--expect-findings",
        action="store_true",
        help="exit 0 even when the run surfaces tamper flags or bad verdicts",
    )
    run_p.add_argument(
        "--library",
        default=None,
        help="approved-library file to judge every checkpoint against",
    )
    run_p.add_argument(
        "--emit-library",
        default=None,
        help="write the observed meta digests as an approved-library file",
    )

    verify_p = sub.add_parser("verify", help="verify a persisted ledger chain")
    verify_p.set_defaults(handler=_cmd_verify)
    verify_p.add_argument("ledger", help="ledger file")

    history_p = sub.add_parser("history", help="print one vehicle's checkpoint history")
    history_p.set_defaults(handler=_cmd_history)
    history_p.add_argument("ledger", help="ledger file")
    history_p.add_argument("vehicle_key", help="vehicle key (64 hex chars)")
    history_p.add_argument(
        "--machine", action="store_true", help="tab-separated lines instead of a table"
    )

    audit_p = sub.add_parser("audit", help="scrub parity-cluster snapshot files")
    audit_p.set_defaults(handler=_cmd_audit)
    audit_p.add_argument("snapshots", nargs="+", help="cluster snapshot files")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    out = os.environ.get("AUTOBOX_OUT", "autobox-out") if args.out is None else args.out
    paths = {"output directory": out, "--library": args.library, "--emit-library": args.emit_library}
    for name, path in paths.items():
        if path == "":  # Path("") reads as ".", and a truth test as no path at all
            print(f"error: {name} is an empty path", file=sys.stderr)
            return 2
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        return _path_error(args.scenario, exc)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.library:
        try:
            library = read_library(Path(args.library).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: cannot load library: {exc}", file=sys.stderr)
            return 2
        scenario = replace(scenario, approved_library=library)

    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _path_error(out, exc)
    started = time.perf_counter()
    try:
        result = run_scenario(scenario)
    except ScenarioError as exc:  # an event the simulation refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    try:
        if args.emit_library:  # first, so a library it cannot write leaves -o empty
            text = library_text(result.observed_library())
            Path(args.emit_library).write_bytes(text.encode("utf-8"))
        report = write_artifacts(result, outdir)
    except OSError as exc:
        return _path_error(exc.filename or out, exc)

    _print_summary(report, elapsed)
    if report["findings"] and not args.expect_findings:
        return 1
    return 0


def write_artifacts(result: ScenarioResult, outdir: Path) -> dict:
    """Write every machine artifact of a run into the existing ``outdir``;
    returns the report that report.json holds.

    Every file but the snapshots is streamed: no file's whole text, nor
    an encoded copy of it, is ever held in memory."""
    report = _build_report(result)
    with open(outdir / LEDGER_FILE, "wb") as f:
        f.writelines(block.file_record() for block in result.blocks)
    _write_lines(outdir / VERDICTS_FILE, (v.output_line() for v in result.verdicts))
    _write_lines(outdir / GROUND_TRUTH_FILE, result.ground_truth)
    for name, blob in result.cluster_snapshots:
        (outdir / name).write_bytes(blob)
    with open(outdir / REPORT_FILE, "wb") as f:  # ASCII: json escapes the rest
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        f.writelines(chunk.encode() for chunk in chunks)
        f.write(b"\n")
    return report


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line and a newline as UTF-8, encoding CHUNK_LINES at a time."""
    rest = iter(lines)
    with open(path, "wb") as f:
        while chunk := list(islice(rest, CHUNK_LINES)):
            chunk.append("")  # so the join ends the last line too
            f.write("\n".join(chunk).encode("utf-8"))


def _build_report(result: ScenarioResult) -> dict:
    """The run report; its vehicles keep the scenario's order."""
    vehicles = {}
    for v in result.vehicles:
        vehicles[v.vin] = {
            "variant_code": v.variant_code,
            "vehicle_keys": list(v.vehicle_keys),
            "checkpoints": len(v.captures),
            "verdicts": v.verdicts,
            "tamper_flag": v.tamper_flag,
            "tamper_fields": {
                f: sorted(mods) for f, mods in sorted(v.tamper_details.items())
            },
        }
    return {
        "scenario_id": result.scenario.scenario_id,
        "seed": result.scenario.seed,
        "duration_s": result.scenario.duration_s,
        "blocks": len(result.blocks),
        "vehicles": vehicles,
        "alerts": list(result.alerts),
        "findings": result.findings,
    }


def _print_summary(report: dict, elapsed: float) -> None:
    print(f"scenario {report['scenario_id']}: {report['blocks']} block(s)")
    for vin, v in report["vehicles"].items():
        bad = sorted(s for s in v["verdicts"] if s != VerdictStatus.APPROVED.value)
        verdict_note = ",".join(bad) or ("Approved" if v["verdicts"] else "no verdicts")
        flag_note = " TAMPER-FLAG" if v["tamper_flag"] else ""
        print(f"  {vin}: {v['checkpoints']} checkpoint(s), verdicts: {verdict_note}{flag_note}")
    for alert in report["alerts"]:
        print(f"  alert: {alert}")
    print(f"findings: {'yes' if report['findings'] else 'none'} ({elapsed:.2f}s)")


def _path_error(name: str, exc: OSError) -> int:
    """Report a path that cannot be read or written (missing, a directory, ...)."""
    print(f"{name}: error: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        result = verify_chain(args.ledger)
    except OSError as exc:
        return _path_error(args.ledger, exc)
    print(result.describe())
    return 0 if result.valid else 1


def _cmd_history(args: argparse.Namespace) -> int:
    if not is_hex_digest(args.vehicle_key):
        print("error: vehicle key must be 64 lowercase hex chars", file=sys.stderr)
        return 2
    try:
        history = history_from_file(args.ledger, args.vehicle_key)
    except OSError as exc:
        return _path_error(args.ledger, exc)
    except LedgerFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    rows = [
        (str(sub.checkpoint_seq), sub.meta_digest, sub.trigger.value, str(sub.sim_time),
         str(block))
        for block, sub in history
    ]
    if args.machine:
        lines = ["\t".join(row) for row in rows]
    else:
        rows.insert(0, ("seq", "meta_digest", "trigger", "sim_time", "block"))
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    status = 0
    for name in args.snapshots:
        try:
            blob = Path(name).read_bytes()
        except OSError as exc:
            status = _path_error(name, exc)
            continue
        try:
            report = parity.scrub(parity.load_snapshot(blob))
        except parity.ClusterError as exc:
            print(f"{name}: format error: {exc}", file=sys.stderr)
            status = 2
            continue
        except parity.MultiFaultError as exc:
            print(f"{name}: uncorrectable: {exc}")
            status = max(status, 1)
            continue
        if report.clean:
            print(f"{name}: clean")
        else:
            print(
                f"{name}: corrupt device={report.device} "
                f"records={len(report.records)}"
            )
            status = max(status, 1)
    return status


_PARSER = _build_parser()  # once per process: main only parses


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # no traceback escapes, and 1 stays "findings"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
