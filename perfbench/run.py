"""autobox benchmark: one seeded workload through the real CLI, in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload long-haul --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client in one process and one thread.
Each ``autobox.cli.main`` call starts only after the previous one returns;
nothing else runs. Set-up, timed apart as ``setup_s``, imports autobox,
generates and writes the scenario and runs the calibration
(``run --emit-library``) that seeds the approved library.

``--trace 0`` repeats, for ``--seconds``, a ``run --library`` audit run
followed by ``verify``, ``history --machine`` (walking the vehicle keys of
report.json round-robin, each at least once) and ``audit`` on every
snapshot, each for a share of the run's time (READ_SHARE). It reports the
end-to-end metrics as medians over the calls, in nominal seconds (see
REF_S). ``--trace 1`` repeats pairs of one untraced and one traced pass
(every command once) and reports the per-layer metrics; spans go to
``perfbench/_work``, never into compared artifacts.

Every command's output is checked. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import itertools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_RUNS = 3
# After each audit run, each read command repeats for this share of that
# run's time. Interleaving spreads every metric's samples over the whole
# timed window; each call is one sample and each metric is a median.
READ_SHARE = {"verify": 0.1, "history": 0.25, "audit": 0.1}
# Shared machines drift in speed by up to 2x over minutes. So a fixed
# reference task is timed after every timed call, and each call's time is
# taken relative to the reference times around it (Timeline.nominal), in
# units where the reference task takes REF_S "nominal seconds". Host-second
# medians are printed alongside.
REF_ROUNDS = 4000
REF_S = 0.01
ARTIFACTS = ("ledger.txt", "verdicts.tsv", "ground_truth.jsonl", "report.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_vehicle_days_per_s": "vehicle-days/s",
    "verify_blocks_per_s": "blocks/s",
    "history_queries_per_s": "queries/s",
    "audit_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
}


def reference_task() -> int:
    """Fixed stdlib work like autobox's: small SHA-256s, hex, dict and int ops."""
    acc, table = b"", {}
    for i in range(REF_ROUNDS):
        acc = hashlib.sha256(acc + str(i).encode()).digest()
        table[acc.hex()[:16]] = i
    return sum(int(k, 16) & 0xFF for k in sorted(table))


class Timeline:
    """Timed calls in call order, with reference-task timings after each."""

    def __init__(self):
        self.entries: list[tuple[str, float, float]] = []  # (name, start, seconds)

    def ref(self) -> None:
        started = time.perf_counter()
        reference_task()
        self.entries.append(("ref", started, time.perf_counter() - started))

    def timed(self, name: str, seconds: float) -> float:
        """Record a call that just ended; then time references for a tenth of it."""
        self.entries.append((name, time.perf_counter() - seconds, seconds))
        spent = 0.0
        while not spent or spent < seconds / 10:
            self.ref()
            spent += self.entries[-1][2]
        return seconds

    def host(self, name: str) -> list[float]:
        return [t for n, _, t in self.entries if n == name]

    def nominal(self, name: str) -> float:
        """Median of the call's times in nominal seconds.

        A call is divided by the median reference time over its own span
        widened by its length on both sides (and at least far enough to
        take in the references right before and after it), so a long audit
        run is set against the machine speed around it, not just at its ends.
        """
        e = self.entries
        refs = [(s + t / 2, t) for n, s, t in e if n == "ref"]
        ratios = []
        for i, (n, start, t) in enumerate(e):
            if n == name:
                pad = max(t, e[i - 1][2], e[i + 1][2])
                near = [r for mid, r in refs if start - pad <= mid <= start + t + pad]
                ratios.append(t / statistics.median(near))
        return statistics.median(ratios) * REF_S


class Checks:
    """Output checks; every failed one counts against ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _cli_call(cli_main, argv) -> tuple[int, str, float]:
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue(), time.perf_counter() - started


def _import_cli():
    for name in [n for n in sys.modules if n == "autobox" or n.startswith("autobox.")]:
        del sys.modules[name]
    return importlib.import_module("autobox.cli")


def ledger_histories(blob: bytes) -> dict[str, list[str]]:
    """Expected ``history --machine`` lines per vehicle key, read directly."""
    rows: dict[str, list[tuple[int, str]]] = {}
    pos = 0
    while pos < len(blob):
        newline = blob.index(b"\n", pos)
        length = int(blob[pos:newline])
        payload = blob[newline + 1 : newline + 1 + length].decode("utf-8")
        pos = newline + 1 + length
        header, *entries = payload.splitlines()
        block = header.split("|")[0]
        for entry in entries:
            key, seq, digest, trigger, sim_time = entry.split("|")
            line = "\t".join((seq, digest, trigger, sim_time, block))
            rows.setdefault(key, []).append((int(seq), line))
    return {key: [line for _, line in sorted(r)] for key, r in rows.items()}


def vehicle_findings(vehicle: dict) -> bool:
    return vehicle["tamper_flag"] or any(s != "Approved" for s in vehicle["verdicts"])


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workloads.build(workload, seed)
        self.work = WORK_DIR / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.checks = Checks()
        self.cli = None
        self.digest: str | None = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Import, generate and write the scenario, calibrate; returns seconds."""
        started = time.perf_counter()
        self.cli = _import_cli()
        w = workloads.build(self.workload.name, self.workload.seed)
        (self.work / "scenario.json").write_text(json.dumps(w.scenario, indent=1))
        (self.work / "calibration.json").write_text(json.dumps(w.calibration, indent=1))
        self.calibrate(self.cli.main)
        return time.perf_counter() - started

    def calibrate(self, call) -> float:
        argv = ["run", str(self.work / "calibration.json"), "-o", str(self.work / "calibration"),
                "--emit-library", str(self.work / "library.txt")]
        rc, _, elapsed = _cli_call(call, argv)
        self.checks.check(rc == 0, f"calibration exit code {rc}")
        return elapsed

    # -- commands ----------------------------------------------------------

    def audit_run(self, call) -> tuple[Path, float]:
        out = self.work / "audit"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", str(self.work / "scenario.json"), "-o", str(out),
                "--library", str(self.work / "library.txt")]
        if self.workload.any_findings:
            argv.append("--expect-findings")
        rc, _, elapsed = _cli_call(call, argv)
        self.checks.check(rc == 0, f"audit run exit code {rc}")
        return out, elapsed

    def check_artifacts(self, out: Path) -> dict:
        c = self.checks
        snaps = sorted(out.glob("*.snap"))
        h = hashlib.sha256()
        for path in [out / name for name in ARTIFACTS] + snaps:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digest = h.hexdigest()
        if self.digest is None:
            self.digest = digest
        else:
            c.check(digest == self.digest, "artifacts differ between repeats")

        report = json.loads((out / "report.json").read_text())
        expected = self.workload.expected
        c.check(set(report["vehicles"]) == set(expected), "report vehicles differ from scenario")
        for vin, exp in expected.items():
            got = report["vehicles"].get(vin)
            ok = got is not None and (vehicle_findings(got), got["tamper_flag"]) == (
                exp["findings"], exp["tamper_flag"])
            c.check(ok, f"{vin} ({exp['attack']}): outcome differs from expectation")
        c.check(report["findings"] == self.workload.any_findings, "report findings flag")

        truth = [json.loads(line) for line in (out / "ground_truth.jsonl").read_text().splitlines()]
        corruptions = [e for e in truth if e["event"] == "memory_corruption"]
        expected_corruptions = sum(
            1 for e in self._audit_events() if e["kind"] == "MemoryCorruption")
        c.check(len(corruptions) == expected_corruptions, "memory_corruption count")
        for e in corruptions:
            c.check(
                any(r["event"] == "parity_repair" and r["vin"] == e["vin"]
                    and r["cluster"] == e["cluster"] and r["sim_time"] >= e["sim_time"]
                    for r in truth),
                f"memory_corruption on {e['vin']} at {e['sim_time']} never repaired")
        keys = [k for v in report["vehicles"].values() for k in v["vehicle_keys"]]
        return {
            "keys": keys,
            "snaps": [str(p) for p in snaps],
            "snap_bytes": sum(p.stat().st_size for p in snaps),
            "blocks": report["blocks"],
            "history": ledger_histories((out / "ledger.txt").read_bytes()),
        }

    def _audit_events(self):
        sc = self.workload.scenario
        lanes = sc["fleet"] if "fleet" in sc else [sc]
        return [e for lane in lanes for e in lane["events"]]

    def verify(self, call, ledger: str) -> float:
        rc, out, elapsed = _cli_call(call, ["verify", ledger])
        self.checks.check(rc == 0 and out.strip() == "valid", f"verify: {rc} {out.strip()}")
        return elapsed

    def query(self, call, ledger: str, art: dict, key: str) -> float:
        rc, out, elapsed = _cli_call(call, ["history", ledger, key, "--machine"])
        self.checks.check(rc == 0 and out.splitlines() == art["history"].get(key, []),
                          f"history {key[:12]}: exit {rc} or wrong lines")
        return elapsed

    def audit(self, call, art: dict) -> float:
        snaps = art["snaps"]
        rc, out, elapsed = _cli_call(call, ["audit", *snaps])
        self.checks.check(
            rc == 0 and out.splitlines() == [f"{s}: clean" for s in snaps], f"audit: exit {rc}")
        return elapsed

    def cycle(self, call) -> float:
        """The audit run, then each read command once; returns command seconds."""
        out, total = self.audit_run(call)
        art = self.check_artifacts(out)
        ledger = str(out / "ledger.txt")
        total += self.verify(call, ledger)
        total += sum(self.query(call, ledger, art, key) for key in art["keys"])
        return total + self.audit(call, art)


# -- the two modes ------------------------------------------------------------


def end_to_end(bench: Bench, seconds: float) -> dict:
    clock = Timeline()
    clock.ref()
    clock.timed("setup", bench.setup())
    keys, n_keys = None, 0
    started = time.perf_counter()
    while (len(clock.host("run")) < MIN_RUNS or len(clock.host("history")) < n_keys
           or len(clock.host("setup")) < SETUP_REPEATS
           or time.perf_counter() - started < seconds):
        # Set-ups repeat evenly over the window, like every other sample, so
        # that process warm-up does not fall on them alone.
        done = len(clock.host("setup"))
        if done < SETUP_REPEATS and time.perf_counter() - started >= seconds * done / SETUP_REPEATS:
            clock.timed("setup", bench.setup())
        call = bench.cli.main
        out, run_s = bench.audit_run(call)
        clock.timed("run", run_s)
        art = bench.check_artifacts(out)
        ledger = str(out / "ledger.txt")
        # The artifacts are identical on every run (checked), so the history
        # queries walk the key list round-robin across runs.
        if keys is None:
            keys, n_keys = itertools.cycle(art["keys"]), len(art["keys"])
        reads = {
            "verify": lambda: bench.verify(call, ledger),
            "history": lambda: bench.query(call, ledger, art, next(keys)),
            "audit": lambda: bench.audit(call, art),
        }
        for name, read in reads.items():
            spent = 0.0
            while not spent or spent < run_s * READ_SHARE[name]:
                spent += clock.timed(name, read())
    for name in ("setup", "run", *READ_SHARE):
        host = clock.host(name)
        print(f"# {name}: {len(host)} calls, median {statistics.median(host):.6g} host s, "
              f"{clock.nominal(name):.6g} nominal s")
    metrics = {
        "setup_s": clock.nominal("setup"),
        "run_vehicle_days_per_s": bench.workload.vehicle_days / clock.nominal("run"),
        "verify_blocks_per_s": art["blocks"] / clock.nominal("verify"),
        "history_queries_per_s": 1 / clock.nominal("history"),
        "audit_mb_per_s": art["snap_bytes"] / 1e6 / clock.nominal("audit"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def traced(bench: Bench, seconds: float) -> dict:
    bench.setup()
    cli = bench.cli
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        tracer = tracing.Tracer()

        def traced_pass():
            tracer.install()
            try:
                call = lambda argv: tracer.command(cli.main, argv)  # noqa: E731
                return bench.calibrate(call) + bench.cycle(call)
            finally:
                tracer.uninstall()

        # Alternate which pass goes first, so warm-up favours neither.
        if len(passes) % 2:
            traced_s = traced_pass()
            plain = bench.calibrate(cli.main) + bench.cycle(cli.main)
        else:
            plain = bench.calibrate(cli.main) + bench.cycle(cli.main)
            traced_s = traced_pass()
        passes.append((tracer, plain, traced_s))

    c = bench.checks
    first = passes[0][0]
    for tracer, _, _ in passes[1:]:
        c.check(tracer.counts == first.counts, "per-layer counts differ between passes")
    per_pass = [tracing.layer_metrics(t.spans) for t, _, _ in passes]
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics.update(first.counts)
    ratios = [traced_s / plain for _, plain, traced_s in passes]
    metrics["trace_overhead_ratio"] = statistics.median(ratios)
    for tracer, _, traced_s in passes:
        top = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
        c.check(0.95 <= top / traced_s <= 1.0 + 1e-9,
                f"cli spans cover {top / traced_s:.3f} of traced command time")

    _report_predictions(bench, first)
    spans_file = bench.work / "spans.jsonl"
    with spans_file.open("w") as fh:
        for i, (tracer, _, _) in enumerate(passes):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": i, "name": span[0], "start": span[1], "end": span[2],
                                     "parent": span[3], "command": span[4]}) + "\n")
    print(f"# spans: {spans_file.relative_to(ROOT)} ({len(passes)} traced pass(es))")
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms",
            "p50_us": "us", "p90_us": "us", "bytes": "bytes",
            "trace_overhead_ratio": "ratio"}.get(suffix, "count")


def _report_predictions(bench: Bench, tracer) -> None:
    """Print whether the trace confirms the workload's stated predictions."""
    spans, commands = tracer.spans, tracer.commands
    busy = lambda name: tracing.busy_under(spans, commands, name, "cli.run")  # noqa: E731
    share = (busy("masternode.capture_meta_hash") + busy("parity.scrub")) / busy("cli.run")
    predicted = bench.workload.name == "long-haul"
    print(f"# prediction: capture_meta_hash + scrub are {'' if predicted else 'not '}the majority "
          f"of cli.run.busy_s; measured share {share:.3f} -> "
          f"{'confirmed' if (share > 0.5) == predicted else 'refuted'}")
    queries = commands.count("cli.history")
    loads = sum(1 for span in spans if span[0] == "ledger.load_ledger")
    print(f"# prediction: ledger.load_ledger.calls equals history queries; {loads} vs {queries} -> "
          f"{'confirmed' if loads == queries else 'refuted'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "autobox" / "cli.py").is_file():
        print(f"error: no autobox sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    print(f"# autobox benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    print("# load: closed loop, 1 client, single process, single thread; "
          "each CLI command starts after the previous one returns")
    print(f"# why {args.workload}: {workloads.WHY[args.workload]}")
    bench = Bench(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    metrics = measure(bench, args.seconds)

    c = bench.checks
    for failure in c.failures[:20]:
        print(f"# FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    error_rate = len(c.failures) / c.attempted
    print(f"error_rate {error_rate:.6g} ratio ({len(c.failures)} of {c.attempted} checks failed)")
    print(f"artifacts_sha256 {bench.digest}")
    print(json.dumps({
        "correct": not c.failures,
        "attempted": c.attempted,
        "failed": len(c.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
