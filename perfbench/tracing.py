"""Out-of-tree tracing for the benchmark's traced run.

``Tracer.install()`` replaces each traced function with a wrapper at every
place it is looked up: the attribute of every loaded ``autobox`` module
that holds the function (so a name imported with ``from .x import f`` is
patched too), and the class attribute for methods. ``uninstall()`` puts
the originals back; the untraced timed runs never see a wrapper.

Spans are kept in memory as ``[name, start, end, parent, command]`` with
``parent`` the index of the enclosing span (-1 at top level) and
``command`` the id of the CLI command that caused them. Deterministic
counts are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Traced function -> (module or class path inside autobox, attribute).
FUNCTIONS = {
    "auditcore.identity_hash": ("auditcore", "identity_hash"),
    "auditcore.derive_vehicle_key": ("auditcore", "derive_vehicle_key"),
    "dht.put": ("dht.DhtNetwork", "put"),
    "dht.locate": ("dht.DhtNetwork", "locate"),
    "dht.add_node": ("dht.DhtNetwork", "add_node"),
    "parity.append_record": ("parity.ParityCluster", "append_record"),
    "parity.scrub": ("parity", "scrub"),
    "parity.repair": ("parity", "repair"),
    "parity.save_snapshot": ("parity", "save_snapshot"),
    "parity.load_snapshot": ("parity", "load_snapshot"),
    "masternode.capture_meta_hash": ("masternode.MasterNode", "capture_meta_hash"),
    "masternode.meta_digest": ("masternode", "meta_digest"),
    "masternode.submit_pending": ("masternode.MasterNode", "submit_pending"),
    "ledger.append_submissions": ("ledger.FullNode", "append_submissions"),
    "ledger.evaluate": ("ledger.FullNode", "evaluate"),
    "ledger.merkle_root": ("ledger", "merkle_root"),
    "ledger.verify_chain": ("ledger", "verify_chain"),
    "ledger.load_ledger": ("ledger", "load_ledger"),
    "ledger.history_from_file": ("ledger", "history_from_file"),
    "vehiclesim.load_scenario": ("vehiclesim", "load_scenario"),
    "vehiclesim.run_scenario": ("vehiclesim", "run_scenario"),
    "vehiclesim.vehicle_run": ("vehiclesim.Vehicle", "run"),
    "vehiclesim.handle_event": ("vehiclesim.Vehicle", "handle_event"),
}
CLI_COMMANDS = ("run", "verify", "history", "audit")
SPAN_NAMES = tuple(FUNCTIONS) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

COUNTS = (
    "dht.put.hops",
    "dht.put.fallbacks",
    "dht.put.evictions",
    "dht.put.checkpoint_required",
    "parity.append_record.bytes",
    "parity.scrub.bytes",
    "parity.scrub.dirty",
    "masternode.capture_meta_hash.records",
    "masternode.submit_pending.peak_backlog",
    "ledger.append_submissions.entries",
    "ledger.append_submissions.rejected",
    "ledger.merkle_root.leaves",
)
# (metric, span, percentile, scale from seconds)
LATENCIES = (
    ("masternode.capture_meta_hash.p50_ms", "masternode.capture_meta_hash", 50, 1e3),
    ("masternode.capture_meta_hash.p90_ms", "masternode.capture_meta_hash", 90, 1e3),
    ("parity.scrub.p50_ms", "parity.scrub", 50, 1e3),
    ("parity.scrub.p90_ms", "parity.scrub", 90, 1e3),
    ("dht.put.p50_us", "dht.put", 50, 1e6),
    ("dht.put.p90_us", "dht.put", 90, 1e6),
)


def _count_put(counts, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "CheckpointRequired":
            counts["dht.put.checkpoint_required"] += 1
        return
    counts["dht.put.hops"] += result.hops
    counts["dht.put.fallbacks"] += int(result.fallback)
    counts["dht.put.evictions"] += len(result.evicted)


def _count_append_record(counts, args, result, exc):
    if exc is None:
        counts["parity.append_record.bytes"] += len(args[3])


def _count_scrub(counts, args, result, exc):
    cluster = args[0]
    scanned = sum(cluster.recorded_length(i) for i in range(cluster.device_count))
    counts["parity.scrub.bytes"] += scanned + cluster.recorded_length("parity")
    if exc is not None or not result.clean:
        counts["parity.scrub.dirty"] += 1


def _count_capture(counts, args, result, exc):
    if exc is None:
        counts["masternode.capture_meta_hash.records"] += result.covered_records


def _count_backlog(counts, args):
    backlog = len(args[0].buffer.pending)
    key = "masternode.submit_pending.peak_backlog"
    counts[key] = max(counts[key], backlog)


def _count_append_submissions(counts, args, result, exc):
    if exc is None:
        counts["ledger.append_submissions.entries"] += len(result.accepted)
        counts["ledger.append_submissions.rejected"] += len(result.rejected)


def _count_merkle(counts, args, result, exc):
    counts["ledger.merkle_root.leaves"] += len(args[0])


AFTER = {
    "dht.put": _count_put,
    "parity.append_record": _count_append_record,
    "parity.scrub": _count_scrub,
    "masternode.capture_meta_hash": _count_capture,
    "ledger.append_submissions": _count_append_submissions,
    "ledger.merkle_root": _count_merkle,
}
BEFORE = {"masternode.submit_pending": _count_backlog}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.commands: list[str] = []  # command id -> span name
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = BEFORE.get(name), AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(counts, args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.commands) - 1]
            spans.append(span)
            stack.append(index)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if after:
                    after(counts, args, result, exc)

        return traced

    def command(self, cli_main, argv):
        """Call ``cli_main(argv)`` as one top-level ``cli.<command>`` span."""
        self.commands.append(f"cli.{argv[0]}")
        return self._wrap(self.commands[-1], cli_main)(argv)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "autobox" or name.startswith("autobox.")
        }
        for name, (owner_path, attr) in FUNCTIONS.items():
            module_name, _, class_name = owner_path.partition(".")
            owner = modules[f"autobox.{module_name}"]
            if class_name:
                owner = getattr(owner, class_name)
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for mod_attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, mod_attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(values, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(spans) -> dict[str, float]:
    """calls, busy_s and self_s per traced name, plus span latencies."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for span, self_s in zip(spans, selfs):
        name = span[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += span[2] - span[1]
        out[f"{name}.self_s"] += self_s
        durations[name].append(span[2] - span[1])
    for metric, name, pct, scale in LATENCIES:
        out[metric] = percentile(durations[name], pct) * scale
    return out


def busy_under(spans, commands, name: str, command: str) -> float:
    """Inclusive time of ``name`` spans caused by ``command`` commands."""
    return sum(s[2] - s[1] for s in spans if s[0] == name and commands[s[4]] == command)
