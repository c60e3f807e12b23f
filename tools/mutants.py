"""Mutation run over the tamper-evidence checks and the exit codes (ROADMAP item 13).

Each mutant changes one operator in one target function: a comparison
operator to its boundary or negated twin (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``),
``and`` to ``or`` and back, or a ``not`` dropped; an integer constant
0 to 3 that a function returns to its neighbour (0 and 1, 1 and 2, 2 and
3), which moves an exit code of the ``cli`` commands; or a statement that
is only a call of ``.add``, ``.clear``, ``.append`` or ``.extend``
dropped, which leaves a collection as it was. For each mutant the
runner copies the tree into a temporary directory, splices the mutated
expression into that copy's source and runs ``pytest -x -q`` there; the
working tree is never written. A mutant is killed when the run fails, or
when it takes more than ``TIMEOUT_FACTOR`` times as long as the unmutated
run, which is timed first. The report, ``tools/mutants.json`` beside this
script, lists every mutant, the first failing test of each killed one,
and for each survivor the note in ``NOTES`` that explains it: an
equivalent mutant and why, or an open gap. Usage, from anywhere:

    python3 tools/mutants.py    # every mutant, two pytest runs at a time

Stdlib only; not part of the Tier-1 tests. A full run takes about 20
minutes on two vCPUs.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = Path(__file__).resolve().parent / "mutants.json"
MAX_JOBS = 2
# A mutant's run may take this many times the unmutated run's time before
# it counts as killed (a mutant that loops forever).
TIMEOUT_FACTOR = 3

# module -> the functions on the tamper-evidence path, by qualified name.
TARGETS = {
    "ledger": [
        "read_library", "oem_checksum", "merkle_root", "_seal", "LedgerBlock.build",
        "_advance", "_walk", "load_ledger", "FullNode.append_submissions",
        "FullNode.register_vehicle", "FullNode.evaluate", "history_from_file",
    ],
    "parity": [
        "ParityCluster._resolve", "ParityCluster._data_index",
        "ParityCluster.is_erased", "ParityCluster.append_record",
        "ParityCluster.corrupt_byte", "ParityCluster.write_back", "_suspects",
        "_stale_records", "scrub", "reconstruct", "_lines_end", "_refuse_index",
        "load_snapshot",
    ],
    "dht": [
        "detect_discrepancy", "DhtNode.cover", "DhtNode.evict", "DhtNode.insert",
        "DhtNetwork.remove_node", "DhtNetwork.fail_node", "DhtNetwork.recover_node",
        "DhtNetwork.is_live", "DhtNetwork.locate", "DhtNetwork.put",
    ],
    "masternode": ["meta_digest", "MasterNode.put", "MasterNode.capture_meta_hash"],
    "vehiclesim": [
        "ScenarioEvent.__post_init__", "VehicleConfig.__post_init__", "Scenario.__post_init__",
        "Vehicle.startup_consistency_check", "Vehicle.clear_tamper_flag",
        "Vehicle._put_record", "Vehicle._capture", "Vehicle._drain", "Vehicle.run",
        "ScenarioResult.findings", "_dataclass", "run_scenario",
    ],
    "auditcore": [
        "_json", "validate_vin", "ModuleMetadata.__post_init__", "AuditRecord.__post_init__",
        "identity_hash", "derive_vehicle_key",
    ],
    "cli": ["_cmd_run", "_cmd_verify", "_cmd_history", "_cmd_audit", "main"],
}

_TWIN = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
    ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
}
# Methods whose call, as a statement of its own, a mutant drops.
_DROPPED_CALLS = {"add", "clear", "append", "extend"}

# Survivors, by mutant id: why each is equivalent or which gap it leaves.
NOTES = {
    "dht.DhtNetwork.locate: value ^ key_int < best: < -> <=": (
        "equivalent: XOR distances from one key to distinct node ids never"
        " tie, so no later id can take the place of an equally close one"
    ),
    "dht.DhtNetwork.put: value ^ key_int < distance: < -> <=": (
        "equivalent: XOR distances from one key to distinct node ids never"
        " tie, and the target itself is live, so never in _failed"
    ),
}


def _functions(tree: ast.Module):
    """(qualified name, node) of every function, methods as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _mutations(node: ast.AST, returned: bool):
    """(description, mutated copy) for each operator of one node;
    ``returned`` when the node is an integer constant of a returned value."""
    if returned:
        for value in (node.value - 1, node.value + 1):
            if 0 <= value <= 3:
                yield f"{node.value} -> {value}", ast.Constant(value)
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            mutated = copy.deepcopy(node)
            mutated.ops[i] = _TWIN[type(op)]()
            yield f"{_SYMBOL[type(op)]} -> {_SYMBOL[_TWIN[type(op)]]}", mutated
    elif isinstance(node, ast.BoolOp):
        mutated = copy.deepcopy(node)
        mutated.op = _TWIN[type(node.op)]()
        yield f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[_TWIN[type(node.op)]]}", mutated
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not x -> x", node.operand
    elif (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute) and node.value.func.attr in _DROPPED_CALLS
    ):
        yield "call dropped", ast.Constant(None)


def _returned(value: ast.AST | None) -> list[ast.AST | None]:
    """The expressions whose value a return statement's value may be."""
    if isinstance(value, ast.IfExp):
        return _returned(value.body) + _returned(value.orelse)
    return [value]


def _expressions(function: ast.AST):
    """Expression nodes of a function, skipping f-strings, whose inner
    positions are not source positions on every Python version."""
    stack = [function]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.JoinedStr):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _splice(source: str, node: ast.AST, text: str) -> str:
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))

    def at(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return offsets[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    start = at(node.lineno, node.col_offset)
    end = at(node.end_lineno, node.end_col_offset)
    return source[:start] + "(" + text + ")" + source[end:]


def find_mutants(root: Path) -> list[dict]:
    mutants = []
    for module, names in TARGETS.items():
        path = root / "src" / "autobox" / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        found = dict(_functions(ast.parse(source)))
        missing = sorted(set(names) - set(found))
        if missing:
            raise SystemExit(f"{module}: no function {missing}")
        for name in names:
            nodes = sorted(
                (n for n in _expressions(found[name]) if hasattr(n, "lineno")),
                key=lambda n: (n.lineno, n.col_offset),
            )
            # Integer constants returned as they are, named by their return statement.
            returns = {
                id(c): r
                for r in ast.walk(found[name]) if isinstance(r, ast.Return)
                for c in _returned(r.value) if isinstance(c, ast.Constant) and type(c.value) is int
            }
            seen: dict[str, int] = {}
            for node in nodes:
                original = ast.get_source_segment(source, returns.get(id(node), node))
                for change, mutated in _mutations(node, id(node) in returns):
                    base = f"{module}.{name}: {' '.join(original.split())}: {change}"
                    seen[base] = seen.get(base, 0) + 1
                    mutants.append({
                        "id": base if seen[base] == 1 else f"{base} #{seen[base]}",
                        "file": f"src/autobox/{module}.py",
                        "line": node.lineno,
                        "source": _splice(source, node, ast.unparse(mutated)),
                    })
    return mutants


def _copy_tree(root: Path, dest: Path) -> None:
    shutil.copytree(
        root, dest,
        ignore=shutil.ignore_patterns(".git", "__pycache__", "_work", "mutants.json"),
    )


def run_tests(tree: Path, timeout_s: float | None = None) -> tuple[bool, str | None]:
    """(passed, first failing test) of ``pytest -x -q`` in ``tree``, or
    (False, the timeout) when the run takes longer than ``timeout_s``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, f"timeout after {timeout_s:.0f} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    return proc.returncode == 0, failed[1] if failed else None


def run_mutant(base: Path, timeout_s: float, mutant: dict) -> dict:
    """Run the tests on a copy of ``base`` with ``mutant`` spliced in."""
    with tempfile.TemporaryDirectory(prefix="autobox-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(base, tree)
        (tree / mutant["file"]).write_text(mutant["source"], encoding="utf-8")
        passed, failed = run_tests(tree, timeout_s)
    entry = {"id": mutant["id"], "file": mutant["file"], "line": mutant["line"]}
    if passed:
        entry.update(status="survived", note=NOTES.get(mutant["id"]))
    else:
        entry.update(status="killed", killed_by=failed)
    return entry


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="autobox-base-") as tmp:
        base = Path(tmp) / "tree"  # one snapshot, so edits during the run do not leak in
        _copy_tree(ROOT, base)
        start = time.monotonic()
        if not run_tests(base)[0]:
            print("the unmutated tree fails its tests", file=sys.stderr)
            return 2
        timeout_s = TIMEOUT_FACTOR * (time.monotonic() - start)
        mutants = find_mutants(base)
        with ThreadPoolExecutor(max_workers=MAX_JOBS) as pool:
            results = []
            for entry in pool.map(partial(run_mutant, base, timeout_s), mutants):
                results.append(entry)
                print(f"{entry['status']:8} {entry['id']}", flush=True)
    survivors = [e for e in results if e["status"] == "survived"]
    unexplained = [e["id"] for e in survivors if not e["note"]]
    report = {
        "mutants": len(results),
        "killed": len(results) - len(survivors),
        "survived": len(survivors),
        "results": results,
    }
    REPORT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{len(results) - len(survivors)} of {len(results)} killed")
    for name in unexplained:
        print(f"unexplained survivor: {name}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
