"""Self-test of the benchmark's own code; runs in a few seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def _dump(workload: workloads.Workload) -> str:
    return json.dumps([workload.scenario, workload.calibration, workload.expected], sort_keys=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_scenarios(self):
        for name in workloads.WHY:
            self.assertEqual(_dump(workloads.build(name, 5)), _dump(workloads.build(name, 5)))

    def test_different_seeds_differ(self):
        for name in workloads.WHY:
            self.assertNotEqual(_dump(workloads.build(name, 5)), _dump(workloads.build(name, 6)))

    def test_calibration_only_drops_attacks(self):
        w = workloads.build("fleet-service", 3)
        attack_kinds = {"EepromTamper", "ModuleSwap", "MemoryCorruption", "NodeFailure"}
        for lane, twin in zip(w.scenario["fleet"], w.calibration["fleet"]):
            benign = [e for e in lane["events"] if e["kind"] not in attack_kinds]
            self.assertEqual(benign, twin["events"])

    def test_expected_outcomes_hold_for_a_second_seed(self):
        bench = run.Bench("fleet-service", 2)
        bench.setup()
        out, _ = bench.audit_run(bench.cli.main)
        bench.check_artifacts(out)
        self.assertEqual(bench.checks.failures, [])
        attacks = [e["attack"] for e in bench.workload.expected.values()]
        for kind, count in workloads.FLEET_ATTACKS.items():
            self.assertEqual(attacks.count(kind), count)


class TracingTest(unittest.TestCase):
    def test_self_time_subtracts_children_once(self):
        # parent 10 ms; children 3 ms and 4 ms; a grandchild inside the 4 ms child.
        spans = [
            ["parent", 0.000, 0.010, -1, 0],
            ["a", 0.001, 0.004, 0, 0],
            ["b", 0.005, 0.009, 0, 0],
            ["c", 0.006, 0.008, 2, 0],
        ]
        got = tracing.self_times(spans)
        for value, want in zip(got, (0.003, 0.003, 0.002, 0.002)):
            self.assertAlmostEqual(value, want, places=12)

    def test_uninstall_restores_every_function(self):
        cli = run._import_cli()
        before = {name: getattr(cli, name) for name in ("verify_chain", "history_from_file",
                                                         "load_scenario", "run_scenario")}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.verify_chain, before["verify_chain"])
            self.assertIs(cli.verify_chain, sys.modules["autobox.ledger"].verify_chain)
        finally:
            tracer.uninstall()
        for name, fn in before.items():
            self.assertIs(getattr(cli, name), fn)


if __name__ == "__main__":
    unittest.main()
