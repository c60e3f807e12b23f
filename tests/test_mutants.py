"""The mutation tool's enumeration stays whole, and quick enough to check here.

``tools/mutants.py`` is loaded from its file, as ``test_perfbench_names.py``
loads the benchmark's tracer, and enumerates its mutants of this tree
without running one. A target renamed or deleted, a target that no operator
reaches any more, or a note or f-string target that names nothing fails
here rather than in a mutation run of twenty minutes. The mutation run
itself leaves this file out: under a mutant it would read the mutated
source and count the mutant killed.
"""

from __future__ import annotations

from pathlib import Path

from conftest import load_from_file

ROOT = Path(__file__).resolve().parents[1]


def test_every_target_yields_a_mutant_and_every_name_is_one():
    tool = load_from_file("mutants_tool", ROOT / "tools" / "mutants.py")
    mutants = tool.find_mutants(ROOT)  # exits naming any target not found
    targets = {f"{module}.{name}" for module, names in tool.TARGETS.items() for name in names}
    assert {m["id"].split(":")[0] for m in mutants} == targets
    assert set(tool.NOTES) <= {m["id"] for m in mutants}
    assert tool.FSTRING_TARGETS <= targets
