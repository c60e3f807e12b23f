from __future__ import annotations

import ast
import re
from pathlib import Path

import autobox

ROOT = Path(__file__).parent.parent


def library_use_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    """The README's ``python`` block runs as written, from another directory,
    with its scenario path anchored to the repository root."""
    block = library_use_block()
    scenario = '"scenarios/demo.json"'
    assert scenario in block
    block = block.replace(scenario, repr(str(ROOT / "scenarios" / "demo.json")))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert (tmp_path / "audit-out" / "ledger.txt").is_file()
    assert capsys.readouterr().out


def test_package_exports_what_the_readme_imports():
    """The example imports from ``autobox`` alone, and the package exports
    exactly the names it imports beside the ``cli`` module."""
    imports = [
        node for node in ast.walk(ast.parse(library_use_block()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("autobox")
    ]
    assert {node.module for node in imports} == {"autobox"}
    names = {alias.name for node in imports for alias in node.names} - {"cli"}
    assert set(autobox.__all__) == names
    assert all(hasattr(autobox, name) for name in names)
