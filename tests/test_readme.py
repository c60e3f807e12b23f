from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    """The README's ``python`` block runs as written, from another directory,
    with its scenario path anchored to the repository root."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    scenario = '"scenarios/demo.json"'
    assert scenario in block
    block = block.replace(scenario, repr(str(ROOT / "scenarios" / "demo.json")))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert (tmp_path / "audit-out" / "ledger.txt").is_file()
    assert capsys.readouterr().out
