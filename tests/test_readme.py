"""The README's library quick start runs as written, at a smaller size."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# the quick start's sizes -> the sizes this test runs it at
SHRINK = {"num_images=200": "num_images=6", "num_images=50": "num_images=3", "iterations=2000": "iterations=2"}


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    for full, small in SHRINK.items():
        assert full in block
        block = block.replace(full, small)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "detector.san").stat().st_size > 0
    assert capsys.readouterr().out.startswith("mAP: ")
