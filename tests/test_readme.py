"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_example_runs(capsys):
    exec(compile(_library_block(), "README.md (Library)", "exec"), {})
    rank, c_tiv, c_tv = capsys.readouterr().out.split()
    assert int(rank) >= 1 and float(c_tiv) > 0.0 and float(c_tv) >= 0.0
