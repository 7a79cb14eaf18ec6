"""The README's library example runs against the current API, and its
configuration file lists the defaults."""

import re
from pathlib import Path

import yaml

from qnr.config import ExperimentConfig, from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(title: str, lang: str) -> str:
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)
    return block


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md (Library)", "exec"), {})
    rank, c_tiv, c_tv = capsys.readouterr().out.split()
    assert int(rank) >= 1 and float(c_tiv) > 0.0 and float(c_tv) >= 0.0


def test_configuration_file_shows_the_defaults():
    assert from_dict(yaml.safe_load(_block("Configuration file", "yaml"))) == ExperimentConfig()
