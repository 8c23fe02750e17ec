"""Every ```python block in README.md runs as written, every `qgdrive`
command line in its shell blocks parses with the CLI's own parser, the
package's top level exports the Library example's imports, and the
"Policy names:" list is experiments.POLICIES."""

import re
import shlex
from pathlib import Path
from types import ModuleType

import pytest

import qgdrive
from qgdrive import cli, experiments

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
COMMANDS = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```\n(.*?)^```$", TEXT, re.S | re.M)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("qgdrive ")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c[1:]) for c in COMMANDS])
def test_readme_command_line_parses(argv):
    # a renamed or removed flag makes argparse exit with code 2
    cli.build_parser().parse_args(argv[1:])


def test_top_level_exports_the_library_imports():
    imported = re.search(r"^from qgdrive import \((.*?)\)", TEXT, re.S | re.M).group(1)
    public = {name for name, value in vars(qgdrive).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == {name.strip() for name in imported.split(",") if name.strip()}
    assert len(public) == 10 and qgdrive.__version__


def test_policy_names_are_the_policy_table():
    # a new POLICIES row cannot land without its README name
    listed = re.search(r"^Policy names: (.*?), each at most once", TEXT, re.S | re.M).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    assert names == [name.lower().replace("_", "-") for name in experiments.POLICIES]
