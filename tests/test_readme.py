"""Every ```python block in README.md runs as written, every `qgdrive`
command line in its shell blocks parses with the CLI's own parser, the
package's top level exports the Library example's imports, the
"Policy names:" list is experiments.POLICIES, and every name the module
bullets cite is in the code."""

import builtins
import dataclasses
import importlib
import inspect
import pkgutil
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


def _code_names():
    """Every module, module attribute, dataclass or named tuple field and
    function or method parameter in qgdrive."""
    names = {"qgdrive"}
    for info in pkgutil.iter_modules(qgdrive.__path__):
        module = importlib.import_module(f"qgdrive.{info.name}")
        names.add(info.name)
        for name, value in vars(module).items():
            names.add(name)
            if dataclasses.is_dataclass(value):
                names.update(f.name for f in dataclasses.fields(value))
            if inspect.isclass(value) and issubclass(value, tuple):
                names.update(getattr(value, "_fields", ()))
            for fn in (value, *vars(value).values()) if inspect.isclass(value) else (value,):
                if inspect.isfunction(fn):
                    names.update(inspect.signature(fn).parameters)
    return names


def test_module_bullets_name_only_code_that_exists():
    # a deleted function or argument cannot stay in the module map
    bullets = re.search(r"^Modules under `src/qgdrive/`:\n(.*?)^## ", TEXT, re.S | re.M).group(1)
    cited = {name for name in re.findall(r"`([^`]+)`", bullets)
             if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name)}
    known = _code_names()
    missing = sorted(name for name in cited
                     if not all(part in known or hasattr(builtins, part)
                                for part in name.split(".")))
    assert len(cited) > 30 and not missing
