"""Package metadata says each fact once: the version in `pyproject.toml` is
the one `qgdrive.__version__` reports."""

import sys
from pathlib import Path

import pytest

import qgdrive

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert qgdrive.__version__ == project["version"]
