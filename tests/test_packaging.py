"""Package metadata says each fact once: the version in `pyproject.toml` is
the one `qgdrive.__version__` reports. Importing the CLI loads every module
the benchmark's probe traces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgdrive

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert qgdrive.__version__ == project["version"]


def test_import_loads_every_module_the_probe_traces():
    # bench/probe.py wraps only the modules loaded once `import qgdrive.cli`
    # returns, so a module imported lazily would read as zero calls there
    from test_bench_names import GONE, PROBE

    traced = {mod for mod, fn in (*PROBE.SPANS, *PROBE.COUNTERS) if (mod, fn) not in GONE}
    code = ("import sys, qgdrive.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('qgdrive.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60)
    loaded = {name.removeprefix("qgdrive.") for name in out.stdout.split()}
    assert traced <= loaded, traced - loaded
