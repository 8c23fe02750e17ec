"""Every function bench/probe.py traces must exist in qgdrive.

The probe skips a name it cannot find and reports it as zero calls, and
bench/selftest.py runs outside this suite, so a renamed or moved function
would otherwise drop out of the per-layer numbers without any test failing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_probe():
    path = Path(__file__).resolve().parents[1] / "bench" / "probe.py"
    spec = importlib.util.spec_from_file_location("bench_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBE = _load_probe()
# traced names whose function is gone on purpose: clinalg.apply was folded
# into quantum_game.final_states
GONE = {("clinalg", "apply")}
TRACED = [name for name in (*PROBE.SPANS, *PROBE.COUNTERS) if name not in GONE]


@pytest.mark.parametrize("mod_name,fn_name", TRACED, ids=[".".join(n) for n in TRACED])
def test_traced_function_exists(mod_name, fn_name):
    module = importlib.import_module(f"qgdrive.{mod_name}")
    assert callable(getattr(module, fn_name, None))


def test_only_the_known_names_are_gone():
    assert GONE <= {*PROBE.SPANS, *PROBE.COUNTERS}
    for mod_name, fn_name in GONE:
        assert not hasattr(importlib.import_module(f"qgdrive.{mod_name}"), fn_name)
