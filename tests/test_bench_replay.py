"""bench/replay.py, the decision-replay workload's driver, runs on a tiny input.

The driver imports the library API directly and runs only inside the
benchmark, so a rename it depends on would otherwise fail there first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from qgdrive import cli


def _load_replay():
    path = Path(__file__).resolve().parents[1] / "bench" / "replay.py"
    spec = importlib.util.spec_from_file_location("bench_replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_driver_writes_one_row_per_policy(tmp_path):
    out = tmp_path / "report.json"
    assert _load_replay().main(["--episodes", "3", "--seed", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 6
    assert all(row["episodes"] == 3 for row in rows)


@pytest.mark.parametrize("seed", [7, 11])
def test_cli_decision_replay_writes_the_drivers_report(tmp_path, seed):
    # `qgdrive simulate --decision-replay` reaches the same comparison, so the
    # driver can give way to it without moving a byte of the report
    replay = _load_replay()
    driver, simulate = tmp_path / "driver.json", tmp_path / "simulate.json"
    assert replay.main(["--episodes", "60", "--seed", str(seed), "--out", str(driver)]) == 0
    assert cli.main([
        "simulate", "--scenario", "roundabout", "--policies", ",".join(replay.POLICIES),
        "--decision-replay", "--assumed-gate", "uniform", "--episodes", "60",
        "--seed", str(seed), "--format", "json", "--out", str(simulate),
    ]) == 0
    assert simulate.read_bytes() == driver.read_bytes()
