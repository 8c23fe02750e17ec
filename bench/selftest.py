"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/selftest.py

Kept out of the tier-1 suite (the file name does not match test_*.py) so
that timing noise can never turn it red.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = {"mc-merging": 60, "mc-roundabout-replay": 40, "sweep-u1": 11}

# layer metrics that must be non-zero on a workload (all others may be zero)
BUSY = {
    "mc-merging": ("scenario_sim.run_episode.calls", "scenario_sim.steps",
                   "scenario_sim.idm_accel.calls", "scenario_sim.driver_decisions.calls",
                   "experiments.episode_rng.calls", "scenario_sim.sample_initial.calls",
                   "experiments.report.bytes", "quantum_game.play.calls"),
    "mc-roundabout-replay": ("scenario_sim.run_episode.calls", "scenario_sim.steps",
                             "scenario_sim.driver_decisions.calls",
                             "experiments.episode_rng.calls", "experiments.report.bytes"),
    "sweep-u1": ("quantum_game.strategy_unitary.calls", "clinalg.kron.calls",
                 "quantum_game.outcome_probabilities.calls",
                 "classical_game.expected_payoff.calls", "quantum_game.sweep_csv.bytes"),
}
IDLE_ON_SWEEP = ("scenario_sim.run_episode.calls", "scenario_sim.steps",
                 "experiments.episode_rng.calls", "experiments.report.bytes")


def test_spec_matches_the_benchmark():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.match(metric["name"]), metric
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_present_and_nonzero(workload):
    outcome = run.run_one(workload, seed=5, seconds=0, trace=False, size=TINY[workload])
    assert outcome.correct, outcome.problems
    assert outcome.attempted >= run.MIN_RUNS + run.MIN_SETUP
    assert list(outcome.metrics) == list(run.END_TO_END)
    assert all(v > 0 for v in outcome.metrics.values()), outcome.metrics


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_metrics_present_on_the_workloads_they_apply_to(workload):
    outcome = run.run_one(workload, seed=5, seconds=0, trace=True, size=TINY[workload])
    assert outcome.correct, outcome.problems
    metrics = outcome.metrics
    assert list(metrics) == list(run.PER_LAYER)
    for name in BUSY[workload]:
        assert metrics[name] > 0, name
    if workload == "sweep-u1":
        for name in IDLE_ON_SWEEP:
            assert metrics[name] == 0, name
        assert metrics["clinalg.kron.calls"] == TINY[workload] ** 2
    else:
        outcomes = sum(metrics[f"experiments.outcomes.{k}"]
                       for k in ("collision", "success", "timeout"))
        assert outcomes == metrics["scenario_sim.run_episode.calls"] == 6 * TINY[workload]
    if workload == "mc-merging":
        assert 0 < metrics["scenario_sim.run_episode.distinct_frac"] <= 4 / 6
    if workload == "mc-roundabout-replay":
        assert metrics["scenario_sim.run_episode.distinct_frac"] == 1.0


def test_wrong_expected_value_fails_every_workload_run(monkeypatch):
    monkeypatch.setitem(run.MERGING_P00, "CG_MS", 0.9)
    outcome = run.run_one("mc-merging", seed=5, seconds=0, trace=False, size=TINY["mc-merging"])
    assert not outcome.correct
    assert outcome.failed == run.MIN_RUNS          # the set-up calls still pass
    assert outcome.failed / outcome.attempted > 0
    assert any("CG_MS" in p for p in outcome.problems)


def test_changing_counts_fail_the_determinism_check(monkeypatch):
    seen = []
    real = run.counts_of

    def drifting(stats):
        seen.append(1)
        return {**real(stats), "drift": len(seen)}

    monkeypatch.setattr(run, "counts_of", drifting)
    outcome = run.run_one("sweep-u1", seed=5, seconds=0, trace=True, size=5)
    assert not outcome.correct
    assert any("DETERMINISM CHECK FAILED" in p for p in outcome.problems)


def test_sweep_check_rejects_bad_rows():
    text = "\n".join([run.SWEEP_HEADER] + ["0.0,0.0,0.0,0.25,0.25,0.25,0.3,3.75,3.75"] * 4) + "\n"
    problems = run.check_sweep(text, "", 2)
    assert any("do not sum to 1" in p for p in problems)
    assert any("argmax" in p for p in problems)
    assert run.check_sweep(text.replace("gamma,", "g,", 1), "", 2)
    assert run.check_sweep(text + "1,2\n", "", 2)


def test_replay_check_rejects_rates_over_one():
    rows = [{"scenario": "roundabout", "method": m, "episodes": 10, "cr": 0.6, "sr": 0.5}
            for m in run.REPLAY_METHODS]
    assert len(run.check_replay(rows, 10)) == len(rows)
    assert run.check_replay(rows[:-1], 10)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-merging", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
