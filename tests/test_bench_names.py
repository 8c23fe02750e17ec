"""Every function bench/probe.py traces must exist in qgdrive, and a
traced sweep or Monte Carlo comparison must keep the call counts
bench/selftest.py asserts.

The probe skips a name it cannot find and reports it as zero calls, and
bench/selftest.py runs outside this suite, so a renamed or moved function
would otherwise drop out of the per-layer numbers without any test failing.
"""

import importlib
import importlib.util
import sys
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
# into quantum_game.final_states, and experiments.run_monte_carlo, the
# one-policy view, is run_comparison([spec], config)[0] (its span already
# read 0: run_comparison never called it, and run.py reads a missing span as 0)
GONE = {("clinalg", "apply"), ("experiments", "run_monte_carlo")}
TRACED = [name for name in (*PROBE.SPANS, *PROBE.COUNTERS) if name not in GONE]


@pytest.mark.parametrize("mod_name,fn_name", TRACED, ids=[".".join(n) for n in TRACED])
def test_traced_function_exists(mod_name, fn_name):
    module = importlib.import_module(f"qgdrive.{mod_name}")
    assert callable(getattr(module, fn_name, None))


def test_only_the_known_names_are_gone():
    assert GONE <= {*PROBE.SPANS, *PROBE.COUNTERS}
    for mod_name, fn_name in GONE:
        assert not hasattr(importlib.import_module(f"qgdrive.{mod_name}"), fn_name)


@pytest.fixture
def probe():
    """A probe installed on every qgdrive module, uninstalled afterwards."""
    importlib.import_module("qgdrive.cli")
    saved = [(module, dict(vars(module))) for name, module in list(sys.modules.items())
             if name == "qgdrive" or name.startswith("qgdrive.")]
    traced = PROBE.Probe()
    PROBE.install(traced)
    yield traced
    for module, attrs in saved:
        vars(module).update(attrs)


def test_traced_sweep_keeps_the_selftest_pins(probe, tmp_path):
    # mirrors bench/selftest.py's sweep-u1 pins (one kron per grid point, and
    # the circuit layer busy) until ROADMAP item 1 restates them there
    from qgdrive import cli

    argv = ["sweep", "--model", "qg-u1", "--gamma-points", "5", "--theta-points", "5",
            "--out", str(tmp_path / "sweep.csv")]
    assert cli.main(argv) == 0
    calls = probe.stats()["calls"]
    assert calls["clinalg.kron"] == 25
    for name in ("quantum_game.strategy_unitary", "quantum_game.outcome_probabilities",
                 "classical_game.expected_payoff"):
        assert calls[name] > 0, name


def _episode_pins(stats):
    """run_episode's calls, the sum of the outcome counts and distinct_frac,
    which bench/run.py computes as (calls - shareable + distinct) / calls."""
    calls = stats["calls"]["scenario_sim.run_episode"]
    unshared = calls - stats["shareable"] + stats["distinct"]
    return calls, sum(stats["outcomes"].values()), unshared / calls


def test_traced_merging_comparison_keeps_the_selftest_pins(probe, tmp_path):
    # mirrors bench/selftest.py's mc-merging pins: one run_episode call per
    # (policy, episode), each tallied once, policies sharing results, and
    # the stream and initial-state layers busy
    from qgdrive import cli, experiments

    episodes = 60
    argv = ["simulate", "--scenario", "merging",
            "--policies", "cg-epd,cg-ms,qg-u1-1,qg-u1-2,qg-g4,mobil",
            "--episodes", str(episodes), "--seed", "5", "--format", "json",
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    stats = probe.stats()
    calls, tallied, distinct_frac = _episode_pins(stats)
    assert calls == tallied == 6 * episodes
    assert 0 < distinct_frac <= 4 / 6
    # the stream and initial-state layers, busy once per chunk of episodes
    chunks = -(-episodes // experiments._CHUNK)
    assert stats["calls"]["experiments.episode_rng"] == chunks > 0
    assert stats["calls"]["scenario_sim.sample_initial"] == chunks


def test_traced_replay_comparison_keeps_the_selftest_pins(probe):
    # mirrors bench/selftest.py's mc-roundabout-replay pins, on the
    # comparison bench/replay.py runs: no two calls share a result, and
    # the stream layer is busy
    from qgdrive import classical_game, experiments, scenario_sim

    episodes = 40
    config = experiments.MonteCarloConfig(
        scenario_sim.builtin_scenario("roundabout", decision_replay=True),
        classical_game.builtin_game("roundabout"), episodes, 5)
    policies = ("cg-epd", "cg-ms", "qg-u1-1", "qg-u1-2", "qg-g4", "idm")
    experiments.run_comparison([experiments.PolicySpec(p, "uniform") for p in policies],
                               config)
    stats = probe.stats()
    calls, tallied, distinct_frac = _episode_pins(stats)
    assert calls == tallied == 6 * episodes
    assert distinct_frac == 1.0
    assert stats["calls"]["experiments.episode_rng"] == -(-episodes // experiments._CHUNK) > 0


@pytest.mark.parametrize("kind,name,rule", [
    ("roundabout", "idm", "idm_entry_decision"),
    ("merging", "mobil", "mobil_merge_decision"),
], ids=["roundabout-idm", "merging-mobil"])
def test_probe_counts_every_driver_decision(probe, monkeypatch, kind, name, rule):
    # the probe counts the rule wherever it is called: the start decisions
    # and every decision a replay callback re-takes
    from qgdrive import classical_game, experiments, scenario_sim

    replayed = []
    real = experiments.episode_decision

    def deciding(*args):
        start, decide = real(*args)

        def counted(*state):
            replayed.append(state)
            return decide(*state)

        return start, counted

    monkeypatch.setattr(experiments, "episode_decision", deciding)
    episodes = 5
    config = experiments.MonteCarloConfig(
        scenario_sim.builtin_scenario(kind, decision_replay=True),
        classical_game.builtin_game(kind), episodes, 7)
    experiments.run_comparison([experiments.PolicySpec(name)], config)
    assert replayed
    assert probe.stats()["calls"][f"scenario_sim.{rule}"] == episodes + len(replayed)


@pytest.mark.parametrize("name,gate,plays", [("qg-u1-1", "Z", 1), ("qg-g4", "uniform", 5)])
def test_probe_counts_every_law_played(probe, name, gate, plays):
    # experiments.POLICIES reaches quantum_game.play through experiments' own
    # name, so a law built once per run is counted once per circuit played
    from qgdrive import classical_game, experiments, scenario_sim

    config = experiments.MonteCarloConfig(
        scenario_sim.builtin_scenario("merging"), classical_game.builtin_game("merging"), 3, 7)
    experiments.run_comparison([experiments.PolicySpec(name, gate)], config)
    assert probe.stats()["calls"]["quantum_game.play"] == plays
